"""The paper's worked examples: their closed forms, and the reports that check the library against them.

Three parametrized families back the strictest regression tests: a banded
3x3 row Markov matrix with both an independent and a correlated expansion, a
pair of two-qubit states whose full statistics have closed forms, and a
tripartite qutrit pair probing the global Fourier transform.  Beside each
family's closed forms stands its report builder, which checks the library
against them; `REPORTS` lists the builders that the CLI's ``report`` verb
runs, with the parameters each reads.

The tripartite reference constants come in two flavours: full-precision
values (validated against an independent phase-sum evaluation) and
three-decimal reported values.  The reported matrix carries display error:
its first two columns are truncated to three decimals and its third column is
the row-sum complement of those truncations, so individual entries deviate
from the exact values by up to ~1.3e-3.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .markov import FunctionMap, correlation_coefficients, product_probabilities, scalar_product
from .quantum import GLOBAL, basis_state, dual_probabilities, pure_density, state_stats, tensor_stats


def _check(name: str, computed, expected, tol: float = 1e-12) -> dict:
    """A report's check: the library's value against the closed form, passing within `tol`."""
    computed = np.asarray(computed, dtype=float)
    expected = np.asarray(expected, dtype=float)
    err = float(np.abs(computed - expected).max())
    return {
        "name": name,
        "computed": computed if computed.ndim else float(computed),
        "expected": expected if expected.ndim else float(expected),
        "abs_err": err,
        "pass": bool(err <= tol),
    }


def _row_checks(row: dict, columns) -> list:
    """The checks of a table row: for each (name, values, key), ``values[row code]`` against ``row[key]``."""
    label = tuple(row["images"])
    return [_check(f"{name}{label}", values[row["code"]], row[key]) for name, values, key in columns]


# ---------------------------------------------------------------------------
# Banded 3x3 demo matrix and its two expansions
# ---------------------------------------------------------------------------

def demo_matrix(a: float, b: float) -> np.ndarray:
    """Banded row Markov matrix [[a, 1-a, 0], [0, a, 1-a], [0, 1-b, b]]."""
    if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
        raise ValidationError("demo matrix requires a, b in [0, 1]")
    return np.array([[a, 1 - a, 0.0], [0.0, a, 1 - a], [0.0, 1 - b, b]])


def demo_correlated_tensor(a: float, b: float) -> np.ndarray:
    """Correlated expansion of the demo matrix: weights a, b - a, 1 - b.

    Mass a on the identity sequence (0, 1, 2), b - a on (1, 2, 2) and 1 - b
    on (1, 2, 1); requires a <= b so the middle weight is a probability.
    Marginalizing this tensor recovers ``demo_matrix(a, b)``.
    """
    if not (0.0 <= a <= b <= 1.0):
        raise ValidationError("correlated demo tensor requires 0 <= a <= b <= 1")
    t = np.zeros(27)
    t[FunctionMap((0, 1, 2)).code] = a
    t[FunctionMap((1, 2, 2)).code] = b - a
    t[FunctionMap((1, 2, 1)).code] = 1 - b
    return t


def demo_table_rows(a: float, b: float) -> list[dict]:
    """The 8 support rows of the demo expansions, with closed-form columns.

    Each row carries the map images, its code, the independent product weight,
    the correlated joint weight, and the correlation coefficient (joint minus
    product).
    """
    products = {
        (0, 1, 1): a**2 * (1 - b),
        (0, 1, 2): a**2 * b,
        (1, 1, 1): a * (1 - a) * (1 - b),
        (1, 1, 2): a * (1 - a) * b,
        (0, 2, 1): a * (1 - a) * (1 - b),
        (0, 2, 2): a * (1 - a) * b,
        (1, 2, 1): (1 - a) ** 2 * (1 - b),
        (1, 2, 2): (1 - a) ** 2 * b,
    }
    joints = {(0, 1, 2): a, (1, 2, 2): b - a, (1, 2, 1): 1 - b}
    rows = []
    for images, product in products.items():
        joint = joints.get(images, 0.0)
        rows.append(
            {
                "images": list(images),
                "code": FunctionMap(images).code,
                "product_probability": product,
                "joint_probability": joint,
                "correlation": joint - product,
            }
        )
    return rows


def demo_self_overlap(a: float, b: float) -> float:
    """Closed form of the demo matrix's scalar product with itself."""
    return (2 * a**2 - 2 * a + 1) ** 2 * (2 * b**2 - 2 * b + 1)


def demo_gini_vector(a: float, b: float) -> np.ndarray:
    """Closed-form local Gini vector of the demo matrix (a <= 1/2, b <= 1/2)."""
    return np.array([(1 - a) / 2, (1 - a) / 2, (1 - b) / 2])


def demo_total_gini(a: float, b: float) -> float:
    """Closed-form total Gini of the correlated demo tensor.

    Valid in the region 0 <= 2a <= b <= 1/2, where the three weights are
    already in ascending order a <= b - a <= 1 - b.
    """
    if not 0.0 <= 2 * a <= b <= 0.5:
        raise ValidationError("total Gini closed form needs 0 <= 2a <= b <= 1/2")
    return (13 - a - b) / 14.0


def _table1(a: float, b: float) -> tuple[dict, list]:
    """Both expansions of the demo matrix against `demo_table_rows`, and no product weight off its support."""
    weights = product_probabilities(demo_matrix(a, b))
    tensor = demo_correlated_tensor(a, b)
    columns = [
        ("product", weights, "product_probability"),
        ("joint", tensor, "joint_probability"),
        ("correlation", correlation_coefficients(tensor), "correlation"),
    ]
    rows = demo_table_rows(a, b)
    checks = [check for row in rows for check in _row_checks(row, columns)]
    support = {row["code"] for row in rows}
    off_support = [w for c, w in enumerate(weights) if c not in support]
    checks.append(_check("off_support_products", max(off_support), 0.0))
    return {"a": a, "b": b, "rows": rows}, checks


# ---------------------------------------------------------------------------
# Two-qubit states with closed-form statistics
# ---------------------------------------------------------------------------

def pair_state(a: complex, b: complex) -> np.ndarray:
    """Two-qubit pure state a|0,0> + b|1,1> as an amplitude vector."""
    psi = np.zeros(4, dtype=complex)
    psi[0], psi[3] = a, b
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-9:
        raise ValidationError("|a|^2 + |b|^2 must be 1")
    return psi


def triple_state(c: complex, d: complex, e: complex) -> np.ndarray:
    """Two-qubit pure state c|0,0> + d|1,0> + e|0,1> as an amplitude vector."""
    psi = np.zeros(4, dtype=complex)
    psi[0], psi[1], psi[2] = c, d, e
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-9:
        raise ValidationError("|c|^2 + |d|^2 + |e|^2 must be 1")
    return psi


def pair_expected(a2: float) -> dict:
    """Closed-form statistics of the pair state, as functions of |a|^2.

    Gini values assume |a| < |b| (a2 < 1/2).  Tensor entries are listed in
    code order (0,0), (1,0), (0,1), (1,1).
    """
    b2 = 1.0 - a2
    return {
        "markov": np.array([[a2, b2], [a2, b2]]),
        "tensor": np.array([a2, 0.0, 0.0, b2]),
        "products": np.array([a2 * a2, b2 * a2, a2 * b2, b2 * b2]),
        "correlations": np.array([a2 * b2, -a2 * b2, -a2 * b2, a2 * b2]),
        "gini_vector": np.array([(1 - 2 * a2) / 3, (1 - 2 * a2) / 3]),
        "total_gini": (3 - 2 * a2) / 5,
        "self_overlap": (a2**2 + b2**2) ** 2,
    }


def triple_expected(c2: float, d2: float, e2: float) -> dict:
    """Closed-form statistics of the triple state, as functions of moduli squared.

    Gini values assume |e| < |d| < |c|.  Row i of the Markov matrix is the
    marginal of component i, so row 0 is (|c|^2 + |e|^2, |d|^2).
    """
    return {
        "markov": np.array([[c2 + e2, d2], [c2 + d2, e2]]),
        "tensor": np.array([c2, d2, e2, 0.0]),
        "products": np.array(
            [(c2 + e2) * (c2 + d2), d2 * (c2 + d2), (c2 + e2) * e2, d2 * e2]
        ),
        "correlations": np.array([-e2 * d2, e2 * d2, e2 * d2, -e2 * d2]),
        "gini_vector": np.array([(1 - 2 * d2) / 3, (1 - 2 * e2) / 3]),
        "total_gini": (3 - 4 * e2 - 2 * d2) / 5,
        "self_overlap": ((c2 + d2) ** 2 + e2**2) * ((c2 + e2) ** 2 + d2**2),
    }


def pair_triple_overlap(a2: float, c2: float, d2: float, e2: float) -> float:
    """Closed-form scalar product between the pair and triple states."""
    b2 = 1.0 - a2
    return a2 * (a2 * c2 + b2 - b2 * c2) + e2 * d2 * (a2 - b2) ** 2


def _two_qubit_states(a2: float, c2: float, d2: float, e2: float) -> dict:
    """Each state's statistics and closed forms, by name, on the domain where the closed forms hold."""
    if not 0.0 < a2 < 0.5:
        raise ValidationError("--a2 must lie in (0, 1/2) so |a| < |b|")
    if abs((c2 + d2 + e2) - 1.0) > 1e-9:
        raise ValidationError("--c2 + --d2 + --e2 must sum to 1")
    if not 0.0 < e2 < d2 < c2:
        raise ValidationError("need 0 < e2 < d2 < c2")
    pair = pair_state(np.sqrt(a2), np.sqrt(1 - a2))
    triple = triple_state(np.sqrt(c2), np.sqrt(d2), np.sqrt(e2))
    return {
        "pair": (state_stats(pair), pair_expected(a2)),
        "triple": (state_stats(triple), triple_expected(c2, d2, e2)),
    }


def _table2(a2: float, c2: float, d2: float, e2: float) -> tuple[dict, list]:
    """Each state's joint, product and correlation columns, one row per map, each row checked as it is made."""
    columns = [  # (row key and check name, the library's values, the closed forms)
        (f"{name}_{column}", getattr(stats, field), closed[field])
        for name, (stats, closed) in _two_qubit_states(a2, c2, d2, e2).items()
        for column, field in (("joint", "tensor"), ("product", "products"), ("correlation", "correlations"))
    ]
    checked = [(key, values, key) for key, values, _ in columns]
    rows, checks = [], []
    for images in ((0, 0), (0, 1), (1, 0), (1, 1)):
        code = FunctionMap(images).code
        rows.append({"images": list(images), "code": code, **{key: closed[code] for key, _, closed in columns}})
        checks += _row_checks(rows[-1], checked)
    return {"a2": a2, "c2": c2, "d2": d2, "e2": e2, "rows": rows}, checks


def _section84(a2: float, c2: float, d2: float, e2: float) -> tuple[dict, list]:
    """Each state's Markov matrix, Gini values and self-overlap, and the overlap of the two."""
    states = _two_qubit_states(a2, c2, d2, e2)
    checks = [
        _check(f"{name}_{field}", getattr(stats, field), closed[field])
        for field in ("markov", "gini_vector", "total_gini")
        for name, (stats, closed) in states.items()
    ]
    markov = {name: stats.markov for name, (stats, _) in states.items()}
    checks += [_check(f"{name}_self_overlap", scalar_product(m, m), states[name][1]["self_overlap"])
               for name, m in markov.items()]
    overlap = scalar_product(markov["pair"], markov["triple"])
    checks.append(_check("pair_triple_overlap", overlap, pair_triple_overlap(a2, c2, d2, e2)))
    return {"a2": a2, "c2": c2, "d2": d2, "e2": e2}, checks


# ---------------------------------------------------------------------------
# Tripartite qutrit pair probing the global transform
# ---------------------------------------------------------------------------

#: Component tuples of the three basis kets in the tripartite demo states.
TRIPARTITE_TUPLES = ((0, 0, 0), (0, 1, 1), (1, 2, 2))


def tripartite_pure_state() -> np.ndarray:
    """Equal superposition of the three tripartite basis kets (entangled)."""
    kets = [basis_state(FunctionMap(t)) for t in TRIPARTITE_TUPLES]
    return sum(kets) / np.sqrt(3.0)


def tripartite_mixed_state() -> np.ndarray:
    """Equal mixture of the same three kets: identical plain statistics,
    but globally dual statistics become exactly uniform."""
    return sum(pure_density(basis_state(FunctionMap(t))) for t in TRIPARTITE_TUPLES) / 3.0


#: Globally dual Markov matrix of the pure tripartite state, full precision.
TRIPARTITE_DUAL_MARKOV = np.array(
    [
        [1 / 3, 1 / 3, 1 / 3],
        [0.394544579432079, 0.322021952246953, 0.283433468320968],
        [0.325881379434271, 0.422311315205531, 0.251807305360197],
    ]
)

#: Globally dual Gini vector of the pure tripartite state, full precision.
TRIPARTITE_DUAL_GINI_VECTOR = np.array([0.0, 0.055555555555556, 0.085252004922667])

#: Globally dual total Gini of the pure tripartite state, full precision.
TRIPARTITE_DUAL_TOTAL_GINI = 0.430733981917601

#: Three-decimal reported reference for the same quantities (rows in library
#: component order).  Matrix columns 0-1 are truncated, column 2 is the
#: row-sum complement of the truncations; entries deviate from the exact
#: values by up to ~1.3e-3.
REPORTED_DUAL_MARKOV = np.array(
    [
        [1 / 3, 1 / 3, 1 / 3],
        [0.394, 0.322, 0.284],
        [0.325, 0.422, 0.253],
    ]
)
REPORTED_DUAL_GINI_VECTOR = np.array([0.0, 0.055, 0.085])
REPORTED_DUAL_TOTAL_GINI = 0.430

#: Tolerance for comparisons against rounded three-decimal values.
STRICT_DISPLAY_TOL = 5e-4

#: Tolerance that covers the truncation-plus-complement display error.
DISPLAY_TOL = 1.25e-3


def _section9() -> tuple[dict, list]:
    """The pure state's global dual against the reported and the full-precision values, and the mixed state's."""
    # the pure state as its density: the ket's route moves the last bits of the reported values
    pure = tensor_stats(dual_probabilities(pure_density(tripartite_pure_state()), GLOBAL))
    mixed = tensor_stats(dual_probabilities(tripartite_mixed_state(), GLOBAL))

    def reported_check(name, computed, reported):
        check = _check(name, computed, reported, DISPLAY_TOL)
        check["pass_strict"] = bool(check["abs_err"] <= STRICT_DISPLAY_TOL)
        return check

    checks = [
        reported_check("dual_markov", pure.markov, REPORTED_DUAL_MARKOV),
        reported_check("dual_gini_vector", pure.gini_vector, REPORTED_DUAL_GINI_VECTOR),
        reported_check("dual_total_gini", pure.total_gini, REPORTED_DUAL_TOTAL_GINI),
        _check("full_precision_dual_markov", pure.markov, TRIPARTITE_DUAL_MARKOV),
        _check("full_precision_dual_gini_vector", pure.gini_vector, TRIPARTITE_DUAL_GINI_VECTOR),
        _check("full_precision_dual_total_gini", pure.total_gini, TRIPARTITE_DUAL_TOTAL_GINI),
        _check("mixed_dual_markov_uniform", mixed.markov, np.full((3, 3), 1 / 3)),
        _check("mixed_dual_gini_vector", mixed.gini_vector, np.zeros(3)),
        _check("mixed_dual_total_gini", mixed.total_gini, 0.0),
    ]
    fields = {"dual_markov": pure.markov, "dual_gini_vector": pure.gini_vector, "dual_total_gini": pure.total_gini}
    return fields, checks


_TWO_QUBIT = {"a2": 0.3, "c2": 0.5, "d2": 0.3, "e2": 0.2}

#: Each report by name: its builder, which returns the report's fields and
#: checks, and the parameters the builder reads, with their defaults.
REPORTS = {
    "table1": (_table1, {"a": 0.2, "b": 0.45}),
    "table2": (_table2, _TWO_QUBIT),
    "section84": (_section84, _TWO_QUBIT),
    "section9": (_section9, {}),
}
