"""Command-line front end: JSON in, JSON or CSV out, one verb per concept.

Every output echoes the seed, and identical argv produce byte-identical
output.  Exit codes: 0 success, 1 validation error, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import gc
import itertools
import json
import math
import operator
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import ensembles, eta, markov, probvec, quantum, reference
from .errors import GiniSafeError, ValidationError


class _UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# Payload parsing
# ---------------------------------------------------------------------------

def _parse_json(text: str):
    """Decode a payload with the cyclic collector paused.

    A decoded payload is a tree of lists, dicts and scalars with no cycles, so
    the collector's passes over its fresh lists (65,536 pairs for a d = 4
    density) would find nothing.  The caller's GC state is restored.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON payload: {exc}") from None
    finally:
        if enabled:
            gc.enable()


def _payloads(args, attr: str, count: int) -> list:
    """Collect `count` payloads from repeated inline flags or --input."""
    raw = getattr(args, attr, None) or []
    payloads = [_parse_json(text) for text in raw]
    if not payloads and getattr(args, "input", None):
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise _UsageError(f"cannot read --input file {args.input!r}: {exc}") from None
        loaded = _parse_json(text)
        if count > 1:
            # every valid payload is a sequence or object, never a bare number
            if (
                not isinstance(loaded, list)
                or len(loaded) != count
                or any(isinstance(v, (int, float)) for v in loaded)
            ):
                raise _UsageError(
                    f"--input file must hold a list of {count} payloads for this command"
                )
            payloads = loaded
        else:
            payloads = [loaded]
    if len(payloads) != count:
        flag = attr.replace("_", "-")
        raise _UsageError(
            f"expected {count} --{flag} payload(s) (or --input), got {len(payloads)}"
        )
    return payloads


def _as_vector(payload):
    if isinstance(payload, dict):
        payload = payload.get("vector")
        if payload is None:
            raise ValidationError("object payload has no 'vector' field")
    return payload


def _as_matrix(payload):
    if isinstance(payload, dict):
        payload = payload.get("matrix")
        if payload is None:
            raise ValidationError("object payload has no 'matrix' field")
    return payload


def _as_tensor(payload):
    if isinstance(payload, dict):
        if "weights" in payload:
            payload = payload["weights"]
        elif "tensor" in payload:
            payload = payload["tensor"]
        elif "terms" in payload and "d" in payload:
            return _sparse_tensor(payload["d"], payload["terms"])
        else:
            raise ValidationError("object payload has no 'weights'/'tensor'/'terms' field")
    return payload


def _as_index(value, what: str) -> int:
    """A JSON integer (or integral float); bools and fractions name `what` in the error."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValidationError(f"{what} must be an integer, got {value!r}")


def _sparse_tensor(d, terms) -> np.ndarray:
    """Dense weights from ``{"d", "terms": [{"code", "weight"}, ...]}``.

    `d` is checked against the enumeration cap before d**d is formed, and
    every code against [0, d**d) and the earlier codes before anything is
    written, so a bad payload allocates nothing.
    """
    d = _as_index(d, "sparse tensor 'd'")
    if not 1 <= d <= markov.MAX_ENUMERATION_D:
        raise ValidationError(
            f"sparse tensor 'd' = {d} outside [1, {markov.MAX_ENUMERATION_D}]"
        )
    if not isinstance(terms, list):
        raise ValidationError("sparse tensor 'terms' must be a list of {code, weight} objects")
    size = d**d
    codes, weights = {}, []
    for i, term in enumerate(terms):
        if not isinstance(term, dict):
            raise ValidationError(f"terms[{i}] must be an object with 'code' and 'weight'")
        for field in ("code", "weight"):
            if field not in term:
                raise ValidationError(f"terms[{i}] has no '{field}' field")
        code = _as_index(term["code"], f"terms[{i}].code")
        if not 0 <= code < size:
            raise ValidationError(f"terms[{i}].code = {code} outside [0, {size}) for d = {d}")
        if code in codes:
            raise ValidationError(f"terms[{i}].code = {code} repeats terms[{codes[code]}].code")
        codes[code] = i
        try:
            weights.append(float(term["weight"]))
        except (TypeError, ValueError):
            raise ValidationError(
                f"terms[{i}].weight must be a number, got {term['weight']!r}"
            ) from None
    dense = np.zeros(size)
    dense[list(codes)] = weights
    return dense


def _as_ensemble(payload) -> ensembles.EnsembleSpec:
    if not isinstance(payload, dict) or "kind" not in payload:
        raise ValidationError("ensemble payload must be an object with a 'kind' field")
    kind = payload["kind"]
    if kind == ensembles.INDEPENDENT:
        return ensembles.EnsembleSpec.independent(_as_matrix(payload))
    if kind == ensembles.CORRELATED:
        return ensembles.EnsembleSpec.correlated(_as_tensor(payload))
    raise ValidationError(f"unknown ensemble kind {kind!r}")


def _complex_pairs(entries, n: int, what: str) -> np.ndarray:
    """`n` complex numbers from a list of `n` [re, im] pairs, converted in one pass.

    Each item must be a list of two (a string such as "12" also has length
    two); the values then convert as under ``np.asarray(..., dtype=float)``.
    """
    error = ValidationError(f"{what} must be a list of {n} [re, im] pairs of finite numbers")
    if (
        not isinstance(entries, list)
        or len(entries) != n
        or set(map(type, entries)) != {list}
        or set(map(len, entries)) != {2}
    ):
        raise error
    try:
        arr = np.fromiter(itertools.chain.from_iterable(entries), float, 2 * n)
    except (TypeError, ValueError, OverflowError):  # non-numbers, or ints beyond float
        raise error from None
    if not np.isfinite(arr).all():
        raise error
    return arr[0::2] + 1j * arr[1::2]


#: Largest state dimension: d**d for d = quantum.MAX_COMPONENTS.
_MAX_STATE_DIM = quantum.MAX_COMPONENTS**quantum.MAX_COMPONENTS


def _state_dim(payload) -> int:
    dim = _as_index(payload.get("dim"), "state 'dim'")
    if not 1 <= dim <= _MAX_STATE_DIM:
        raise ValidationError(
            f"state 'dim' = {dim} outside [1, {_MAX_STATE_DIM}] "
            f"(d**d for d <= {quantum.MAX_COMPONENTS})"
        )
    return dim


def _as_state(payload, repair: bool = False) -> np.ndarray:
    """Parse a density matrix, pure state, or labelled basis ket into a density.

    The size (`dim`, or the number of `images`) is checked before any
    dim x dim array is formed.
    """
    if isinstance(payload, dict) and "state" in payload:
        payload = payload["state"]
    if not isinstance(payload, dict):
        raise ValidationError("state payload must be a JSON object")
    if "entries" in payload:
        dim = _state_dim(payload)
        flat = _complex_pairs(payload["entries"], dim * dim, "density entries")
        rho = flat.reshape(dim, dim)
        return quantum.validate_density_matrix(rho, repair=repair)
    if "amplitudes" in payload:
        dim = _state_dim(payload)
        psi = _complex_pairs(payload["amplitudes"], dim, "amplitudes")
        norm = np.linalg.norm(psi)
        if abs(norm - 1.0) > 1e-6:
            raise ValidationError(f"amplitudes have norm {norm:.6g}, not 1")
        return quantum.pure_density(psi / norm)
    if "images" in payload:
        images = payload["images"]
        if not isinstance(images, list) or not 1 <= len(images) <= quantum.MAX_COMPONENTS:
            raise ValidationError(
                f"state 'images' must be a list of 1 to {quantum.MAX_COMPONENTS} integers"
            )
        f = markov.FunctionMap(tuple(_as_index(v, f"images[{i}]") for i, v in enumerate(images)))
        return quantum.pure_density(quantum.basis_state(f))
    raise ValidationError("state payload needs 'entries', 'amplitudes' or 'images'")


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def _pyify(obj):
    """Plain Python values for `obj`: the CSV normaliser, and the writer's test oracle."""
    if isinstance(obj, dict):
        return {k: _pyify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_pyify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_pyify(v) for v in obj.tolist()]
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


# The JSON writer below renders a handler's dict, numpy values included, to
# the bytes of ``json.dumps(_pyify(out), indent=2)`` without the copy and
# without json's pure-Python indenting encoder.

_BOOL_STR = {True: "true", False: "false"}


def _float_str(x: float) -> str:
    """A float as json spells it: NaN and the infinities by their JavaScript names."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _key_str(key) -> str:
    """A dict key as json spells it: a str, or an int, float, bool or None in quotes."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if key is None or isinstance(key, (int, float)):
        return '"' + _render(key, "") + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _array_items(a: np.ndarray) -> list:
    """The items `_pyify` makes of an array, complex entries as [re, im] pairs.

    ``list()`` of a 0-d array's scalar raises TypeError, as `_pyify` does.
    """
    if a.ndim and a.dtype.kind == "c":
        a = np.stack((a.real, a.imag), axis=-1)
    return list(a.tolist())


def _render(obj, pad: str) -> str:
    """One value as ``json.dumps(_pyify(obj), indent=2)`` spells it at indent `pad`."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True or obj is False:
        return _BOOL_STR[obj]
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _float_str(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + "  "
        keys = map(_key_str, obj)
        values = _render_items(list(obj.values()), inner)
        return "{" + inner + ("," + inner).join(map("{}: {}".format, keys, values)) + pad + "}"
    if isinstance(obj, (list, tuple)):
        return _render_list(obj, pad)
    if isinstance(obj, np.ndarray):
        return _render_list(_array_items(obj), pad)
    if isinstance(obj, (complex, np.complexfloating)):
        return _render_list([float(obj.real), float(obj.imag)], pad)
    if isinstance(obj, np.floating):
        return _float_str(float(obj))
    if isinstance(obj, np.integer):
        return int.__repr__(int(obj))
    if isinstance(obj, np.bool_):
        return _BOOL_STR[bool(obj)]
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def _render_list(items, pad: str) -> str:
    if not items:
        return "[]"
    inner = pad + "  "
    return "[" + inner + ("," + inner).join(_render_items(items, inner)) + pad + "]"


def _render_items(values, pad: str) -> list:
    """Render every value at indent `pad`, a whole column at a time where types agree.

    Plain floats, ints and strings map in one pass.  Lists of one length are
    flattened, rendered as one column and regrouped.  Dicts with the same str
    keys are rendered one key column at a time and stitched by a template.
    Anything else goes through `_render` one value at a time.
    """
    kinds = set(map(type, values))
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind is float:
        if math.isfinite(sum(values)):  # any NaN or infinity makes the sum non-finite
            return list(map(float.__repr__, values))
        return list(map(_float_str, values))
    if kind is int:
        return list(map(int.__repr__, values))
    if kind is str:
        return list(map(encode_basestring_ascii, values))
    if kind is list or kind is tuple:
        sizes = set(map(len, values))
        if len(sizes) == 1:
            size = sizes.pop()
            if not size:
                return ["[]"] * len(values)
            inner = pad + "  "
            flat = _render_items(list(itertools.chain.from_iterable(values)), inner)
            wrap = ("[" + inner + "%s" + pad + "]").__mod__
            return list(map(wrap, map(("," + inner).join, zip(*[iter(flat)] * size))))
    if kind is dict:
        shapes = set(map(tuple, values))
        keys = shapes.pop() if len(shapes) == 1 else None
        if keys is not None and all(type(k) is str for k in keys):
            if not keys:
                return ["{}"] * len(values)
            inner = pad + "  "
            columns = [_render_items(list(map(operator.itemgetter(k), values)), inner) for k in keys]
            fields = (encode_basestring_ascii(k).replace("%", "%%") + ": %s" for k in keys)
            template = "{" + inner + ("," + inner).join(fields) + pad + "}"
            return list(map(template.__mod__, zip(*columns)))
    return [_render(v, pad) for v in values]


def _dumps(obj) -> str:
    """``json.dumps(_pyify(obj), indent=2)`` in one pass, numpy values included."""
    return _render(obj, "\n")


def _fmt_csv_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _flatten(obj, prefix: str = ""):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _flatten(v, f"{prefix}.{k}" if prefix else str(k))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _flatten(v, f"{prefix}[{i}]")
    else:
        yield prefix, obj


def _emit(out: dict, args) -> None:
    if args.format == "json":
        text = _dumps(out) + "\n"
    else:
        lines = ["key,value"]
        for key, value in _flatten(_pyify(out)):
            lines.append(f"{key},{_fmt_csv_value(value)}")
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _serialize_density(rho: np.ndarray) -> dict:
    """Row-major entries; the writer spells each complex entry as [re, im]."""
    return {"dim": rho.shape[0], "entries": rho.ravel()}


def _serialize_pure(psi: np.ndarray) -> dict:
    return {"dim": psi.size, "amplitudes": psi}


# ---------------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------------

def cmd_validate(args) -> dict:
    x = probvec.validate_prob_vector(_as_vector(_payloads(args, "vector", 1)[0]), args.tol)
    return {"command": "validate", "seed": args.seed, "d": x.size, "vector": x}


def cmd_lorenz(args) -> dict:
    x = probvec.validate_prob_vector(_as_vector(_payloads(args, "vector", 1)[0]), args.tol)
    return {
        "command": "lorenz",
        "seed": args.seed,
        "d": x.size,
        "lorenz": probvec.lorenz_values(x),
        "ordering": probvec.ordering_permutation(x),
    }


def cmd_gini(args) -> dict:
    x = probvec.validate_prob_vector(_as_vector(_payloads(args, "vector", 1)[0]), args.tol)
    lo, hi = probvec.average_bounds(x)
    return {
        "command": "gini",
        "seed": args.seed,
        "d": x.size,
        "gini": probvec.gini_index(x),
        "gini_mean_abs_diff": probvec.gini_mean_abs_diff(x),
        "average_bounds": [lo, hi],
    }


def cmd_majorize(args) -> dict:
    payloads = _payloads(args, "vector", 2)
    x = probvec.validate_prob_vector(_as_vector(payloads[0]), args.tol)
    y = probvec.validate_prob_vector(_as_vector(payloads[1]), args.tol)
    return {
        "command": "majorize",
        "seed": args.seed,
        "relation": probvec.majorizes(x, y).value,
    }


def cmd_expand(args) -> dict:
    q = markov.validate_row_markov(_as_matrix(_payloads(args, "matrix", 1)[0]), args.tol)
    weights = markov.product_probabilities(q)
    d = q.shape[0]
    images = markov.function_table(d).tolist()
    terms = [
        {"code": code, "images": images[code], "weight": w}
        for code, w in enumerate(weights.tolist())
        if w >= args.floor
    ]
    return {
        "command": "expand",
        "seed": args.seed,
        "d": d,
        "weights": weights,
        "terms": terms,
    }


def cmd_scalar_product(args) -> dict:
    n_mat = len(args.matrix or [])
    n_ten = len(args.tensor or [])
    if n_mat and n_ten:
        raise _UsageError("pass two --matrix or two --tensor payloads, not both kinds")
    if n_ten or (not n_mat and args.input and args.tensors):
        tq, tp = (_as_tensor(p) for p in _payloads(args, "tensor", 2))
        tq = markov.validate_markov_tensor(tq, args.tol)
        tp = markov.validate_markov_tensor(tp, args.tol)
        value = markov.scalar_product_via_tensors(
            tq, tp, verify_product_form=args.verify_product_form, tol=args.tol
        )
        method = "tensors"
    else:
        q, p = (_as_matrix(x) for x in _payloads(args, "matrix", 2))
        q = markov.validate_row_markov(q, args.tol)
        p = markov.validate_row_markov(p, args.tol)
        value = markov.scalar_product(q, p)
        method = "direct"
    return {"command": "scalar-product", "seed": args.seed, "method": method, "value": value}


def cmd_correlations(args) -> dict:
    t = markov.validate_markov_tensor(_as_tensor(_payloads(args, "tensor", 1)[0]), args.tol)
    coeffs = markov.correlation_coefficients(t)
    d = markov.tensor_dimension(t.size)
    images = markov.function_table(d).tolist()
    terms = [
        {"code": code, "images": images[code], "coefficient": c}
        for code, c in enumerate(coeffs.tolist())
        if abs(c) >= args.floor
    ]
    return {
        "command": "correlations",
        "seed": args.seed,
        "d": d,
        "coefficients": coeffs,
        "terms": terms,
    }


def cmd_simulate(args) -> dict:
    spec = _as_ensemble(_payloads(args, "ensemble", 1)[0])
    rng = ensembles.make_rng(args.seed)
    weights = ensembles.empirical_tensor(spec, args.n, rng)
    return {
        "command": "simulate",
        "seed": args.seed,
        "n": args.n,
        "d": spec.d,
        "weights": weights,
    }


def cmd_collision(args) -> dict:
    payloads = _payloads(args, "ensemble", 2)
    a = _as_ensemble(payloads[0])
    b = _as_ensemble(payloads[1])
    rng = ensembles.make_rng(args.seed)
    est = ensembles.collision_probability_mc(a, b, args.n, rng)
    return {
        "command": "collision",
        "seed": args.seed,
        "value": est.value,
        "stderr": est.stderr,
        "n": est.n,
    }


def _stats_dict(stats: quantum.StateStats) -> dict:
    return {
        "markov": stats.markov,
        "tensor": stats.tensor,
        "products": stats.products,
        "correlations": stats.correlations,
        "gini_vector": stats.gini_vector,
        "total_gini": stats.total_gini,
    }


def cmd_quantum_stats(args) -> dict:
    rho = _as_state(_payloads(args, "state", 1)[0], repair=args.repair)
    stats = quantum.state_stats(rho)
    return {
        "command": "quantum-stats",
        "seed": args.seed,
        "d": stats.d,
        "dim": rho.shape[0],
        **_stats_dict(stats),
    }


def cmd_dual(args) -> dict:
    rho = _as_state(_payloads(args, "state", 1)[0], repair=args.repair)
    dual = quantum.dual_state(rho, args.mode)
    out = {
        "command": "dual",
        "seed": args.seed,
        "mode": args.mode,
        "state": _serialize_density(dual),
    }
    if args.mode == quantum.SINGLE:
        probs = np.clip(np.real(np.diag(dual)), 0.0, None)
        probs = probs / probs.sum()
        out["probabilities"] = probs
        out["gini"] = probvec.gini_index(probs)
    else:
        out.update(_stats_dict(quantum.state_stats(dual)))
    return out


def cmd_deficits(args) -> dict:
    rho = _as_state(_payloads(args, "state", 1)[0], repair=args.repair)
    d = quantum.local_dimension(rho.shape[0])
    deficits = quantum.uncertainty_deficits(rho)
    return {
        "command": "deficits",
        "seed": args.seed,
        "d": d,
        "local_components": deficits.local_components,
        "local_total": deficits.local_total,
        "global_components": deficits.global_components,
        "global_total": deficits.global_total,
    }


def cmd_eta(args) -> dict:
    est = eta.estimate_eta(args.d, args.mode, args.budget, seed=args.seed)
    return {
        "command": "eta",
        "seed": args.seed,
        "d": est.d,
        "mode": est.mode,
        "budget": args.budget,
        "evaluations": est.evaluations,
        "best_sum": est.best_sum,
        "eta_upper": est.eta_upper,
        "best_state": _serialize_pure(est.best_state),
    }


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def _check(name: str, computed, expected, tol: float) -> dict:
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


def _report_table1(args) -> tuple[dict, list]:
    a, b = args.a, args.b
    q = reference.demo_matrix(a, b)
    weights = markov.product_probabilities(q)
    tensor = reference.demo_correlated_tensor(a, b)
    coeffs = markov.correlation_coefficients(tensor)
    checks = []
    for row in reference.demo_table_rows(a, b):
        code = row["code"]
        checks.append(_check(f"product{tuple(row['images'])}", weights[code], row["product_probability"], 1e-12))
        checks.append(_check(f"joint{tuple(row['images'])}", tensor[code], row["joint_probability"], 1e-12))
        checks.append(_check(f"correlation{tuple(row['images'])}", coeffs[code], row["correlation"], 1e-12))
    support = {row["code"] for row in reference.demo_table_rows(a, b)}
    off_support = [w for c, w in enumerate(weights) if c not in support]
    checks.append(_check("off_support_products", max(off_support), 0.0, 1e-12))
    return {"a": a, "b": b, "rows": reference.demo_table_rows(a, b)}, checks


def _two_qubit_states(args):
    a2, c2, d2, e2 = args.a2, args.c2, args.d2, args.e2
    if not 0.0 < a2 < 0.5:
        raise ValidationError("--a2 must lie in (0, 1/2) so |a| < |b|")
    if abs((c2 + d2 + e2) - 1.0) > 1e-9:
        raise ValidationError("--c2 + --d2 + --e2 must sum to 1")
    if not 0.0 < e2 < d2 < c2:
        raise ValidationError("need 0 < e2 < d2 < c2")
    pair = quantum.pure_density(reference.pair_state(np.sqrt(a2), np.sqrt(1 - a2)))
    triple = quantum.pure_density(
        reference.triple_state(np.sqrt(c2), np.sqrt(d2), np.sqrt(e2))
    )
    return pair, triple


def _report_table2(args) -> tuple[dict, list]:
    a2, c2, d2, e2 = args.a2, args.c2, args.d2, args.e2
    pair, triple = _two_qubit_states(args)
    stats_pair = quantum.state_stats(pair)
    stats_triple = quantum.state_stats(triple)
    checks = []
    for row in reference.two_qubit_table_rows(a2, c2, d2, e2):
        code = row["code"]
        label = tuple(row["images"])
        for prefix, stats in (("pair", stats_pair), ("triple", stats_triple)):
            checks.append(_check(f"{prefix}_joint{label}", stats.tensor[code], row[f"{prefix}_joint"], 1e-12))
            checks.append(_check(f"{prefix}_product{label}", stats.products[code], row[f"{prefix}_product"], 1e-12))
            checks.append(_check(f"{prefix}_correlation{label}", stats.correlations[code], row[f"{prefix}_correlation"], 1e-12))
    rows = reference.two_qubit_table_rows(a2, c2, d2, e2)
    return {"a2": a2, "c2": c2, "d2": d2, "e2": e2, "rows": rows}, checks


def _report_section84(args) -> tuple[dict, list]:
    a2, c2, d2, e2 = args.a2, args.c2, args.d2, args.e2
    pair, triple = _two_qubit_states(args)
    stats_pair = quantum.state_stats(pair)
    stats_triple = quantum.state_stats(triple)
    expected_pair = reference.pair_expected(a2)
    expected_triple = reference.triple_expected(c2, d2, e2)
    checks = [
        _check("pair_markov", stats_pair.markov, expected_pair["markov"], 1e-12),
        _check("triple_markov", stats_triple.markov, expected_triple["markov"], 1e-12),
        _check("pair_gini_vector", stats_pair.gini_vector, expected_pair["gini_vector"], 1e-12),
        _check("triple_gini_vector", stats_triple.gini_vector, expected_triple["gini_vector"], 1e-12),
        _check("pair_total_gini", stats_pair.total_gini, expected_pair["total_gini"], 1e-12),
        _check("triple_total_gini", stats_triple.total_gini, expected_triple["total_gini"], 1e-12),
        _check(
            "pair_self_overlap",
            quantum.state_scalar_product(pair, pair),
            expected_pair["self_overlap"],
            1e-12,
        ),
        _check(
            "triple_self_overlap",
            quantum.state_scalar_product(triple, triple),
            expected_triple["self_overlap"],
            1e-12,
        ),
        _check(
            "pair_triple_overlap",
            quantum.state_scalar_product(pair, triple),
            reference.pair_triple_overlap(a2, c2, d2, e2),
            1e-12,
        ),
    ]
    return {"a2": a2, "c2": c2, "d2": d2, "e2": e2}, checks


def _report_section9(args) -> tuple[dict, list]:
    pure = quantum.pure_density(reference.tripartite_pure_state())
    mixed = reference.tripartite_mixed_state()
    stats_pure = quantum.state_stats(quantum.dual_state(pure, quantum.GLOBAL))
    stats_mixed = quantum.state_stats(quantum.dual_state(mixed, quantum.GLOBAL))

    def reported_check(name, computed, reported):
        base = _check(name, computed, reported, reference.DISPLAY_TOL)
        base["pass_strict"] = bool(base["abs_err"] <= reference.STRICT_DISPLAY_TOL)
        return base

    checks = [
        reported_check("dual_markov", stats_pure.markov, reference.REPORTED_DUAL_MARKOV),
        reported_check("dual_gini_vector", stats_pure.gini_vector, reference.REPORTED_DUAL_GINI_VECTOR),
        reported_check("dual_total_gini", stats_pure.total_gini, reference.REPORTED_DUAL_TOTAL_GINI),
        _check("full_precision_dual_markov", stats_pure.markov, reference.TRIPARTITE_DUAL_MARKOV, 1e-12),
        _check("full_precision_dual_gini_vector", stats_pure.gini_vector, reference.TRIPARTITE_DUAL_GINI_VECTOR, 1e-12),
        _check("full_precision_dual_total_gini", stats_pure.total_gini, reference.TRIPARTITE_DUAL_TOTAL_GINI, 1e-12),
        _check("mixed_dual_markov_uniform", stats_mixed.markov, np.full((3, 3), 1 / 3), 1e-12),
        _check("mixed_dual_gini_vector", stats_mixed.gini_vector, np.zeros(3), 1e-12),
        _check("mixed_dual_total_gini", stats_mixed.total_gini, 0.0, 1e-12),
    ]
    fields = {
        "dual_markov": stats_pure.markov,
        "dual_gini_vector": stats_pure.gini_vector,
        "dual_total_gini": stats_pure.total_gini,
    }
    return fields, checks


def cmd_report(args) -> dict:
    """Run one worked example; each handler returns its own fields and checks."""
    handler = {
        "table1": _report_table1,
        "table2": _report_table2,
        "section84": _report_section84,
        "section9": _report_section9,
    }[args.which]
    fields, checks = handler(args)
    return {
        "command": "report",
        "which": args.which,
        "seed": args.seed,
        **fields,
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks),
    }


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=0, help="seed echoed in the output")
    sub.add_argument("--tol", type=float, default=probvec.DEFAULT_TOL,
                     help="validation tolerance")
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--out", default=None, help="output path (default: stdout)")
    sub.add_argument("--input", default=None, help="path to a JSON payload file")


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="ginisafe",
        description="Gini-index analytics for random and quantum safes",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def sub(name, handler, **kwargs):
        p = subs.add_parser(name, **kwargs)
        _add_common(p)
        p.set_defaults(handler=handler)
        return p

    p = sub("validate", cmd_validate, help="validate a probability vector")
    p.add_argument("--vector", action="append", help="inline JSON vector")

    p = sub("lorenz", cmd_lorenz, help="Lorenz values and ordering permutation")
    p.add_argument("--vector", action="append")

    p = sub("gini", cmd_gini, help="Gini index (both formulas) and average bounds")
    p.add_argument("--vector", action="append")

    p = sub("majorize", cmd_majorize, help="compare two vectors in the majorization preorder")
    p.add_argument("--vector", action="append", help="pass twice: x then y")

    p = sub("expand", cmd_expand, help="independent expansion weights of a row Markov matrix")
    p.add_argument("--matrix", action="append")
    p.add_argument("--floor", type=float, default=0.0, help="omit terms with weight below this")

    p = sub("scalar-product", cmd_scalar_product,
            help="scalar product of two matrices, or of two product tensors")
    p.add_argument("--matrix", action="append")
    p.add_argument("--tensor", action="append")
    p.add_argument("--tensors", action="store_true",
                   help="treat --input payloads as tensors instead of matrices")
    p.add_argument("--verify-product-form", action="store_true",
                   help="reject tensors whose correlations exceed --tol")

    p = sub("correlations", cmd_correlations, help="correlation coefficients of a Markov tensor")
    p.add_argument("--tensor", action="append")
    p.add_argument("--floor", type=float, default=0.0,
                   help="omit terms with |coefficient| below this")

    p = sub("simulate", cmd_simulate, help="empirical joint tensor of a sampled ensemble")
    p.add_argument("--ensemble", action="append", help="inline ensemble JSON")
    p.add_argument("--n", type=int, default=ensembles.DEFAULT_SAMPLES)

    p = sub("collision", cmd_collision,
            help="Monte Carlo collision probability of two independent ensembles")
    p.add_argument("--ensemble", action="append", help="pass twice")
    p.add_argument("--n", type=int, default=ensembles.DEFAULT_SAMPLES)

    p = sub("quantum-stats", cmd_quantum_stats,
            help="Markov matrix/tensor statistics of a multipartite state")
    p.add_argument("--state", action="append", help="inline state JSON")
    p.add_argument("--repair", action="store_true",
                   help="clip tiny negative eigenvalues and renormalize")

    p = sub("dual", cmd_dual, help="Fourier-transformed state and its statistics")
    p.add_argument("--state", action="append")
    p.add_argument("--mode", choices=(quantum.SINGLE, quantum.LOCAL, quantum.GLOBAL),
                   default=quantum.GLOBAL)
    p.add_argument("--repair", action="store_true")

    p = sub("deficits", cmd_deficits, help="Gini uncertainty deficits of a state")
    p.add_argument("--state", action="append")
    p.add_argument("--repair", action="store_true")

    p = sub("eta", cmd_eta, help="search for an uncertainty-coefficient upper bound")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--mode", choices=eta.MODES, default=eta.MODE_SINGLE)
    p.add_argument("--budget", type=int, default=1000, help="objective evaluation budget")

    p = sub("report", cmd_report, help="reproduce the bundled worked examples")
    p.add_argument("which", choices=("table1", "table2", "section84", "section9"))
    p.add_argument("--a", type=float, default=0.2, help="table1 parameter a")
    p.add_argument("--b", type=float, default=0.45, help="table1 parameter b")
    p.add_argument("--a2", type=float, default=0.3, help="|a|^2 for the two-qubit pair state")
    p.add_argument("--c2", type=float, default=0.5, help="|c|^2 for the two-qubit triple state")
    p.add_argument("--d2", type=float, default=0.3, help="|d|^2 for the two-qubit triple state")
    p.add_argument("--e2", type=float, default=0.2, help="|e|^2 for the two-qubit triple state")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        out = args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        print(f"run 'ginisafe {args.command} --help' for the grammar", file=sys.stderr)
        return 2
    except GiniSafeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(out, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
