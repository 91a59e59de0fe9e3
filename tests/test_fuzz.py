"""Every verb under hostile argv: exit 0, 1 or 2, and never a traceback or a warning.

All argv run in one long-lived CLI process whose address space is capped at
3 GiB (``RLIMIT_AS``) with one BLAS thread, so an allocation sized by the
payload before its size is checked ends in a ``MemoryError`` traceback here
instead of exhausting the machine.  That process prints every warning, not
only the first from each line of code, so each argv shows its own.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

SRC = Path(__file__).resolve().parents[1] / "src"
ADDRESS_SPACE = 3 * 2**30

SERVER = f"""
import contextlib, io, json, resource, sys, traceback, warnings
warnings.simplefilter("always")
_, hard = resource.getrlimit(resource.RLIMIT_AS)
cap = {ADDRESS_SPACE} if hard == resource.RLIM_INFINITY else min({ADDRESS_SPACE}, hard)
resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
from ginisafe import cli
for line in sys.stdin:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(json.loads(line))
        except BaseException:
            traceback.print_exc()
            code = None
    print(json.dumps([code, err.getvalue()]), flush=True)
"""


@pytest.fixture(scope="module")
def run_cli():
    """Run one argv in the shared capped process; returns (exit code, stderr)."""
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.Popen(
        [sys.executable, "-c", SERVER], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        text=True, env=env,
    )

    def run(argv):
        proc.stdin.write(json.dumps(argv) + "\n")
        proc.stdin.flush()
        line = proc.stdout.readline()
        if not line:
            pytest.fail(f"the CLI process died on {argv!r}")
        code, err = json.loads(line)
        return code, err

    yield run
    proc.stdin.close()
    proc.wait(timeout=60)


def assert_clean_exit(run_cli, argv):
    code, err = run_cli(argv)
    assert code in (0, 1, 2) and "Traceback" not in err, (argv, err[-2000:])
    assert "Warning:" not in err, (argv, err[-2000:])
    return code, err


def ensemble(d):
    return json.dumps({"kind": "independent", "matrix": [[1.0 / d] * d] * d})


# The defects these pin: an unchecked `eta --d` building a d x d Fourier matrix,
# d**d-sized tensors and int64 codes for ensembles past the code cap, an
# unchecked `--n`, a NaN or infinite tolerance that admits any vector, negative
# seeds, JSON that the payload decoder refuses (a number past the double range,
# nesting past cli.MAX_JSON_DEPTH), an --out path that cannot be written,
# a numeric string read as the number it spells, a tolerance of 1 that admits an
# all-zero row, an amplitude norm that overflows and an uncapped search budget.
PINNED = {
    "eta-huge-d": ["eta", "--d", "100000"],
    "eta-single-past-state-cap": ["eta", "--d", "4000", "--budget", "1"],
    "simulate-d7": ["simulate", "--ensemble", ensemble(7), "--n", "10"],
    "simulate-d12": ["simulate", "--ensemble", ensemble(12)],
    "collision-d20": ["collision", "--ensemble", ensemble(20), "--ensemble", ensemble(20)],
    "simulate-huge-n": ["simulate", "--ensemble", ensemble(2), "--n", "100000000000"],
    "collision-huge-n": ["collision", "--ensemble", ensemble(2), "--ensemble", ensemble(2),
                         "--n", "100000000000"],
    "gini-tol-nan": ["gini", "--vector", "[5,-3]", "--tol", "nan"],
    "gini-tol-inf": ["gini", "--vector", "[5,-3]", "--tol", "inf"],
    "expand-tol-nan": ["expand", "--matrix", "[[1.5,-0.5],[0.5,0.5]]", "--tol", "nan"],
    "simulate-negative-seed": ["simulate", "--ensemble", ensemble(2), "--n", "5", "--seed", "-1"],
    "gini-5000-digit-int": ["gini", "--vector", "[1" + "0" * 5000 + "]"],
    "gini-deep-nesting": ["gini", "--vector", "[" * 100_000 + "]" * 100_000],
    "gini-stack-deep-lists": ["gini", "--vector", "[" * 300_000 + "]" * 300_000],
    "simulate-stack-deep-objects": ["simulate", "--ensemble", '{"a":' * 100_000 + "1" + "}" * 100_000],
    "validate-out-missing-dir": ["validate", "--vector", "[1]", "--out", "/nonexistent/dir/x.json"],
    "validate-out-directory": ["validate", "--vector", "[1]", "--out", "."],
    "gini-numeric-strings": ["gini", "--vector", '["0.5","0.5"]'],
    "quantum-stats-numeric-strings": ["quantum-stats", "--state", '{"dim":1,"entries":[["1","0"]]}'],
    "correlations-numeric-string-weight": ["correlations", "--tensor", '{"d":1,"terms":[{"code":0,"weight":"1"}]}'],
    "expand-numeric-string": ["expand", "--matrix", '[["1"]]'],
    "validate-tol-one": ["validate", "--vector", "[0,0]", "--tol", "1"],
    "collision-tol-one": ["collision", "--ensemble", '{"kind":"independent","matrix":[[0,0],[0.5,0.5]]}',
                          "--ensemble", ensemble(2), "--tol", "1", "--n", "10"],
    "quantum-stats-overflowing-norm": ["quantum-stats", "--state", '{"dim":2,"amplitudes":[[1e160,0],[1e160,0]]}'],
    "eta-huge-budget": ["eta", "--d", "2", "--budget", "9223372036854775808"],
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_defects(run_cli, name):
    code, err = assert_clean_exit(run_cli, PINNED[name])
    assert code in (1, 2), err
    assert sum(line.startswith(("error:", "usage error:")) for line in err.splitlines()) == 1, err


# ---------------------------------------------------------------------------
# Hostile argv for every verb
# ---------------------------------------------------------------------------

hostile_scalars = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-3, 3),
    st.sampled_from([10**400, -(10**20), 1e308, -0.0, True, None, "0.5", "nan", "", "x"]),
)
probabilities = st.floats(0.0, 1.0)


def normalised(xs):
    total = math.fsum(xs)
    return [x / total for x in xs] if total > 0 else xs


@st.composite
def maybe_spoiled(draw, values):
    """A list drawn from `values`, half the time with one entry replaced by a hostile value."""
    xs = list(draw(values))
    if xs and draw(st.booleans()):
        xs[draw(st.integers(0, len(xs) - 1))] = draw(hostile_scalars)
    return xs


def prob_vectors(sizes):
    return sizes.flatmap(lambda n: st.lists(probabilities, min_size=n, max_size=n)).map(normalised)


vectors = st.one_of(maybe_spoiled(prob_vectors(st.integers(0, 8))), prob_vectors(st.integers(1, 8)),
                    hostile_scalars, st.lists(st.lists(hostile_scalars, max_size=2), max_size=3))
sides = st.one_of(st.integers(0, 7), st.sampled_from([12, 20]))
row_markov = st.integers(1, 6).flatmap(lambda d: st.lists(prob_vectors(st.just(d)), min_size=d, max_size=d))
matrices = st.one_of(
    row_markov,
    sides.flatmap(lambda d: st.lists(prob_vectors(st.just(d)), min_size=d, max_size=d)),
    sides.flatmap(lambda d: maybe_spoiled(st.lists(maybe_spoiled(prob_vectors(st.just(d))),
                                                   min_size=d, max_size=d))),
    st.lists(st.lists(hostile_scalars, max_size=3), max_size=3),
    hostile_scalars,
)
codes = st.one_of(st.integers(-2, 30), st.sampled_from([10**20, 2.0, 2.5, True, "1"]))
terms = st.one_of(
    st.fixed_dictionaries({"code": codes, "weight": st.one_of(probabilities, hostile_scalars)}),
    st.fixed_dictionaries({"code": codes}),
    hostile_scalars,
)
sparse_tensors = st.fixed_dictionaries({
    "d": st.one_of(st.integers(-2, 8), st.sampled_from([40, 10**20, 2.0, 2.5, True, "2"])),
    "terms": st.one_of(st.lists(terms, max_size=5), hostile_scalars),
})
tensors = st.one_of(
    prob_vectors(st.sampled_from([1, 4, 27, 256])),
    maybe_spoiled(prob_vectors(st.sampled_from([1, 4, 27, 256, 3125]))),
    vectors,
    sparse_tensors,
    st.fixed_dictionaries({"weights": vectors}),
)
ensembles = st.one_of(
    row_markov.map(lambda m: {"kind": "independent", "matrix": m}),
    st.fixed_dictionaries({"kind": st.just("independent"), "matrix": matrices}),
    tensors.map(lambda t: {"kind": "correlated", **(t if isinstance(t, dict) else {"weights": t})}),
    st.fixed_dictionaries({"kind": st.sampled_from(["x", 1, None])}),
    hostile_scalars,
)


@st.composite
def amplitudes(draw, dim):
    """A normalised ket of `dim` amplitudes as [re, im] pairs."""
    z = [complex(draw(st.floats(-1, 1)), draw(st.floats(-1, 1))) for _ in range(dim)]
    norm = math.sqrt(math.fsum(abs(v) ** 2 for v in z))
    return [[v.real / norm, v.imag / norm] if norm > 1e-3 else [1.0, 0.0] for v in z]


pairs = st.lists(st.one_of(st.tuples(hostile_scalars, hostile_scalars).map(list),
                           st.lists(hostile_scalars, max_size=3), hostile_scalars), max_size=5)
state_dims = st.one_of(st.integers(-2, 30), st.sampled_from([256, 3125, 3126, 46656, 10**12, 2.5, "4"]))
states = st.one_of(
    st.sampled_from([1, 2, 3, 4, 27]).flatmap(
        lambda dim: maybe_spoiled(amplitudes(dim)).map(lambda a: {"dim": dim, "amplitudes": a})
    ),
    st.sampled_from([1, 2, 4]).flatmap(lambda dim: prob_vectors(st.just(dim)).map(
        lambda p: {"dim": dim, "entries": [[p[r] if r == c else 0.0, 0.0]
                                           for r in range(dim) for c in range(dim)]})),
    st.tuples(state_dims, st.sampled_from(["entries", "amplitudes"]), pairs).map(
        lambda t: {"dim": t[0], t[1]: t[2]}),
    st.fixed_dictionaries({"images": st.one_of(st.lists(codes, max_size=7), hostile_scalars)}),
    st.builds(dict, state=st.fixed_dictionaries({"images": st.lists(st.integers(0, 2), max_size=3)})),
    hostile_scalars,
)


def payload_flags(flag, payloads, count):
    """`count` payloads most of the time, sometimes fewer or one more."""
    number = st.sampled_from([count] * 4 + list(range(count + 2)))
    return number.flatmap(lambda k: st.lists(payloads, min_size=k, max_size=k)).map(
        lambda ps: [arg for p in ps for arg in (flag, json.dumps(p))]
    )


def pick(good, bad=()):
    """An option value: valid about half the time."""
    return st.one_of(st.sampled_from(good), st.sampled_from(bad)) if bad else st.sampled_from(good)


def options(choices):
    """Some of the flags in `choices` as ``--flag=value`` (None: a bare flag)."""
    return st.fixed_dictionaries({}, optional=choices).map(
        lambda opts: [flag if value is None else f"{flag}={value}" for flag, value in opts.items()]
    )


# every verb takes COMMON; the verbs that validate probability data take TOL
COMMON = {
    "--seed": pick(["0", "3", "18446744073709551615"], ["-1", "1.5", "99999999999999999999"]),
    "--format": pick(["json", "csv"], ["xml"]),
}
TOL = {"--tol": pick(["0", "1e-12", "1e-9", "0.5"], ["nan", "inf", "-inf", "-1", "1", "1e308", "x"])}
FLOOR = {"--floor": pick(["0", "1e-9", "0.1"], ["nan", "-inf", "inf", "-1"])}
# 40000 draws span three chunks of the ensemble sampler
SAMPLES = {"--n": pick(["1", "50", "2000", "40000"], ["-1", "0", "10000001", "100000000000", "1e11", "x"])}
REPAIR = {"--repair": st.none()}

VERBS = {
    "validate": (payload_flags("--vector", vectors, 1), {**COMMON, **TOL}),
    "lorenz": (payload_flags("--vector", vectors, 1), {**COMMON, **TOL}),
    "gini": (payload_flags("--vector", vectors, 1), {**COMMON, **TOL}),
    "majorize": (payload_flags("--vector", vectors, 2), {**COMMON, **TOL}),
    "expand": (payload_flags("--matrix", matrices, 1), {**COMMON, **TOL, **FLOOR}),
    "scalar-product": (
        st.one_of(payload_flags("--matrix", matrices, 2), payload_flags("--tensor", tensors, 2)),
        {**COMMON, **TOL, "--verify-product-form": st.none(), "--tensors": st.none()},
    ),
    "correlations": (payload_flags("--tensor", tensors, 1), {**COMMON, **TOL, **FLOOR}),
    "simulate": (payload_flags("--ensemble", ensembles, 1), {**COMMON, **TOL, **SAMPLES}),
    "collision": (
        st.one_of(payload_flags("--ensemble", ensembles, 2),
                  ensembles.map(lambda e: ["--ensemble", json.dumps(e)] * 2)),
        {**COMMON, **TOL, **SAMPLES},
    ),
    "quantum-stats": (payload_flags("--state", states, 1), {**COMMON, **REPAIR}),
    "dual": (payload_flags("--state", states, 1),
             {**COMMON, **REPAIR, "--mode": pick(["single", "local", "global"], ["x"])}),
    "deficits": (payload_flags("--state", states, 1), {**COMMON, **REPAIR}),
    "eta": (
        pick(["2", "3", "4", "5"], ["-1", "0", "1", "6", "7", "4000", "100000", "1" + "0" * 30, "x"])
        .map(lambda d: ["--d", d]),
        {**COMMON, "--mode": pick(["single", "local_total", "global_component", "global_total"], ["x"]),
         "--budget": pick(["1", "5", "20"], ["-1", "0"])},
    ),
    "report": (
        pick(["table1", "table2", "section84", "section9"], ["x"]).map(lambda w: [w]),
        {**COMMON, **{flag: pick(["0.2", "0.3", "0.45", "0.5"], ["nan", "inf", "-1", "0", "1"])
                      for flag in ("--a", "--b", "--a2", "--c2", "--d2", "--e2")}},
    ),
}


@st.composite
def hostile_argv(draw):
    verb = draw(st.sampled_from(sorted(VERBS)))
    head, choices = VERBS[verb]
    return [verb] + draw(head) + draw(options(choices))


@settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow,
                                                                   HealthCheck.data_too_large])
@given(argv=hostile_argv())
def test_every_verb_exits_cleanly(run_cli, argv):
    assert_clean_exit(run_cli, argv)
