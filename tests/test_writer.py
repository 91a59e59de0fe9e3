"""The CLI's JSON and CSV writers against oracles built here, on plain values from `_pyify`.

The JSON oracle parses the output with ``json.loads`` and holds it to
``_pyify(x)``: the same key order, strings, ints, bools and None, and every
float with the same bits.  The spelling of a float is orjson's and may differ
between its releases; its value may not.  The CSV oracle is the rows of
``_flatten(_pyify(x))``.  Both oracles reject a NaN or an infinity by its
field, each in its writer's order.  Neither shares code with the writers.
"""

import argparse
import contextlib
import csv
import dataclasses
import gc
import io
import json
import math
import re
import sys
import tracemalloc

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ginisafe import ValidationError, cli, ensembles, markov, probvec, quantum


def _pyify(obj):
    """Plain Python values for `obj`: numpy arrays and tuples become lists, complex values [re, im]."""
    if isinstance(obj, dict):
        return {k: _pyify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_pyify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_pyify(v) for v in obj.tolist()]  # a 0-d array's scalar is not iterable: TypeError
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def _flatten(obj, prefix: str = ""):
    """(key, leaf) pairs of plain values: ``.name`` steps into a dict, ``[i]`` into a list."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _flatten(v, f"{prefix}.{k}" if prefix else str(k))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _flatten(v, f"{prefix}[{i}]")
    else:
        yield prefix, obj


def assert_same_values(got, want, path=""):
    """`got` holds `want`: same types, key order, strings, ints, bools and None, and floats by ``float.hex``."""
    assert type(got) is type(want), (path, got, want)
    if isinstance(want, dict):
        assert list(got) == list(want), (path, list(got), list(want))
        for key, value in want.items():
            assert_same_values(got[key], value, f"{path}.{key}" if path else key)
    elif isinstance(want, list):
        assert len(got) == len(want), (path, len(got), len(want))
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same_values(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert got.hex() == want.hex(), (path, got, want)  # -0.0 is not 0.0
    else:
        assert got == want, (path, got, want)


def _encodable(plain) -> bool:
    """Whether orjson can write `plain`: str keys, ints in [-2**63, 2**64 - 1] and UTF-8 strings."""
    if isinstance(plain, dict):
        return all(type(k) is str and _encodable(k) and _encodable(v) for k, v in plain.items())
    if isinstance(plain, list):
        return all(map(_encodable, plain))
    if isinstance(plain, str):
        try:
            plain.encode("utf-8")
        except UnicodeEncodeError:  # a lone surrogate
            return False
    return type(plain) is not int or -(2**63) <= plain <= 2**64 - 1


def oracle(obj):
    """The plain values the output of `obj` parses to, or the error the writer must raise.

    An output orjson cannot write raises its TypeError; one that holds a NaN
    or an infinity is a validation error that names the first such field.
    """
    plain = _pyify(obj)
    if not _encodable(plain):
        raise TypeError("orjson cannot write this output")
    for key, value in _flatten(plain):
        if isinstance(value, float) and not math.isfinite(value):
            raise ValidationError(f"output field {key} is not a finite number")
    return plain


JSON_ARGS = argparse.Namespace(format="json", out=None)


def write(obj) -> str:
    """What `cli._emit` prints for `obj`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(obj, JSON_ARGS)
    return out.getvalue()


def assert_writes(obj):
    """`cli._emit` prints the values `oracle` expects of `obj`, or raises the error it expects."""
    try:
        want = oracle(obj)
    except (TypeError, ValidationError) as exc:
        with pytest.raises(type(exc)) as info:
            write(obj)
        if isinstance(exc, ValidationError):
            assert str(info.value) == str(exc)
        return
    text = write(obj)
    assert text.endswith("\n")
    assert_same_values(json.loads(text), want)


def _cell(text: str) -> str:
    return '"' + text.replace('"', '""') + '"' if set(text) & set(',"\r\n') else text


def _csv_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return f"{value:.17g}" if isinstance(value, float) else str(value)


def _walk(obj, prefix: str = ""):
    """The pairs of ``_flatten(_pyify(obj))``, made plain one container at a time, so a walk fails where it stops."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _walk(v, f"{prefix}.{k}" if prefix else str(k))
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            yield from _walk(v, f"{prefix}[{i}]")
    else:
        yield from _flatten(_pyify(obj), prefix)


def csv_oracle(obj) -> list:
    """The CSV rows of `obj`, after the header: RFC 4180 cells, floats to 17 significant digits.

    The first NaN or infinity in walk order is a validation error that names
    its field; a value the walk cannot make plain before it raises TypeError.
    """
    rows = []
    for key, value in _walk(obj):
        if isinstance(value, float) and not math.isfinite(value):
            raise ValidationError(f"output field {key} is not a finite number")
        rows.append(f"{_cell(key)},{_cell(_csv_value(value))}")
    return rows


def outcome(encode, obj):
    """The text, the TypeError both encoders raise for unencodable values, or the text of a validation error."""
    try:
        return encode(obj)
    except TypeError:
        return TypeError
    except ValidationError as exc:
        return ValidationError, str(exc)


floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    floats,
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308]),
    st.text(),
    st.complex_numbers(),
    floats.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.complex_numbers().map(np.complex128),
)
arrays = hnp.arrays(
    dtype=st.sampled_from(
        [np.float64, np.float32, np.int64, np.uint8, np.bool_, np.complex128, np.complex64]
    ),
    shape=hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
)
records = st.lists(
    st.fixed_dictionaries(
        {"code": st.integers(0, 3124), "images": st.lists(st.integers(0, 4), min_size=3, max_size=3),
         "weight": floats}
    ),
    max_size=6,
)
mixed_records = st.lists(
    st.dictionaries(st.sampled_from(["a", "b", "%s", "é"]), st.integers() | floats | st.text()),
    max_size=6,
)
keys = st.one_of(st.text(max_size=4), st.integers(), floats, st.booleans(), st.none())
values = st.recursive(
    st.one_of(scalars, arrays, records, mixed_records),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(keys, children, max_size=5),
    ),
    max_leaves=25,
)


# Floats on each side of every point where orjson's spelling changes, signed
# zeros, and strings that read like numbers or like null.
BOUNDARY_FLOATS = [
    1e-05, -1e-05, 1.2e-05, 9.999999999999999e-05, 0.0001, 9.999999999999999e-06, -9.999999999999999e-06,
    1.5e-07, 1e-09, 1e-10, 1e15, 9999999999999998.0, 1e16, -1.5e16, 1e308, 5e-324, 10.00001, -10.00001,
    0.1, 0.0, -0.0,
]
LOOKALIKE_STRINGS = [" 0.00001", "1e16", "e-6", "null", "NaN", "\x7f", "é"]


@settings(max_examples=400, deadline=None)
@given(values)
@example(BOUNDARY_FLOATS)
@example({"weights": np.array(BOUNDARY_FLOATS), "negated": [-x for x in BOUNDARY_FLOATS],
          "pairs": np.array(BOUNDARY_FLOATS) * 1j})
@example(1e-05)
@example(-9.999999999999999e-06)
@example(1.5e-07)
@example(1e16)
@example(-10.00001)
@example(np.float64(1e-10))
@example(LOOKALIKE_STRINGS)
@example({s: s for s in LOOKALIKE_STRINGS})
@example("1e16")
@example({"a": "null", "b": None})
@example([1e308, 1e308])
@example({"weights": [0.5, float("inf"), float("nan")]})
@example({"entries": np.array([1 + 2j, -0.0 - 1j, complex("nan+infj")])})
@example({1: 0.5})
@example([2**64 - 1, -(2**63), 2**64])
@example([[1.0, 2.0], [3.0]])
@example(np.array(1.0))
@example([np.float32("nan"), np.float32("-inf"), np.float16(1e-7), np.int8(-3), np.bool_(False)])
@example([np.longdouble(1) / 3, np.clongdouble(1 + 2j), np.uint64(2**64 - 1)])
def test_writer_matches_oracle(obj):
    assert_writes(obj)


@settings(max_examples=400, deadline=None)
@given(values)
@example({"entries": np.array([1 + 2j, -0.0 - 1j, complex("nan+infj")]), "flag": np.bool_(True)})
@example({'a,"b"': ["x\ny", "cr\r", 1e16, 5e-324, -0.0, True, None]})
@example({"": {"inner": (1, np.float32(0.1))}, None: {3: np.longdouble(1) / 3}})
@example([np.array(1.0)])
# the lazy walk raises at whichever it meets first: a non-finite leaf or a 0-d array
@example([float("nan"), np.array(1.0)])
@example([np.array(1.0), float("-inf")])
def test_csv_rows_match_oracle(obj):
    assert outcome(lambda x: list(cli._csv_rows(x)), obj) == outcome(csv_oracle, obj)


MUTANTS = {
    "one ulp": lambda out: {**out, "weights": [math.nextafter(out["weights"][0], math.inf), *out["weights"][1:]]},
    "signed zero": lambda out: {**out, "weights": [abs(w) if w == 0.0 else w for w in out["weights"]]},
    "swapped keys": lambda out: dict(reversed(list(out.items()))),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_the_oracle_sees_a_moved_value(mutant):
    obj = {"seed": 0, "weights": np.array(BOUNDARY_FLOATS)}
    got = json.loads(write(obj))
    assert_same_values(got, _pyify(obj))
    with pytest.raises(AssertionError):
        assert_same_values(MUTANTS[mutant](got), _pyify(obj))


@pytest.mark.parametrize("size", [1, 40, 200])
def test_output_written_slice_by_slice_matches_oracle(monkeypatch, size):
    obj = {
        "weights": np.array(BOUNDARY_FLOATS * 3),
        "terms": [{"code": i, "weight": w} for i, w in enumerate(BOUNDARY_FLOATS)],
        "labels": ["é" * k for k in range(1, 40)],  # two-byte characters on each side of a slice end
        "value": 1e16,
    }
    monkeypatch.setattr(cli, "_SLICE", size)
    data = orjson.dumps(obj, default=cli._plain, option=cli._ORJSON_OPTIONS)
    slices = [bytes(s) for s in cli._line_slices(data)]
    assert len(slices) > 1 and b"".join(slices) == data
    assert all(s.endswith(b"\n") and len(s) > size for s in slices[:-1])
    text = write(obj)
    assert text == data.decode() + "\n"
    assert_same_values(json.loads(text), _pyify(obj))


def test_a_float_spelling_drift_keeps_the_values(monkeypatch):
    """Another orjson release may spell a float otherwise, here 1E308 for 1e308; the oracle reads its value."""
    dumps = orjson.dumps
    monkeypatch.setattr(orjson, "dumps", lambda *args, **kwargs: re.sub(rb"(\d)e", rb"\1E", dumps(*args, **kwargs)))
    obj = {"weights": np.array(BOUNDARY_FLOATS), "seed": 0}
    assert "1E308" in write(obj)
    assert_writes(obj)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("out", [False, True], ids=["stdout", "out-file"])
@pytest.mark.parametrize("verb, module, name, field", [
    ("gini", probvec, "gini_index", "gini"),
    ("expand", markov, "product_probabilities", "weights[3]"),
])
def test_a_non_finite_output_is_an_error_not_null(capsys, monkeypatch, tmp_path, verb, module, name, field, out, fmt):
    real = getattr(module, name)

    def spoiled(*args):
        value = real(*args)
        if np.ndim(value):
            value = value.copy()
            value[3] = np.inf
            return value
        return math.nan

    monkeypatch.setattr(module, name, spoiled)
    path = tmp_path / "out"
    payload = ["--vector", "[0.1,0.5,0.4]"] if verb == "gini" else ["--matrix", "[[0.5,0.5],[0.25,0.75]]"]
    assert cli.main([verb, *payload, "--format", fmt, *(["--out", str(path)] if out else [])]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: output field {field} is not a finite number\n")
    assert not path.exists()


def test_stdout_holds_one_copy_of_a_large_output(monkeypatch):
    """Printing a d = 4 `dual` output takes its bytes and a few slices, never a decoded copy of the whole."""
    rng = np.random.default_rng(4)
    psi = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    args = cli._build_parser().parse_args(["dual", "--mode", "global"])
    out = cli.cmd_dual(args, quantum.pure_density(psi / np.linalg.norm(psi)))
    data = orjson.dumps(out, default=cli._plain, option=cli._ORJSON_OPTIONS)
    assert len(data) > 50 * cli._SLICE
    # the encoder returns a fresh copy of the bytes, so the trace counts them once
    monkeypatch.setattr(orjson, "dumps", lambda *args, **kwargs: bytes(memoryview(data)))
    monkeypatch.setattr(sys, "stdout", io.StringIO())
    monkeypatch.setattr(sys.stdout, "write", len)
    tracemalloc.start()
    try:
        cli._emit(out, args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= len(data) + 4 * cli._SLICE


SMALL_STATE = json.dumps({"dim": 4, "amplitudes": [[0.6, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.8]]})
DENSITY = json.dumps(
    {"dim": 4, "entries": [[0.25 if r == c else 0.0, 0.0] for r in range(4) for c in range(4)]}
)
DEMO = "[[0.2,0.8,0],[0,0.2,0.8],[0,0.55,0.45]]"
ENSEMBLE = json.dumps({"kind": "independent", "matrix": [[0.5, 0.5, 0], [0, 0.5, 0.5], [0, 0.5, 0.5]]})
SPARSE = json.dumps({"d": 2, "terms": [{"code": 0, "weight": 0.5}, {"code": 3, "weight": 0.5}]})

EVERY_VERB = [
    ("validate", "--vector", "[0.3,0.7]"),
    ("lorenz", "--vector", "[0.1,0.5,0.4]"),
    ("gini", "--vector", "[0.1,0.5,0.4]"),
    ("majorize", "--vector", "[0.5,0.4,0.1]", "--vector", "[0.6,0.2,0.2]"),
    ("expand", "--matrix", DEMO),
    ("expand", "--matrix", DEMO, "--floor", "1e-9"),
    ("scalar-product", "--matrix", DEMO, "--matrix", DEMO),
    ("scalar-product", "--tensor", "[0.25,0.25,0.25,0.25]", "--tensor", "[0.25,0.25,0.25,0.25]"),
    ("correlations", "--tensor", SPARSE),
    ("correlations", "--tensor", SPARSE, "--floor", "0.1"),
    ("simulate", "--ensemble", ENSEMBLE, "--n", "500", "--seed", "3"),
    ("collision", "--ensemble", ENSEMBLE, "--ensemble", ENSEMBLE, "--n", "500", "--seed", "3"),
    ("quantum-stats", "--state", SMALL_STATE),
    ("quantum-stats", "--state", DENSITY),
    ("quantum-stats", "--state", '{"d": 2, "images": [1, 0]}'),
    ("dual", "--state", SMALL_STATE, "--mode", "single"),
    ("dual", "--state", SMALL_STATE, "--mode", "local"),
    ("dual", "--state", DENSITY, "--mode", "global"),
    ("deficits", "--state", SMALL_STATE),
    ("eta", "--d", "2", "--budget", "40", "--seed", "11"),
    ("report", "table1"),
    ("report", "table2"),
    ("report", "section84"),
    ("report", "section9"),
]


def argv_id(argv):
    return " ".join(argv[:2])


@pytest.mark.parametrize("argv", EVERY_VERB, ids=argv_id)
def test_cli_output_matches_oracle(capsys, argv):
    assert cli.main(list(argv)) == 0
    stdout = capsys.readouterr().out
    args = cli._build_parser().parse_args(list(argv))
    assert stdout.endswith("}\n")
    assert_same_values(json.loads(stdout), oracle(args.handler(args)))


@pytest.mark.parametrize("argv", EVERY_VERB, ids=argv_id)
def test_no_verb_output_holds_none(argv):
    # the writer reads a null in its bytes as the trace of a non-finite float
    args = cli._build_parser().parse_args(list(argv))
    assert all(value is not None for _, value in _flatten(_pyify(args.handler(args))))


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("argv", EVERY_VERB, ids=argv_id)
def test_out_file_holds_the_stdout_bytes(capsys, tmp_path, argv, fmt):
    path = tmp_path / "out"
    assert cli.main([*argv, "--format", fmt]) == 0
    stdout = capsys.readouterr().out
    assert cli.main([*argv, "--format", fmt, "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == stdout.encode()


@pytest.mark.parametrize("argv", EVERY_VERB, ids=argv_id)
def test_cli_csv_matches_oracle(capsys, argv):
    assert cli.main([*argv, "--format", "csv"]) == 0
    stdout = capsys.readouterr().out
    args = cli._build_parser().parse_args(list(argv))
    assert stdout == "\n".join(["key,value", *csv_oracle(args.handler(args))]) + "\n"


@pytest.mark.parametrize("argv", EVERY_VERB, ids=argv_id)
def test_csv_rows_are_key_value_pairs(capsys, argv):
    assert cli.main([*argv, "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out, newline="")))
    assert rows[0] == ["key", "value"]
    assert {len(row) for row in rows} == {2}


@pytest.mark.parametrize("text", ["plain", "", " spaced ", "a,b", 'say "hi"', "cr\rhere", "lf\nhere", '",\r\n'])
def test_csv_cell_is_rfc4180(text):
    cell = cli._csv_cell(text)
    assert next(csv.reader(io.StringIO(f"{cell},x\n", newline=""))) == [text, "x"]
    if not set(text) & set(',"\r\n'):
        assert cell == text  # rows without those characters keep their bytes


@pytest.mark.parametrize("argv", EVERY_VERB, ids=argv_id)
def test_verbs_leave_no_cyclic_garbage(capsys, argv):
    # main pauses the cyclic collector for a verb's handler: reference counting must free all it makes
    cli._build_parser()  # built once per process before the pause; argparse's formatters hold cycles
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert cli.main(list(argv)) == 0
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()


@pytest.mark.parametrize("argv", EVERY_VERB, ids=argv_id)
def test_every_output_opens_with_command_and_seed(capsys, argv):
    seed = cli._build_parser().parse_args(list(argv)).seed
    assert cli.main(list(argv)) == 0
    out = json.loads(capsys.readouterr().out)
    assert list(out)[:2] == ["command", "seed"]
    assert (out["command"], out["seed"]) == (argv[0], seed)
    assert cli.main([*argv, "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out, newline="")))
    assert rows[1:3] == [["command", argv[0]], ["seed", str(seed)]]


def _state(text):
    return quantum.pure_density(np.array([complex(*z) for z in json.loads(text)["amplitudes"]]))


def _density(text):
    return np.array([complex(*z) for z in json.loads(text)["entries"]]).reshape(4, 4)


def _collision(text, n, seed):
    spec = ensembles.EnsembleSpec.independent(json.loads(text)["matrix"])
    return ensembles.collision_probability_mc(spec, spec, n, ensembles.make_rng(seed))


# (argv, the keys before the record's fields, a field the verb leaves out, the record)
RECORD_VERBS = [
    (("quantum-stats", "--state", SMALL_STATE), ["d", "dim"], None,
     lambda: quantum.state_stats(_state(SMALL_STATE))),
    (("dual", "--state", SMALL_STATE, "--mode", "local"), ["mode", "state"], "d",
     lambda: quantum.state_stats(quantum.dual_state(_state(SMALL_STATE), "local"))),
    (("dual", "--state", DENSITY, "--mode", "global"), ["mode", "state"], "d",
     lambda: quantum.state_stats(quantum.dual_state(_density(DENSITY), "global"))),
    (("deficits", "--state", SMALL_STATE), ["d"], None,
     lambda: quantum.uncertainty_deficits(_state(SMALL_STATE))),
    (("collision", "--ensemble", ENSEMBLE, "--ensemble", ENSEMBLE, "--n", "500", "--seed", "3"), [], None,
     lambda: _collision(ENSEMBLE, 500, 3)),
]


@pytest.mark.parametrize("argv, extras, omitted, record", RECORD_VERBS, ids=[argv_id(case[0]) for case in RECORD_VERBS])
def test_result_verbs_print_the_record_fields_in_declared_order(capsys, argv, extras, omitted, record):
    assert cli.main(list(argv)) == 0
    out = json.loads(capsys.readouterr().out)
    result = record()
    names = [f.name for f in dataclasses.fields(result) if f.name not in extras and f.name != omitted]
    assert list(out)[2:] == extras + names
    fields = {name: getattr(result, name) for name in names}
    assert_same_values({name: out[name] for name in names}, oracle(fields))
