"""The CLI's JSON writer against its oracle, ``json.dumps(_pyify(x), indent=2)``."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ginisafe import cli


def oracle(obj) -> str:
    return json.dumps(cli._pyify(obj), indent=2)


def outcome(encode, obj):
    """The text, or the TypeError both encoders raise for unencodable values."""
    try:
        return encode(obj)
    except TypeError:
        return TypeError


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


@settings(max_examples=400, deadline=None)
@given(values)
@example([1e308, 1e308])
@example({"entries": np.array([1 + 2j, -0.0 - 1j, complex("nan+infj")])})
@example([[1.0, 2.0], [3.0]])
@example(np.array(1.0))
@example([np.float32("nan"), np.float32("-inf"), np.float16(1e-7), np.int8(-3), np.bool_(False)])
def test_writer_matches_oracle(obj):
    assert outcome(cli._dumps, obj) == outcome(oracle, obj)


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


@pytest.mark.parametrize("argv", EVERY_VERB, ids=lambda argv: " ".join(argv[:2]))
def test_cli_output_matches_oracle(capsys, argv):
    assert cli.main(list(argv)) == 0
    stdout = capsys.readouterr().out
    args = cli._build_parser().parse_args(list(argv))
    assert stdout == oracle(args.handler(args)) + "\n"
