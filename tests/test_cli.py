"""Tests for the command-line interface: exit codes, schemas, determinism."""

import functools
import gc
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ginisafe import ValidationError, cli, ensembles, eta, markov, probvec, quantum
from ginisafe.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestExitCodes:
    def test_success(self, capsys):
        code, out, _ = run_cli(capsys, "gini", "--vector", "[0.5,0.5]")
        assert code == 0

    def test_validation_error(self, capsys):
        code, out, err = run_cli(capsys, "validate", "--vector", "[0.5,0.6]")
        assert code == 1
        assert "sum" in err

    def test_usage_error_unknown_flag(self, capsys):
        code, _, _ = run_cli(capsys, "gini", "--vector", "[0.5,0.5]", "--frobnicate")
        assert code == 2

    def test_usage_error_unknown_command(self, capsys):
        code, _, _ = run_cli(capsys, "transmogrify")
        assert code == 2

    def test_usage_error_missing_payload(self, capsys):
        code, _, err = run_cli(capsys, "majorize", "--vector", "[0.5,0.5]")
        assert code == 2
        assert "2" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1e-9"])
    def test_tolerance_must_be_finite_and_non_negative(self, capsys, tol):
        # a NaN or infinite tolerance admits any vector and renormalises it
        code, out, err = run_cli(capsys, "gini", "--vector", "[0.5,0.5]", f"--tol={tol}")
        assert (code, out) == (2, "")
        assert err.startswith("usage error: --tol must be a finite number >= 0")

    @pytest.mark.parametrize("verb, payload", [
        ("expand", ("--matrix", "[[1]]")),
        ("correlations", ("--tensor", "[0.25,0.25,0.25,0.25]")),
    ])
    @pytest.mark.parametrize("floor", ["nan", "inf", "-inf"])
    def test_floor_must_be_finite(self, capsys, verb, payload, floor):
        # every weight compares False against a NaN floor, which emptied "terms"
        code, out, err = run_cli(capsys, verb, *payload, f"--floor={floor}")
        assert (code, out) == (2, "")
        assert err.startswith("usage error: --floor must be a finite number")


    @pytest.mark.parametrize("message", ["", "Unable to allocate 80.0 MiB"])
    def test_out_of_memory(self, capsys, monkeypatch, message):
        def exhausted(*args):
            raise MemoryError(message)

        monkeypatch.setattr(ensembles, "empirical_tensor", exhausted)
        code, out, err = run_cli(capsys, "simulate", "--ensemble", TestSimulationCommands.ENSEMBLE)
        assert (code, out) == (1, "")
        assert err == f"error: out of memory in 'simulate'{': ' + message if message else ''}\n"


class TestOptionContract:
    """Each verb takes only the options it reads."""

    STATE = json.dumps({"dim": 2, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]})

    @pytest.mark.parametrize("argv", [
        ["eta", "--d", "2", "--budget", "5", "--input", "payload.json"],
        ["report", "table1", "--input", "payload.json"],
        ["quantum-stats", "--state", STATE, "--tol", "1e-6"],
        ["dual", "--state", STATE, "--tol", "1e-6"],
        ["deficits", "--state", STATE, "--tol", "1e-6"],
        ["eta", "--d", "2", "--budget", "5", "--tol", "1e-6"],
        ["report", "table1", "--tol", "1e-6"],
    ], ids=lambda argv: f"{argv[0]} {argv[-2]}")
    def test_unread_option_is_rejected(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert "unrecognized arguments" in err

    # row 0 sums to 1 + 1e-7: admitted at --tol 1e-6, rejected at the default 1e-9
    LOOSE = json.dumps({"kind": "independent", "matrix": [[0.5, 0.5 + 1e-7], [0.5, 0.5]]})

    @pytest.mark.parametrize("verb, count", [("simulate", 1), ("collision", 2)])
    def test_ensembles_are_validated_at_tol(self, capsys, verb, count):
        argv = [verb, *["--ensemble", self.LOOSE] * count, "--n", "10"]
        code, _, err = run_cli(capsys, *argv, "--tol", "1e-6")
        assert code == 0, err
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert err.startswith("error: row 0:") and "1e-09" in err


class TestEchoedValues:
    """Error lines echo a payload value shortened, whatever its size."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "--ensemble", json.dumps({"kind": list(range(200_000))})],
        ["correlations", "--tensor",
         json.dumps({"d": 2, "terms": [{"code": list(range(100_000)), "weight": 1}]})],
        ["correlations", "--tensor",
         json.dumps({"d": 2, "terms": [{"code": 0, "weight": "x" * 100_000}]})],
        ["quantum-stats", "--state", json.dumps({"dim": "4" * 100_000, "amplitudes": []})],
    ], ids=["kind", "code", "weight", "dim"])
    def test_error_line_is_short(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert len(err.encode()) < 200, err[:300]


class TestVectorCommands:
    def test_gini_output(self, capsys):
        out = run_json(capsys, "gini", "--vector", "[0.1667,0.5,0.3333]")
        assert out["seed"] == 0
        assert abs(out["gini"] - 1 / 6) < 1e-3
        assert abs(out["gini"] - out["gini_mean_abs_diff"]) < 1e-12

    def test_gini_on_six_qudit_sized_vector(self, capsys, tmp_path):
        # n = 6**6 = 46656: a pairwise |x_r - x_s| array would need 16 GiB
        x = np.random.default_rng(0).dirichlet(np.ones(6**6))
        path = tmp_path / "vec.json"
        path.write_text(json.dumps(x.tolist()))
        out = run_json(capsys, "gini", "--input", str(path))
        assert out["d"] == 6**6
        assert abs(out["gini"] - out["gini_mean_abs_diff"]) < 1e-12

    def test_repeated_calls_are_independent(self, capsys):
        # the parser is built once per process; appended flags must not carry over
        first = run_json(capsys, "gini", "--vector", "[0.2,0.8]")
        second = run_json(capsys, "gini", "--vector", "[0.5,0.5]")
        assert first["gini"] == pytest.approx(0.2, abs=1e-12)
        assert second["gini"] == 0.0
        assert run_json(capsys, "gini", "--vector", "[0.2,0.8]") == first

    def test_lorenz_output(self, capsys):
        out = run_json(capsys, "lorenz", "--vector", "[0.1666666667,0.5,0.3333333333]")
        np.testing.assert_allclose(out["lorenz"], [1 / 6, 1 / 2, 1.0], atol=1e-9)
        assert out["ordering"] == [0, 2, 1]

    def test_validate_roundtrip(self, capsys, tmp_path):
        out = run_json(capsys, "validate", "--vector", "[0.3, 0.7]")
        path = tmp_path / "vec.json"
        path.write_text(json.dumps(out))
        again = run_json(capsys, "validate", "--input", str(path))
        assert again["vector"] == out["vector"]

    def test_majorize(self, capsys):
        out = run_json(
            capsys, "majorize", "--vector", "[0.5,0.4,0.1]", "--vector", "[0.6,0.2,0.2]"
        )
        assert out["relation"] == "incomparable"
        out = run_json(
            capsys, "majorize", "--vector", "[1,0,0]", "--vector", "[0.5,0.3,0.2]"
        )
        assert out["relation"] == "x_majorizes_y"

    def test_two_payload_input_file(self, capsys, tmp_path):
        path = tmp_path / "pair.json"
        path.write_text(json.dumps([[0.5, 0.4, 0.1], [0.6, 0.2, 0.2]]))
        out = run_json(capsys, "majorize", "--input", str(path))
        assert out["relation"] == "incomparable"
        bad = tmp_path / "single.json"
        bad.write_text(json.dumps([0.5, 0.5]))
        code, _, err = run_cli(capsys, "majorize", "--input", str(bad))
        assert code == 2


class TestMarkovCommands:
    DEMO = "[[0.2,0.8,0],[0,0.2,0.8],[0,0.55,0.45]]"

    def test_expand_correlations_roundtrip(self, capsys, tmp_path):
        out = run_json(capsys, "expand", "--matrix", self.DEMO)
        assert len(out["weights"]) == 27
        assert abs(sum(out["weights"]) - 1.0) < 1e-12
        path = tmp_path / "weights.json"
        path.write_text(json.dumps(out))
        corr = run_json(capsys, "correlations", "--input", str(path))
        # a product tensor has no correlations
        assert max(abs(c) for c in corr["coefficients"]) < 1e-12

    def test_expand_floor_filters_terms(self, capsys):
        out = run_json(capsys, "expand", "--matrix", self.DEMO, "--floor", "1e-9")
        assert len(out["terms"]) == 8

    def test_scalar_product_direct(self, capsys):
        out = run_json(
            capsys, "scalar-product", "--matrix", self.DEMO, "--matrix", self.DEMO
        )
        a, b = 0.2, 0.45
        expected = (2 * a**2 - 2 * a + 1) ** 2 * (2 * b**2 - 2 * b + 1)
        assert out["method"] == "direct"
        assert out["value"] == pytest.approx(expected, abs=1e-12)

    def test_scalar_product_via_tensors(self, capsys):
        expand = run_json(capsys, "expand", "--matrix", self.DEMO)
        tensor = json.dumps(expand["weights"])
        out = run_json(
            capsys, "scalar-product", "--tensor", tensor, "--tensor", tensor,
            "--verify-product-form",
        )
        assert out["method"] == "tensors"
        direct = run_json(
            capsys, "scalar-product", "--matrix", self.DEMO, "--matrix", self.DEMO
        )
        assert out["value"] == pytest.approx(direct["value"], abs=1e-12)

    def test_sparse_tensor_input(self, capsys):
        sparse = json.dumps(
            {"d": 2, "terms": [{"code": 0, "weight": 0.5}, {"code": 3, "weight": 0.5}]}
        )
        out = run_json(capsys, "correlations", "--tensor", sparse)
        assert abs(sum(out["coefficients"])) < 1e-12
        assert out["coefficients"][0] == pytest.approx(0.25, abs=1e-12)


class TestSparseTensorAdmission:
    def reject(self, capsys, d, terms, *needles):
        payload = json.dumps({"d": d, "terms": terms})
        code, out, err = run_cli(capsys, "correlations", "--tensor", payload)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        for needle in needles:
            assert needle in err

    def test_negative_code(self, capsys):
        # numpy would wrap -1 to the last entry and answer for the wrong tensor
        terms = [{"code": -1, "weight": 0.5}, {"code": 0, "weight": 0.5}]
        self.reject(capsys, 2, terms, "terms[0].code", "-1")

    def test_code_past_the_end(self, capsys):
        terms = [{"code": 0, "weight": 0.5}, {"code": 9, "weight": 0.5}]
        self.reject(capsys, 2, terms, "terms[1].code", "[0, 4)")

    def test_duplicate_code(self, capsys):
        # the later term would silently overwrite the earlier one
        terms = [{"code": 0, "weight": 0.5}, {"code": 3, "weight": 0.5}, {"code": 0, "weight": 0.5}]
        self.reject(capsys, 2, terms, "terms[2].code", "terms[0]")

    @pytest.mark.parametrize("field", ["code", "weight"])
    def test_missing_field(self, capsys, field):
        term = {"code": 0, "weight": 1.0}
        del term[field]
        self.reject(capsys, 2, [term], "terms[0]", field)

    def test_dimension_checked_before_allocation(self, capsys):
        cli._build_parser()
        tracemalloc.start()
        try:
            self.reject(capsys, 7, [{"code": 0, "weight": 1.0}], "'d' = 7", "[1, 6]")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # 7**7 float64 zeros would be 6.6 MB
        # 40**40 entries exceed what numpy can even describe
        self.reject(capsys, 40, [{"code": 0, "weight": 1.0}], "'d' = 40")


class TestReaderErrors:
    def test_missing_input_file(self, capsys, tmp_path):
        path = tmp_path / "absent.json"
        code, _, err = run_cli(capsys, "gini", "--input", str(path))
        assert code == 2
        assert err.startswith("usage error:")
        assert "absent.json" in err

    @pytest.mark.parametrize(
        "pairs", ["[[1,0],[0]]", '[[1,0],["a",0]]', "[[1,0],[null,0]]", '[[1,0],"12"]']
    )
    def test_bad_amplitude_pairs(self, capsys, pairs):
        state = f'{{"dim": 2, "amplitudes": {pairs}}}'
        code, _, err = run_cli(capsys, "quantum-stats", "--state", state)
        assert code == 1
        assert err.startswith("error: amplitudes must be a list of 2 [re, im] pairs")

    @pytest.mark.parametrize("vector", ['"abc"', '[0.5, "x"]', "[[0.5], [0.25, 0.25]]"])
    def test_non_numeric_vector(self, capsys, vector):
        code, _, err = run_cli(capsys, "gini", "--vector", vector)
        assert code == 1
        assert err == "error: probability vector must be a non-empty 1-D sequence of numbers\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["gini", "--vector", "[NaN]"],
            ["gini", "--vector", "[Infinity]"],
            ["gini", "--vector", "[-Infinity]"],
            ["gini", "--vector", "[1e400]"],
            ["gini", "--vector", f"[{10**399}]"],
            ["gini", "--vector", f"[{10**400}]"],
            ["quantum-stats", "--state", f'{{"dim": 2, "amplitudes": [[1,0],[{10**400},0]]}}'],
        ],
        ids=["nan", "infinity", "minus-infinity", "1e400", "400-digit-int", "401-digit-int",
             "401-digit-int-amplitude"],
    )
    def test_numbers_outside_rfc8259_doubles(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: invalid JSON payload") and err.count("\n") == 1

    @pytest.mark.parametrize("path", ["/nonexistent/dir/x.json", "."])
    def test_unwritable_out_file(self, capsys, path):
        code, out, err = run_cli(capsys, "validate", "--vector", "[1]", "--out", path)
        assert (code, out) == (2, "")
        assert err.startswith(f"usage error: cannot write --out file {path!r}: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["expand", "--matrix", '[[0.5,0.5],["a",0.5]]'],
            ["expand", "--matrix", "[[0.5,0.5],[1.0]]"],
            ["correlations", "--tensor", '[0.25,"x",0.25,0.25]'],
            ["simulate", "--ensemble", '{"kind":"independent","matrix":"x"}'],
            ["scalar-product", "--matrix", "[[1,0],[0,1]]", "--matrix", '[[1,0],["b",1]]'],
        ],
    )
    def test_non_numeric_matrix_or_tensor(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


def pairs_oracle(entries, n):
    """The ``np.asarray(..., dtype=float)`` reading of [re, im] pairs, or None if rejected."""
    try:
        arr = np.asarray(entries, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return None
    if arr.shape != (n, 2) or not np.isfinite(arr).all():
        return None
    return arr[:, 0] + 1j * arr[:, 1]


json_scalars = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(),
    st.sampled_from([10**400, -(10**400)]),
    st.booleans(),
    st.none(),
    st.sampled_from(["12", "1.5", " -2e3 ", "nan", "inf", "x", "", "1_0", "0x1"]),
    st.text(max_size=3),
)
pair_items = st.one_of(
    st.lists(json_scalars, min_size=2, max_size=2),
    st.lists(json_scalars, max_size=3),
    st.lists(st.lists(json_scalars, max_size=2), min_size=2, max_size=2),
    json_scalars,
    st.dictionaries(st.text(max_size=2), json_scalars, max_size=2),
)


@st.composite
def pair_payloads(draw):
    entries = draw(st.one_of(st.lists(pair_items, max_size=5), json_scalars))
    sizes = [st.integers(0, 6)]
    if isinstance(entries, (list, str)):
        sizes.append(st.just(len(entries)))
    return entries, draw(st.one_of(*sizes))


class TestComplexPairs:
    @settings(max_examples=500, deadline=None)
    @given(pair_payloads())
    @example(([[1, 2], "12"], 2))
    @example(([[True, False], ["1.5", None]], 2))
    @example(([[1.0, 2.0], [float("nan"), 0.0]], 2))
    @example(([[1.0, -0.0], [-0.0, 2.0]], 2))
    @example(([], 0))
    @example(([[[1, 2], [3, 4]]], 1))
    def test_matches_asarray_route(self, payload):
        entries, n = payload
        want = pairs_oracle(entries, n)
        try:
            got = cli._complex_pairs(entries, n, "entries")
        except ValidationError as exc:
            assert want is None, exc
            assert str(exc) == f"entries must be a list of {n} [re, im] pairs of finite numbers"
        else:
            assert want is not None
            assert got.tobytes() == want.tobytes()


def same_json(got, want) -> bool:
    """Equal decoded JSON, floats bit for bit.

    The one allowed difference: an integer outside [-2**63, 2**64 - 1], which
    the payload decoder reads as the nearest float.
    """
    if isinstance(want, float):
        return isinstance(got, float) and got.hex() == want.hex()
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(map(same_json, got, want))
    if isinstance(want, dict):
        return (isinstance(got, dict) and list(got) == list(want)
                and all(map(same_json, got.values(), want.values())))
    if type(want) is int and not -(2**63) <= want < 2**64:
        return isinstance(got, float) and got == float(want)
    return type(got) is type(want) and got == want


surrogate_free = st.characters(blacklist_categories=("Cs",))
json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),  # subnormals and zeros
        st.just(-0.0),
        st.integers(-(2**63), 2**64 - 1),
        st.text(st.one_of(st.sampled_from('[]{}"\\'), surrogate_free)),
    ),
    lambda kids: st.one_of(
        st.lists(kids, max_size=5),
        st.dictionaries(st.text(surrogate_free, max_size=4), kids, max_size=5),
    ),
    max_leaves=40,
)


@st.composite
def long_decimals(draw):
    """A finite number spelled with 17 to 25 significant digits, subnormal to near the double maximum."""
    digits = draw(st.sampled_from("123456789")) + draw(st.text("0123456789", min_size=16, max_size=24))
    point = draw(st.integers(1, len(digits) - 1))
    exponent = draw(st.integers(-350, 308 - point))
    return f"{draw(st.sampled_from(['', '-']))}{digits[:point]}.{digits[point:]}e{exponent}"


# pieces of JSON, of almost-JSON and of what json.loads accepts beyond RFC 8259
json_pieces = st.sampled_from([
    "[", "]", "{", "}", ",", ":", " ", "\t", "\n", "\r", "\x0b", '"', "\\", '"a"', '"\\u00e9"', '"\u00e9"',
    '"\\ud83d\\ude00"', '"\\ud800"', '"\\udc00x"', '"\ud800"', '"\x01"', '"\\/\\b"', "true", "false",
    "null", "NaN", "Infinity", "-Infinity", "0", "-0", "1", "-", "+", ".", "e", "E", "5", "2.5", "-0.0",
    "1e400", "1e-400", "4.9e-324", "1.7976931348623157e308", "1.7976931348623159e308",
    "18446744073709551615", "18446744073709551616", "-9223372036854775808", "-9223372036854775809",
    "1" * 25, "\ufeff",
])


class TestParseJson:
    @settings(max_examples=300, deadline=None)
    @given(json_values, st.lists(long_decimals(), max_size=60), st.booleans())
    @example(None, ["2.2250738585072011e-308", "4.9406564584124654e-324", "2.4703282292062328e-324",
                    "1.7976931348623158e308", "9007199254740993.0", "0.1000000000000000055511151231257827"], True)
    @example({"entries": [[1.5, -0.0], [5e-324, 1.7976931348623157e308]]}, [], True)
    def test_matches_json_loads(self, value, decimals, ascii_only):
        text = "[" + json.dumps(value, ensure_ascii=ascii_only) + "".join("," + d for d in decimals) + "]"
        assert same_json(cli._parse_json(text), json.loads(text))

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.one_of(json_pieces, st.text('[]{},:"\\ -+.0123456789eEtrufalsn', max_size=3)),
                    max_size=30).map("".join))
    @example('{"a": 1, "a": [2, {"b": -0}]}')
    @example("[18446744073709551616, -9223372036854775809]")
    def test_accepts_only_what_json_loads_accepts(self, text):
        try:
            got = cli._parse_json(text)
        except ValidationError as exc:
            assert str(exc).startswith("invalid JSON payload: ")
            return
        assert same_json(got, json.loads(text))

    @settings(max_examples=100, deadline=None)
    @given(json_values, st.integers(-2, 1), st.booleans())
    @example([], 0, True)
    @example([], 1, True)
    @example({"a": {"b": []}}, 1, True)
    @example(["]" * 2000, []], 1, True)
    @example(['\\"]' * 700, "}]" * 700, "\\", []], 1, True)
    @example(["[" * 2000, '\\"', []], 0, False)
    def test_depth_limit_is_exact(self, value, offset, ascii_only):
        # brackets, quotes and backslashes inside strings do not nest
        def depth(v):
            kids = v.values() if isinstance(v, dict) else v if isinstance(v, list) else None
            return 0 if kids is None else 1 + max(map(depth, kids), default=0)

        wraps = cli.MAX_JSON_DEPTH - depth(value) + offset
        text = "[" * wraps + json.dumps(value, ensure_ascii=ascii_only) + "]" * wraps
        if offset > 0:
            limit = cli.MAX_JSON_DEPTH
            with pytest.raises(ValidationError, match=f"^invalid JSON payload: nested deeper than {limit} levels$"):
                cli._parse_json(text)
        else:
            assert same_json(cli._parse_json(text), json.loads(text))

    @pytest.mark.parametrize("start", [True, False])
    def test_restores_collector_state(self, start):
        was = gc.isenabled()
        try:
            (gc.enable if start else gc.disable)()
            assert cli._parse_json('{"entries": [[1, 0], [0, 1]]}') == {"entries": [[1, 0], [0, 1]]}
            assert gc.isenabled() is start
            with pytest.raises(ValidationError, match="invalid JSON payload"):
                cli._parse_json('{"entries": [[1, 0],')
            assert gc.isenabled() is start
        finally:
            (gc.enable if was else gc.disable)()


class TestStateAdmission:
    def reject(self, capsys, state, needle):
        code, out, err = run_cli(capsys, "quantum-stats", "--state", json.dumps(state))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and needle in err, err

    @pytest.fixture
    def no_large_densities(self, monkeypatch):
        """Fail instead of forming a density beyond the supported size."""
        real = quantum.pure_density

        def guarded(psi):
            assert np.size(psi) <= quantum.MAX_COMPONENTS**quantum.MAX_COMPONENTS
            return real(psi)

        monkeypatch.setattr(quantum, "pure_density", guarded)

    @pytest.mark.parametrize(
        "images, needle",
        [("ab", "'images' must be a list"), (["a", 1], "images[0] must be an integer"),
         ([1.5, 0], "images[0]"), ([0, True], "images[1]"), ([], "'images' must be a list"),
         ({"0": 1}, "'images' must be a list")],
    )
    def test_bad_images(self, capsys, images, needle):
        self.reject(capsys, {"images": images}, needle)

    def test_images_checked_before_allocation(self, capsys, no_large_densities):
        cli._build_parser()
        tracemalloc.start()
        try:
            # six images would be a 46656-dimensional ket and a 35 GB density
            self.reject(capsys, {"images": [0] * 6}, "1 to 5 integers")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("form", ["amplitudes", "entries"])
    @pytest.mark.parametrize("dim", [0, -4, 3126, 46656])
    def test_dim_outside_supported_range(self, capsys, form, dim):
        self.reject(capsys, {"dim": dim, form: []}, f"state 'dim' = {dim} outside [1, 3125]")

    def test_dim_checked_before_allocation(self, no_large_densities):
        # 46656 amplitudes of zero: the norm check would reject them too, but
        # only after converting them; the cap rejects before reading them
        state = {"dim": 6**6, "amplitudes": [[0.0, 0.0]] * 6**6}
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="outside"):
                cli._as_state(state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**16


def mixed_density(d, seed):
    """A rank-two density on the d**d space, as the array and its CLI payload."""
    rng = np.random.default_rng(seed)
    n = d**d
    kets = []
    for _ in range(2):
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        kets.append(z / np.linalg.norm(z))
    rho = 0.35 * np.outer(kets[0], kets[0].conj()) + 0.65 * np.outer(kets[1], kets[1].conj())
    entries = np.column_stack((rho.real.ravel(), rho.imag.ravel())).tolist()
    payload = json.dumps({"dim": n, "entries": entries})
    return pairs_oracle(entries, n * n).reshape(n, n), payload


def stats_fields(stats):
    return {
        "markov": stats.markov,
        "tensor": stats.tensor,
        "products": stats.products,
        "correlations": stats.correlations,
        "gini_vector": stats.gini_vector,
        "total_gini": stats.total_gini,
    }


def library_quantum_stats(rho):
    stats = quantum.state_stats(rho)
    return {"command": "quantum-stats", "seed": 0, "d": stats.d, "dim": rho.shape[0],
            **stats_fields(stats)}


def library_deficits(rho):
    deficits = quantum.uncertainty_deficits(rho)
    return {
        "command": "deficits",
        "seed": 0,
        "d": quantum.local_dimension(rho.shape[0]),
        "local_components": deficits.local_components,
        "local_total": deficits.local_total,
        "global_components": deficits.global_components,
        "global_total": deficits.global_total,
    }


def library_dual(mode):
    def run(rho):
        dual = quantum.dual_state(rho, mode)
        return {"command": "dual", "seed": 0, "mode": mode,
                "state": {"dim": rho.shape[0], "entries": dual.ravel()},
                **stats_fields(quantum.state_stats(dual))}
    return run


class TestDifferentialQuantum:
    """CLI stdout against ``cli._dumps`` of the library result on the same array."""

    VERBS = {
        "quantum-stats": (["quantum-stats"], library_quantum_stats),
        "deficits": (["deficits"], library_deficits),
        "dual-local": (["dual", "--mode", "local"], library_dual("local")),
        "dual-global": (["dual", "--mode", "global"], library_dual("global")),
    }

    @pytest.mark.parametrize("route", ["inline", "input"])
    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("verb", sorted(VERBS))
    def test_cli_matches_library(self, capsys, tmp_path, verb, d, route):
        rho, payload = mixed_density(d, seed=40 + d)
        if route == "inline":
            source = ["--state", payload]
        else:
            path = tmp_path / "rho.json"
            path.write_text(payload, encoding="utf-8")
            source = ["--input", str(path)]
        head, library = self.VERBS[verb]
        code, out, err = run_cli(capsys, *head, *source)
        assert code == 0, err
        want = cli._dumps(library(rho)) + "\n"
        if out != want:  # name the first differing line; a diff of 5 MB texts takes minutes
            got_lines, want_lines = out.splitlines(), want.splitlines()
            i = next((i for i, pair in enumerate(zip(got_lines, want_lines)) if pair[0] != pair[1]),
                     min(len(got_lines), len(want_lines)))
            got_line = got_lines[i] if i < len(got_lines) else "<end>"
            want_line = want_lines[i] if i < len(want_lines) else "<end>"
            pytest.fail(f"stdout line {i + 1} is {got_line!r}; the library gives {want_line!r}")


def verb_inputs(d, seed):
    """A probability vector, two row Markov matrices and a correlated tensor at d."""
    rng = np.random.default_rng(seed)
    q = rng.dirichlet(np.full(d, 0.7), size=d)
    p = rng.dirichlet(np.full(d, 0.7), size=d)
    t = rng.dirichlet(np.full(d**d, 0.3))
    return rng.dirichlet(np.ones(2 * d + 1)), q, p, t


def library_terms(values, d, name, keep):
    images = markov.function_table(d).tolist()
    return [{"code": code, "images": images[code], name: v}
            for code, v in enumerate(values.tolist()) if keep(v)]


@functools.lru_cache(maxsize=None)
def library_results(d, seed):
    """(argv, library result) for every verb outside the quantum ones, on inputs at d."""
    x, q, p, t = verb_inputs(d, seed)
    text = {name: json.dumps(a.tolist()) for name, a in (("x", x), ("q", q), ("p", p), ("t", t))}
    y = probvec.validate_prob_vector(x[::-1] * 0.5 + 0.5 / x.size)
    xv = probvec.validate_prob_vector(x)
    qv, pv = markov.validate_row_markov(q), markov.validate_row_markov(p)
    tv = markov.validate_markov_tensor(t)
    ens_q = json.dumps({"kind": "independent", "matrix": q.tolist()})
    ens_p = json.dumps({"kind": "independent", "matrix": p.tolist()})
    spec_q, spec_p = ensembles.EnsembleSpec.independent(q), ensembles.EnsembleSpec.independent(p)
    weights = markov.product_probabilities(qv)
    coeffs = markov.correlation_coefficients(tv)
    sums = markov.scalar_product_via_tensors(
        *(markov.validate_markov_tensor(w) for w in (weights, markov.product_probabilities(pv)))
    )
    n = 3000
    sampled = ensembles.empirical_tensor(spec_q, n, ensembles.make_rng(seed))
    mc = ensembles.collision_probability_mc(spec_q, spec_p, n, ensembles.make_rng(seed))
    est = eta.estimate_eta(d, "global_total" if d <= 4 else "single", 30, seed=seed)
    lo, hi = probvec.average_bounds(xv)
    head = {"seed": seed}
    return {
        "validate": (["validate", "--vector", text["x"]],
                     {"command": "validate", **head, "d": xv.size, "vector": xv}),
        "lorenz": (["lorenz", "--vector", text["x"]],
                   {"command": "lorenz", **head, "d": xv.size, "lorenz": probvec.lorenz_values(xv),
                    "ordering": probvec.ordering_permutation(xv)}),
        "gini": (["gini", "--vector", text["x"]],
                 {"command": "gini", **head, "d": xv.size, "gini": probvec.gini_index(xv),
                  "gini_mean_abs_diff": probvec.gini_mean_abs_diff(xv), "average_bounds": [lo, hi]}),
        "majorize": (["majorize", "--vector", text["x"], "--vector", json.dumps(y.tolist())],
                     {"command": "majorize", **head, "relation": probvec.majorizes(xv, y).value}),
        "expand": (["expand", "--matrix", text["q"], "--floor", "1e-3"],
                   {"command": "expand", **head, "d": d, "weights": weights,
                    "terms": library_terms(weights, d, "weight", lambda w: w >= 1e-3)}),
        "scalar-product-direct": (
            ["scalar-product", "--matrix", text["q"], "--matrix", text["p"]],
            {"command": "scalar-product", **head, "method": "direct",
             "value": markov.scalar_product(qv, pv)}),
        "scalar-product-tensors": (
            ["scalar-product", "--tensor", json.dumps(weights.tolist()),
             "--tensor", json.dumps(markov.product_probabilities(pv).tolist())],
            {"command": "scalar-product", **head, "method": "tensors", "value": sums}),
        "correlations": (["correlations", "--tensor", text["t"], "--floor", "1e-4"],
                         {"command": "correlations", **head, "d": d, "coefficients": coeffs,
                          "terms": library_terms(coeffs, d, "coefficient", lambda c: abs(c) >= 1e-4)}),
        "simulate": (["simulate", "--ensemble", ens_q, "--n", str(n)],
                     {"command": "simulate", **head, "n": n, "d": d, "weights": sampled}),
        "collision": (["collision", "--ensemble", ens_q, "--ensemble", ens_p, "--n", str(n)],
                      {"command": "collision", **head, "value": mc.value, "stderr": mc.stderr, "n": mc.n}),
        "eta": (["eta", "--d", str(d), "--mode", est.mode, "--budget", "30"],
                {"command": "eta", **head, "d": d, "mode": est.mode, "budget": 30,
                 "evaluations": est.evaluations, "best_sum": est.best_sum, "eta_upper": est.eta_upper,
                 "best_state": {"dim": est.best_state.size, "amplitudes": est.best_state}}),
    }


class TestDifferentialVerbs:
    """CLI stdout against ``cli._dumps`` of the library result, for the non-quantum verbs."""

    VERBS = ["collision", "correlations", "eta", "expand", "gini", "lorenz", "majorize",
             "scalar-product-direct", "scalar-product-tensors", "simulate", "validate"]

    @pytest.mark.parametrize("d, seed", [(2, 0), (3, 7), (5, 11)])
    @pytest.mark.parametrize("verb", VERBS)
    def test_cli_matches_library(self, capsys, verb, d, seed):
        argv, result = library_results(d, seed)[verb]
        code, out, err = run_cli(capsys, *argv, "--seed", str(seed))
        assert code == 0, err
        assert out == cli._dumps(result) + "\n"


class TestSimulationCommands:
    ENSEMBLE = json.dumps(
        {"kind": "independent", "matrix": [[0.5, 0.5, 0], [0, 0.5, 0.5], [0, 0.5, 0.5]]}
    )

    def test_simulate_schema(self, capsys):
        out = run_json(capsys, "simulate", "--ensemble", self.ENSEMBLE, "--n", "2000",
                       "--seed", "5")
        assert out["seed"] == 5
        assert out["n"] == 2000
        assert abs(sum(out["weights"]) - 1.0) < 1e-12

    def test_collision_schema(self, capsys):
        out = run_json(
            capsys, "collision", "--ensemble", self.ENSEMBLE, "--ensemble", self.ENSEMBLE,
            "--n", "20000", "--seed", "1",
        )
        assert out["n"] == 20000
        assert abs(out["value"] - 0.125) < 6 * out["stderr"]

    def test_collision_rejects_correlated(self, capsys):
        corr = json.dumps({"kind": "correlated", "weights": [0.25, 0.25, 0.25, 0.25]})
        code, _, err = run_cli(
            capsys, "collision", "--ensemble", corr, "--ensemble", corr, "--n", "10"
        )
        assert code == 1
        assert "independent" in err

    def test_byte_identical_reruns(self, capsys):
        args = ("simulate", "--ensemble", self.ENSEMBLE, "--n", "500", "--seed", "3",
                "--format", "csv")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


class TestQuantumCommands:
    STATE = json.dumps(
        {
            "dim": 4,
            "amplitudes": [
                [0.5477225575051661, 0.0],
                [0.0, 0.0],
                [0.0, 0.0],
                [0.8366600265340756, 0.0],
            ],
        }
    )

    def test_quantum_stats(self, capsys):
        out = run_json(capsys, "quantum-stats", "--state", self.STATE)
        assert out["d"] == 2
        np.testing.assert_allclose(out["markov"], [[0.3, 0.7], [0.3, 0.7]], atol=1e-9)
        assert out["total_gini"] == pytest.approx((3 - 2 * 0.3) / 5, abs=1e-9)

    def test_basis_state_input(self, capsys):
        out = run_json(capsys, "quantum-stats", "--state", '{"d": 2, "images": [1, 0]}')
        np.testing.assert_allclose(out["markov"], [[0, 1], [1, 0]], atol=0)

    def test_dual_single_mode(self, capsys):
        state = json.dumps({"dim": 2, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]})
        out = run_json(capsys, "dual", "--state", state, "--mode", "single")
        np.testing.assert_allclose(out["probabilities"], [0.5, 0.5], atol=1e-12)
        assert out["gini"] == pytest.approx(0.0, abs=1e-12)

    def test_dual_output_feeds_back(self, capsys, tmp_path):
        out = run_json(capsys, "dual", "--state", self.STATE, "--mode", "global")
        path = tmp_path / "dual.json"
        path.write_text(json.dumps(out))
        again = run_json(capsys, "quantum-stats", "--input", str(path))
        np.testing.assert_allclose(again["markov"], out["markov"], atol=1e-12)

    def test_deficits(self, capsys):
        out = run_json(capsys, "deficits", "--state", self.STATE)
        assert all(v > 0 for v in out["local_components"])
        assert out["local_total"] > 0
        assert all(v > 0 for v in out["global_components"])
        assert out["global_total"] > 0

    def test_eta(self, capsys):
        out = run_json(capsys, "eta", "--d", "2", "--mode", "single", "--budget", "60",
                       "--seed", "11")
        assert out["evaluations"] <= 60
        assert 0 <= out["eta_upper"] <= 2 / 3
        assert len(out["best_state"]["amplitudes"]) == 2
        again = run_json(capsys, "eta", "--d", "2", "--mode", "single", "--budget", "60",
                         "--seed", "11")
        assert again == out


class TestReports:
    def test_table1(self, capsys):
        out = run_json(capsys, "report", "table1", "--a", "0.2", "--b", "0.45")
        assert out["all_pass"] is True
        assert len(out["rows"]) == 8

    def test_table1_degenerate_corner(self, capsys):
        out = run_json(capsys, "report", "table1", "--a", "0", "--b", "0")
        assert out["all_pass"] is True
        weights = {tuple(r["images"]): r["joint_probability"] for r in out["rows"]}
        assert weights[(1, 2, 1)] == 1.0
        products = {tuple(r["images"]): r["product_probability"] for r in out["rows"]}
        assert products[(1, 2, 1)] == 1.0
        assert sum(products.values()) == 1.0

    def test_table2(self, capsys):
        out = run_json(capsys, "report", "table2", "--a2", "0.3")
        assert out["all_pass"] is True
        row00 = out["rows"][0]
        assert row00["pair_joint"] == pytest.approx(0.3, abs=1e-12)
        assert row00["pair_product"] == pytest.approx(0.09, abs=1e-12)
        assert row00["pair_correlation"] == pytest.approx(0.21, abs=1e-12)

    def test_section84(self, capsys):
        out = run_json(capsys, "report", "section84")
        assert out["all_pass"] is True

    def test_section9(self, capsys):
        out = run_json(capsys, "report", "section9")
        assert out["all_pass"] is True
        by_name = {c["name"]: c for c in out["checks"]}
        # reported three-decimal values carry truncation error beyond 5e-4
        assert by_name["dual_markov"]["pass"] is True
        assert by_name["dual_markov"]["pass_strict"] is False
        assert by_name["full_precision_dual_total_gini"]["pass"] is True
        assert by_name["mixed_dual_total_gini"]["pass"] is True

    def test_rejects_bad_two_qubit_params(self, capsys):
        code, _, err = run_cli(capsys, "report", "table2", "--a2", "0.7")
        assert code == 1


class TestOutputFormats:
    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "gini", "--vector", "[0.5,0.5]", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "key,value"
        assert any(line.startswith("gini,") for line in lines)
        # 17 significant digits round-trip doubles
        value = [line for line in lines if line.startswith("gini,")][0].split(",")[1]
        assert float(value) == 0.0

    def test_out_file_lf_endings(self, capsys, tmp_path):
        path = tmp_path / "report.csv"
        code, _, _ = run_cli(
            capsys, "gini", "--vector", "[0.2,0.8]", "--format", "csv", "--out", str(path)
        )
        assert code == 0
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_json_roundtrip_bit_exact(self, capsys):
        _, out1, _ = run_cli(capsys, "quantum-stats", "--state", TestQuantumCommands.STATE)
        reparsed = json.dumps(json.loads(out1), indent=2) + "\n"
        assert reparsed == out1

    def test_seed_echoed_everywhere(self, capsys):
        for argv in (
            ("gini", "--vector", "[0.5,0.5]", "--seed", "9"),
            ("report", "table1", "--seed", "9"),
            ("expand", "--matrix", TestMarkovCommands.DEMO, "--seed", "9"),
        ):
            out = run_json(capsys, *argv)
            assert out["seed"] == 9
