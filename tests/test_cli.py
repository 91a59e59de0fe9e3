"""Tests for the command-line interface: exit codes, schemas, determinism."""

import argparse
import ctypes
import functools
import gc
import json
import os
import resource
import stat
import subprocess
import sys
import threading
import tracemalloc
import types
import weakref
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import golden_corpus
from conftest import random_complex_unit
from ginisafe import DimensionMismatchError, ValidationError, cli, ensembles, eta, markov, probvec, quantum
from ginisafe.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def dumps(obj) -> bytes:
    """The JSON writer's bytes for `obj`."""
    return orjson.dumps(obj, default=cli._plain, option=cli._ORJSON_OPTIONS)


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

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1e-9", "1", "1e308"])
    def test_tolerance_must_be_finite_and_non_negative(self, capsys, tol):
        # a NaN or infinite tolerance admits any vector and renormalises it; from 1 on,
        # an all-zero row passes and is divided by its sum of 0
        code, out, err = run_cli(capsys, "gini", "--vector", "[0.5,0.5]", f"--tol={tol}")
        assert (code, out) == (2, "")
        assert err.startswith("usage error: --tol must be a finite number >= 0")

    @pytest.mark.parametrize("tol", ["-0", "0"])
    def test_a_zero_tolerance_is_echoed_without_a_sign(self, capsys, tol):
        code, out, err = run_cli(capsys, "gini", "--vector", "[5,-7]", f"--tol={tol}")
        assert (code, out, err) == (1, "", "error: entry 1 = -7 is negative beyond tolerance 0\n")

    @pytest.mark.parametrize("seed", [0, 2**64 - 1, 2**64, -1])
    @pytest.mark.parametrize("argv", [
        ["simulate", "--ensemble", '{"kind":"independent","matrix":[[0.5,0.5],[0.5,0.5]]}', "--n", "10"],
        ["gini", "--vector", "[0.5,0.5]"],
    ], ids=["drawing", "non-drawing"])
    def test_seed_is_an_integer_the_writer_can_write(self, capsys, argv, seed):
        # orjson writes ints up to 2**64 - 1; every verb admits --seed once, drawing or not
        code, out, err = run_cli(capsys, *argv, "--seed", str(seed))
        if 0 <= seed <= 2**64 - 1:
            assert (code, err) == (0, "")
            assert json.loads(out)["seed"] == seed
        else:
            assert (code, out) == (1, "")
            assert err == f"error: seed = {seed} outside [0, 18446744073709551615]\n"

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

    @pytest.mark.parametrize("argv", [
        ["expand", "--matrix", json.dumps([[0.2] * 5] * 5)],  # 560 KB, more than a pipe holds
        ["validate", "--vector", "[0.3,0.7]"],  # a few bytes, which stdout may hold until a flush
    ], ids=["large", "small"])
    def test_a_closed_stdout_exits_1_silently(self, argv):
        read, write = os.pipe()
        os.close(read)  # no reader: every write to stdout fails
        env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "ginisafe.cli", *argv], stdout=write, stderr=subprocess.PIPE,
                env=env, timeout=120,
            )
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr.decode()) == (1, "")

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

    @pytest.mark.parametrize(
        "inline, flags",
        [(True, ["--tensors"]), (True, ["--verify-product-form"]), (True, ["--tensors", "--verify-product-form"]),
         (False, ["--verify-product-form"])],
    )
    def test_scalar_product_rejects_tensor_flags_for_matrices(self, capsys, tmp_path, inline, flags):
        path = tmp_path / "pair.json"
        path.write_text(f"[{self.DEMO}, {self.DEMO}]")
        payloads = ["--matrix", self.DEMO, "--matrix", self.DEMO] if inline else ["--input", str(path)]
        code, out, err = run_cli(capsys, "scalar-product", *payloads, *flags)
        assert (code, out) == (2, "")
        assert "--tensors" in err and "--verify-product-form" in err, err

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
        echo = repr(json.loads(vector))  # the payload as the message shows it
        assert err == f"error: probability vector must be a non-empty 1-D array of real numbers, got {echo}\n"

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


def uniform_ensemble(d: int) -> str:
    return json.dumps({"kind": "independent", "matrix": [[1 / d] * d] * d})


STATE_FORMS = "'entries', 'amplitudes' or 'images'"
ENSEMBLE_KIND = "ensemble payload must be an object with a 'kind' field"
# id, argv head, payload flag (None: the argv reads no payload), payloads, exit code, message
CLI_REJECTIONS = [
    ("vector-field", ["gini"], "--vector", ['{"x": [1]}'], 1, "object payload has no 'vector' field"),
    ("ensemble-matrix-field", ["simulate"], "--ensemble", ['{"kind": "independent"}'], 1,
     "object payload has no 'matrix' field"),
    ("tensor-form", ["correlations"], "--tensor", ['{"d": 2}'], 1,
     "object payload has no 'weights'/'tensor'/'terms' field"),
    ("terms-not-a-list", ["correlations"], "--tensor", ['{"d": 2, "terms": {"code": 0, "weight": 1}}'], 1,
     "sparse tensor 'terms' must be a list of {code, weight} objects"),
    ("term-not-an-object", ["correlations"], "--tensor", ['{"d": 2, "terms": [[0, 1]]}'], 1,
     "terms[0] must be an object with 'code' and 'weight'"),
    ("ensemble-kind", ["simulate"], "--ensemble", ['{"matrix": [[1, 0], [0, 1]]}'], 1, ENSEMBLE_KIND),
    ("ensemble-not-an-object", ["simulate"], "--ensemble", ["[[1, 0], [0, 1]]"], 1, ENSEMBLE_KIND),
    ("state-not-an-object", ["quantum-stats"], "--state", ["[1, 0]"], 1, "state payload must be a JSON object"),
    ("state-form", ["quantum-stats"], "--state", ['{"dim": 2}'], 1, f"state payload needs {STATE_FORMS}"),
    ("state-two-forms", ["quantum-stats"], "--state",
     ['{"dim": 4, "amplitudes": [[1, 0], [0, 0], [0, 0], [0, 0]], "images": [0, 1]}'], 1,
     "state payload names 'amplitudes' and 'images'; give one"),
    ("state-three-forms", ["quantum-stats"], "--state",
     ['{"state": {"dim": 1, "entries": [[1, 0]], "amplitudes": [[1, 0]], "images": [0]}}'], 1,
     "state payload names 'entries', 'amplitudes' and 'images'; give one"),
    ("ket-dim", ["quantum-stats"], "--state", ['{"dim": 9, "images": [0, 1]}'], 1,
     "state 'dim' = 9 does not match the 2 'images', a ket of dim 4"),
    ("ket-dim-not-an-integer", ["quantum-stats"], "--state", ['{"dim": "x", "images": [0, 1]}'], 1,
     "state 'dim' must be an integer in [1, 3125], got 'x'"),
    ("tensor-sizes", ["scalar-product", "--tensors"], "--tensor",
     [json.dumps([1 / 4] * 4), json.dumps([1 / 27] * 27)], 1, "tensor sizes 4 and 27 differ"),
    ("ensemble-dimensions", ["collision"], "--ensemble", [uniform_ensemble(2), uniform_ensemble(3)], 1,
     "ensembles have dimensions 2 and 3"),
    ("both-kinds", ["scalar-product", "--matrix", "[[1]]", "--matrix", "[[1]]", "--tensor", "[1]"], None, [], 2,
     "pass two --matrix or two --tensor payloads, not both kinds"),
    ("table2-sum", ["report", "table2", "--c2", "0.5", "--d2", "0.3", "--e2", "0.3"], None, [], 1,
     "--c2 + --d2 + --e2 must sum to 1"),
    ("table2-order", ["report", "table2", "--c2", "0.3", "--d2", "0.5", "--e2", "0.2"], None, [], 1,
     "need 0 < e2 < d2 < c2"),
    ("table1-order", ["report", "table1", "--a", "0.6", "--b", "0.3"], None, [], 1,
     "correlated demo tensor requires 0 <= a <= b <= 1"),
    ("section84-a2", ["report", "section84", "--a2", "0.5"], None, [], 1,
     "--a2 must lie in (0, 1/2) so |a| < |b|"),
]
# id, call, exception type, message
CALL_REJECTIONS = [
    ("push-forward", lambda: markov.push_forward([0.5, 0.5], np.eye(3)), DimensionMismatchError,
     "cannot push a 2-vector through a (3, 3) matrix"),
    ("tensor-sizes", lambda: markov.scalar_product_via_tensors(np.full(4, 1 / 4), np.full(27, 1 / 27)),
     DimensionMismatchError, "tensor sizes 4 and 27 differ"),
    ("ensemble-dimensions",
     lambda: ensembles.collision_probability_mc(*map(ensembles.EnsembleSpec.independent, (np.eye(2), np.eye(3))),
                                                10, ensembles.make_rng(0)),
     DimensionMismatchError, "ensembles have dimensions 2 and 3"),
]
REJECTIONS = [
    pytest.param(("argv", head, flag, payloads, route), code, message, id=f"{name}-{route}")
    for name, head, flag, payloads, code, message in CLI_REJECTIONS
    for route in (("inline", "input") if flag else ("inline",))
] + [pytest.param(("call", call), error, message, id=f"{name}-call") for name, call, error, message in CALL_REJECTIONS]


@pytest.mark.parametrize("target, outcome, message", REJECTIONS)
def test_rejection_messages(capsys, tmp_path, target, outcome, message):
    """Each rejection's exact message: an argv's exit code and stderr, inline and through --input, or a call's error."""
    if target[0] == "call":
        with pytest.raises(outcome) as info:
            target[1]()
        assert str(info.value) == message
        return
    _, head, flag, payloads, route = target
    argv = list(head)
    if route == "inline":
        argv += [arg for payload in payloads for arg in (flag, payload)]
    else:
        path = tmp_path / "payload.json"
        path.write_text(payloads[0] if len(payloads) == 1 else f"[{', '.join(payloads)}]", encoding="utf-8")
        argv += ["--input", str(path)]
    want = f"error: {message}\n" if outcome == 1 else (
        f"usage error: {message}\nrun 'ginisafe {head[0]} --help' for the grammar\n")
    assert run_cli(capsys, *argv) == (outcome, "", want)


def holds_string(value) -> bool:
    return isinstance(value, str) or isinstance(value, list) and any(map(holds_string, value))


def pairs_oracle(entries, n):
    """The ``np.asarray(..., dtype=float)`` reading of [re, im] pairs, or None if rejected.

    A string is rejected, though numpy would parse a numeric one.
    """
    if holds_string(entries):
        return None
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
    @example(([[1, 2], 3], 2))  # an unsized item: len() raises TypeError
    @example(([[1, 2], {"re": 1, "im": 2}], 2))  # a 2-key dict: its keys fail struct.pack
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


def payload_bytes(text: str) -> bytes:
    """The payload text `_read` makes of an inline flag's str."""
    return text.encode("utf-8", "surrogatepass")


class TestParseJson:
    @settings(max_examples=300, deadline=None)
    @given(json_values, st.lists(long_decimals(), max_size=60), st.booleans())
    @example(None, ["2.2250738585072011e-308", "4.9406564584124654e-324", "2.4703282292062328e-324",
                    "1.7976931348623158e308", "9007199254740993.0", "0.1000000000000000055511151231257827"], True)
    @example({"entries": [[1.5, -0.0], [5e-324, 1.7976931348623157e308]]}, [], True)
    def test_matches_json_loads(self, value, decimals, ascii_only):
        text = "[" + json.dumps(value, ensure_ascii=ascii_only) + "".join("," + d for d in decimals) + "]"
        assert same_json(cli._parse_json(payload_bytes(text)), json.loads(text))

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.one_of(json_pieces, st.text('[]{},:"\\ -+.0123456789eEtrufalsn', max_size=3)),
                    max_size=30).map("".join))
    @example('{"a": 1, "a": [2, {"b": -0}]}')
    @example("[18446744073709551616, -9223372036854775809]")
    def test_accepts_only_what_json_loads_accepts(self, text):
        try:
            got = cli._parse_json(payload_bytes(text))
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
                cli._parse_json(payload_bytes(text))
        else:
            assert same_json(cli._parse_json(payload_bytes(text)), json.loads(text))

    @pytest.mark.parametrize("start", [True, False])
    def test_restores_collector_state(self, start):
        was = gc.isenabled()
        try:
            (gc.enable if start else gc.disable)()
            assert cli._parse_json(b'{"entries": [[1, 0], [0, 1]]}') == {"entries": [[1, 0], [0, 1]]}
            assert gc.isenabled() is start
            with pytest.raises(ValidationError, match="invalid JSON payload"):
                cli._parse_json(b'{"entries": [[1, 0],')
            assert gc.isenabled() is start
        finally:
            (gc.enable if was else gc.disable)()


class TestCollectorPause:
    """`main` runs a verb's handler with the cyclic collector paused, then restores the caller's state."""

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def collector(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("argv, exit_code, computes", [
        (["gini", "--vector", "[0.5,0.5]"], 0, True),
        (["gini", "--vector", "[0.5,-0.5]"], 1, False),
        (["gini", "--vector", "[0.5,0.5]", "--out", "/nonexistent/dir/out"], 2, True),
        (["gini", "--vector", "[0.5,0.5]", "--bogus"], 2, False),  # argparse exits before the pause
    ], ids=["exit 0", "exit 1", "exit 2", "argparse exit 2"])
    def test_restores_the_callers_state(self, capsys, monkeypatch, collector, argv, exit_code, computes):
        seen = []
        gini_index = probvec.gini_index

        def recording(x):
            seen.append(gc.isenabled())
            return gini_index(x)

        monkeypatch.setattr(probvec, "gini_index", recording)
        code, _, _ = run_cli(capsys, *argv)
        assert code == exit_code
        assert gc.isenabled() is collector
        assert set(seen) == ({False} if computes else set())

    def test_restores_the_callers_state_out_of_memory(self, capsys, monkeypatch, collector):
        seen = []

        def exhausted(*args):
            seen.append(gc.isenabled())
            raise MemoryError

        monkeypatch.setattr(ensembles, "empirical_tensor", exhausted)
        code, _, err = run_cli(capsys, "simulate", "--ensemble", TestSimulationCommands.ENSEMBLE)
        assert (code, err) == (1, "error: out of memory in 'simulate'\n")
        assert seen == [False]
        assert gc.isenabled() is collector

    def test_writes_with_the_collector_paused(self, capsys, monkeypatch, collector):
        seen = []
        emit = cli._emit

        def recording(out, args):
            seen.append(gc.isenabled())
            return emit(out, args)

        monkeypatch.setattr(cli, "_emit", recording)
        code, out, _ = run_cli(capsys, "validate", "--vector", "[0.5,0.5]")
        assert code == 0 and out
        assert seen == [False]
        assert gc.isenabled() is collector

    def test_the_output_is_freed_before_the_collector_resumes(self, capsys, monkeypatch):
        arrays, freed = [], []
        plain = cli._plain

        def recording(obj):
            arrays.append(weakref.ref(obj))
            return plain(obj)

        def enable():
            freed.append([ref() is None for ref in arrays])
            gc.enable()

        monkeypatch.setattr(cli, "_plain", recording)
        monkeypatch.setattr(cli, "gc", types.SimpleNamespace(isenabled=lambda: True, disable=gc.disable,
                                                             enable=enable))
        assert run_cli(capsys, "lorenz", "--vector", "[0.25,0.75]")[0] == 0
        assert freed == [[True, True]]  # the Lorenz values and the ordering

    def test_restores_the_callers_state_on_a_non_finite_output(self, capsys, monkeypatch, collector):
        monkeypatch.setattr(probvec, "gini_index", lambda x: float("nan"))
        code, out, err = run_cli(capsys, "gini", "--vector", "[0.5,0.5]")
        assert (code, out, err) == (1, "", "error: output field gini is not a finite number\n")
        assert gc.isenabled() is collector


class TestInputFile:
    """--input is read as bytes and decoded only when not ASCII: results are those of a text-mode read."""

    STATE = {"dim": 4, "amplitudes": [[0.6, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.8]]}

    def read(self, capsys, tmp_path, data: bytes, verb="quantum-stats"):
        path = tmp_path / "payload.json"
        path.write_bytes(data)
        return run_cli(capsys, verb, "--input", str(path))

    def test_ascii_file_reaches_the_decoder_as_bytes(self, capsys, tmp_path, monkeypatch):
        seen = []
        decode = cli._orjson_decode
        monkeypatch.setattr(cli, "_orjson_decode", lambda text: seen.append(type(text)) or decode(text))
        assert self.read(capsys, tmp_path, json.dumps(self.STATE).encode())[0] == 0
        assert seen == [bytes]

    def test_invalid_utf8_is_a_usage_error(self, capsys, tmp_path):
        data = json.dumps(self.STATE).encode()
        code, out, err = self.read(capsys, tmp_path, data + b"\xff")
        assert (code, out) == (2, "")
        assert err.startswith("usage error: cannot read --input file ")
        assert f"can't decode byte 0xff in position {len(data)}: invalid start byte" in err

    @pytest.mark.parametrize("verb", ["quantum-stats", "deficits"])
    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["CRLF", "CR"])
    def test_line_endings_match_inline(self, capsys, tmp_path, verb, newline):
        text = json.dumps(self.STATE, indent=1)
        inline = run_cli(capsys, verb, "--state", text)
        assert inline[0] == 0
        assert self.read(capsys, tmp_path, text.replace("\n", newline).encode(), verb) == inline

    def test_non_ascii_key_matches_inline(self, capsys, tmp_path):
        text = json.dumps({**self.STATE, "clé": "é"}, ensure_ascii=False, indent=1)
        inline = run_cli(capsys, "quantum-stats", "--state", text)
        assert inline[0] == 0
        assert self.read(capsys, tmp_path, text.replace("\n", "\r\n").encode()) == inline

    def test_byte_order_mark_fails_as_the_same_text(self, capsys, tmp_path):
        # a UTF-8 read keeps U+FEFF, so the file fares as the same text inline
        # (orjson 3.8.3 rejects it: exit 1, "byte order mark (BOM) is not supported")
        text = "\ufeff" + json.dumps(self.STATE)
        inline = run_cli(capsys, "quantum-stats", "--state", text)
        assert self.read(capsys, tmp_path, text.encode()) == inline

    @pytest.mark.parametrize("prefix", ["", "\u00e9"], ids=["ASCII", "non-ASCII"])
    def test_error_positions_count_text_mode_characters(self, capsys, tmp_path, prefix):
        # text mode turned CRLF into LF, so an error's position is that of the LF text
        text = f'["{prefix}",\n' + "1,\n" * 5 + ",]"
        inline = run_cli(capsys, "quantum-stats", "--state", text)
        assert inline[0] == 1 and "line 7 column" in inline[2]
        assert self.read(capsys, tmp_path, text.replace("\n", "\r\n").encode()) == inline


def str_depth(text: str) -> int:
    """The deepest bracket nesting outside strings, a backslash escaping the next character anywhere."""
    depth = deepest = 0
    in_string = escaped = False
    for char in text:
        if escaped:
            escaped = False
        elif char == "\\":
            escaped = True
        elif char == '"':
            in_string = not in_string
        elif not in_string and char in "[{":
            depth += 1
            deepest = max(deepest, depth)
        elif not in_string and char in "]}":
            depth -= 1
    return deepest


def str_route(text: str) -> tuple:
    """What orjson makes of the str itself, behind the depth rule: ("value", the value) or (1, the error line)."""
    limit = cli.MAX_JSON_DEPTH
    if len(text) > 2 * limit and str_depth(text) > limit:  # a shorter text that deep is invalid JSON
        return 1, f"error: invalid JSON payload: nested deeper than {limit} levels\n"
    try:
        return "value", orjson.loads(text)
    except orjson.JSONDecodeError as exc:
        return 1, f"error: invalid JSON payload: {exc}\n"


line_ends = st.sampled_from(["\n", "\r\n", "\r"])
reader_texts = st.one_of(
    st.builds(  # almost-JSON, non-ASCII and lone surrogates included, nested around the depth limit
        lambda opens, body, closes: "[" * opens + body + "]" * closes,
        st.sampled_from([0, 1, 511, 512, 513, 700]),
        st.lists(st.one_of(json_pieces, line_ends, st.sampled_from(["\u00e9", "\U0001f600", "\udcff", "\ufeff"]),
                           st.text(max_size=3)), max_size=20).map("".join),
        st.sampled_from([0, 1, 512, 513, 700]),
    ),
    st.builds(  # JSON with non-ASCII text, its line ends respelled
        lambda value, end, bom: bom + json.dumps(value, ensure_ascii=False, indent=1).replace("\n", end),
        json_values, line_ends, st.sampled_from(["", "\ufeff"]),
    ),
)


class TestPayloadBytes:
    """Payload texts reach the decoder as bytes, with the value or the error line orjson gives their str."""

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(reader_texts)
    @example("[" * 513 + "\u00e9" * 300)  # 813 characters in 1113 bytes: too deep, and left to the decoder
    @example("[" * 513 + "\u00e9" * 600 + "]" * 513)
    @example('["\udcff"]')
    @example("\ufeff[0.5, 0.5]")
    @example('["\u00e9",\r\n1,\r\n,]')
    @example("[" * 513 + "\\" + "]" * 512)  # 1026 characters, 1024 once the escape is gone
    @example("--")  # argparse before Python 3.13 gives --vector=-- as an empty list
    def test_both_routes_decode_as_the_str(self, capsys, monkeypatch, tmp_path, text):
        decoded = []
        decode = cli._orjson_decode
        monkeypatch.setattr(cli, "_orjson_decode", lambda data: decoded.append(decode(data)) or decoded[-1])
        path = tmp_path / "payload.json"
        path.write_bytes(payload_bytes(text))
        try:  # a file is decoded as UTF-8 and its line ends made LF, as in text mode
            from_file = str_route(payload_bytes(text).decode("utf-8").replace("\r\n", "\n").replace("\r", "\n"))
        except UnicodeDecodeError as exc:
            from_file = 2, (f"usage error: cannot read --input file {str(path)!r}: {exc}\n"
                            "run 'ginisafe validate --help' for the grammar\n")
        # "--vector=" takes a text that starts with "-" too
        for argv, (outcome, want) in (([f"--vector={text}"], str_route(text)), (["--input", str(path)], from_file)):
            cli._memo = None
            decoded.clear()
            code, out, err = run_cli(capsys, "validate", *argv)
            if outcome == "value":
                assert len(decoded) == 1 and same_json(decoded[0], want), (decoded, want)
            else:
                assert (code, out, err) == (outcome, "", want)


class TestReadMemo:
    """`_read` keeps what it last admitted: the same payload bytes under the same option are read once."""

    STATE = json.dumps(TestInputFile.STATE)
    INDEPENDENT = json.dumps({"kind": "independent", "matrix": [[0.5, 0.5], [0.1, 0.9]]})
    CORRELATED = json.dumps({"kind": "correlated", "weights": [0.1, 0.2, 0.3, 0.4]})

    def decoded(self, monkeypatch) -> list:
        """The texts the decoder is handed from now on."""
        seen = []
        decode = cli._orjson_decode
        monkeypatch.setattr(cli, "_orjson_decode", lambda text: seen.append(text) or decode(text))
        return seen

    def test_a_repeated_input_file_is_not_decoded_again(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "density.json"
        path.write_text(mixed_density(4, 7)[1], encoding="utf-8")
        seen = self.decoded(monkeypatch)
        assert run_cli(capsys, "quantum-stats", "--input", str(path))[0] == 0
        warm = run_cli(capsys, "deficits", "--input", str(path))
        assert len(seen) == 1
        cold = subprocess.run(
            [sys.executable, "-m", "ginisafe.cli", "deficits", "--input", str(path)],
            capture_output=True, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120,
        )
        assert warm == (cold.returncode, cold.stdout.decode(), cold.stderr.decode())
        assert warm[0] == 0

    def test_a_file_rewritten_with_other_bytes_is_decoded_again(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "state.json"
        path.write_text(self.STATE)
        seen = self.decoded(monkeypatch)
        first = run_cli(capsys, "quantum-stats", "--input", str(path))
        stat = path.stat()
        # the same length and modification time: only the bytes tell the payloads apart
        path.write_text(self.STATE.replace("0.6", "0.8").replace("[0.0, 0.8]", "[0.0, 0.6]"))
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert path.stat().st_size == stat.st_size
        second = run_cli(capsys, "quantum-stats", "--input", str(path))
        assert len(seen) == 2
        cli._memo = None
        assert second == run_cli(capsys, "quantum-stats", "--input", str(path)) != first

    @pytest.mark.parametrize("argv", [
        ["validate", "--vector", "[0.5,0.6]"],
        ["quantum-stats", "--state", '{"dim": 2, "amplitudes": [[1,0],[0]]}'],
    ], ids=["sum", "pairs"])
    def test_a_rejected_payload_is_decoded_each_time(self, capsys, monkeypatch, argv):
        seen = self.decoded(monkeypatch)
        first, second = run_cli(capsys, *argv), run_cli(capsys, *argv)
        assert len(seen) == 2
        assert first == second
        assert (first[0], first[1]) == (1, "") and first[2].startswith("error: ")

    def test_each_option_value_has_its_own_entry(self, capsys, monkeypatch):
        seen = self.decoded(monkeypatch)
        for repair in ([], ["--repair"], ["--repair"]):
            assert run_cli(capsys, "quantum-stats", "--state", self.STATE, *repair)[0] == 0
        assert len(seen) == 2
        # a row summing to 1 + 1e-7 passes at --tol 1e-6; at 1e-9 it is read again and rejected
        argv = ["simulate", "--ensemble", TestOptionContract.LOOSE, "--n", "10"]
        assert run_cli(capsys, *argv, "--tol", "1e-6")[0] == 0
        code, _, err = run_cli(capsys, *argv, "--tol", "1e-9")
        assert code == 1 and err.startswith("error: row 0:")
        assert len(seen) == 4

    def test_zero_tolerances_share_an_entry(self, capsys, monkeypatch):
        seen = self.decoded(monkeypatch)
        outputs = [run_cli(capsys, "gini", "--vector", "[0.25,0.75]", f"--tol={tol}") for tol in ("0", "-0")]
        assert len(seen) == 1
        assert outputs[0] == outputs[1] and outputs[0][0] == 0

    def test_an_inline_payload_never_reads_as_an_input_list(self, capsys, tmp_path):
        # one --input text holds both payloads; the same text inline is one payload of two
        text = "[[0.5,0.5],[0.6,0.4]]"
        path = tmp_path / "pair.json"
        path.write_text(text)
        assert run_cli(capsys, "majorize", "--input", str(path))[0] == 0
        code, out, err = run_cli(capsys, "majorize", "--vector", text)
        assert (code, out) == (2, "")
        assert err.startswith("usage error: expected 2 --vector payload(s) (or --input), got 1")

    @pytest.mark.parametrize("argv, kind, count", [
        (["gini", "--vector", "[0.25,0.75]"], "vector", 1),
        (["majorize", "--vector", "[0.25,0.75]", "--vector", "[0.5,0.5]"], "vector", 2),
        (["expand", "--matrix", "[[1,0],[0,1]]"], "matrix", 1),
        (["correlations", "--tensor", '{"d":2,"terms":[{"code":0,"weight":1}]}'], "tensor", 1),
        (["collision", "--ensemble", INDEPENDENT, "--ensemble", INDEPENDENT], "ensemble", 2),
        (["simulate", "--ensemble", CORRELATED], "ensemble", 1),
        (["quantum-stats", "--state", STATE], "state", 1),
        (["quantum-stats", "--state", STATE, "--repair"], "state", 1),
        (["quantum-stats", "--state", '{"d": 2, "images": [1, 0]}'], "state", 1),
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_admitted_arrays_are_read_only(self, argv, kind, count):
        args = cli._build_parser().parse_args(argv)
        objects = cli._read(args, kind, count)
        arrays = [
            array
            for obj in objects
            for array in ((obj.matrix, obj.tensor) if isinstance(obj, ensembles.EnsembleSpec) else (obj,))
            if array is not None
        ]
        assert len(arrays) == count
        assert all(array.flags.writeable is False for array in arrays)
        with pytest.raises(ValueError, match="read-only"):
            arrays[0][0] = 0.0
        assert all(a is b for a, b in zip(cli._read(args, kind, count), objects, strict=True))

    @pytest.mark.parametrize("argv, loaded", [
        (["report", "table1"], (False, False)),
        (["gini", "--vector", "[0.25,0.75]"], (True, False)),
        (["deficits", "--state", '{"images":[0,1]}'], (True, False)),
        (["eta", "--d", "2", "--budget", "5"], (True, True)),
    ], ids=["report", "gini", "deficits", "eta"])
    def test_hashlib_loads_only_where_a_payload_is_digested(self, argv, loaded):
        # OpenSSL's _hashlib took 2.6 ms of every start, a verb that reads no payload included;
        # numpy.random, about 12 ms to import on a 2-core x86-64 host, loads _hashlib with it: only a
        # verb that draws states may import it
        probe = (
            "import sys; from ginisafe.cli import main; main(sys.argv[1:]); "
            "print('_hashlib' in sys.modules, 'numpy.random' in sys.modules, file=sys.stderr)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe, *argv],
            capture_output=True, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120,
        )
        assert (proc.returncode, proc.stderr.decode().split()) == (0, [str(flag) for flag in loaded])

    def test_a_new_read_drops_the_kept_objects_before_decoding(self, tmp_path):
        # a d = 4 read after another peaks as a cold one: the 1 MiB density kept is freed first
        parse = cli._build_parser().parse_args
        reads = []
        for seed in (1, 2):
            path = tmp_path / f"density-{seed}.json"
            path.write_text(mixed_density(4, seed)[1], encoding="utf-8")
            reads.append(parse(["quantum-stats", "--input", str(path)]))
        cli._read(parse(["quantum-stats", "--state", self.STATE]), "state", 1)  # first-call allocations

        def peak(*before):
            cli._memo = None
            tracemalloc.start()
            try:
                for args in before:
                    cli._read(args, "state", 1)
                tracemalloc.reset_peak()
                cli._read(reads[1], "state", 1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        cold, warm = peak(), peak(reads[0])
        kept = 16 * 256**2
        assert warm < cold + kept // 8, (warm, cold)


INLINE_PAYLOADS = [
    ("validate", "--vector", "[0.5,0.5]"),
    ("lorenz", "--vector", "[0.5,0.5]"),
    ("gini", "--vector", "[0.1,0.9]"),
    ("majorize", "--vector", "[0.5,0.5]"),
    ("expand", "--matrix", "[[1,0],[0,1]]"),
    ("scalar-product", "--matrix", "[[1,0],[0,1]]"),
    ("scalar-product", "--tensor", "[0.25,0.25,0.25,0.25]"),
    ("correlations", "--tensor", "[0.25,0.25,0.25,0.25]"),
    ("simulate", "--ensemble", '{"kind": "independent", "matrix": [[1,0],[0,1]]}'),
    ("collision", "--ensemble", '{"kind": "independent", "matrix": [[1,0],[0,1]]}'),
    ("quantum-stats", "--state", '{"d": 2, "images": [1, 0]}'),
    ("dual", "--state", '{"d": 2, "images": [1, 0]}'),
    ("deficits", "--state", '{"d": 2, "images": [1, 0]}'),
]


@pytest.mark.parametrize("verb, flag, payload", INLINE_PAYLOADS,
                         ids=[f"{verb} {flag}" for verb, flag, _ in INLINE_PAYLOADS])
def test_inline_payload_with_input_is_a_usage_error(capsys, tmp_path, verb, flag, payload):
    path = tmp_path / "payload.json"
    path.write_text(payload, encoding="utf-8")
    code, out, err = run_cli(capsys, verb, flag, payload, "--input", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"usage error: {flag} and --input were both given"), err


class TestPayloadReader:
    """Each payload verb reads the same objects inline and from --input, and takes only its options."""

    VECTOR = "[0.1,0.5,0.4]"
    DEMO = "[[0.2,0.8,0],[0,0.2,0.8],[0,0.55,0.45]]"
    TENSOR = json.dumps({"d": 2, "terms": [{"code": 0, "weight": 0.5}, {"code": 3, "weight": 0.5}]})
    ENSEMBLE = json.dumps({"kind": "independent", "matrix": [[0.5, 0.5], [0.1, 0.9]]})
    STATE = json.dumps({"dim": 4, "amplitudes": [[0.6, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.8]]})

    # (verb and options, payload flag, payloads); two payloads go into --input as one list
    ROUTES = {
        "validate": (["validate"], "--vector", [json.dumps({"vector": [0.3, 0.7]})]),
        "lorenz": (["lorenz"], "--vector", [VECTOR]),
        "gini": (["gini"], "--vector", [VECTOR]),
        "majorize": (["majorize"], "--vector", ["[0.5,0.4,0.1]", json.dumps({"vector": [0.6, 0.2, 0.2]})]),
        "expand": (["expand", "--floor", "1e-9"], "--matrix", [DEMO]),
        "correlations": (["correlations"], "--tensor", [TENSOR]),
        "simulate": (["simulate", "--n", "500", "--seed", "3"], "--ensemble", [ENSEMBLE]),
        "collision": (["collision", "--n", "500", "--seed", "3"], "--ensemble", [ENSEMBLE, ENSEMBLE]),
        "quantum-stats": (["quantum-stats"], "--state", [STATE]),
        "dual-single": (["dual", "--mode", "single"], "--state", ['{"d": 2, "images": [1, 0]}']),
        "dual-local": (["dual", "--mode", "local"], "--state", [STATE]),
        "dual-global": (["dual", "--mode", "global"], "--state", [STATE]),
        "deficits": (["deficits"], "--state", [json.dumps({"state": json.loads(STATE)})]),
        "scalar-product-matrices": (["scalar-product"], "--matrix", [DEMO, json.dumps({"matrix": json.loads(DEMO)})]),
        "scalar-product-tensors": (["scalar-product", "--tensors"], "--tensor",
                                   ["[0.25,0.25,0.25,0.25]", TENSOR]),
    }

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_input_file_reads_as_inline(self, capsys, tmp_path, route):
        head, flag, payloads = self.ROUTES[route]
        inline = run_cli(capsys, *head, *(arg for p in payloads for arg in (flag, p)))
        assert inline[0] == 0, inline[2]
        path = tmp_path / "payload.json"
        path.write_text(payloads[0] if len(payloads) == 1 else f"[{', '.join(payloads)}]", encoding="utf-8")
        assert run_cli(capsys, *head, "--input", str(path)) == inline

    # per verb, every option: its first option string, action, type, default and choices
    OPTIONS = {
        "validate": {"--seed store int 0", "--tol store float 1e-09", "--format store 'json' json,csv",
                     "--out store None", "--input store None", "--vector append None"},
        "lorenz": {"--seed store int 0", "--tol store float 1e-09", "--format store 'json' json,csv",
                   "--out store None", "--input store None", "--vector append None"},
        "gini": {"--seed store int 0", "--tol store float 1e-09", "--format store 'json' json,csv",
                 "--out store None", "--input store None", "--vector append None"},
        "majorize": {"--seed store int 0", "--tol store float 1e-09", "--format store 'json' json,csv",
                     "--out store None", "--input store None", "--vector append None"},
        "expand": {"--seed store int 0", "--tol store float 1e-09", "--format store 'json' json,csv",
                   "--out store None", "--input store None", "--matrix append None",
                   "--floor store float 0.0"},
        "scalar-product": {"--seed store int 0", "--tol store float 1e-09", "--format store 'json' json,csv",
                           "--out store None", "--input store None", "--matrix append None",
                           "--tensor append None", "--tensors storetrue False",
                           "--verify-product-form storetrue False"},
        "correlations": {"--seed store int 0", "--tol store float 1e-09", "--format store 'json' json,csv",
                         "--out store None", "--input store None", "--tensor append None",
                         "--floor store float 0.0"},
        "simulate": {"--seed store int 0", "--tol store float 1e-09", "--format store 'json' json,csv",
                     "--out store None", "--input store None", "--ensemble append None",
                     "--n store int 100000"},
        "collision": {"--seed store int 0", "--tol store float 1e-09", "--format store 'json' json,csv",
                      "--out store None", "--input store None", "--ensemble append None",
                      "--n store int 100000"},
        "quantum-stats": {"--seed store int 0", "--format store 'json' json,csv", "--out store None",
                          "--input store None", "--state append None", "--repair storetrue False"},
        "dual": {"--seed store int 0", "--format store 'json' json,csv", "--out store None",
                 "--input store None", "--state append None", "--repair storetrue False",
                 "--mode store 'global' single,local,global"},
        "deficits": {"--seed store int 0", "--format store 'json' json,csv", "--out store None",
                     "--input store None", "--state append None", "--repair storetrue False"},
        "eta": {"--seed store int 0", "--format store 'json' json,csv", "--out store None",
                "--d store int None required",
                "--mode store 'single' single,local_total,global_component,global_total",
                "--budget store int 1000"},
        "report": {"--seed store int 0", "--format store 'json' json,csv", "--out store None",
                   "which store None table1,table2,section84,section9 required",
                   "--a store float None", "--b store float None", "--a2 store float None",
                   "--c2 store float None", "--d2 store float None", "--e2 store float None"},
    }

    @staticmethod
    def describe(action) -> str:
        words = [
            (action.option_strings or [action.dest])[0],
            type(action).__name__.strip("_").removesuffix("Action").lower(),
            *([action.type.__name__] if action.type else []),
            repr(action.default),
            *([",".join(action.choices)] if action.choices else []),
            *(["required"] if action.required else []),
        ]
        return " ".join(words)

    def test_each_verb_takes_exactly_its_options(self):
        parser = cli._build_parser()
        (verbs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        got = {
            verb: {self.describe(a) for a in sub._actions if a.dest != "help"}
            for verb, sub in verbs.choices.items()
        }
        assert got == self.OPTIONS


class TestStateAdmission:
    def reject(self, capsys, state, needle):
        code, out, err = run_cli(capsys, "quantum-stats", "--state", json.dumps(state))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and needle in err, err

    def test_amplitudes_whose_norm_overflows_give_one_error_line(self, capsys):
        # numpy's overflow RuntimeWarning was printed before the error line
        state = {"dim": 2, "amplitudes": [[1e160, 0], [1e160, 0]]}
        code, out, err = run_cli(capsys, "quantum-stats", "--state", json.dumps(state))
        assert (code, out, err) == (1, "", "error: amplitudes have norm inf, not 1\n")

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

    @pytest.mark.parametrize("d", [7, 1, 3, 0, "2", True, None, 2.5])
    def test_a_ket_d_must_count_its_images(self, capsys, d):
        self.reject(capsys, {"d": d, "images": [1, 0]}, "state 'd'")

    def test_a_ket_d_is_optional(self, capsys):
        assert run_cli(capsys, "quantum-stats", "--state", '{"d": 2, "images": [1, 0]}') == run_cli(
            capsys, "quantum-stats", "--state", '{"images": [1, 0]}'
        )

    @pytest.mark.parametrize("state", ['{"dim": 4, "images": [1, 0]}', '{"dim": 4.0, "d": 2, "images": [1, 0]}',
                                       '{"state": {"dim": 4, "images": [1, 0]}, "mode": "global"}'])
    def test_a_ket_dim_that_its_images_make_is_read(self, capsys, state):
        assert run_cli(capsys, "quantum-stats", "--state", state) == run_cli(
            capsys, "quantum-stats", "--state", '{"images": [1, 0]}'
        )

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
    """CLI stdout against the writer's bytes (`dumps`) of the library result on the same array."""

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
        want = dumps(library(rho)).decode() + "\n"
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


@pytest.mark.parametrize("d", [1, 3, 5, 6])
@pytest.mark.parametrize("floor", [0.0, 0.25, 1.0])
def test_terms_keep_the_codes_reaching_the_floor(floor, d):
    values = np.random.default_rng(5).uniform(-1.5, 1.5, d**d)
    if d == 1:
        values[0] = 1.0  # it reaches every floor, so that every case keeps a term
    else:
        values[[0, 3, 4, 9, 26]] = [np.nan, np.inf, -np.inf, 0.25, -0.25]
    got = cli._terms(values, d, "coefficient", floor)
    # images are tuples shared by every call: compared as lists, and never changed by a caller
    assert [{**term, "images": list(term["images"])} for term in got] == library_terms(
        values, d, "coefficient", lambda v: abs(v) >= floor)
    assert [type(v) for term in got for v in (term["code"], term["coefficient"])] == [int, float] * len(got)
    assert {type(i) for term in got for i in term["images"]} == {int}
    with pytest.raises(TypeError):
        got[0]["images"][0] = 1


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
                {"command": "eta", **head, "d": d, "mode": est.mode, "best_sum": est.best_sum,
                 "eta_upper": est.eta_upper, "best_state": {"dim": est.best_state.size, "amplitudes": est.best_state},
                 "evaluations": est.evaluations, "budget": 30}),
    }


class TestDifferentialVerbs:
    """CLI stdout against the writer's bytes (`dumps`) of the library result, for the non-quantum verbs."""

    VERBS = ["collision", "correlations", "eta", "expand", "gini", "lorenz", "majorize",
             "scalar-product-direct", "scalar-product-tensors", "simulate", "validate"]

    @pytest.mark.parametrize("d, seed", [(2, 0), (3, 7), (5, 11)])
    @pytest.mark.parametrize("verb", VERBS)
    def test_cli_matches_library(self, capsys, verb, d, seed):
        argv, result = library_results(d, seed)[verb]
        code, out, err = run_cli(capsys, *argv, "--seed", str(seed))
        assert code == 0, err
        assert out == dumps(result).decode() + "\n"


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

    READS = {"table1": ("--a", "--b"), "table2": ("--a2", "--c2", "--d2", "--e2"),
             "section84": ("--a2", "--c2", "--d2", "--e2"), "section9": ()}
    # a new value for each parameter, with a partner where the triple's weights must still sum to 1
    MOVES = {"--a": ["--a", "0.25"], "--b": ["--b", "0.4"], "--a2": ["--a2", "0.2"],
             "--c2": ["--c2", "0.55", "--d2", "0.25"], "--d2": ["--d2", "0.35", "--e2", "0.15"],
             "--e2": ["--e2", "0.15", "--c2", "0.55"]}

    @pytest.mark.parametrize("which", sorted(READS))
    def test_each_example_takes_exactly_its_parameters(self, capsys, which):
        default = run_json(capsys, "report", which)
        for option, argv in self.MOVES.items():
            if option in self.READS[which]:
                out = run_json(capsys, "report", which, *argv)
                assert out[option[2:]] == float(argv[1]) != default[option[2:]]
                assert out["all_pass"] is True and out["checks"] != default["checks"]
            else:
                code, out, err = run_cli(capsys, "report", which, *argv[:2])
                assert (code, out) == (2, ""), option
                assert err.startswith(f"usage error: report {which} does not read {option}\n"), err


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


def run_child(argv, preexec_fn):
    """Run the CLI on `argv` in a child process that calls `preexec_fn` first."""
    return subprocess.run(
        [sys.executable, "-m", "ginisafe.cli", *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120,
        preexec_fn=preexec_fn,
    )


def limit_file_size():
    """In a child: make a write past 4096 bytes fail with EFBIG."""
    resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096))


def meet_file_modes():
    """In a child: let root meet file modes as any user does, by dropping CAP_DAC_OVERRIDE and CAP_DAC_READ_SEARCH.

    They leave the bounding set, so the exec that follows does not restore
    them.  Any other user has neither, and runs unchanged.
    """
    if os.geteuid() != 0:
        return
    libc = ctypes.CDLL(None, use_errno=True)
    for capability in (1, 2):
        if libc.prctl(24, capability, 0, 0, 0) != 0:  # PR_CAPBSET_DROP
            raise OSError(ctypes.get_errno(), "PR_CAPBSET_DROP failed")


class TestOutFile:
    """--out writes a regular file whole or not at all, where replacing it does not show; anything else in place."""

    def test_a_failed_write_leaves_the_old_file(self, tmp_path):
        # RLIMIT_FSIZE acts on the child alone: the d = 5 expansion's 559 kB stop at 4096 bytes with EFBIG
        target = tmp_path / "out.json"
        target.write_bytes(b"old contents\n")
        for path in (target, tmp_path / "new.json"):
            proc = run_child(["expand", "--matrix", golden_corpus._D5, "--out", str(path)], limit_file_size)
            assert proc.returncode == 2
            assert proc.stderr.startswith(f"usage error: cannot write --out file {str(path)!r}: [Errno 27] ")
        assert target.read_bytes() == b"old contents\n"
        assert os.listdir(tmp_path) == ["out.json"]  # no temporary or partial file is left

    def test_a_read_only_file_is_refused(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_bytes(b"old contents\n")
        target.chmod(0o444)
        proc = run_child(["gini", "--vector", "[0.5,0.5]", "--out", str(target)], meet_file_modes)
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"usage error: cannot write --out file {str(target)!r}: "
                                      f"[Errno 13] Permission denied: {str(target)!r}\n")
        assert target.read_bytes() == b"old contents\n"
        assert os.listdir(tmp_path) == ["out.json"]

    def test_a_file_in_a_read_only_directory_is_written_in_place(self, capsys, tmp_path):
        _, out, _ = run_cli(capsys, "gini", "--vector", "[0.5,0.5]")
        shared = tmp_path / "shared"
        shared.mkdir()
        target = shared / "out.json"
        target.write_bytes(b"x" * 1000)  # longer than the output
        inode = target.stat().st_ino
        shared.chmod(0o555)
        try:
            proc = run_child(["gini", "--vector", "[0.5,0.5]", "--out", str(target)], meet_file_modes)
        finally:
            shared.chmod(0o755)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert target.read_text() == out and target.stat().st_ino == inode
        assert os.listdir(shared) == ["out.json"]

    def test_a_hard_linked_file_is_written_in_place(self, capsys, tmp_path):
        target, link = tmp_path / "out.json", tmp_path / "link.json"
        target.write_text("old\n")
        os.link(target, link)
        _, out, _ = run_cli(capsys, "gini", "--vector", "[0.5,0.5]")
        assert run_cli(capsys, "gini", "--vector", "[0.5,0.5]", "--out", str(target))[0] == 0
        assert target.read_text() == link.read_text() == out
        assert target.stat().st_ino == link.stat().st_ino

    @pytest.mark.skipif(os.geteuid() != 0, reason="giving a file to another owner needs root")
    def test_a_replaced_file_keeps_its_owner_group_and_mode(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("old\n")
        os.chown(target, 65534, 65534)
        target.chmod(0o604)
        _, out, _ = run_cli(capsys, "gini", "--vector", "[0.5,0.5]")
        assert run_cli(capsys, "gini", "--vector", "[0.5,0.5]", "--out", str(target))[0] == 0
        got = target.stat()
        assert target.read_text() == out
        assert (got.st_uid, got.st_gid, stat.S_IMODE(got.st_mode)) == (65534, 65534, 0o604)

    def test_an_error_names_the_out_path(self, capsys, tmp_path):
        path = str(tmp_path / "no" / "x.json")
        code, out, err = run_cli(capsys, "validate", "--vector", "[1]", "--out", path)
        assert (code, out) == (2, "")
        assert err.startswith(f"usage error: cannot write --out file {path!r}: "
                              f"[Errno 2] No such file or directory: {path!r}\n")

    def test_a_regular_file_gets_the_bytes_of_stdout(self, capsys, tmp_path):
        argv = ["expand", "--matrix", golden_corpus._D5]
        _, out, _ = run_cli(capsys, *argv)
        new, old = tmp_path / "new.json", tmp_path / "old.json"
        old.write_bytes(b"x" * 10**6)  # longer than the output
        old.chmod(0o640)
        for path in (new, old):
            assert run_cli(capsys, *argv, "--out", str(path))[0] == 0
            assert path.read_text() == out
        made = tmp_path / "made-by-open"
        open(made, "wb").close()
        assert new.stat().st_mode == made.stat().st_mode  # 0o666 & ~umask, not mkstemp's 0o600
        assert stat.S_IMODE(old.stat().st_mode) == 0o640
        assert sorted(os.listdir(tmp_path)) == ["made-by-open", "new.json", "old.json"]

    def test_a_symlink_is_written_through(self, capsys, tmp_path):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_text("old\n")
        link.symlink_to(target)
        _, out, _ = run_cli(capsys, "gini", "--vector", "[0.5,0.5]")
        assert run_cli(capsys, "gini", "--vector", "[0.5,0.5]", "--out", str(link))[0] == 0
        assert link.is_symlink() and target.read_text() == out

    def test_a_fifo_is_written_in_place(self, capsys, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        read = []
        # a daemon, so a writer that never opens the FIFO fails the test without hanging the run
        reader = threading.Thread(target=lambda: read.append(fifo.read_text()), daemon=True)
        reader.start()
        _, out, _ = run_cli(capsys, "gini", "--vector", "[0.5,0.5]")
        code = run_cli(capsys, "gini", "--vector", "[0.5,0.5]", "--out", str(fifo))[0]
        reader.join(timeout=60)
        assert code == 0 and not reader.is_alive() and read == [out]
        assert stat.S_ISFIFO(fifo.stat().st_mode)

    def test_dev_null_is_written_in_place(self, capsys):
        assert run_cli(capsys, "gini", "--vector", "[0.5,0.5]", "--out", os.devnull) == (0, "", "")
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


@pytest.fixture(scope="module")
def cap_payloads(tmp_path_factory):
    """Payloads at the caps: a d = 4 density file, a d = 5 ket file, and 6**6-entry vector, 6 x 6 matrix and
    6**6-entry tensor texts."""
    path = tmp_path_factory.mktemp("caps") / "density.json"
    path.write_text(mixed_density(4, 1)[1], encoding="utf-8")
    rng = np.random.default_rng(0)
    p, m, t = rng.random(6**6), rng.random((6, 6)), rng.random(6**6)
    psi = random_complex_unit(rng, 5**5)
    ket = path.with_name("ket.json")
    ket.write_text(json.dumps({"dim": 5**5, "amplitudes": np.column_stack((psi.real, psi.imag)).tolist()}))
    return {
        "state": str(path),
        "ket": str(ket),
        "vector": json.dumps((p / p.sum()).tolist()),
        "matrix": json.dumps((m / m.sum(axis=1, keepdims=True)).tolist()),
        "tensor": json.dumps((t / t.sum()).tolist()),
    }


class TestMemoryBudgets:
    """The tracemalloc peak of one warm call at each cap stays within 1.25 times its pinned figure.

    The call before it builds the transforms and kernels, and the read memo is
    then cleared, so the traced call decodes its payload again.  Its output
    goes to the test's capture.  The figures were measured with numpy 2.4.6
    and orjson 3.8.3; the d = 4 density is 1 MiB, the d = 5 ket 49 KiB.
    """

    #: the argv, the payload it ends with, and the traced peak in MiB
    BUDGETS = {
        "quantum-stats": (["quantum-stats", "--input"], "state", 11.0),
        "deficits": (["deficits", "--input"], "state", 11.0),
        "dual-local": (["dual", "--mode", "local", "--input"], "state", 18.0),
        "dual-global": (["dual", "--mode", "global", "--input"], "state", 18.0),
        # a d = 5 ket, which the density route expanded into a 149 MiB |psi><psi|
        "ket-quantum-stats": (["quantum-stats", "--input"], "ket", 0.75),
        "ket-deficits": (["deficits", "--input"], "ket", 0.57),
        "gini": (["gini", "--vector"], "vector", 3.5),
        "expand": (["expand", "--matrix"], "matrix", 41.6),
        "correlations": (["correlations", "--tensor"], "tensor", 42.1),
    }

    @pytest.mark.parametrize("name", sorted(BUDGETS))
    def test_the_peak_stays_in_its_budget(self, capsys, cap_payloads, name):
        argv, payload, mib = self.BUDGETS[name]
        argv = [*argv, cap_payloads[payload]]
        assert main(argv) == 0
        capsys.readouterr()
        cli._memo = None
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert peak <= 1.25 * mib * 2**20, peak / 2**20
