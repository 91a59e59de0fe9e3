"""The golden corpus: what the CLI prints today for a fixed set of argv.

``tests/golden/outputs.json`` holds, for every argv of ``ARGV``, the exit
code, the stderr, the sha256 of the JSON and of the CSV stdout and the parsed
JSON output, together with the numpy and orjson versions it was recorded
with.  ``tests/test_golden.py`` checks the CLI against it.  A change that
moves an output on purpose rewrites the file with

    PYTHONPATH=src python tests/golden_corpus.py

and names the argv that moved.
"""

import contextlib
import hashlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import orjson

from ginisafe import cli
from test_writer import EVERY_VERB

PATH = Path(__file__).resolve().parent / "golden" / "outputs.json"

# A d = 5 row Markov matrix: 3125 weights from 1e-5 to 2.4e-3, many of them in
# [1e-5, 1e-4), where orjson spells a float as 0.000012, not 1.2e-05, in an
# output past one stdout slice.
_D5 = json.dumps([[0.1, 0.2, 0.3, 0.15, 0.25], [0.25, 0.1, 0.2, 0.3, 0.15], [0.15, 0.25, 0.1, 0.2, 0.3],
                  [0.3, 0.15, 0.25, 0.1, 0.2], [0.2, 0.3, 0.15, 0.25, 0.1]])

# Payloads the readers reject with exit 1, from tests/test_cli.py.  Payloads
# that orjson itself rejects are left out: their stderr carries orjson's own
# message, which may change between releases.
INVALID_PAYLOADS = [
    ("validate", "--vector", "[0.5,0.6]"),
    ("gini", "--vector", '"abc"'),
    ("gini", "--vector", '[0.5, "x"]'),
    ("gini", "--vector", "[[0.5], [0.25, 0.25]]"),
    ("gini", "--vector", '["0.5","0.5"]'),
    ("expand", "--matrix", '[[0.5,0.5],["a",0.5]]'),
    ("expand", "--matrix", "[[0.5,0.5],[1.0]]"),
    ("expand", "--matrix", '[["1"]]'),
    ("correlations", "--tensor", '[0.25,"x",0.25,0.25]'),
    ("correlations", "--tensor", '{"d":2,"terms":[{"code":-1,"weight":0.5},{"code":0,"weight":0.5}]}'),
    ("correlations", "--tensor", '{"d":2,"terms":[{"code":0,"weight":0.5},{"code":9,"weight":0.5}]}'),
    ("correlations", "--tensor", '{"d":2,"terms":[{"code":0,"weight":0.5},{"code":3,"weight":0.5},'
                                 '{"code":0,"weight":0.5}]}'),
    ("correlations", "--tensor", '{"d":2,"terms":[{"weight":1.0}]}'),
    ("correlations", "--tensor", '{"d":2,"terms":[{"code":0}]}'),
    ("correlations", "--tensor", '{"d":7,"terms":[{"code":0,"weight":1.0}]}'),
    ("correlations", "--tensor", '{"d":1,"terms":[{"code":0,"weight":"1"}]}'),
    ("simulate", "--ensemble", '{"kind":"independent","matrix":"x"}'),
    ("simulate", "--ensemble", '{"kind":"independent","matrix":[[0.5,0.5000001],[0.5,0.5]]}', "--n", "10"),
    ("scalar-product", "--matrix", "[[1,0],[0,1]]", "--matrix", '[[1,0],["b",1]]'),
    ("quantum-stats", "--state", '{"dim": 2, "amplitudes": [[1,0],[0]]}'),
    ("quantum-stats", "--state", '{"dim": 2, "amplitudes": [[1,0],["a",0]]}'),
    ("quantum-stats", "--state", '{"dim": 2, "amplitudes": [[1,0],[null,0]]}'),
    ("quantum-stats", "--state", '{"dim": 2, "amplitudes": [[1,0],"12"]}'),
    ("quantum-stats", "--state", '{"dim":1,"entries":[["1","0"]]}'),
]

# State payloads the reader rejects with exit 1: two forms named at once, or a
# ket whose 'dim' is not an integer or not the one its images make.
AMBIGUOUS_STATES = [
    ("quantum-stats", "--state", '{"dim": 4, "amplitudes": [[1,0],[0,0],[0,0],[0,0]], "images": [0, 1]}'),
    ("quantum-stats", "--state", '{"dim": 1, "entries": [[1,0]], "amplitudes": [[1,0]]}'),
    ("quantum-stats", "--state", '{"dim": 9, "images": [0, 1]}'),
    ("quantum-stats", "--state", '{"dim": "x", "images": [0, 1]}'),
]


def _density(delta: float) -> str:
    """The dim-4 density diag(0.5 + delta, 0.5, 0, -delta) as a state payload."""
    diag = [0.5 + delta, 0.5, 0.0, -delta]
    return json.dumps({"dim": 4, "entries": [[diag[i] if i == j else 0.0, 0.0] for i in range(4) for j in range(4)]})


# Densities past the Cholesky certificate: at delta = 9.95e-9 eigh admits the
# density, at 2e-8 its eigenvalue -2e-8 is below the floor -1e-8 and --repair
# rejects it too.
DENSITY_ADMISSIONS = [
    ("quantum-stats", "--state", _density(9.95e-9)),
    ("quantum-stats", "--state", _density(9.95e-9), "--repair"),
    ("deficits", "--state", _density(9.95e-9), "--repair"),
    ("dual", "--state", _density(9.95e-9), "--mode", "local"),
    ("quantum-stats", "--state", _density(2e-8), "--repair"),
]


def _ket(d: int) -> str:
    """A d**d-dimensional ket with no zero amplitude, from small integers: its text is the same on every platform."""
    pairs = [((7 * k) % 11 - 5, (5 * k) % 13 - 6 or 1) for k in range(d**d)]
    norm = math.sqrt(sum(re * re + im * im for re, im in pairs))
    return json.dumps({"dim": d**d, "amplitudes": [[re / norm, im / norm] for re, im in pairs]})


# A d = 3 ket through every state verb.  The kets above are qubit pairs, where
# the ket and the density routes give the same bits; at d = 3 they do not.
KETS = [
    ("quantum-stats", "--state", _ket(3)),
    ("deficits", "--state", _ket(3)),
    ("dual", "--state", _ket(3), "--mode", "local"),
]


def _independent(matrix) -> str:
    return json.dumps({"kind": "independent", "matrix": matrix})


# A row that sums to 1 + 1e-7: inside --tol 1e-6, outside the default 1e-9.
_NEAR = _independent([[0.5, 0.5000001], [0.25, 0.75]])
_D7 = [[1 / 7] * 7 for _ in range(7)]
_CORRELATED = json.dumps({"kind": "correlated", "weights": [0.1, 0.2, 0.3, 0.4]})

# Ensemble payloads in every form, near the tolerance and past the code cap.
ENSEMBLES = [
    ("simulate", "--ensemble", _CORRELATED, "--n", "500", "--seed", "3"),
    ("simulate", "--ensemble", json.dumps({"kind": "correlated", "tensor": [0.4, 0.3, 0.2, 0.1]}), "--n", "500"),
    ("simulate", "--ensemble", json.dumps({"kind": "correlated", "d": 2, "terms": [
        {"code": 0, "weight": 0.5}, {"code": 3, "weight": 0.5}]}), "--n", "500", "--seed", "1"),
    ("simulate", "--ensemble", _NEAR, "--n", "500", "--tol", "1e-6"),
    ("simulate", "--ensemble", _NEAR, "--n", "500"),
    ("collision", "--ensemble", _NEAR, "--ensemble", _NEAR, "--n", "500", "--tol", "1e-6"),
    ("collision", "--ensemble", _NEAR, "--ensemble", _NEAR, "--n", "500"),
    ("simulate", "--ensemble", json.dumps({"kind": "correlated", "weights": [0.25, 0.25, 0.25, 0.2500001]}),
     "--n", "500", "--tol", "1e-6"),
    ("simulate", "--ensemble", _independent(_D7), "--n", "10"),
    ("simulate", "--ensemble", _independent(_D7[:3] + [[0.5, 0.6, 0, 0, 0, 0, 0]] + _D7[4:]), "--n", "10"),
    ("simulate", "--ensemble", json.dumps({"kind": "bogus", "matrix": [[1.0]]}), "--n", "10"),
    ("simulate", "--ensemble", json.dumps({"kind": list(range(2000)), "matrix": [[1.0]]}), "--n", "10"),
    ("collision", "--ensemble", _CORRELATED, "--ensemble", _independent([[0.5, 0.5], [0.5, 0.5]]), "--n", "10"),
]

_TWO_QUBIT = ("--a2", "0.2", "--c2", "0.6", "--d2", "0.25", "--e2", "0.15")

# The worked examples off their default parameters, and one rejected
# parameter set per example.
REPORTS = [
    ("report", "table1", "--a", "0.1", "--b", "0.3"),
    ("report", "table2", *_TWO_QUBIT),
    ("report", "section84", *_TWO_QUBIT),
    ("report", "table1", "--a", "0.6", "--b", "0.3"),
    ("report", "table2", "--a2", "0.7"),
    ("report", "section84", "--a2", "0.5"),
    ("report", "section9", "--a", "0.1"),
]

# A list added later goes at the end, so that every recorded entry keeps its
# index, which names its test in tests/test_golden.py.
ARGV = [list(argv) for argv in EVERY_VERB] + [["expand", "--matrix", _D5, "--floor", "0.001"]] + [
    list(argv) for argv in INVALID_PAYLOADS + ENSEMBLES + REPORTS + AMBIGUOUS_STATES + DENSITY_ADMISSIONS + KETS
]


def versions() -> dict:
    return {"numpy": np.__version__, "orjson": orjson.__version__}


def run(argv) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of ``cli.main(argv)``, run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def record(argv) -> dict:
    code, stdout, stderr = run(argv)
    csv_code, csv_stdout, csv_stderr = run([*argv, "--format", "csv"])
    assert (csv_code, csv_stderr) == (code, stderr), argv
    return {
        "argv": list(argv),
        "exit": code,
        "stderr": stderr,
        "json_sha256": sha256(stdout),
        "csv_sha256": sha256(csv_stdout),
        "json": json.loads(stdout) if stdout else None,
    }


def load() -> dict:
    return json.loads(PATH.read_text())


def main() -> None:
    corpus = {**versions(), "outputs": [record(argv) for argv in ARGV]}
    PATH.parent.mkdir(exist_ok=True)
    PATH.write_text(json.dumps(corpus, indent=1) + "\n")
    print(f"wrote {len(ARGV)} outputs to {PATH}", file=sys.stderr)


if __name__ == "__main__":
    main()
