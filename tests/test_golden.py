"""The CLI against the golden corpus: the numbers it printed when the corpus was recorded.

Exit codes, stderr, key order, strings, ints and bools must match exactly,
and floats within 1e-12.  Under the numpy and orjson versions the corpus was
recorded with, the JSON and CSV stdout must also keep their bytes.  The
corpus also runs warm, in one process, first to last and back: each argv
follows its predecessor, then its successor, and a read may return what the
read before it admitted.
``tests/golden_corpus.py`` rewrites the corpus.
"""

import math

import pytest

import golden_corpus

CORPUS = golden_corpus.load()
RECORDED = {"numpy": CORPUS["numpy"], "orjson": CORPUS["orjson"]}
OUTPUTS = CORPUS["outputs"]
IDS = [f"{i:02d}-{entry['argv'][0]}" for i, entry in enumerate(OUTPUTS)]


def assert_same(got, want, path="$"):
    """`got` is `want` with floats within 1e-12: same types, key order, strings, ints and bools."""
    assert type(got) is type(want), (path, got, want)
    if isinstance(want, dict):
        assert list(got) == list(want), (path, list(got), list(want))
        for key, value in want.items():
            assert_same(got[key], value, f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), (path, len(got), len(want))
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12), (path, got, want)
    else:
        assert got == want, (path, got, want)


def test_the_corpus_holds_every_argv():
    assert [entry["argv"] for entry in OUTPUTS] == golden_corpus.ARGV


def assert_recorded(entry):
    got = golden_corpus.record(entry["argv"])
    assert (got["exit"], got["stderr"]) == (entry["exit"], entry["stderr"]), entry["argv"]
    assert_same(got["json"], entry["json"])
    if golden_corpus.versions() == RECORDED:
        assert (got["json_sha256"], got["csv_sha256"]) == (entry["json_sha256"], entry["csv_sha256"]), entry["argv"]


@pytest.mark.parametrize("entry", OUTPUTS, ids=IDS)
def test_output_matches_the_corpus(entry):
    assert_recorded(entry)


def test_a_warm_process_prints_the_corpus_forwards_and_back():
    for entry in [*OUTPUTS, *reversed(OUTPUTS)]:
        assert_recorded(entry)
