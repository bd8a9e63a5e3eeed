"""The benchmark recorder reads pytest's summary and slowest tests, and
refuses malformed sides."""

import importlib.util
from pathlib import Path

import pytest

_path = Path(__file__).resolve().parents[1] / "tools" / "record_bench.py"
_spec = importlib.util.spec_from_file_location("record_bench", _path)
record_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_bench)
ROOT = _path.parents[1]

OUTPUT = """\
........................................................................ [ 50%]
.......................................................................  [100%]
============================= slowest 10 durations =============================
4.81s call     tests/test_ratmat.py::test_rcef_matches_reference[16]
0.52s setup    bench/test_bench.py::test_small_workload_end_to_end[0-colour4]

(8 durations < 0.005s hidden.  Use -vv to show these durations.)
143 passed in 37.02s
"""


def test_parse_tier1_reads_the_pass_count_and_the_slowest_tests():
    got = record_bench.parse_tier1(OUTPUT)
    assert got["passed"] == 143 and got["summary"] == "143 passed in 37.02s"
    assert got["slowest"] == [
        {"seconds": 4.81, "phase": "call", "test": "tests/test_ratmat.py::test_rcef_matches_reference[16]"},
        {"seconds": 0.52, "phase": "setup", "test": "bench/test_bench.py::test_small_workload_end_to_end[0-colour4]"},
    ]


def test_parse_tier1_of_no_output():
    assert record_bench.parse_tier1("") == {"passed": 0, "summary": "", "slowest": []}


@pytest.mark.parametrize(
    "sides, message",
    [
        (["parent"], "expected NAME=DIR"),
        (["parent="], "expected NAME=DIR"),
        (["=."], "expected NAME=DIR"),
        # the second, bench-less tree must not silently replace the first
        ([f"a={ROOT}", "a=."], "named twice"),
    ],
    ids=["no-equals", "no-dir", "no-name", "repeated"],
)
def test_a_malformed_or_repeated_side_is_a_usage_error(
    sides, message, tmp_path, monkeypatch, capsys
):
    def no_run(*args):
        raise AssertionError("a malformed side reached a run")

    monkeypatch.setattr(record_bench, "bench_row", no_run)
    monkeypatch.setattr(record_bench, "tier1_row", no_run)
    monkeypatch.chdir(tmp_path)  # a tree with no bench/run.py
    argv = ["--label", "x"]
    for side in sides:
        argv += ["--side", side]
    with pytest.raises(SystemExit) as exc:
        record_bench.main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
