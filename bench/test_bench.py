"""Fast checks of the emit-and-verify benchmark on small inputs.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

_spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
bench_run = importlib.util.module_from_spec(_spec)
sys.modules["bench_run"] = bench_run
_spec.loader.exec_module(bench_run)
sys.path.insert(0, str(bench_run.SRC))

SMALL = ("search8", "spectrum8", "colour4")


def _run_cli(workload: str, trace: int, cwd: Path = ROOT, script: Path = BENCH / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def _declared(section: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


@pytest.mark.parametrize("workload", SMALL)
@pytest.mark.parametrize("trace", (0, 1))
def test_small_workload_end_to_end(workload, trace):
    proc = _run_cli(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 2
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    summary = "\n".join(lines[:-1])
    for name, unit in declared.items():
        assert any(name in ln and unit in ln.split() for ln in lines[:-1]), name
    assert "failed_ops" in summary and "share" in summary
    if trace:
        values = {k: m["value"] for k, m in result["metrics"].items()}
        if workload == "colour4":
            assert values["ratmat.rank.calls"] == 0 and values["ratmat.entries"] == 0
            assert values["graphs.psi_edges.s"] > 0
            assert values["colouring.verify_colouring.calls"] >= 2
        else:
            assert values["ratmat.rank.calls"] > 0 and values["ratmat.entries"] > 0
        if workload == "search8":
            assert values["search.candidates"] == 256
            assert values["search.zero_one"] == 9
            assert values["search.survivor_ratio"] == 9 / 256


def test_end_to_end_metrics_match_benchmark_json():
    assert _declared("end_to_end") == bench_run.END_TO_END_UNITS
    assert _declared("per_layer") == bench_run.PER_LAYER_UNITS


def test_wrong_expected_value_counts_as_failed_op():
    wl = bench_run.WORKLOADS["search8"]
    wrong = dataclasses.replace(wl, expected={**wl.expected, "count_01_valued": "10"})
    result, lines = bench_run.run_workload(wrong, seed=3, seconds=0.1, trace=False)
    assert result["failed"] >= 1 and result["correct"] is False
    failed_line = next(ln for ln in lines if ln.startswith("failed_ops"))
    assert not failed_line.split()[1].startswith("0/")


def test_trace_check_rejects_missing_and_forbidden_calls():
    colour = bench_run.WORKLOADS["colour16"]
    spans = {name: {"calls": 1, "s": 0.1, "self_s": 0.1} for name in colour.layers}
    assert bench_run.check_trace(colour, spans) == []
    with_ratmat = {**spans, "ratmat.rank": {"calls": 1, "s": 0.1, "self_s": 0.1}}
    assert any("ratmat.rank" in p for p in bench_run.check_trace(colour, with_ratmat))
    missing = {**spans, "colouring.verify_colouring": {"calls": 0, "s": 0.0, "self_s": 0.0}}
    assert any("verify_colouring" in p for p in bench_run.check_trace(colour, missing))


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert bench_run.tail_percentile([1.0] * 39) is None
    assert bench_run.tail_percentile([float(i) for i in range(40)])[0] == 75
    assert bench_run.tail_percentile([float(i) for i in range(1000)])[0] == 99


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run_cli("search8", 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
