"""Record benchmark rows for one or more source trees into BENCH_<label>.json.

    python3 tools/record_bench.py --label LABEL --side parent=DIR --side change=DIR

Each side is a directory holding a full tree (for example a ``git
archive`` copy).  For every workload in WORKLOADS and for ``--trace 0``
and ``--trace 1``, the tree's own ``bench/run.py`` runs once per side,
with seed SEED and the run length that ``BENCHMARK.json`` sets.  The side
that goes first alternates, and all sides run on the same host.  The
recorder keeps the environment line ``bench/run.py`` prints and the last
JSON line of each run; it measures nothing itself.  It then runs the
tree's tier-1 suite once per side and keeps the wall time, the pass
count and the ten slowest tests.  The file is written at the root of the
repository that holds this script.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("search16", "spectrum16", "colour16")
SEED = 1
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=10"]


def _env(tree: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(tree / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def bench_row(tree: Path, workload: str, trace: int, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run: its environment line and its result."""
    argv = ["bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=tree, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines() or [""]
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    return {
        "command": " ".join(["python3", *argv]),
        "returncode": proc.returncode,
        "wall_s": round(wall, 2),
        "environment": lines[1] if len(lines) > 1 else "",
        "result": result,
        "stderr_tail": proc.stderr.strip()[-300:],
    }


def parse_tier1(stdout: str) -> dict:
    """The pass count and the slowest tests from pytest's ``-q`` output."""
    summary = re.findall(r"(\d+) passed", stdout)
    slowest = [
        {"seconds": float(s), "phase": phase, "test": test}
        for s, phase, test in re.findall(r"^([\d.]+)s (call|setup|teardown)\s+(\S+)$", stdout, re.M)
    ]
    return {
        "passed": int(summary[-1]) if summary else 0,
        "summary": stdout.strip().splitlines()[-1] if stdout.strip() else "",
        "slowest": slowest[:10],
    }


def tier1_row(tree: Path) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *TIER1], cwd=tree, env=_env(tree), capture_output=True, text=True
    )
    wall = time.perf_counter() - t0
    return {
        "command": "PYTHONPATH=src python " + " ".join(TIER1),
        "returncode": proc.returncode,
        "wall_s": round(wall, 2),
        **parse_tier1(proc.stdout),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--side", action="append", required=True, metavar="NAME=DIR")
    args = parser.parse_args(argv)
    trees: dict[str, Path] = {}
    for side in args.side:
        name, eq, d = side.partition("=")
        if not (name and eq and d):
            parser.error(f"--side {side!r}: expected NAME=DIR")
        if name in trees:
            parser.error(f"--side {name}: named twice")
        trees[name] = Path(d).resolve()
    for name, tree in trees.items():
        if not (tree / "bench" / "run.py").is_file():
            parser.error(f"side {name}: no bench/run.py under {tree}")
    # every side runs as long as the benchmark's own runs do
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = float(spec["run_seconds"])

    rows: dict[str, dict] = {name: {"bench": [], "tier1": None} for name in trees}
    order = list(trees.items())
    for workload in WORKLOADS:
        for trace in (0, 1):
            for name, tree in order:
                print(f"{name}: {workload} --trace {trace}", file=sys.stderr)
                row = bench_row(tree, workload, trace, SEED, seconds)
                rows[name]["bench"].append({"workload": workload, "trace": trace, **row})
            order.reverse()
    for name, tree in trees.items():
        print(f"{name}: tier-1", file=sys.stderr)
        rows[name]["tier1"] = tier1_row(tree)

    out = ROOT / f"BENCH_{args.label}.json"
    record = {
        "label": args.label,
        "environment": rows[next(iter(rows))]["bench"][0]["environment"],
        "seed": SEED,
        "seconds": seconds,
        "sides": rows,
    }
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
