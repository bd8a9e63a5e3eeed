"""Emit-and-verify benchmark for the ortho-lab command line.

Run from the repository root:

    python3 bench/run.py --workload search16 --seed 1 --seconds 55 --trace 0

One client runs a closed loop: each iteration emits a certificate with one
``ortho-lab`` process and rechecks it with ``ortho-lab verify`` in a second
one.  Every operation is a fresh interpreter, so no in-process cache is
reused.  Every output is checked field by field.  With ``--trace 0`` the
end-to-end metrics are reported; with ``--trace 1`` untraced and traced
iterations alternate and the per-layer metrics from ``traced_cli.py`` are
reported.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md in
this directory for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

CLI = [sys.executable, "-c", "from ortho_lab.cli import main; main()"]
TRACED_CLI = [sys.executable, str(BENCH / "traced_cli.py")]
IMPORT_ONLY = [sys.executable, "-c", "import ortho_lab.cli"]

SETUP_SAMPLES = 9
OP_TIMEOUT_S = 150.0

ENVELOPE_KIND = {"search": "search", "spectrum": "bound", "colour": "colouring"}

END_TO_END_UNITS = {
    "emit_s": "s",
    "verify_s": "s",
    "peak_rss_mb": "MB",
    "cert_bytes": "bytes",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "ratmat.rcef.s": "s",
    "ratmat.rcef.calls": "count",
    "ratmat.rank.s": "s",
    "ratmat.rank.calls": "count",
    "ratmat.mat_vec.s": "s",
    "ratmat.entries": "count",
    "ratmat.emit_share": "ratio",
    "search.kernel_reduce.self_s": "s",
    "search.enumerate_candidates.self_s": "s",
    "search.candidates": "count",
    "search.zero_one": "count",
    "search.weight_ok": "count",
    "search.independent": "count",
    "search.contains_base": "count",
    "search.survivor_ratio": "ratio",
    "spectral.neighbourhood_gram_spectrum.self_s": "s",
    "spectral.gram_identities.s": "s",
    "spectral._sign_row_mask.s": "s",
    "graphs.psi_edges.s": "s",
    "graphs.y_vertices.s": "s",
    "colouring.psi_colouring.self_s": "s",
    "colouring.verify_colouring.self_s": "s",
    "colouring.verify_colouring.calls": "count",
    "certificates.dumps.s": "s",
    "certificates.decode_colouring.s": "s",
    "certificates.colouring_payload.s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Workload:
    """One emitting command and what its certificate must say.

    ``expected`` maps observed certificate fields to their required
    values.  ``layers`` are traced names that must record calls in every
    traced iteration; ``quiet`` are traced name prefixes that must record
    none.
    """

    command: str
    n: int
    expected: dict
    layers: tuple[str, ...]
    quiet: tuple[str, ...] = ()


SEARCH_LAYERS = (
    "ratmat.rcef", "ratmat.rank", "ratmat.mat_vec", "search.kernel_reduce",
    "search.enumerate_candidates", "spectral._sign_row_mask", "graphs.y_vertices",
    "certificates.dumps", "cli.run",
)
SPECTRUM_LAYERS = (
    "ratmat.rank", "spectral.neighbourhood_gram_spectrum",
    "spectral.gram_identities", "certificates.dumps", "cli.run",
)
COLOUR_LAYERS = (
    "colouring.psi_colouring", "colouring.verify_colouring", "graphs.psi_edges",
    "certificates.dumps", "certificates.decode_colouring",
    "certificates.colouring_payload", "cli.run",
)


def _search_expected(total: str, zero_one: str, tight: str, certs: int) -> dict:
    """Search counts; ``tight`` is the correct-weight, independent and
    base-containing count, which coincide on these workloads."""
    return {
        "candidates_total": total,
        "count_01_valued": zero_one,
        "count_correct_weight": tight,
        "count_independent": tight,
        "count_containing_base": tight,
        "certificates": certs,
    }


def _colour_expected(palette: int, vertices: int) -> dict:
    return {
        "family": "psi",
        "palette_size": palette,
        "classes": palette,
        "vertices": vertices,
        "covered_vertices": vertices,
    }


WORKLOADS = {
    "search16": Workload(
        "search", 16, _search_expected("65536", "1", "0", 0), SEARCH_LAYERS
    ),
    "spectrum16": Workload(
        "spectrum", 16,
        {"multiplicities": [1, 104, 15], "eigenvalues": ["6864", "14784", "0"],
         "all_ok": True},
        SPECTRUM_LAYERS,
    ),
    "colour16": Workload(
        "colour", 16, _colour_expected(16, 65536), COLOUR_LAYERS, quiet=("ratmat.",)
    ),
    # small inputs, for the harness's own tests
    "search8": Workload(
        "search", 8, _search_expected("256", "9", "8", 8), SEARCH_LAYERS
    ),
    "spectrum8": Workload(
        "spectrum", 8,
        {"multiplicities": [1, 20, 7], "eigenvalues": ["40", "96", "0"], "all_ok": True},
        SPECTRUM_LAYERS,
    ),
    "colour4": Workload(
        "colour", 4, _colour_expected(4, 16), COLOUR_LAYERS, quiet=("ratmat.",)
    ),
}


# -- inputs and checks ---------------------------------------------------------

def search_base(n: int, seed: int) -> int:
    """The seeded base vertex: one of ``graphs.y_vertices(n)``."""
    from ortho_lab.graphs import y_vertices

    return random.Random(seed).choice(y_vertices(n))


def emit_args(wl: Workload, seed: int) -> list[str]:
    args = [wl.command, "--n", str(wl.n)]
    if wl.command == "search":
        args += ["--base", format(search_base(wl.n, seed), "x")]
    elif wl.command == "colour":
        args += ["--graph", "psi"]
    return args


def _ok_flags(obj) -> list[bool]:
    if isinstance(obj, dict):
        flags = [v for k, v in obj.items() if k == "ok" or k.endswith("_ok")]
        return flags + [f for v in obj.values() for f in _ok_flags(v)]
    if isinstance(obj, list):
        return [f for v in obj for f in _ok_flags(v)]
    return []


def observe(command: str, payload: dict) -> dict:
    """The certificate fields the checks compare, per command."""
    if command == "search":
        out = {k: payload.get(k) for k in (
            "candidates_total", "count_01_valued", "count_correct_weight",
            "count_independent", "count_containing_base",
        )}
        out["certificates"] = len(payload["certificates"])
        out["base"] = int(payload["base"]["bits"], 16)
        return out
    if command == "spectrum":
        spectrum = payload["gram_spectrum"]
        flags = _ok_flags(payload)
        return {
            "multiplicities": spectrum["multiplicities"],
            "eigenvalues": spectrum["eigenvalues"],
            "all_ok": bool(flags) and all(f is True for f in flags),
        }
    classes = payload["classes"]
    words = [int(v["bits"], 16) for cls in classes for v in cls]
    universe = 1 << payload["kind"]["n"]
    return {
        "palette_size": payload["palette_size"],
        "classes": len(classes),
        "vertices": len(words),
        "covered_vertices": len({w for w in words if w < universe}),
        "family": payload["kind"]["family"],
    }


def check_certificate(wl: Workload, seed: int, path: Path) -> list[str]:
    try:
        cert = json.loads(path.read_text(encoding="utf-8"))
        got = observe(wl.command, cert["payload"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable certificate: {exc!r}"]
    got["kind"], got["n"] = cert.get("kind"), cert.get("n")
    want = {"kind": ENVELOPE_KIND[wl.command], "n": wl.n, **wl.expected}
    if wl.command == "search":
        want["base"] = search_base(wl.n, seed)
    return [
        f"{key}: expected {value!r}, got {got.get(key)!r}"
        for key, value in want.items()
        if got.get(key) != value
    ]


def check_verify(op: "Op") -> list[str]:
    problems = []
    if op.returncode != 0:
        problems.append(f"verify exited {op.returncode}: {op.stderr.strip()[-300:]}")
    if not any(line.startswith("OK:") for line in op.stdout.splitlines()):
        problems.append("verify printed no OK: line")
    return problems


def check_trace(wl: Workload, spans: dict) -> list[str]:
    problems = [
        f"traced {name} recorded no calls"
        for name in wl.layers
        if spans.get(name, {}).get("calls", 0) == 0
    ]
    problems += [
        f"traced {name} fired {sp['calls']} call(s) on a workload that must make none"
        for name, sp in spans.items()
        if sp["calls"] and any(name.startswith(q) for q in wl.quiet)
    ]
    return problems


# -- processes -----------------------------------------------------------------

@dataclass
class Op:
    seconds: float
    rss_mb: float
    returncode: int
    stdout: str
    stderr: str


def run_op(argv: list[str], env: dict, workdir: Path) -> Op:
    """Run one child to completion; its wall time runs from before the
    spawn to after the reap, and its peak RSS comes from ``wait4`` on
    that child alone (``RUSAGE_CHILDREN`` would be the maximum over every
    child so far)."""
    out_path, err_path = workdir / "op.stdout", workdir / "op.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Op(
        seconds=seconds,
        rss_mb=usage.ru_maxrss / 1024,
        returncode=proc.returncode,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    # the CLI's default worker count is part of what is measured
    env.pop("ORTHO_LAB_JOBS", None)
    return env


# -- one run -------------------------------------------------------------------

@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def record(self, problems: list[str], what: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAIL {what}: {p}", file=sys.stderr)


@dataclass
class Iteration:
    wall_s: float
    emit: Op
    verify: "Op | None"
    cert_bytes: int
    traces: tuple = ()


def run_iteration(wl, seed, env, workdir, tally, traced: bool) -> Iteration:
    cert = workdir / "cert.json"
    cert.unlink(missing_ok=True)
    args = emit_args(wl, seed)
    t0 = time.perf_counter()
    if traced:
        emit_trace, verify_trace = workdir / "emit.trace", workdir / "verify.trace"
        emit = run_op(TRACED_CLI + [str(emit_trace)] + args + ["--out", str(cert)], env, workdir)
    else:
        emit = run_op(CLI + args + ["--out", str(cert)], env, workdir)
    tag = "traced " if traced else ""
    problems = [f"exited {emit.returncode}: {emit.stderr.strip()[-300:]}"] if emit.returncode else []
    problems = problems or check_certificate(wl, seed, cert)
    tally.record(problems, f"{tag}{wl.command} --n {wl.n}")
    if problems:
        return Iteration(time.perf_counter() - t0, emit, None, 0)
    cert_bytes = cert.stat().st_size
    if traced:
        verify = run_op(TRACED_CLI + [str(verify_trace), "verify", str(cert)], env, workdir)
    else:
        verify = run_op(CLI + ["verify", str(cert)], env, workdir)
    wall = time.perf_counter() - t0
    problems = check_verify(verify)
    traces = ()
    if traced and not problems:
        try:
            traces = tuple(
                json.loads(p.read_text(encoding="utf-8")) for p in (emit_trace, verify_trace)
            )
            problems = check_trace(wl, _merge_spans(traces))
        except (OSError, ValueError) as exc:
            problems = [f"unreadable trace: {exc!r}"]
    tally.record(problems, f"{tag}verify {wl.command} --n {wl.n}")
    return Iteration(wall, emit, verify, cert_bytes, traces if not problems else ())


def _merge_spans(traces) -> dict:
    merged: dict[str, dict] = {}
    for tr in traces:
        for name, sp in tr["spans"].items():
            m = merged.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key in m:
                m[key] += sp[key]
    return merged


def layer_metrics(it: Iteration) -> dict:
    """Per-layer numbers for one traced iteration, summed over its emit
    and verify processes; the funnel and ``ratmat.emit_share`` describe
    the emitting process alone."""
    spans = _merge_spans(it.traces)

    def get(name, key):
        return spans.get(name, {}).get(key, 0)

    emit_spans = it.traces[0]["spans"]
    ratmat_emit_s = sum(sp["s"] for name, sp in emit_spans.items() if name.startswith("ratmat."))
    funnel = it.traces[0]["funnel"] or dict.fromkeys(
        ("candidates", "zero_one", "weight_ok", "independent", "contains_base"), 0
    )
    return {
        "ratmat.rcef.s": get("ratmat.rcef", "s"),
        "ratmat.rcef.calls": get("ratmat.rcef", "calls"),
        "ratmat.rank.s": get("ratmat.rank", "s"),
        "ratmat.rank.calls": get("ratmat.rank", "calls"),
        "ratmat.mat_vec.s": get("ratmat.mat_vec", "s"),
        "ratmat.entries": sum(tr["ratmat_entries"] for tr in it.traces),
        "ratmat.emit_share": ratmat_emit_s / it.emit.seconds,
        "search.kernel_reduce.self_s": get("search.kernel_reduce", "self_s"),
        "search.enumerate_candidates.self_s": get("search.enumerate_candidates", "self_s"),
        **{f"search.{k}": v for k, v in funnel.items()},
        "search.survivor_ratio": (
            funnel["zero_one"] / funnel["candidates"] if funnel["candidates"] else 0
        ),
        "spectral.neighbourhood_gram_spectrum.self_s": get(
            "spectral.neighbourhood_gram_spectrum", "self_s"
        ),
        "spectral.gram_identities.s": get("spectral.gram_identities", "s"),
        "spectral._sign_row_mask.s": get("spectral._sign_row_mask", "s"),
        "graphs.psi_edges.s": get("graphs.psi_edges", "s"),
        "graphs.y_vertices.s": get("graphs.y_vertices", "s"),
        "colouring.psi_colouring.self_s": get("colouring.psi_colouring", "self_s"),
        "colouring.verify_colouring.self_s": get("colouring.verify_colouring", "self_s"),
        "colouring.verify_colouring.calls": get("colouring.verify_colouring", "calls"),
        "certificates.dumps.s": get("certificates.dumps", "s"),
        "certificates.decode_colouring.s": get("certificates.decode_colouring", "s"),
        "certificates.colouring_payload.s": get("certificates.colouring_payload", "s"),
        # self time of cli.run is its span minus every traced child
        "cli.self_s": get("cli.run", "self_s"),
    }


def tail_percentile(values: list[float]):
    """The highest of p99, p95, p90 and p75 with at least ten samples
    above it, as (p, value), or None when there are too few samples."""
    for p in (99, 95, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return None


def _median(values):
    return statistics.median(values) if values else 0.0


def measure_setup(env, workdir, tally, count: int) -> list[float]:
    """Fresh-interpreter imports of ``ortho_lab.cli``: one warm-up (it
    may write bytecode caches) and then ``count`` timed ones."""
    samples = []
    for k in range(count + 1):
        op = run_op(IMPORT_ONLY, env, workdir)
        if k:
            tally.record([f"exited {op.returncode}"] if op.returncode else [], "import")
            samples.append(op.seconds)
        elif op.returncode:
            raise RuntimeError(f"cannot import ortho_lab.cli: {op.stderr.strip()[-300:]}")
    return samples


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool):
    """Run one benchmark run; returns (result dict, summary lines)."""
    env = child_env()
    tally = Tally()
    untraced: list[Iteration] = []
    traced: list[Iteration] = []
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        setup = measure_setup(env, workdir, tally, 0 if trace else SETUP_SAMPLES)
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            untraced.append(run_iteration(wl, seed, env, workdir, tally, traced=False))
            if trace:
                traced.append(run_iteration(wl, seed, env, workdir, tally, traced=True))
            now = time.perf_counter()
            # start another iteration if at least half of one still fits,
            # so a run's length stays near ``seconds`` when an iteration
            # is a large share of it
            if now + (now - t0) / 2 > start + seconds:
                break

    lines = []
    if trace:
        good = [it for it in traced if it.traces]
        per = [layer_metrics(it) for it in good]
        values = {name: _median([m[name] for m in per]) for name in per[0]} if per else {}
        values["trace.overhead_s"] = (
            _median([it.wall_s for it in good]) - _median([it.wall_s for it in untraced])
        )
        metrics = {
            name: {"value": values.get(name, 0), "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()
        }
        for name, m in metrics.items():
            lines.append(f"{name:46s} {m['value']:.6g} {m['unit']}")
        if per and per[0]["search.candidates"]:
            f = per[0]
            lines.append(
                f"search.survivor_ratio = {f['search.zero_one']}/{f['search.candidates']}"
                f" ({f['search.zero_one']} 0/1-valued of {f['search.candidates']} candidates)"
            )
        lines.append(
            f"iteration wall: untraced median {_median([it.wall_s for it in untraced]):.6g} s"
            f" (n={len(untraced)}), traced median {_median([it.wall_s for it in good]):.6g} s"
            f" (n={len(good)} of {len(traced)} traced iterations usable)"
        )
    else:
        samples = {
            "emit_s": [it.emit.seconds for it in untraced],
            "verify_s": [it.verify.seconds for it in untraced if it.verify],
            "peak_rss_mb": [
                max(it.emit.rss_mb, it.verify.rss_mb if it.verify else 0) for it in untraced
            ],
            "cert_bytes": [it.cert_bytes for it in untraced if it.verify],
            "setup_s": setup,
        }
        metrics = {
            name: {"value": _median(samples[name]), "unit": END_TO_END_UNITS[name]}
            for name in END_TO_END_UNITS
        }
        for name, m in metrics.items():
            tail = tail_percentile(samples[name])
            tail_text = (
                f"p{tail[0]} {tail[1]:.6g}" if tail
                else "no percentile has ten samples above it"
            )
            lines.append(
                f"{name:12s} median {m['value']:.6g} {m['unit']}"
                f" (n={len(samples[name])}; {tail_text})"
            )
    lines.append(
        f"{'failed_ops':12s} {tally.failed}/{tally.attempted} = "
        f"{tally.failed / tally.attempted:.6g} share"
    )
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return result, lines


def environment_line() -> str:
    import numpy

    return (
        f"nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy.__version__} platform={platform.platform()}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ortho_lab" / "cli.py").is_file():
        print(f"bench: no ortho_lab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} command: ortho-lab {' '.join(emit_args(wl, args.seed))}")
    print(environment_line())
    result, lines = run_workload(wl, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
