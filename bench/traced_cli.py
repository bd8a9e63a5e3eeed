"""Run one ortho-lab command with timing wrappers around named layer functions.

    PYTHONPATH=src python3 bench/traced_cli.py TRACE.json ARGS...

runs ``ortho-lab ARGS...`` in this interpreter, writes per-function call
counts, total and self times, the ``ratmat`` work count and the search
funnel to TRACE.json, and exits with the command's exit code.

Each wrapper replaces the function in every ``ortho_lab`` module namespace
that holds it, because ``search``, ``spectral`` and ``colouring`` bind
``y_vertices`` and ``psi_edges`` with ``from .graphs import ...``.
Generator functions are timed over their iteration, not over the call,
which only builds the generator.  Only the functions named in ``LAYERS``
are wrapped: a wrapper on a per-edge helper such as ``double_word`` would
cost more than the work it times.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = {
    "ratmat": ("rcef", "rank", "mat_vec"),
    "search": ("kernel_reduce", "enumerate_candidates"),
    "spectral": ("neighbourhood_gram_spectrum", "gram_identities", "_sign_row_mask"),
    "graphs": ("psi_edges", "y_vertices"),
    "colouring": ("psi_colouring", "verify_colouring"),
    "certificates": ("dumps", "decode_colouring", "colouring_payload"),
    "cli": ("run",),
}

clock = time.perf_counter


class Span:
    """Totals for one wrapped name.  ``s`` counts only outermost
    activations, so a recursive call is not timed twice; ``self_s``
    excludes the time of every wrapped callee."""

    __slots__ = ("calls", "s", "self_s", "depth")

    def __init__(self) -> None:
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.depth = 0


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, Span] = {}
        # one child-time accumulator per active activation; the bottom
        # entry collects time spent outside every span
        self.stack: list[list[float]] = [[0.0]]
        self.ratmat_entries = 0
        self.funnel = None

    def observe(self, name: str, args, result) -> None:
        if name in ("ratmat.rcef", "ratmat.rank"):
            a = args[0]
            self.ratmat_entries += len(a) * (len(a[0]) if a else 0)
        elif name == "search.enumerate_candidates" and self.funnel is None:
            self.funnel = {
                "candidates": result.candidates_total,
                "zero_one": result.count_01_valued,
                "weight_ok": result.count_correct_weight,
                "independent": result.count_independent,
                "contains_base": result.count_containing_base,
            }

    def wrap(self, name: str, fn):
        span = self.spans.setdefault(name, Span())
        stack = self.stack

        if inspect.isgeneratorfunction(fn):
            code = fn.__code__

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                # a recursive call from inside the generator runs within
                # one of the outer generator's timed steps already
                if sys._getframe(1).f_code is code:
                    return fn(*args, **kwargs)
                span.calls += 1
                return self._iterate(span, fn(*args, **kwargs))

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span.calls += 1
            span.depth += 1
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][0] += dt
                span.self_s += dt - frame[0]
                span.depth -= 1
                if span.depth == 0:
                    span.s += dt
            self.observe(name, args, result)
            return result

        return traced

    def _iterate(self, span: Span, it):
        nxt = it.__next__
        stack = self.stack
        while True:
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                item = nxt()
            except StopIteration:
                return
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][0] += dt
                span.s += dt
                span.self_s += dt - frame[0]
            yield item

    def install(self) -> None:
        import ortho_lab.cli  # noqa: F401  (imports every layer module)

        modules = [
            m for key, m in sys.modules.items()
            if key == "ortho_lab" or key.startswith("ortho_lab.")
        ]
        for layer, names in LAYERS.items():
            home = sys.modules[f"ortho_lab.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)

    def report(self) -> dict:
        return {
            "spans": {
                name: {"calls": sp.calls, "s": sp.s, "self_s": sp.self_s}
                for name, sp in self.spans.items()
            },
            "ratmat_entries": self.ratmat_entries,
            "funnel": self.funnel,
        }


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: traced_cli.py TRACE.json ARGS...", file=sys.stderr)
        return 2
    out, args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from ortho_lab import cli

    code = 1
    try:
        code = cli.run(args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.report(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
