"""Per-layer tracing from outside the program.

Each traced fgkls function is replaced, in every fgkls module namespace
that holds it, by a wrapper that records a span.  The program looks these
names up at call time, so nested calls become child spans without any
edit under src/.  A span's self time is its duration minus the time of its
child spans.  Spans of the first round are kept in memory and written out
when the run ends; calls, self time and counts are accumulated for all.
"""

from __future__ import annotations

import functools
import importlib
import io
import json
import sys
import time
from collections import Counter

TRACED = (
    "model.canonicalize",
    "generator.build_generator",
    "generator.rhs",
    "numerics.cubic_roots",
    "numerics.solve3",
    "numerics.schur2",
    "spectral.char_cubic",
    "spectral.spectrum",
    "spectral.assert_stability",
    "pointer.compute_pointer",
    "evolution.solve_ivp",
    "evolution.trajectory",
    "evolution.rho_at",
    "evolution.single_mode_reduction",
    "evolution.positivity_window",
    "uniton.classify_unitons",
    "perturb.weak_rates",
    "perturb.order_estimate",
    "oracle.integrate",
    "oracle.det_scan",
    "cli.run",
)

COUNTS = (
    "evolution.single_mode_reduction.not_reducible",
    "evolution.trajectory.points",
    "oracle.integrate.steps",
    "cli.run.bytes_out",
)


def _count_points(counts, args, kwargs, exc):
    ts = args[1] if len(args) > 1 else kwargs["ts"]
    counts["evolution.trajectory.points"] += len(ts)


def _count_steps(counts, args, kwargs, exc):
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    counts["oracle.integrate.steps"] += max(1, int(round(cfg.t_end / cfg.dt)))


def _count_not_reducible(counts, args, kwargs, exc):
    if exc is not None and type(exc).__name__ == "NotReducibleError":
        counts["evolution.single_mode_reduction.not_reducible"] += 1


def _count_bytes(counts, args, kwargs, exc):
    # The benchmark captures each job's output in a fresh in-memory stdout.
    if exc is None and isinstance(sys.stdout, io.StringIO):
        counts["cli.run.bytes_out"] += len(sys.stdout.getvalue().encode())


_HOOKS = {
    "evolution.trajectory": _count_points,
    "oracle.integrate": _count_steps,
    "evolution.single_mode_reduction": _count_not_reducible,
    "cli.run": _count_bytes,
}


class Tracer:
    """Wraps the traced functions while installed; not thread-safe."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: list[tuple[str, int, int, int]] = []  # name, start, end, parent
        self.keep_spans = True
        self._stack: list[list[int]] = []  # [child time, span index] per open span
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1][1] if self._stack else -1
            index = -1
            if self.keep_spans:
                index = len(self.spans)
                self.spans.append((name, 0, 0, parent))
            frame = [0, index]
            self._stack.append(frame)
            exc = None
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException as err:
                exc = err
                raise
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.self_ns[name] += duration - frame[0]
                if self._stack:
                    self._stack[-1][0] += duration
                if index >= 0:
                    self.spans[index] = (name, start, end, parent)
                if hook is not None:
                    hook(self.counts, args, kwargs, exc)

        return wrapper

    def install(self) -> None:
        namespaces = [m for n, m in sys.modules.items() if n == "fgkls" or n.startswith("fgkls.")]
        for name in TRACED:
            mod_name, fn_name = name.split(".")
            original = getattr(importlib.import_module(f"fgkls.{mod_name}"), fn_name)
            wrapper = self._wrap(name, original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)
                        self._patched.append((ns, attr, original))

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def metrics(self, rounds: int) -> dict:
        """Per-layer metrics per round: calls, self time in ms, counts."""
        out = {}
        for name in TRACED:
            out[f"{name}.calls"] = {"value": self.calls[name] / rounds, "unit": "count"}
            out[f"{name}.self_ms"] = {"value": self.self_ns[name] / 1e6 / rounds, "unit": "ms"}
        for name in COUNTS:
            out[name] = {"value": self.counts[name] / rounds, "unit": "count"}
        return out

    def write_spans(self, path) -> None:
        """One JSON object per span; parent is the index of the enclosing span."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent}) + "\n")
