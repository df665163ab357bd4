#!/usr/bin/env python3
"""fgkls benchmark: one workload per run, checked against an independent
Liouvillian reference.

    python3 bench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout; fgkls is imported from the checkout's
src/ and nowhere else.  With --trace 0 the last line of standard output is
a JSON object with the end-to-end metrics; with --trace 1 it carries the
per-layer metrics instead.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
WORK = REPO / ".bench_work"
RESULTS = REPO / "bench" / "results"

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# Set-up is repeated and its median reported, so that one slow pass (the
# first use of a numpy routine, a neighbour's burst) does not decide it.
SETUP_REPEATS = 3
# p99 must leave at least ten samples beyond it; rounds go on past
# --seconds until this many operations passed, for at most MAX_OVERRUN
# times --seconds in all.
MIN_COMPLETED = 1000
MAX_OVERRUN = 3
COLD_START_RUNS = 11
COLD_START_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "manifold", "cli_jobs"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_fgkls():
    """Import fgkls from this checkout's src/ only."""
    if not (SRC / "fgkls" / "__init__.py").is_file():
        raise SystemExit(f"fgkls sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import fgkls

    if Path(fgkls.__file__).resolve().parent != SRC / "fgkls":
        raise SystemExit(f"fgkls imported from {fgkls.__file__}, not from {SRC}")


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


@dataclass
class TimedPhase:
    """What the timed rounds measured."""

    cpu_ns: list = field(default_factory=list)  # thread time of each passed operation
    wall_ns: list = field(default_factory=list)  # wall time of the same
    round_rates: list = field(default_factory=list)  # passed operations per wall second
    busy_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    problems: list = field(default_factory=list)


def timed_rounds(workload, ops, seconds: float, tracer=None) -> TimedPhase:
    """Run whole rounds until the time is up and enough operations passed.

    Operations of a round run back to back, each timed on its own; their
    results are checked after the round, outside the timed phase.
    """
    out = TimedPhase()
    start = time.perf_counter()
    while True:
        outcomes = []
        round_start = time.perf_counter()
        for op in ops:
            t0, c0 = time.perf_counter_ns(), time.thread_time_ns()
            try:
                result, exc = workload.run(op), None
            except Exception as err:  # counted and reported below, the run goes on
                result, exc = None, err
            outcomes.append((result, exc, time.perf_counter_ns() - t0, time.thread_time_ns() - c0))
        round_s = time.perf_counter() - round_start
        out.busy_s += round_s
        out.rounds += 1
        passed_before = len(out.cpu_ns)
        if tracer is not None:
            tracer.keep_spans = False
        for i, (op, (result, exc, wall, cpu)) in enumerate(zip(ops, outcomes)):
            out.attempted += 1
            if exc is not None:
                out.failed += 1
                if not workload.known_fault(op, exc):
                    out.problems.append(f"op {i}: {type(exc).__name__}: {exc}")
                continue
            found = workload.check(op, result)
            if found:
                out.failed += 1
                out.problems.append(f"op {i}: " + "; ".join(found))
                continue
            out.cpu_ns.append(cpu)
            out.wall_ns.append(wall)
        del outcomes
        out.round_rates.append((len(out.cpu_ns) - passed_before) / round_s)
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (len(out.cpu_ns) >= MIN_COMPLETED or elapsed >= MAX_OVERRUN * seconds):
            return out


def cold_start_ms(op, workdir: Path, check) -> tuple[float, list[str]]:
    """Median wall time of fresh `python -m fgkls.cli --job` processes
    running the job op; check(op, output) checks what the last one wrote."""
    job_path = workdir / "cold-start-job.json"
    out_path = workdir / "cold-start.csv"
    job_path.write_text(json.dumps(op.job))
    cmd = [sys.executable, "-m", "fgkls.cli", "--job", str(job_path), "--out", str(out_path)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for i in range(COLD_START_RUNS + 1):
        out_path.unlink(missing_ok=True)
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=REPO, capture_output=True,
                              timeout=COLD_START_TIMEOUT_S)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            return float("nan"), [f"cold start exited {proc.returncode}: {proc.stderr.decode()[-300:]}"]
        if i > 0:  # the first process writes the bytecode cache
            times.append(elapsed * 1e3)
    return statistics.median(times), check(op, out_path.read_text())


def main(argv=None) -> int:
    args = parse_args(argv)
    import_fgkls()
    import workloads
    import layer_trace

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    RESULTS.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.Workload(args.workload)
        setup_times = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            t0 = time.perf_counter()
            ops = workload.build(args.seed)
            workload.warm_up(ops)
            setup_times.append(time.perf_counter() - t0)

        # Objects made so far (inputs, references) live for the whole run;
        # keep them out of the collector's way so it times fgkls's garbage.
        gc.collect()
        gc.freeze()
        tracer = layer_trace.Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        try:
            timed = timed_rounds(workload, ops, args.seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()

        problems = timed.problems
        for line in problems[:20]:
            print(f"problem: {line}", file=sys.stderr)
        if not timed.cpu_ns:
            raise SystemExit("no operation passed its checks")
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if tracer is not None:
            metrics = tracer.metrics(timed.rounds)
            tracer.write_spans(RESULTS / f"{stem}-spans.jsonl")
        else:
            cold_ms, cold_problems = cold_start_ms(workload.cold_start_job(ops), workdir, workloads.check_job)
            for line in cold_problems:
                print(f"problem: {line}", file=sys.stderr)
            problems = problems + cold_problems
            cpu = sorted(timed.cpu_ns)
            metrics = {
                "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                "throughput_per_s": {"value": statistics.median(timed.round_rates), "unit": "1/s"},
                "latency_p50_ms": {"value": statistics.median(cpu) / 1e6, "unit": "ms"},
                "latency_p99_ms": {"value": percentile(cpu, 99) / 1e6, "unit": "ms"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "unit": "MB",
                },
                "cold_start_ms": {"value": cold_ms, "unit": "ms"},
            }
        wall = sorted(timed.wall_ns)
        print(
            f"{args.workload}: {timed.rounds} rounds of {len(ops)} operations, "
            f"{timed.attempted} attempted, {timed.failed} failed, {len(wall)} passed in "
            f"{timed.busy_s:.3f} s; median round throughput "
            f"{statistics.median(timed.round_rates):.1f}/s; wall-time p50 "
            f"{statistics.median(wall) / 1e6:.4f} ms, p99 {percentile(wall, 99) / 1e6:.4f} ms",
            file=sys.stderr,
        )
        result = {
            "correct": not problems,
            "attempted": timed.attempted,
            "failed": timed.failed,
            "metrics": metrics,
        }
        (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
        print(json.dumps(result))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
