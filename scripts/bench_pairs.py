#!/usr/bin/env python3
"""Run the benchmark on a parent commit and on the working tree in
alternating pairs, and summarize each end-to-end metric.

    python3 scripts/bench_pairs.py --parent HEAD~1 --pr 6 --workload sweep --seed 1

The parent's committed files are exported with `git archive` into a
temporary directory; the change is the working tree.  The command refuses
to run when `bench/` or `BENCHMARK.json` differ between the two, because
the comparison is only fair with identical benchmark code.  It runs PAIRS
pairs; pair i runs the parent first when i is even and the change first
when it is odd.

It prints, per workload, seed and metric, both sides' medians and
quartiles, the change's wins (ties count for neither side) and whether the
change stays within the metric's bound.  The runs and the summary are
written to `BENCH_<pr>.json` at the root of the repository, together with
the machine they ran on; with several invocations for one PR, entries are
merged by workload and seed.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
# A claimed gain needs the change to win this share of the pairs.
WIN_SHARE = 0.9
# Pairs per workload and seed: the fewest a claimed gain is judged on.
PAIRS = 10


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent: list[dict], change: list[dict], metrics: list[dict]) -> dict:
    """Per-metric summary of paired runs: parent[i] and change[i] map metric
    names to values; each metric is {"name", "better", "bound"} as in
    BENCHMARK.json's end_to_end list."""
    out = {}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        before = [run[name] for run in parent]
        after = [run[name] for run in change]
        p1, pmed, p3 = quartiles(before)
        c1, cmed, c3 = quartiles(after)
        wins = sum((a > b) if higher else (a < b) for a, b in zip(after, before))
        gain = (cmed - pmed) if higher else (pmed - cmed)
        worse = -gain / pmed if pmed else 0.0
        out[name] = {
            "parent": {"median": pmed, "q1": p1, "q3": p3},
            "change": {"median": cmed, "q1": c1, "q3": c3},
            "ratio": cmed / pmed if pmed else None,
            "wins": wins,
            "pairs": len(before),
            "gain_shown": wins >= WIN_SHARE * len(before) and gain > p3 - p1,
            "within_bound": worse <= metric["bound"],
        }
    return out


def changed_benchmark(parent: str) -> list[str]:
    """Paths under bench/ or BENCHMARK.json that differ between the parent
    commit and the working tree, untracked files included."""
    paths = ["bench", "BENCHMARK.json"]
    diff = subprocess.run(
        ["git", "diff", "--name-only", parent, "--", *paths],
        cwd=REPO, capture_output=True, text=True, check=True,
    ).stdout.split()
    untracked = subprocess.run(
        ["git", "ls-files", "--others", "--exclude-standard", "--", *paths],
        cwd=REPO, capture_output=True, text=True, check=True,
    ).stdout.split()
    return diff + untracked


def export(rev: str, dest: Path) -> None:
    tar = subprocess.run(["git", "archive", rev], cwd=REPO, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def run_once(tree: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command + args, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"benchmark failed in {tree}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return {"correct": result["correct"], "failed": result["failed"],
            "attempted": result["attempted"], "metrics": values}


def machine() -> dict:
    import numpy

    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent commit")
    parser.add_argument("--pr", required=True, type=int, help="number in BENCH_<pr>.json")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", action="append", type=int, required=True)
    args = parser.parse_args(argv)

    changed = changed_benchmark(args.parent)
    if changed:
        print("benchmark differs from the parent: " + ", ".join(changed), file=sys.stderr)
        return 2
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    command, seconds = spec["command"], spec["run_seconds"]
    parent_rev = subprocess.run(
        ["git", "rev-parse", args.parent], cwd=REPO, capture_output=True, text=True, check=True
    ).stdout.strip()

    out_path = REPO / f"BENCH_{args.pr}.json"
    record = json.loads(out_path.read_text()) if out_path.exists() else {"results": {}}
    record.update(pr=args.pr, parent=parent_rev, backfilled=False, machine=machine(),
                  command=command, run_seconds=seconds)
    with tempfile.TemporaryDirectory() as tmp:
        parent_tree = Path(tmp)
        export(parent_rev, parent_tree)
        for workload in args.workload:
            for seed in args.seed:
                runs = {"parent": [], "change": []}
                for i in range(PAIRS):
                    order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                    for side in order:
                        tree = parent_tree if side == "parent" else REPO
                        runs[side].append(run_once(tree, command, workload, seed, seconds))
                    print(f"{workload} seed {seed}: pair {i + 1}/{PAIRS}", file=sys.stderr)
                summary = summarize(
                    [r["metrics"] for r in runs["parent"]],
                    [r["metrics"] for r in runs["change"]],
                    spec["end_to_end"],
                )
                record["results"][f"{workload}/seed{seed}"] = {"summary": summary, "runs": runs}
                print(f"{workload}, seed {seed}, {PAIRS} pairs")
                for name, s in summary.items():
                    p, c = s["parent"], s["change"]
                    print(
                        f"  {name:17s} {p['median']:10.4g} ({p['q1']:.4g}-{p['q3']:.4g}) -> "
                        f"{c['median']:10.4g} ({c['q1']:.4g}-{c['q3']:.4g})  "
                        f"ratio {s['ratio']:.3f}  wins {s['wins']}/{s['pairs']}  "
                        f"gain {s['gain_shown']}  "
                        f"within bound {s['within_bound']}"
                    )
                bad = [r for side in runs.values() for r in side if not r["correct"] or r["failed"]]
                print(f"  runs not correct or with failures: {len(bad)}")
    out_path.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
