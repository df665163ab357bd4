"""The summary of scripts/bench_pairs.py on synthetic runs; no benchmark
is run here."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "throughput_per_s", "better": "higher", "bound": 0.25},
    {"name": "latency_p50_ms", "better": "lower", "bound": 0.25},
]


def runs(throughputs, latencies):
    return [{"throughput_per_s": t, "latency_p50_ms": l} for t, l in zip(throughputs, latencies)]


def test_quartiles_inclusive():
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_clear_gain_and_a_regression_within_its_bound():
    parent = runs([100, 102, 98, 101, 99, 100, 103, 97, 100, 101], [1.0] * 10)
    change = runs([130, 131, 128, 133, 129, 130, 135, 126, 131, 99], [1.1, 1.2] * 5)
    s = bench_pairs.summarize(parent, change, METRICS)
    t = s["throughput_per_s"]
    assert t["parent"]["median"] == 100.0
    assert t["change"]["median"] == 130.0
    assert t["ratio"] == pytest.approx(1.3)
    # The last pair is a loss: 9 of 10 still shows the gain.
    assert (t["wins"], t["pairs"]) == (9, 10)
    assert t["gain_shown"] and t["within_bound"]
    lat = s["latency_p50_ms"]
    assert lat["wins"] == 0 and not lat["gain_shown"]
    assert lat["within_bound"]  # 1.15 against 1.0: 15 % worse, bound 25 %


def test_ties_count_for_neither_side_and_spread_blocks_a_claim():
    parent = runs([100, 60, 140, 100], [1.0, 1.0, 1.0, 1.0])
    change = runs([110, 70, 150, 100], [1.0, 1.0, 2.0, 0.9])
    s = bench_pairs.summarize(parent, change, METRICS)
    t = s["throughput_per_s"]
    assert t["wins"] == 3
    # The medians differ by 10, less than the parent's quartile spread.
    assert not t["gain_shown"]
    lat = s["latency_p50_ms"]
    assert lat["wins"] == 1
    assert lat["change"]["median"] == 1.0 and lat["within_bound"]


def test_worse_than_the_bound():
    parent = runs([100] * 4, [1.0] * 4)
    change = runs([70] * 4, [1.3] * 4)
    s = bench_pairs.summarize(parent, change, METRICS)
    assert not s["throughput_per_s"]["within_bound"]
    assert not s["latency_p50_ms"]["within_bound"]
