"""Tests of the benchmark's own code: the reference reproduces a case solved
by hand, every check accepts a genuine result and rejects a corrupted one,
inputs follow the seed, and tracing records nested calls and undoes itself."""

import json
import math

import numpy as np
import pytest

import layer_trace
import liouville_ref as ref
import workloads as wl
from fgkls import spectral


def test_reference_reproduces_amplitude_damping():
    gamma = 0.7
    sigma_minus = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    r = ref.Reference(np.zeros((2, 2)), math.sqrt(gamma) * sigma_minus)
    rho0 = np.array([[0.8, 0.3 - 0.2j], [0.3 + 0.2j, 0.2]], dtype=complex)
    for t in (0.0, 0.4, 1.3, 5.0):
        rho = r.state(rho0, t)
        assert rho[0, 0] == pytest.approx(0.8 * math.exp(-gamma * t), abs=1e-13)
        assert rho[1, 1] == pytest.approx(1.0 - 0.8 * math.exp(-gamma * t), abs=1e-13)
        assert rho[0, 1] == pytest.approx((0.3 - 0.2j) * math.exp(-gamma * t / 2), abs=1e-13)
    # Rates -gamma and -gamma/2 (twice) once the zero root is removed.
    want = np.poly([-gamma, -gamma / 2, -gamma / 2])
    assert np.allclose(r.charpoly, want, atol=1e-12)
    assert r.stationary_dim == 1
    assert np.allclose(r.stationary_state(), np.diag([0.0, 1.0]), atol=1e-12)
    assert ref.check_unique_pointer(r, np.diag([0.0, 1.0])) == []
    assert ref.check_unique_pointer(r, np.diag([0.5, 0.5]))


@pytest.fixture(scope="module")
def sweep_results():
    ops = wl.sweep_ops(11, count=2 * wl.SINGLE_MODE_EVERY)
    return [(op, wl.run_system(op)) for op in ops]


def test_genuine_sweep_results_pass(sweep_results):
    assert any(res.window is not None and res.window.t_min > 0 for _, res in sweep_results)
    for op, res in sweep_results:
        assert wl.check_system(op, res) == []


def _reference(op):
    return ref.Reference(op.system.h, op.system.big_l)


def test_perturbed_trajectory_is_rejected(sweep_results):
    op, res = sweep_results[0]
    traj = res.trajectory.copy()
    traj[80, 0, 1] += 1e-6
    rows = wl.TRAJECTORY_CHECK_ROWS
    assert ref.check_trajectory(_reference(op), op.rho0, op.ts, res.trajectory, rows) == []
    assert ref.check_trajectory(_reference(op), op.rho0, op.ts, traj, rows)


def test_dropped_or_altered_rate_is_rejected(sweep_results):
    for op, res in sweep_results[:2]:
        rates = [m.rate for m in res.solution.modes.modes for _ in m.vectors]
        r = _reference(op)
        assert ref.check_rates(r, rates) == []
        assert ref.check_rates(r, rates[:-1])
        assert ref.check_rates(r, rates[:-1] + [rates[0]])
        assert ref.check_rates(r, [rates[0] * 1.001] + rates[1:])


def test_wrong_pointer_is_rejected(sweep_results):
    for op, res in sweep_results[:2]:
        rho = res.pointer.rho
        r = _reference(op)
        assert ref.check_unique_pointer(r, rho) == []
        tilt = np.array([[1e-6, 0.0], [0.0, -1e-6]])
        assert ref.check_unique_pointer(r, rho + tilt)
    # A Jordan system's pointer is not the maximally mixed state.
    op, _ = sweep_results[1]
    assert ref.check_unique_pointer(_reference(op), np.eye(2) / 2)


def test_wrong_positivity_window_is_rejected(sweep_results):
    op, res = next((o, s) for o, s in sweep_results if s.window is not None and s.window.t_min > 0)
    r = _reference(op)
    t_min = res.window.t_min
    assert ref.check_positivity(r, op.rho0, t_min, True) == []
    assert ref.check_positivity(r, op.rho0, 0.98 * t_min, True)
    assert ref.check_positivity(r, op.rho0, 1.02 * t_min, True)
    assert ref.check_positivity(r, op.rho0, math.inf, False)


def test_wrong_uniton_verdict_is_rejected(sweep_results):
    op, res = sweep_results[0]
    r = _reference(op)
    assert res.uniton.label == "None"
    assert ref.check_uniton(r, "None") == []
    assert ref.check_uniton(r, "AllStates")
    # A degenerate-level Jordan system has one stationary uniton.
    jordan = wl.System(np.diag([0.4, 0.4]).astype(complex), "jordan", wl.jordan_l(1.0), 1.3)
    rj = ref.Reference(jordan.h, jordan.big_l)
    label, rho, moving = ref.uniton_verdict(rj)
    assert label == "StationaryPointerOnly" and not moving
    assert ref.check_uniton(rj, label, rho) == []
    assert ref.check_uniton(rj, label, np.eye(2) / 2)
    assert ref.check_uniton(rj, "None")


def test_wrong_stability_verdict_is_rejected(sweep_results):
    op, res = sweep_results[0]
    damped = res.stability is spectral.StabilityVerdict.ALL_DAMPED
    assert wl.check_stability(_reference(op), damped) == []
    assert wl.check_stability(_reference(op), not damped)


@pytest.fixture(scope="module")
def cli_round():
    ops = wl.cli_ops(5)[:20]  # one set
    return [(op, wl.run_job(op)) for op in ops]


def test_cli_round_covers_every_command_and_passes(cli_round):
    commands = {op.job["command"] for op, _ in cli_round}
    assert commands == {"pointer", "spectrum", "evolve", "positivity", "perturb", "uniton", "oracle-check"}
    methods = set()
    for op, output in cli_round:
        assert wl.check_job(op, output) == [], op.job["command"]
        if op.job["command"] == "positivity":
            methods.add(json.loads(output)["method"])
    assert methods == {"single-mode", "det-scan"}


def _edited(output: str, **changes) -> str:
    payload = json.loads(output)
    payload.update(changes)
    return json.dumps(payload)


def test_corrupted_cli_outputs_are_rejected(cli_round):
    ops = {}
    for op, output in cli_round:
        ops.setdefault(op.job["command"], (op, output))

    evolve, text = ops["evolve"]
    lines = text.splitlines()
    cells = lines[200].split(",")
    cells[3] = repr(float(cells[3]) + 1e-6)
    lines[200] = ",".join(cells)
    assert wl.check_job(evolve, "\n".join(lines) + "\n")

    op, output = ops["oracle-check"]
    assert wl.check_job(op, _edited(output, max_deviation=2e-6))
    op, output = ops["perturb"]
    assert wl.check_job(op, _edited(output, rate_error_slope=2.0))
    op, output = ops["uniton"]
    assert wl.check_job(op, _edited(output, verdict="None"))
    op, output = ops["spectrum"]
    assert wl.check_job(op, _edited(output, roots=json.loads(output)["roots"][1:]))


def test_inputs_follow_the_seed():
    a, b, c = wl.sweep_ops(3, 16), wl.sweep_ops(3, 16), wl.sweep_ops(4, 16)
    assert all(np.array_equal(x.rho0, y.rho0) and np.array_equal(x.system.h, y.system.h) for x, y in zip(a, b))
    assert not np.array_equal(a[0].system.h, c[0].system.h)
    assert [d for d, _ in wl.job_documents(3)] == [d for d, _ in wl.job_documents(3)]
    assert [d for d, _ in wl.job_documents(3)] != [d for d, _ in wl.job_documents(4)]


def test_manifold_fixed_pool_ignores_the_seed():
    a, b = wl.manifold_ops(1), wl.manifold_ops(2)
    pool = 2 * wl.MANIFOLD_POOL * len(wl.FAMILIES)
    assert sum(op.known_fault for op in a) == pool // 2
    for x, y in zip(a[:pool], b[:pool]):
        assert np.array_equal(x.system.l, y.system.l) and np.array_equal(x.rho0, y.rho0)
    assert not np.array_equal(a[pool].system.h, b[pool].system.h)


def test_tracer_records_nested_calls_and_restores():
    from fgkls import evolution, pointer

    op = wl.sweep_ops(2, count=1)[0]
    original = evolution.solve_ivp
    tracer = layer_trace.Tracer()
    tracer.install()
    try:
        assert evolution.solve_ivp is not original
        assert evolution.compute_pointer is pointer.compute_pointer
        wl.run_system(op)
    finally:
        tracer.uninstall()
    assert evolution.solve_ivp is original
    assert tracer.calls["evolution.solve_ivp"] == 1
    # compute_pointer is called by the pipeline and again inside solve_ivp.
    assert tracer.calls["pointer.compute_pointer"] == 2
    assert tracer.calls["spectral.spectrum"] == 1
    assert tracer.counts["evolution.trajectory.points"] == wl.TRAJECTORY_POINTS
    spans = {name: (start, end, parent) for name, start, end, parent in tracer.spans}
    solve_start, solve_end, _ = spans["evolution.solve_ivp"]
    spec_start, spec_end, parent = spans["spectral.spectrum"]
    assert tracer.spans[parent][0] == "evolution.solve_ivp"
    assert solve_start <= spec_start <= spec_end <= solve_end
    assert tracer.self_ns["evolution.solve_ivp"] < solve_end - solve_start
    metrics = tracer.metrics(rounds=1)
    assert set(metrics) == {f"{n}.{k}" for n in layer_trace.TRACED for k in ("calls", "self_ms")} | set(
        layer_trace.COUNTS
    )
