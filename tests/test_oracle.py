import math

import numpy as np
import pytest

from fgkls.errors import ConfigError
from fgkls.evolution import solve_ivp, trajectory
from fgkls.generator import rhs
from fgkls.model import DiagonalL, GeneralL, Hamiltonian, JordanL, SystemSpec, coords, from_coords
from fgkls.oracle import (
    Converged,
    IntegratorConfig,
    NotConverged,
    _affine_field,
    _power_map,
    _step_maps,
    det_scan,
    integrate,
    pointer_numeric,
    stiffness_scale,
)
from fgkls.pointer import DiagonalFamily, compute_pointer
from fgkls.sampling import random_density, random_spec

AMP_DAMP = SystemSpec(Hamiltonian.diagonal(0.3, 0.3), JordanL(0.0, 1.0))
GROUND = np.diag([0.0, 1.0]).astype(complex)


def literal_rk4(spec, rho0, dt, n_steps):
    """The RK4 sequence step by step on the raw right-hand side."""
    out = [np.asarray(rho0, dtype=complex)]
    for _ in range(n_steps):
        rho = out[-1]
        k1 = rhs(spec, rho)
        k2 = rhs(spec, rho + dt / 2.0 * k1)
        k3 = rhs(spec, rho + dt / 2.0 * k2)
        k4 = rhs(spec, rho + dt * k3)
        out.append(rho + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    return out


def per_stride_loop(spec, rho0, cfg):
    """The recorded samples as one stride map applied per stride."""
    m, q = _affine_field(spec)
    p, r = _step_maps(m, q, cfg.dt)
    n_steps = max(1, int(round(cfg.t_end / cfg.dt)))
    stride = min(cfg.record_stride, n_steps)
    steps = list(range(0, n_steps + 1, stride))
    if steps[-1] != n_steps:
        steps.append(n_steps)
    xs = [coords(rho0)]
    for k0, k1 in zip(steps, steps[1:]):
        p_k, r_k = _power_map(p, r, k1 - k0)
        xs.append(p_k @ xs[-1] + r_k)
    return np.array(steps) * cfg.dt, from_coords(np.array(xs))


class TestIntegrate:
    def test_config_validation(self):
        with pytest.raises(ConfigError):
            IntegratorConfig(dt=0.0, t_end=1.0)
        with pytest.raises(ConfigError):
            IntegratorConfig(dt=1e-3, t_end=-1.0)
        with pytest.raises(ConfigError):
            IntegratorConfig(dt=1e-3, t_end=1.0, record_stride=0)

    def test_stability_gate(self):
        stiff = SystemSpec(Hamiltonian.diagonal(50.0, -50.0), JordanL(0.0, 1.0))
        with pytest.raises(ConfigError):
            integrate(stiff, GROUND, IntegratorConfig(dt=1e-2, t_end=1.0))

    @pytest.mark.parametrize("stride", [1, 50, 70, 900])
    def test_strided_matches_literal_steps(self, stride):
        # 500 steps: a stride that divides them, one that leaves a remainder,
        # one larger than the run, and single steps.
        h = Hamiltonian([[0.8, 0.2 - 0.1j], [0.2 + 0.1j, -0.4]])
        spec = SystemSpec(h, JordanL(0.5 + 0.3j, 1.0))
        rho0 = np.array([[0.8, 0.1 + 0.2j], [0.1 - 0.2j, 0.2]])
        dt, n_steps = 1e-3, 500
        literal = literal_rk4(spec, rho0, dt, n_steps)
        ks = sorted(set(range(0, n_steps + 1, stride)) | {n_steps})

        cfg = IntegratorConfig(dt=dt, t_end=n_steps * dt, record_stride=stride)
        ts, rhos = integrate(spec, rho0, cfg)
        assert ts.tolist() == [k * dt for k in ks]
        assert np.max(np.abs(rhos - np.array([literal[k] for k in ks]))) < 1e-12

    @pytest.mark.parametrize("stride", [1, 25, 70, 500, 900])
    def test_doubling_matches_a_per_stride_loop(self, stride):
        h = Hamiltonian([[0.8, 0.2 - 0.1j], [0.2 + 0.1j, -0.4]])
        spec = SystemSpec(h, JordanL(0.5 + 0.3j, 1.0))
        rho0 = np.array([[0.8, 0.1 + 0.2j], [0.1 - 0.2j, 0.2]])
        cfg = IntegratorConfig(dt=1e-3, t_end=0.5, record_stride=stride)
        ts, rhos = integrate(spec, rho0, cfg)
        want_ts, want = per_stride_loop(spec, rho0, cfg)
        assert ts.tolist() == want_ts.tolist()
        assert np.max(np.abs(rhos - want)) < 1e-14

    def test_stiffness_scale_is_the_operator_norm(self, rng):
        for exponent in range(-150, 151, 10):
            for _ in range(5):
                m = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) * 10.0**exponent
                h = Hamiltonian(m + m.conj().T)
                l = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) * 10.0 ** (exponent / 2)
                for form in (GeneralL(l, 1.0), GeneralL(np.diag(np.diag(l)), 1.0), GeneralL(l, 0.0)):
                    want = max(np.linalg.norm(h.matrix, ord=2), np.linalg.norm(form.matrix, ord=2) ** 2 * form.c)
                    assert stiffness_scale(SystemSpec(h, form)) == pytest.approx(want, rel=1e-12)

    def test_amplitude_damping_reference(self):
        cfg = IntegratorConfig(dt=1e-3, t_end=5.0, record_stride=100)
        ts, rhos = integrate(AMP_DAMP, GROUND, cfg)
        assert np.max(np.abs(rhos[:, 1, 1].real - np.exp(-ts))) < 1e-8

    def test_fourth_order_step_halving(self):
        # Error against the analytic solution shrinks by 2^4 when dt halves.
        h = Hamiltonian([[0.8, 0.2 - 0.1j], [0.2 + 0.1j, -0.4]])
        spec = SystemSpec(h, JordanL(0.5 + 0.3j, 1.0))
        rho0 = np.array([[0.8, 0.1 + 0.2j], [0.1 - 0.2j, 0.2]])
        sol = solve_ivp(spec, rho0)

        def global_error(dt):
            cfg = IntegratorConfig(dt=dt, t_end=2.0, record_stride=max(1, int(0.5 / dt)))
            ts, rhos = integrate(spec, rho0, cfg)
            return float(np.max(np.abs(rhos - trajectory(sol, ts))))

        ratio = global_error(0.02) / global_error(0.01)
        assert 13.0 <= ratio <= 19.0

    def test_pointer_input_does_not_drift(self, rng):
        for _ in range(5):
            spec = random_spec(rng, form="jordan", c_range=(0.5, 1.5))
            rho_p = compute_pointer(spec).rho
            cfg = IntegratorConfig(
                dt=1e-3, t_end=10.0 / spec.c**2, record_stride=1000
            )
            _, rhos = integrate(spec, rho_p, cfg)
            assert np.max(np.abs(rhos - rho_p)) < 1e-9

    def test_trace_and_hermiticity_drift(self, rng):
        for _ in range(10):
            spec = random_spec(rng, form="any", c_range=(0.5, 1.5))
            cfg = IntegratorConfig(dt=1e-3, t_end=10.0 / spec.c**2, record_stride=200)
            _, rhos = integrate(spec, random_density(rng), cfg)
            traces = rhos[:, 0, 0] + rhos[:, 1, 1]
            assert np.max(np.abs(traces - 1.0)) < 1e-10
            herm = rhos - np.conj(np.transpose(rhos, (0, 2, 1)))
            assert np.max(np.abs(herm)) < 1e-10

    def test_matches_analytic_spot_checks(self, rng):
        for form in ("diagonal", "jordan", "general"):
            for _ in range(5):
                spec = random_spec(rng, form=form, c_range=(0.5, 1.5), scale=1.0)
                rho0 = random_density(rng)
                sol = solve_ivp(spec, rho0)
                cfg = IntegratorConfig(dt=1e-3, t_end=6.0, record_stride=300)
                ts, rhos = integrate(spec, rho0, cfg)
                assert np.max(np.abs(rhos - trajectory(sol, ts))) < 1e-7


class TestPointerNumeric:
    def test_jordan_converges_to_closed_form(self, rng):
        for _ in range(5):
            spec = random_spec(rng, form="jordan", c_range=(0.6, 1.5))
            res = pointer_numeric(spec, random_density(rng), tol=1e-9)
            assert isinstance(res, Converged)
            assert np.max(np.abs(res.rho - compute_pointer(spec).rho)) < 1e-6

    def test_family_limit_depends_on_initial_state(self, rng):
        spec = SystemSpec(Hamiltonian.diagonal(1.0, 0.0), DiagonalL(1.0, 0.1, 1.0))
        assert isinstance(compute_pointer(spec), DiagonalFamily)
        finals = []
        for f11 in (0.2, 0.6):
            rho0 = np.array([[f11, 0.25], [0.25, 1.0 - f11]], dtype=complex)
            res = pointer_numeric(spec, rho0, tol=1e-9)
            assert isinstance(res, Converged)
            finals.append(res.rho)
            # Populations are conserved here, so the limit keeps f11.
            assert res.rho[0, 0].real == pytest.approx(f11, abs=1e-8)
            assert abs(res.rho[0, 1]) < 1e-6
        assert np.max(np.abs(finals[0] - finals[1])) > 0.1

    def test_oscillatory_case_never_settles(self):
        h = Hamiltonian([[1.0, 0.4], [0.4, 0.0]])
        spec = SystemSpec(h, DiagonalL(0.7j, 0.7j, 1.0))
        rho0 = np.array([[0.9, 0.1], [0.1, 0.1]], dtype=complex)
        res = pointer_numeric(spec, rho0, tol=1e-10, t_cap=60.0)
        assert isinstance(res, NotConverged)


class TestDetScan:
    def test_physical_trajectory_scans_to_zero(self, rng):
        spec = random_spec(rng, form="jordan", c_range=(0.5, 1.5))
        sol = solve_ivp(spec, random_density(rng))
        ts = np.linspace(0.0, 20.0, 800)
        assert det_scan(lambda ts: trajectory(sol, ts), ts) == 0.0

    def test_never_positive_returns_none(self):
        sol = solve_ivp(AMP_DAMP, np.diag([1.25, -0.25]).astype(complex))
        ts = np.linspace(0.0, 3.0, 400)
        assert det_scan(lambda ts: trajectory(sol, ts), ts) is None

    def test_grid_is_evaluated_in_one_call(self):
        rho0 = np.array([[-1.0, 0.0], [0.0, 2.0]], dtype=complex)
        sol = solve_ivp(AMP_DAMP, rho0)
        ts = np.linspace(0.0, 10.0, 1000)
        sizes = []

        def states(grid):
            sizes.append(len(grid))
            return trajectory(sol, grid)

        assert det_scan(states, ts) == pytest.approx(math.log(2.0), abs=1e-8)
        assert sizes[0] == len(ts)
        # Each refinement shrinks the bracket by REFINE_POINTS + 1 = 65.
        refinements = math.ceil(math.log((ts[1] - ts[0]) / 1e-8) / math.log(65.0))
        assert 1 <= len(sizes) - 1 <= refinements

        sizes.clear()
        assert det_scan(states, np.linspace(5.0, 10.0, 300)) == 0.0
        assert sizes == [300]

    def test_crossing_found_to_tolerance(self):
        # det rho(t) = (1 - 2 e^-t) e^-t for this construction: crossing at ln 2.
        rho0 = np.array([[-1.0, 0.0], [0.0, 2.0]], dtype=complex)
        sol = solve_ivp(AMP_DAMP, rho0)
        ts = np.linspace(0.0, 10.0, 1000)
        got = det_scan(lambda ts: trajectory(sol, ts), ts)
        assert got == pytest.approx(math.log(2.0), abs=1e-8)
