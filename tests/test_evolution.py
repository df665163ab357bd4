import cmath
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from fgkls.errors import NotReducibleError
from fgkls.evolution import (
    positivity_window,
    reconstructed_mode_matrix,
    rho_at,
    single_mode_reduction,
    solve_ivp,
    trajectory,
)
from fgkls.model import (
    DiagonalL,
    Hamiltonian,
    JordanL,
    SystemSpec,
    coords,
    det2,
    from_coords,
)
from fgkls.oracle import det_scan
from fgkls.pointer import UniquePointer, compute_pointer
from fgkls.sampling import random_density, random_spec
from fgkls.spectral import spectrum
from fgkls.uniton import classify_unitons
from test_acceptance import (
    diagonal_double_root_spec,
    haar_unitary,
    jordan_double_root_spec,
    jordan_triple_root_spec,
    rotated_general,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import liouville_ref  # noqa: E402

AMP_DAMP = SystemSpec(Hamiltonian.diagonal(0.3, 0.3), JordanL(0.0, 1.0))
GROUND = np.diag([0.0, 1.0]).astype(complex)


def jordan_real_mode_state(spec, u):
    """Pointer plus u times the (Hermitian) real decaying mode matrix."""
    ptr = compute_pointer(spec)
    assert isinstance(ptr, UniquePointer)
    md = spectrum(spec)
    real_modes = [
        m for m in md.modes if abs(m.rate.imag) < 1e-10 and m.rate.real < -1e-12
    ]
    assert real_modes
    v = real_modes[0].matrices[0]
    return ptr.rho, ptr.rho + u * v, real_modes[0]


class TestSolveIvp:
    def test_pointer_initial_state_has_zero_amplitudes(self, rng):
        for _ in range(20):
            spec = random_spec(rng, form="jordan", c_range=(0.4, 2.0))
            rho_p = compute_pointer(spec).rho
            sol = solve_ivp(spec, rho_p)
            states = trajectory(sol, np.linspace(0.0, 10.0 / spec.c**2, 50))
            assert np.max(np.abs(states - rho_p)) < 1e-12

    def test_amplitude_damping_closed_form(self):
        sol = solve_ivp(AMP_DAMP, GROUND)
        for t in (0.0, 0.5, 1.0, 4.0):
            rho = rho_at(sol, t)
            assert rho[1, 1].real == pytest.approx(math.exp(-t), abs=1e-12)
            assert abs(rho[0, 1]) < 1e-14

    def test_amplitude_damping_at_unit_decay_time(self):
        c = 1.3
        spec = SystemSpec(Hamiltonian.diagonal(0.3, 0.3), JordanL(0.0, c))
        sol = solve_ivp(spec, GROUND)
        rho = rho_at(sol, 1.0 / c**2)
        assert rho[1, 1].real == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_closed_system_rotates_coherence(self):
        h = Hamiltonian.diagonal(1.2, 0.2)
        spec = SystemSpec(h, DiagonalL(0.5, -0.5, 0.0))
        rho0 = np.array([[0.25, 0.3 - 0.1j], [0.3 + 0.1j, 0.75]])
        sol = solve_ivp(spec, rho0)
        for t in (0.3, 1.7, 6.0):
            rho = rho_at(sol, t)
            assert rho[0, 0].real == pytest.approx(0.25, abs=1e-12)
            expected = rho0[0, 1] * np.exp(-1j * h.gap * t)
            assert rho[0, 1] == pytest.approx(expected, abs=1e-12)

    def test_initial_state_reproduced(self, rng):
        for form in ("diagonal", "jordan", "general"):
            for _ in range(30):
                spec = random_spec(rng, form=form, c_range=(0.2, 2.5))
                rho0 = random_density(rng)
                sol = solve_ivp(spec, rho0)
                assert np.max(np.abs(rho_at(sol, 0.0) - rho0)) < 1e-10

    def test_trace_and_hermiticity_on_grid(self, rng):
        ts = np.linspace(0.0, 8.0, 100)
        for _ in range(25):
            spec = random_spec(rng, form="any", c_range=(0.3, 2.0))
            rhos = trajectory(solve_ivp(spec, random_density(rng)), ts)
            traces = rhos[:, 0, 0] + rhos[:, 1, 1]
            assert np.max(np.abs(traces - 1.0)) < 1e-12
            herm = rhos - np.conj(np.transpose(rhos, (0, 2, 1)))
            assert np.max(np.abs(herm)) < 1e-11

    def test_converges_to_pointer_when_damped(self, rng):
        for _ in range(40):
            spec = random_spec(rng, form="jordan", c_range=(0.3, 2.0))
            sol = solve_ivp(spec, random_density(rng))
            slowest = min(-m.rate.real for m in sol.modes.modes)
            big_t = 30.0 / slowest
            assert (
                np.linalg.norm(rho_at(sol, big_t) - compute_pointer(spec).rho) < 1e-6
            )

    def test_equal_couplings_oscillation_matches_oracle(self, rng):
        # Undamped case: scalar coupling difference vanishes, coherences
        # rotate forever; the analytic form must still track the integrator.
        from fgkls.oracle import IntegratorConfig, integrate

        h = Hamiltonian([[1.0, 0.4], [0.4, 0.0]])
        spec = SystemSpec(h, DiagonalL(0.7j, 0.7j, 1.0))
        rho0 = random_density(rng)
        sol = solve_ivp(spec, rho0)
        cfg = IntegratorConfig(dt=1e-3, t_end=12.0, record_stride=200)
        ts, rhos = integrate(spec, rho0, cfg)
        assert np.max(np.abs(trajectory(sol, ts) - rhos)) < 1e-7

    def test_defective_chain_matches_oracle(self):
        # Polynomial-in-t mode from a coinciding-root system.
        from fgkls.oracle import IntegratorConfig, integrate

        spec = SystemSpec(Hamiltonian.diagonal(0.2, 0.2), JordanL(0.25, 1.0))
        assert any(m.poly_degree > 0 for m in spectrum(spec).modes)
        rho0 = np.array([[0.65, 0.2 - 0.15j], [0.2 + 0.15j, 0.35]])
        sol = solve_ivp(spec, rho0)
        cfg = IntegratorConfig(dt=1e-3, t_end=10.0, record_stride=200)
        ts, rhos = integrate(spec, rho0, cfg)
        assert np.max(np.abs(trajectory(sol, ts) - rhos)) < 1e-6

    def test_family_case_reaches_family_member(self):
        # No coherence mixing: populations freeze, so the late-time state is
        # diagonal with the initial populations.
        spec = SystemSpec(Hamiltonian.diagonal(1.0, 0.0), DiagonalL(1.0, 0.2, 1.0))
        rho0 = np.array([[0.3, 0.2 + 0.1j], [0.2 - 0.1j, 0.7]])
        sol = solve_ivp(spec, rho0)
        late = rho_at(sol, 200.0)
        assert np.allclose(late, np.diag([0.3, 0.7]), atol=1e-10)


class TestSingleModeReduction:
    def test_amplitude_damping_polar_data(self):
        sol = solve_ivp(AMP_DAMP, GROUND)
        red = single_mode_reduction(sol)
        assert red.w == pytest.approx(1.0, abs=1e-12)
        assert red.sign == -1
        assert red.h == pytest.approx(1.0, abs=1e-12)
        assert red.p == pytest.approx(0.0, abs=1e-12)
        assert red.s3 == pytest.approx(-1.0, abs=1e-12)

    def test_pointer_only_reduces_to_zero_weight(self, rng):
        spec = random_spec(rng, form="jordan", c_range=(0.4, 2.0))
        sol = solve_ivp(spec, compute_pointer(spec).rho)
        red = single_mode_reduction(sol)
        assert red.w == pytest.approx(0.0, abs=1e-12)

    def test_excited_pair_not_reducible(self, rng):
        for _ in range(10):
            spec = random_spec(rng, form="jordan", c_range=(0.4, 2.0))
            md = spectrum(spec)
            if not any(abs(m.rate.imag) > 1e-6 for m in md.modes):
                continue
            sol = solve_ivp(spec, random_density(rng))
            with pytest.raises(NotReducibleError):
                single_mode_reduction(sol)

    def test_reconstruction_matches_excited_mode(self, rng):
        for _ in range(20):
            spec = random_spec(rng, form="jordan", c_range=(0.5, 1.5))
            try:
                _, rho0, mode = jordan_real_mode_state(spec, 0.17)
            except AssertionError:
                continue
            sol = solve_ivp(spec, rho0)
            red = single_mode_reduction(sol)
            assert np.max(np.abs(reconstructed_mode_matrix(red) - 0.17 * mode.matrices[0])) < 1e-10
            assert red.s3 == pytest.approx(mode.rate.real / spec.c**2, abs=1e-10)


def quadratic_det_roots(pointer, m0):
    """Independent oracle: roots x of det(pointer + x m0) via sampling."""
    xs = np.array([-2.0, 0.0, 2.0])
    vals = [det2(pointer + x * m0) for x in xs]
    coeffs = np.polyfit(xs, vals, 2)
    roots = np.roots(coeffs)
    return sorted(float(r.real) for r in roots)


class TestPositivityWindow:
    def test_amplitude_damping_window_starts_at_zero(self):
        sol = solve_ivp(AMP_DAMP, GROUND)
        red = single_mode_reduction(sol)
        win = positivity_window(red, red.pointer, AMP_DAMP.c)
        assert win.valid and win.t_min == 0.0

    def test_zero_weight_always_valid(self, rng):
        spec = random_spec(rng, form="jordan", c_range=(0.4, 2.0))
        sol = solve_ivp(spec, compute_pointer(spec).rho)
        red = single_mode_reduction(sol)
        win = positivity_window(red, red.pointer, spec.c)
        assert win.valid and win.t_min == 0.0

    def test_constructed_double_weight_case(self):
        # Excite only the real mode with weight w = 2 x2: the window closes
        # at exactly ln 2 / (-s3 c^2), and a scan of det rho(t)
        # agrees to 1e-8.
        h = Hamiltonian([[0.9, 0.15 - 0.1j], [0.15 + 0.1j, -0.2]])
        spec = SystemSpec(h, JordanL(0.6 + 0.3j, 1.1))
        rho_p, probe_state, mode = jordan_real_mode_state(spec, 0.05)
        red0 = single_mode_reduction(solve_ivp(spec, probe_state))
        m0 = reconstructed_mode_matrix(red0) / (red0.sign * red0.w)
        x_lo, x_hi = quadratic_det_roots(rho_p, m0)
        assert x_lo < 0.0 < x_hi

        scale = red0.w / 0.05  # weight per unit of u
        u = 2.0 * x_hi / scale
        sol = solve_ivp(spec, rho_p + u * mode.matrices[0])
        red = single_mode_reduction(sol)
        if red.sign < 0:
            sol = solve_ivp(spec, rho_p - u * mode.matrices[0])
            red = single_mode_reduction(sol)
        assert red.sign == 1
        assert red.w == pytest.approx(2.0 * x_hi, rel=1e-9)

        win = positivity_window(red, red.pointer, spec.c)
        expected = math.log(2.0) / (-red.s3 * spec.c**2)
        assert win.valid
        assert win.t_min == pytest.approx(expected, rel=1e-10)

        horizon = max(4.0 * win.t_min, 2.0)
        scan = det_scan(lambda ts: trajectory(sol, ts), np.linspace(0.0, horizon, 2000))
        assert scan == pytest.approx(win.t_min, abs=1e-8)

        ts = np.linspace(win.t_min, win.t_min + 20.0, 500)
        dets = [det2(r) for r in trajectory(sol, ts)]
        assert min(dets) >= -1e-10

    def test_never_physical_direction_reports_invalid(self):
        # Pure-state pointer pushed past the boundary never comes back.
        sol = solve_ivp(AMP_DAMP, np.diag([1.25, -0.25]).astype(complex))
        red = single_mode_reduction(sol)
        win = positivity_window(red, red.pointer, AMP_DAMP.c)
        assert not win.valid

    def test_det_positive_after_window_generic(self, rng):
        count = 0
        for _ in range(30):
            spec = random_spec(rng, form="jordan", c_range=(0.5, 1.5))
            try:
                rho_p, _, mode = jordan_real_mode_state(spec, 1.0)
            except AssertionError:
                continue
            u = rng.uniform(-0.8, 0.8)
            sol = solve_ivp(spec, rho_p + u * mode.matrices[0])
            red = single_mode_reduction(sol)
            win = positivity_window(red, red.pointer, spec.c)
            if not win.valid:
                continue
            count += 1
            ts = win.t_min + np.linspace(0.0, 30.0 / spec.c**2, 400)
            dets = [det2(r) for r in trajectory(sol, ts)]
            assert min(dets) >= -1e-10
        assert count >= 10


def literal_coords(sol, rho0, ts):
    """The modal sum written out term by term: amplitudes a fitted to
    rho0 - pointer against the chain vectors of ``sol.modes``, then the
    pointer plus, for each chain vector v_i of each mode,
    exp(rate t) sum_{j >= i} a_j t^(j-i) / (j-i)! v_i."""
    vectors = [v for mode in sol.modes.modes for v in mode.vectors]
    amps = np.linalg.solve(np.column_stack(vectors), coords(rho0 - sol.pointer_part))
    out = [coords(sol.pointer_part) for _ in ts]
    idx = 0
    for mode in sol.modes.modes:
        k = len(mode.vectors)
        for i, v in enumerate(map(np.array, mode.vectors)):
            for j in range(i, k):
                a = amps[idx + j] / math.factorial(j - i)
                for n, t in enumerate(ts):
                    out[n] = out[n] + a * cmath.exp(mode.rate * t) * t ** (j - i) * v
        idx += k
    return np.array(out)


class TestTrajectoryClosedForm:
    def _solutions(self, rng):
        """(solution, initial state) pairs."""
        sols = []

        def add(spec):
            rho0 = random_density(rng)
            sols.append((solve_ivp(spec, rho0), rho0))

        for form in ("diagonal", "jordan", "general"):
            for _ in range(10):
                add(random_spec(rng, form, c_range=(0.3, 2.0)))
        for family in (jordan_double_root_spec, jordan_triple_root_spec, diagonal_double_root_spec):
            for _ in range(5):
                add(family(rng))
        # Canonical systems, plain and with coinciding roots, passed as
        # general form in a random basis.
        for family in (
            lambda r: random_spec(r, "any", c_range=(0.3, 2.0)),
            jordan_double_root_spec,
            jordan_triple_root_spec,
            diagonal_double_root_spec,
        ):
            for _ in range(3):
                spec, u = family(rng), haar_unitary(rng)
                add(rotated_general(spec, u))
        return sols

    @staticmethod
    def _grids(sol):
        return (np.linspace(0.0, 8.0 / sol.spec.c**2, 40), np.array([0.0]), np.array([1.7]))

    def test_matches_the_per_mode_sum(self, rng):
        chains = 0
        for sol, rho0 in self._solutions(rng):
            chains += any(len(m.vectors) > 1 for m in sol.modes.modes)
            for ts in self._grids(sol):
                got = trajectory(sol, ts)
                assert got.shape == (len(ts), 2, 2)
                assert np.max(np.abs(got - from_coords(literal_coords(sol, rho0, ts)))) < 1e-13
        # Every coinciding-root solution carries a Jordan chain.
        assert chains >= 15

    def test_states_are_exactly_hermitian_with_unit_trace(self, rng):
        for sol, _ in self._solutions(rng):
            for ts in self._grids(sol):
                states = trajectory(sol, ts)
                f11, f12 = states[:, 0, 0], states[:, 0, 1]
                f21, f22 = states[:, 1, 0], states[:, 1, 1]
                assert np.all(f11.imag == 0.0) and np.all(f22.imag == 0.0)
                assert np.array_equal(f21, f12.conj())
                assert np.array_equal(f22.real, 1.0 - f11.real)
            assert np.array_equal(rho_at(sol, 1.7), trajectory(sol, [1.7])[0])


def test_generic_canonical_pipeline_needs_no_svd_or_lstsq(rng, monkeypatch):
    cases = [
        (random_spec(rng, form), random_density(rng))
        for form in ("diagonal", "jordan")
        for _ in range(50)
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("SVD, least squares or solve on a generic canonical system")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    monkeypatch.setattr(np.linalg, "solve", refuse)
    for spec, rho0 in cases:
        sol = solve_ivp(spec, rho0)
        trajectory(sol, np.linspace(0.0, 5.0, 20))
        classify_unitons(spec)


# Systems a distance d off each coinciding-root manifold, at c = 1.
NEAR_MANIFOLD = {
    # l = sigma_plus, H = [[g/2, h], [h, -g/2]] with h^2 = 1/54, g^2 = 1/108 + d.
    "triple": lambda d: SystemSpec(
        Hamiltonian(
            [
                [math.sqrt(1 / 108 + d) / 2, math.sqrt(1 / 54)],
                [math.sqrt(1 / 54), -math.sqrt(1 / 108 + d) / 2],
            ]
        ),
        JordanL(0.0, 1.0),
    ),
    # l = lambda (1 + d) I + sigma_plus with |lambda| = 1/4, H = 0.2 I.
    "jordan double": lambda d: SystemSpec(
        Hamiltonian.diagonal(0.2, 0.2), JordanL(0.25 * cmath.exp(0.7j) * (1 + d), 1.0)
    ),
    # l = diag(1, 0), H = [[0.1, 1/8 + d], [1/8 + d, 0.1]].
    "diagonal double": lambda d: SystemSpec(
        Hamiltonian([[0.1, 0.125 + d], [0.125 + d, 0.1]]), DiagonalL(1.0, 0.0, 1.0)
    ),
}
NEAR_MANIFOLD_DISTANCES = [0.0, 1e-16, 1e-14] + [10.0**k for k in range(-13, -2)]


@pytest.mark.parametrize("family", sorted(NEAR_MANIFOLD))
def test_near_manifold_states_match_the_reference(family):
    """Towards each manifold, in canonical form and rotated into general
    form: nothing raises, the rates rebuild the reference's cubic and the
    states match the reference Liouvillian within 1e-11."""
    rng = np.random.default_rng(41)
    rho0 = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
    ts = np.linspace(0.0, 8.0, 41)
    for d in NEAR_MANIFOLD_DISTANCES:
        u = haar_unitary(rng)
        canonical = NEAR_MANIFOLD[family](d)
        for spec, start in ((canonical, rho0), (rotated_general(canonical, u), u @ rho0 @ u.conj().T)):
            ref = liouville_ref.Reference(
                spec.hamiltonian.matrix, spec.c * spec.lindblad.small_l()
            )
            rates = [m.rate for m in spectrum(spec).modes for _ in m.vectors]
            assert liouville_ref.check_rates(ref, rates) == [], (family, d)
            states = trajectory(solve_ivp(spec, start), ts)
            want = np.array([ref.state(start, t) for t in ts])
            assert np.max(np.abs(states - want)) <= 1e-11, (family, d)
