import numpy as np
import pytest

from fgkls.errors import ContractError
from fgkls.evolution import solve_ivp, trajectory
from fgkls.model import DiagonalL, GeneralL, Hamiltonian, JordanL, SystemSpec, det2, min_eig2
from fgkls.pointer import (
    DiagonalFamily,
    FullFamily,
    LineFamily,
    NoAttractor,
    UniquePointer,
    compute_pointer,
    pointer_residual,
)
from fgkls.sampling import random_density, random_spec
from fgkls.spectral import spectrum

DEGENERATE_H = Hamiltonian.diagonal(0.7, 0.7)


class TestDiagonalBranches:
    def test_maximally_mixed(self):
        h = Hamiltonian([[1.0, 0.4 - 0.2j], [0.4 + 0.2j, -0.3]])
        spec = SystemSpec(h, DiagonalL(1.0, -0.5j, 1.2))
        res = compute_pointer(spec)
        assert isinstance(res, UniquePointer)
        assert np.allclose(res.rho, np.eye(2) / 2.0, atol=1e-15)

    def test_full_family_needs_vanishing_decay(self):
        # eps21 = 0 and the coherence-decay coefficient zero: that takes
        # equal couplings and degenerate levels, so L and H are scalar.
        spec = SystemSpec(DEGENERATE_H, DiagonalL(0.9, 0.9, 1.3))
        res = compute_pointer(spec)
        assert isinstance(res, FullFamily)
        assert len(res.directions) == 3
        rho = res.rho(0.1, 0.05, -0.2)
        assert pointer_residual(spec, rho) < 1e-12

    def test_diagonal_family(self):
        spec = SystemSpec(Hamiltonian.diagonal(1.0, 0.0), DiagonalL(0.4, 1.1, 0.9))
        res = compute_pointer(spec)
        assert isinstance(res, DiagonalFamily)
        for f11 in (0.0, 0.25, 1.0):
            assert pointer_residual(spec, res.rho(f11)) < 1e-12

    def test_line_family_off_diagonal_formula(self):
        h = Hamiltonian([[1.2, 0.3 + 0.1j], [0.3 - 0.1j, 0.1]])
        lam = 0.5 - 0.8j
        spec = SystemSpec(h, DiagonalL(lam, lam, 1.1))
        res = compute_pointer(spec)
        assert isinstance(res, LineFamily)
        for x in (0.2, 0.5, 0.9):
            rho = res.rho(x - 0.5)
            assert pointer_residual(spec, rho) < 1e-11
            # Off-diagonal entries follow eps12 (2 f11 - 1) / gap.
            f11 = rho[0, 0].real
            expected = h.matrix[0, 1] * (2.0 * f11 - 1.0) / h.gap
            assert rho[0, 1] == pytest.approx(expected, abs=1e-12)

    def test_line_family_degenerate_gap(self):
        h = Hamiltonian([[0.3, 0.25j], [-0.25j, 0.3]])
        spec = SystemSpec(h, DiagonalL(0.6, 0.6, 1.0))
        res = compute_pointer(spec)
        assert isinstance(res, LineFamily)
        assert pointer_residual(spec, res.rho(0.13)) < 1e-10


class TestJordanBranch:
    def test_degenerate_h_closed_form(self):
        spec = SystemSpec(DEGENERATE_H, JordanL(1.0, 0.5))
        res = compute_pointer(spec)
        assert isinstance(res, UniquePointer)
        assert res.label == "degenerate-H Jordan"
        expected = np.array([[2.0, -1.0], [-1.0, 1.0]]) / 3.0
        assert np.allclose(res.rho, expected, atol=1e-14)

    def test_degenerate_h_independent_of_coupling(self):
        rhos = [
            compute_pointer(SystemSpec(DEGENERATE_H, JordanL(1.0, c))).rho
            for c in (0.5, 2.0)
        ]
        assert np.max(np.abs(rhos[0] - rhos[1])) < 1e-12

    def test_pure_raising_dark_state(self):
        # lambda = 0 with degenerate diagonal H pins the upper level.
        spec = SystemSpec(Hamiltonian.diagonal(0.5, 0.5), JordanL(0.0, 1.0))
        res = compute_pointer(spec)
        assert isinstance(res, UniquePointer)
        assert np.allclose(res.rho, [[1.0, 0.0], [0.0, 0.0]], atol=1e-14)

    def test_strict_positivity_generic(self, rng):
        for _ in range(300):
            spec = random_spec(rng, form="jordan", c_range=(0.1, 3.0))
            res = compute_pointer(spec)
            assert isinstance(res, UniquePointer)
            assert det2(res.rho) > 0.0
            assert pointer_residual(spec, res.rho) < 1e-10


class TestGeneralAndClosed:
    def test_closed_system_reports_no_attractor(self):
        spec = SystemSpec(Hamiltonian.diagonal(1.0, 0.0), JordanL(0.3, 0.0))
        res = compute_pointer(spec)
        assert isinstance(res, NoAttractor)

    def test_general_unique(self, rng):
        for _ in range(50):
            spec = random_spec(rng, form="general", c_range=(0.3, 2.0))
            res = compute_pointer(spec)
            if isinstance(res, UniquePointer):
                assert pointer_residual(spec, res.rho) < 1e-10
                assert abs(np.trace(res.rho) - 1.0) < 1e-12
                assert min_eig2(res.rho) > -1e-12

    def test_general_matches_canonical_route(self, rng):
        # A canonical shape passed in general form must agree, from tiny to
        # huge scales of lambda, H and c.
        for form in ("diagonal", "jordan"):
            for _ in range(100):
                lam = 10.0 ** rng.uniform(-6.0, 6.0)
                spec = random_spec(rng, form=form, c_range=(1.0, 1.0), scale=10.0 ** rng.uniform(-6.0, 6.0))
                if form == "jordan":
                    shape = JordanL(lam * spec.lindblad.lam, 10.0 ** rng.uniform(-4.0, 4.0))
                else:
                    l1, l2 = spec.lindblad.lambda1, spec.lindblad.lambda2
                    shape = DiagonalL(lam * l1, lam * l2, 10.0 ** rng.uniform(-4.0, 4.0))
                spec = SystemSpec(spec.hamiltonian, shape)
                as_general = SystemSpec(spec.hamiltonian, GeneralL(shape.small_l(), shape.c))
                res_a, res_b = compute_pointer(spec), compute_pointer(as_general)
                assert res_a.label == res_b.label
                if isinstance(res_a, UniquePointer):
                    assert np.max(np.abs(res_a.rho - res_b.rho)) < 1e-12
                key = lambda r: (r.real, r.imag)  # noqa: E731
                rates_a = sorted((m.rate for m in spectrum(spec).modes for _ in m.vectors), key=key)
                rates_b = sorted((m.rate for m in spectrum(as_general).modes for _ in m.vectors), key=key)
                scale = max(abs(r) for r in rates_a)
                assert np.max(np.abs(np.array(rates_a) - rates_b)) <= 1e-12 * scale
                rho0 = random_density(rng)
                ts = np.linspace(0.0, 3.0 / max(1e-300, min(-r.real for r in rates_a if r.real < 0.0)), 5)
                traj_a = trajectory(solve_ivp(spec, rho0), ts)
                assert np.max(np.abs(traj_a - trajectory(solve_ivp(as_general, rho0), ts))) < 1e-9

    def test_weak_coupling_non_normal_near_singular(self):
        # The stationary system's determinant is small (c^6 |H|^...); the
        # closed form keeps the pointer exact there.
        h = Hamiltonian.diagonal(0.5, -0.5)
        for c in (1.1e-5, 1.3e-5, 1.5e-5):
            spec = SystemSpec(h, GeneralL([[1.0, 1.0], [0.0, 2.0]], c))
            res = compute_pointer(spec)
            assert isinstance(res, UniquePointer)
            assert pointer_residual(spec, res.rho) < 1e-10
            assert np.max(np.abs(res.rho - res.rho.conj().T)) == 0.0


class TestFamilies:
    def test_family_representatives_are_stationary(self, rng):
        specs = [
            SystemSpec(Hamiltonian.diagonal(1.0, 0.0), DiagonalL(0.4, 1.1, 0.9)),
            SystemSpec(DEGENERATE_H, DiagonalL(0.9, 0.9, 1.3)),
            SystemSpec(
                Hamiltonian([[1.2, 0.3], [0.3, 0.1]]), DiagonalL(0.5, 0.5, 1.1)
            ),
        ]
        for spec in specs:
            res = compute_pointer(spec)
            for _ in range(10):
                if isinstance(res, DiagonalFamily):
                    rho = res.rho(rng.uniform(0, 1))
                elif isinstance(res, FullFamily):
                    rho = res.rho(*rng.uniform(-0.2, 0.2, size=len(res.directions)))
                else:
                    assert isinstance(res, LineFamily)
                    rho = res.rho(rng.uniform(-0.3, 0.3))
                assert pointer_residual(spec, rho) < 1e-10

    def test_line_family_physical_interval(self):
        h = Hamiltonian([[1.2, 0.3 + 0.1j], [0.3 - 0.1j, 0.1]])
        spec = SystemSpec(h, DiagonalL(0.7, 0.7, 1.0))
        res = compute_pointer(spec)
        assert isinstance(res, LineFamily)
        lo, hi = res.physical_interval()
        assert lo < 0.0 < hi
        for x in (lo + 1e-12, hi - 1e-12, 0.0):
            assert min_eig2(res.rho(x)) >= -1e-10
        assert min_eig2(res.rho(hi + 0.05)) < 0.0


@pytest.mark.parametrize("c", [1e-150, 1e-160, 1e-200])
def test_tiny_coupling_is_a_contract_error(c):
    # c'^2 underflows, or H' / c'^2 is beyond what the closed forms can
    # square and cube: a typed error, not a ZeroDivisionError or overflow.
    h = Hamiltonian([[0.3, 0.1 + 0.2j], [0.1 - 0.2j, -0.4]])
    for form in (JordanL(0.3, c), DiagonalL(0.3, -0.2j, c)):
        spec = SystemSpec(h, form)
        for run in (compute_pointer, spectrum, lambda s: solve_ivp(s, np.eye(2) / 2.0)):
            with pytest.raises(ContractError):
                run(spec)
