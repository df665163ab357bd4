import dataclasses

import numpy as np
import pytest

from fgkls.errors import ContractError
from fgkls.model import DiagonalL, GeneralL, Hamiltonian, JordanL, SystemSpec
from fgkls.perturb import (
    SMALL_C_GRID,
    order_estimate,
    pointer_series,
    weak_rates,
)
from fgkls.pointer import compute_pointer
from fgkls.sampling import random_hamiltonian
from fgkls.spectral import spectrum
from frames import from_frame
from test_acceptance import haar_unitary, rotated_general

H_DIAG = Hamiltonian.diagonal(1.0, 0.0)
EVEN_ORDERS = (0, 2, 4, 6, 8)


def numeric_rates(spec):
    md = spectrum(spec)
    return [m.rate for m in md.modes for _ in m.vectors]


def matched_rate_error(h, lind_of_c, series, c):
    spec = SystemSpec(h, lind_of_c(c))
    numeric = numeric_rates(spec)
    worst = 0.0
    for pred in series.predicted(c):
        j = int(np.argmin([abs(n - pred) for n in numeric]))
        worst = max(worst, abs(numeric.pop(j) - pred))
    return worst


def evaluate(terms, c):
    """sum_k rho_k c^(2k)."""
    return sum(rho * c ** (2 * k) for k, rho in enumerate(terms))


def at(spec, c):
    """The system with the coupling c."""
    return SystemSpec(spec.hamiltonian, dataclasses.replace(spec.lindblad, c=c))


def branch_mismatch(got, want):
    """Largest |a0 - a0'| + |a1 - a1'| after pairing each branch with its
    nearest partner."""
    want = list(want.branches)
    worst = 0.0
    for a0, a1 in got.branches:
        k = int(np.argmin([abs(a0 - b0) + abs(a1 - b1) for b0, b1 in want]))
        b0, b1 = want.pop(k)
        worst = max(worst, abs(a0 - b0) + abs(a1 - b1))
    return worst


def general_system(rng, h):
    """H with a GeneralL whose entries lie in the unit square, c = 0.1."""
    l = rng.uniform(-1.0, 1.0, (2, 2)) + 1j * rng.uniform(-1.0, 1.0, (2, 2))
    return SystemSpec(h, GeneralL(l, 0.1))


class TestWeakRates:
    def test_jordan_branch_values(self):
        series = weak_rates(SystemSpec(H_DIAG, JordanL(0.7 - 0.2j, 0.1)))
        a1s = sorted(a1.real for _, a1 in series.branches)
        assert a1s == pytest.approx([-1.0, -0.5, -0.5], abs=1e-14)
        a0s = sorted((a0.imag for a0, _ in series.branches))
        assert a0s == pytest.approx([-1.0, 0.0, 1.0])

    def test_canonical_shapes_match_their_closed_forms(self, rng):
        # The first-order rates over a diagonal H: -1 and -1/2 twice for the
        # Jordan shape; 0 and -(|l1|^2 + |l2|^2 - 2 conj(l1) l2) / 2 at +i gap
        # for the diagonal shape, and the conjugate at -i gap.
        for _ in range(200):
            gap = rng.uniform(0.3, 2.0) * rng.choice([-1.0, 1.0])
            h = Hamiltonian.diagonal(gap + 0.3, 0.3)
            lam, l1, l2 = (complex(*rng.normal(size=2)) for _ in range(3))
            mag = abs(l1) ** 2 + abs(l2) ** 2
            tables = [
                (JordanL(lam, 0.1), {0j: -1.0, 1j * gap: -0.5, -1j * gap: -0.5}),
                (
                    DiagonalL(l1, l2, 0.1),
                    {
                        0j: 0.0,
                        1j * gap: -0.5 * (mag - 2.0 * l1.conjugate() * l2),
                        -1j * gap: -0.5 * (mag - 2.0 * l1 * l2.conjugate()),
                    },
                ),
            ]
            for form, want in tables:
                for a0, a1 in weak_rates(SystemSpec(h, form)).branches:
                    key = min(want, key=lambda z: abs(z - a0))
                    assert abs(a0 - key) <= 1e-15 * abs(gap)
                    assert abs(a1 - want[key]) <= 1e-14 * max(1.0, abs(a1))

    def test_diagonal_equal_couplings_oscillating_branches_undamped(self):
        series = weak_rates(SystemSpec(H_DIAG, DiagonalL(0.8j, 0.8j, 0.1)))
        for a0, a1 in series.branches:
            assert abs(a1) < 1e-14

    def test_diagonal_damping_is_coupling_difference(self):
        l1, l2 = 1.1, 0.3 - 0.4j
        series = weak_rates(SystemSpec(H_DIAG, DiagonalL(l1, l2, 0.1)))
        for a0, a1 in series.branches:
            if abs(a0) > 0:
                assert a1.real == pytest.approx(-0.5 * abs(l1 - l2) ** 2, abs=1e-14)
            assert a1.real <= 1e-14

    def test_non_diagonal_h_matches_the_diagonalized_series(self):
        # H = [[1, 0.2], [0.2, 0]] diagonalized by a real rotation u: the
        # series of (H, l) is that of (u^dag H u, u^dag l u).
        h = np.array([[1.0, 0.2], [0.2, 0.0]])
        evals, u = np.linalg.eigh(h)
        spec = SystemSpec(Hamiltonian(h), GeneralL([[0.3, 1.0], [0.0, 0.3]], 0.1))
        series = weak_rates(spec)
        l_diag = u.T @ spec.lindblad.matrix @ u
        want = weak_rates(SystemSpec(Hamiltonian.diagonal(*evals), GeneralL(l_diag, 0.1)))
        assert branch_mismatch(series, want) <= 1e-14
        assert sorted(a0.imag for a0, _ in series.branches) == pytest.approx(
            [-np.hypot(1.0, 0.4), 0.0, np.hypot(1.0, 0.4)], abs=1e-15
        )

    def test_degenerate_h_series_terminates(self, rng):
        # With no level gap M = eps M1 exactly: a0 = 0, a1 are the rates at
        # c = 1, and the rates at every c are a1 c^2.
        u = haar_unitary(rng)
        for spec in (
            SystemSpec(Hamiltonian.diagonal(0.5, 0.5), JordanL(0.0, 0.1)),
            SystemSpec(Hamiltonian.diagonal(0.5, 0.5), JordanL(0.6 - 0.3j, 0.1)),
            rotated_general(SystemSpec(Hamiltonian.diagonal(0.5, 0.5), JordanL(0.6 - 0.3j, 0.1)), u),
            rotated_general(SystemSpec(Hamiltonian.diagonal(-0.2, -0.2), DiagonalL(1.1, 0.3j, 0.1)), u),
        ):
            series = weak_rates(spec)
            assert len(series.branches) == 3
            assert all(a0 == 0 for a0, _ in series.branches)
            assert series.matched_error(1.0, numeric_rates(at(spec, 1.0))) <= 1e-13
            est = order_estimate(
                lambda c: matched_rate_error(spec.hamiltonian, lambda cc: at(spec, cc).lindblad, series, c),
                lambda c: 0.0,
                SMALL_C_GRID,
            )
            assert est.saturated

    def test_rotation_gives_the_same_series(self, rng):
        worst_rates, worst_rho = 0.0, 0.0
        for i in range(200):
            h = random_hamiltonian(rng, 1.0)
            if i % 10 == 0:
                h = Hamiltonian.diagonal(0.7, 0.7)  # scalar H: the terminating branch
            spec = general_system(rng, h)
            u = haar_unitary(rng)
            rot = rotated_general(spec, u)
            series, series_rot = weak_rates(spec), weak_rates(rot)
            worst_rates = max(worst_rates, branch_mismatch(series_rot, series))
            if i % 10 == 0:
                assert all(a0 == 0 for a0, _ in series_rot.branches)
                assert series_rot.matched_error(1.0, numeric_rates(at(rot, 1.0))) <= 1e-13
            terms, terms_rot = pointer_series(spec, 6), pointer_series(rot, 6)
            for rho, rho_rot in zip(terms, terms_rot):
                err = float(np.max(np.abs(rho_rot - from_frame(rho, u))))
                worst_rho = max(worst_rho, err / max(1.0, float(np.max(np.abs(rho)))))
        assert worst_rates <= 1e-13
        assert worst_rho <= 1e-12

    def test_jordan_next_correction_is_fourth_order(self):
        lind_of_c = lambda c: JordanL(0.8 + 0.3j, c)
        series = weak_rates(SystemSpec(H_DIAG, lind_of_c(0.1)))
        est = order_estimate(
            lambda c: matched_rate_error(H_DIAG, lind_of_c, series, c),
            lambda c: 0.0,
            SMALL_C_GRID,
        )
        assert not est.saturated
        assert est.slope == pytest.approx(4.0, abs=0.5)

    def test_truncation_orders_hold_off_the_diagonal(self, rng):
        # Non-diagonal H with a level splitting of at least 0.5: the rate
        # error falls as c^4 and the pointer truncated at c^2 and c^4 leaves
        # c^4 and c^6.
        checked = 0
        while checked < 100:
            h = random_hamiltonian(rng, 1.0)
            (h00, h01), (_, h11) = h.entries
            if np.hypot(h00.real - h11.real, 2.0 * abs(h01)) < 0.5:
                continue
            spec = general_system(rng, h)
            series = weak_rates(spec)
            rate = order_estimate(
                lambda c: matched_rate_error(h, lambda cc: at(spec, cc).lindblad, series, c),
                lambda c: 0.0,
                SMALL_C_GRID,
            )
            assert rate.slope == pytest.approx(4.0, abs=0.5)
            terms = pointer_series(spec, 4)
            exact = lambda c: compute_pointer(at(spec, c)).rho
            for order, slope in ((2, 4.0), (4, 6.0)):
                est = order_estimate(exact, lambda c: evaluate(terms[: order // 2 + 1], c), SMALL_C_GRID)
                assert est.slope == pytest.approx(slope, abs=0.5)
            checked += 1

    def test_matched_error_matches_the_independent_copy(self, rng):
        spec = SystemSpec(Hamiltonian([[0.4, 0.3j], [-0.3j, -0.5]]), JordanL(0.8 + 0.3j, 0.1))
        series = weak_rates(spec)
        for c in SMALL_C_GRID:
            want = matched_rate_error(spec.hamiltonian, lambda cc: JordanL(0.8 + 0.3j, cc), series, c)
            assert series.matched_error(c, numeric_rates(at(spec, c))) == want

    def test_diagonal_series_terminates_for_diagonal_h(self):
        # With no level mixing the closed-form rates are affine in c^2, so
        # the two-term series is exact and the error estimator saturates.
        lind_of_c = lambda c: DiagonalL(1.2, 0.4 - 0.5j, c)
        series = weak_rates(SystemSpec(H_DIAG, lind_of_c(0.1)))
        est = order_estimate(
            lambda c: matched_rate_error(H_DIAG, lind_of_c, series, c),
            lambda c: 0.0,
            SMALL_C_GRID,
        )
        assert est.saturated

    def test_pure_raising_series_terminates(self):
        # lambda = 0 Jordan: the cubic factors exactly, rates are
        # -c^2 and +/- i gap - c^2 / 2 with no higher corrections.
        series = weak_rates(SystemSpec(H_DIAG, JordanL(0.0, 0.1)))
        est = order_estimate(
            lambda c: matched_rate_error(H_DIAG, lambda cc: JordanL(0.0, cc), series, c),
            lambda c: 0.0,
            SMALL_C_GRID,
        )
        assert est.saturated


class TestPointerSeries:
    def test_reference_value_order4(self):
        out = evaluate(pointer_series(SystemSpec(H_DIAG, JordanL(1.0, 0.1)), 4), 0.1)
        assert out[0, 0].real == pytest.approx(1.0 - 0.25e-4, abs=1e-16)

    def test_jordan_coefficients_match_their_closed_forms(self, rng):
        # The Jordan shape over a diagonal H through c^8, aux = |lam|^2 / 2 + 1 / 4.
        for _ in range(50):
            lam = complex(*rng.uniform(-2, 2, size=2))
            gap = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
            mag2, aux = abs(lam) ** 2, 0.5 * abs(lam) ** 2 + 0.25
            f11 = [1.0, 0.0, -mag2 / (4 * gap**2), 0.0, mag2 * aux / (4 * gap**4)]
            f12 = [0.0, 0.5j / gap, -0.25 / gap**2, -0.5j * aux / gap**3, 0.25 * aux / gap**4]
            terms = pointer_series(SystemSpec(Hamiltonian.diagonal(gap, 0.0), JordanL(lam, 0.1)), 8)
            for k, rho in enumerate(terms):
                # Rounding relative to the size of the c^(2k) terms.
                tol = 1e-14 * max(1.0, (1.0 + mag2) / abs(gap)) ** k
                assert abs(rho[0, 0] - f11[k]) <= tol
                assert abs(rho[0, 1] - np.conj(lam) * f12[k]) <= tol

    def test_zero_coupling_limit(self):
        spec = SystemSpec(Hamiltonian.diagonal(1.3, 0.0), JordanL(0.7 - 0.2j, 0.1))
        for order in EVEN_ORDERS:
            terms = pointer_series(spec, order)
            assert len(terms) == order // 2 + 1
            assert np.allclose(terms[0], np.diag([1.0, 0.0]), atol=1e-15)

    def test_trace_identity_every_order(self, rng):
        for order in EVEN_ORDERS:
            for _ in range(20):
                lam = complex(*rng.uniform(-2, 2, size=2))
                gap = rng.uniform(0.5, 2.0)
                terms = pointer_series(SystemSpec(Hamiltonian.diagonal(gap, 0.0), JordanL(lam, 0.1)), order)
                for k, rho in enumerate(terms):
                    assert rho[0, 0] + rho[1, 1] == (1.0 if k == 0 else 0.0)
                    assert np.array_equal(rho, rho.conj().T)

    def test_order4_truncation_error_bound(self):
        exact = compute_pointer(SystemSpec(H_DIAG, JordanL(1.0, 0.1))).rho
        approx = evaluate(pointer_series(SystemSpec(H_DIAG, JordanL(1.0, 0.1)), 4), 0.1)
        assert abs(exact[0, 0] - approx[0, 0]) <= 2.0 * 0.1**8

    def test_order4_f11_is_eighth_order(self):
        lam = 1.0
        terms = pointer_series(SystemSpec(H_DIAG, JordanL(lam, 0.1)), 4)

        def exact_f11(c):
            return compute_pointer(SystemSpec(H_DIAG, JordanL(lam, c))).rho[0, 0]

        est = order_estimate(exact_f11, lambda c: evaluate(terms, c)[0, 0], SMALL_C_GRID)
        assert not est.saturated
        assert est.slope == pytest.approx(8.0, abs=0.5)

    def test_full_matrix_converges_with_order(self):
        lam, gap, c = 0.9 - 0.4j, 1.0, 0.15
        exact = compute_pointer(SystemSpec(H_DIAG, JordanL(lam, c))).rho
        terms = pointer_series(SystemSpec(Hamiltonian.diagonal(gap, 0.0), JordanL(lam, c)), 8)
        errs = [np.linalg.norm(exact - evaluate(terms[: k + 1], c)) for k in range(1, 5)]
        assert errs[0] > errs[1] > errs[2] > errs[3]

    def test_degenerate_h_pointer_series_terminates(self, rng):
        spec = SystemSpec(Hamiltonian.diagonal(0.5, 0.5), JordanL(0.6 - 0.3j, 0.1))
        spec = rotated_general(spec, haar_unitary(rng))
        terms = pointer_series(spec, 6)
        assert np.max(np.abs(terms[1:])) <= 1e-15
        for c in SMALL_C_GRID:
            assert np.max(np.abs(terms[0] - compute_pointer(at(spec, c)).rho)) <= 1e-13

    def test_rejects_degenerate_gap(self):
        # A degenerate gap with a normal coupling leaves a family of
        # stationary states, not a unique pointer; orders must be even.
        with pytest.raises(ContractError):
            pointer_series(SystemSpec(Hamiltonian.diagonal(0.5, 0.5), DiagonalL(1.0, 0.3, 0.1)), 4)
        with pytest.raises(ContractError):
            pointer_series(SystemSpec(H_DIAG, DiagonalL(1.0, 0.3, 0.1)), 4)
        for order in (5, -2, 4.0):
            with pytest.raises(ContractError):
                pointer_series(SystemSpec(H_DIAG, JordanL(1.0, 0.1)), order)


class TestLeadingOrderModeStructure:
    def test_slow_mode_off_diagonal_scales_quadratically(self):
        # The non-oscillating mode matrix has off-diagonal entries of size
        # c^2 |lambda| / gap at small coupling.
        lam, gap = 0.8 + 0.5j, 1.3
        h = Hamiltonian.diagonal(gap, 0.0)

        def off_diag_ratio(c):
            spec = SystemSpec(h, JordanL(lam, c))
            md = spectrum(spec)
            slow = min(md.modes, key=lambda m: abs(m.rate + c * c))
            v = slow.vectors[0]
            return abs(v[1] / v[0])

        est = order_estimate(off_diag_ratio, lambda c: 0.0, SMALL_C_GRID)
        assert est.slope == pytest.approx(2.0, abs=0.5)
        c = 0.05
        assert off_diag_ratio(c) == pytest.approx(c * c * abs(lam) / gap, rel=0.05)


class TestOrderEstimate:
    def test_recovers_known_power(self):
        est = order_estimate(lambda c: 3.0 * c**5, lambda c: 0.0, (0.4, 0.2, 0.1))
        assert est.slope == pytest.approx(5.0, abs=1e-9)

    def test_saturation_detected(self):
        est = order_estimate(lambda c: 0.0, lambda c: 0.0, SMALL_C_GRID)
        assert est.saturated and est.slope is None

    def test_needs_three_points(self):
        with pytest.raises(ContractError):
            order_estimate(lambda c: c, lambda c: 0.0, (0.2, 0.1))
