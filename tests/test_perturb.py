import numpy as np
import pytest

from fgkls.errors import ContractError
from fgkls.model import DiagonalL, Hamiltonian, JordanL, SystemSpec
from fgkls.perturb import (
    POINTER_SERIES_ORDERS,
    SMALL_C_GRID,
    order_estimate,
    pointer_series,
    weak_rates,
)
from fgkls.pointer import compute_pointer
from fgkls.spectral import spectrum

H_DIAG = Hamiltonian.diagonal(1.0, 0.0)


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


class TestWeakRates:
    def test_jordan_branch_values(self):
        series = weak_rates(SystemSpec(H_DIAG, JordanL(0.7 - 0.2j, 0.1)))
        a1s = sorted(a1.real for _, a1 in series.branches)
        assert a1s == [-1.0, -0.5, -0.5]
        a0s = sorted((a0.imag for a0, _ in series.branches))
        assert a0s == pytest.approx([-1.0, 0.0, 1.0])

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

    def test_contract_requires_diagonal_h(self):
        h = Hamiltonian([[1.0, 0.2], [0.2, 0.0]])
        with pytest.raises(ContractError):
            weak_rates(SystemSpec(h, JordanL(0.0, 0.1)))

    def test_contract_requires_gap(self):
        with pytest.raises(ContractError):
            weak_rates(SystemSpec(Hamiltonian.diagonal(0.5, 0.5), JordanL(0.0, 0.1)))

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
        out = pointer_series(1.0, 1.0, 0.1, 4)
        assert out[0, 0].real == pytest.approx(1.0 - 0.25e-4, abs=1e-16)

    def test_zero_coupling_limit(self):
        for order in POINTER_SERIES_ORDERS:
            out = pointer_series(0.7 - 0.2j, 1.3, 0.0, order)
            assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-15)

    def test_trace_identity_every_order(self, rng):
        for order in POINTER_SERIES_ORDERS:
            for _ in range(20):
                lam = complex(*rng.uniform(-2, 2, size=2))
                gap = rng.uniform(0.5, 2.0)
                c = rng.uniform(0.0, 0.5)
                out = pointer_series(lam, gap, c, order)
                assert (out[0, 0] + out[1, 1]) == 1.0
                assert out[1, 0] == np.conj(out[0, 1])

    def test_order4_truncation_error_bound(self):
        exact = compute_pointer(SystemSpec(H_DIAG, JordanL(1.0, 0.1))).rho
        approx = pointer_series(1.0, 1.0, 0.1, 4)
        assert abs(exact[0, 0] - approx[0, 0]) <= 2.0 * 0.1**8

    def test_order4_f11_is_eighth_order(self):
        lam = 1.0

        def exact_f11(c):
            return compute_pointer(SystemSpec(H_DIAG, JordanL(lam, c))).rho[0, 0]

        est = order_estimate(
            exact_f11, lambda c: pointer_series(lam, 1.0, c, 4)[0, 0], SMALL_C_GRID
        )
        assert not est.saturated
        assert est.slope == pytest.approx(8.0, abs=0.5)

    def test_full_matrix_converges_with_order(self):
        lam, gap, c = 0.9 - 0.4j, 1.0, 0.15
        exact = compute_pointer(SystemSpec(H_DIAG, JordanL(lam, c))).rho
        errs = [
            np.linalg.norm(exact - pointer_series(lam, gap, c, order))
            for order in POINTER_SERIES_ORDERS
        ]
        assert errs[0] > errs[1] > errs[2] > errs[3]

    def test_rejects_degenerate_gap(self):
        with pytest.raises(ContractError):
            pointer_series(1.0, 0.0, 0.1, 4)
        with pytest.raises(ContractError):
            pointer_series(1.0, 1.0, 0.1, 5)


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
