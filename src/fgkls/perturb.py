"""Weak-coupling series of any system in eps = c^2, decay rates to first
order and the stationary state to any order (Kato, Perturbation Theory for
Linear Operators, 1966, ch. II), and a log-log slope estimator that
confirms truncation orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractError
from .generator import affine_rows, dissipator_part, hamiltonian_part
from .model import Hamiltonian, SystemSpec
from .numerics import unit_scaled
from .spectral import spectrum

SMALL_C_GRID = (0.2, 0.1, 0.05)
SATURATION_FLOOR = 1e-13


@dataclass(frozen=True)
class RateSeries:
    """Three branches of (a0, a1) with rate = a0 + a1 c^2 + ..."""

    branches: tuple[tuple[complex, complex], ...]

    def predicted(self, c: float) -> list[complex]:
        c2 = c * c
        return [a0 + a1 * c2 for a0, a1 in self.branches]

    def matched_error(self, c: float, rates) -> float:
        """max |rate - prediction| at c, each prediction taking the nearest rate left."""
        rates, worst = list(rates), 0.0
        for pred in self.predicted(c):
            j = min(range(len(rates)), key=lambda i: abs(rates[i] - pred))
            worst = max(worst, abs(rates.pop(j) - pred))
        return worst


def _det_poly(rows0, rows1) -> list[complex]:
    """Coefficients in eps, lowest first, of det(rows0 + eps rows1): the
    determinant is linear in each row, expanded here along the first."""
    out = [0j] * 4
    (x0, y0), (x1, y1), (x2, y2) = zip(rows0, rows1)
    for (d, e, f), j in ((x1, 0), (y1, 1)):
        for (g, h, i), k in ((x2, j), (y2, j + 1)):
            m0, m1, m2 = e * i - f * h, d * i - f * g, d * h - e * g
            for (a, b, c), n in ((x0, k), (y0, k + 1)):
                out[n] += a * m0 - b * m1 + c * m2
    return out


def _split(spec: SystemSpec):
    """(M0, b0, M1, b1, w, dE, probe): the generator, exactly M = M0 + eps M1
    and b = b0 + eps b1 in eps = w c^2, the closed system's frequency dE (0
    where H is degenerate) and the coupling l at c = 1 / sqrt(w), the power of
    two that brings c l to unit size: no coefficient in eps over- or underflows."""
    scale, l = unit_scaled(spec.lindblad.small_l())
    m0, b0 = affine_rows(hamiltonian_part(spec.hamiltonian.entries))
    probe = lambda: replace(spec.lindblad, c=1.0 / scale)
    de = spec.hamiltonian.splitting
    return m0, b0, *affine_rows(dissipator_part(l.tolist(), 1.0)), scale * scale, de, probe


def weak_rates(spec: SystemSpec) -> RateSeries:
    """First-order rate series of any system; spec.c only names the coupling.
    With det(s - M) = s^3 + A s^2 + B s + C, a root s0 in {0, +/- i dE} of
    the closed cubic moves by a1 = -(A1 s0^2 + B1 s0 + C1) / (3 s0^2 + dE^2),
    the term linear in eps of det(M0 - s0 + eps M1) over that derivative, and
    its conjugate at -i dE.  Where dE = 0, a1 are M1's rates, multiplicities kept."""
    m0, _, m1, _, w, de, probe = _split(spec)
    if not de:
        return RateSeries(tuple((0j, r * w) for r in spectrum(SystemSpec(Hamiltonian.zero(), probe())).rates))
    shift = lambda s: [[z - s if i == j else z for j, z in enumerate(r)] for i, r in enumerate(m0)]
    a1 = [_det_poly(shift(s), m1)[1] / (3.0 * s * s + de * de) * w for s in (0j, 1j * de)]
    return RateSeries(((0j, a1[0]), (1j * de, a1[1]), (-1j * de, a1[1].conjugate())))


def pointer_series(spec: SystemSpec, order: int) -> np.ndarray:
    """Hermitian rho_0 ... rho_K, K = order / 2, stacked: sum_k rho_k c^(2k)
    is the unique pointer up to O(c^(order + 2)), ``order`` (the highest
    power of c kept) even and >= 0.  Cramer's rule for (f11, f12) in
    M x = -b, on M^T, with the zero at eps = 0 that its determinants share
    (three where dE = 0, and the series terminates) divided out."""
    if not isinstance(order, int) or order < 0 or order % 2:
        raise ContractError(f"order must be an even integer >= 0, not {order!r}")
    m0, b0, m1, b1, w, de, probe = _split(spec)
    if SystemSpec(spec.hamiltonian, probe()).canonical.zero_mode:
        raise ContractError("weak-coupling pointer series needs a unique pointer")
    zeros = 1 if de else 3
    den = _det_poly(m0, m1)[zeros:]
    series = ([], [])
    for i, q in enumerate(series):
        num = _det_poly(*([[-z for z in v] if j == i else col for j, col in enumerate(zip(*m))]
                          for m, v in ((m0, b0), (m1, b1))))[zeros:] + [0j] * order
        for k in range(order // 2 + 1):
            q.append((num[k] - sum(d * q[k - j] for j, d in enumerate(den[1 : k + 1], 1))) / den[0])
    k = np.arange(order // 2 + 1)
    f11, f12 = np.real(series[0]) * w**k, np.array(series[1]) * w**k
    return np.stack([f11, f12, f12.conj(), (k == 0) - f11], axis=-1).reshape(-1, 2, 2)


@dataclass(frozen=True)
class OrderEstimate:
    saturated: bool
    slope: float | None
    errors: tuple[float, ...]


def order_estimate(exact, approx, c_list=SMALL_C_GRID) -> OrderEstimate:
    """Least-squares slope of log error against log c.

    ``exact`` and ``approx`` map c to a scalar or matrix; errors below the
    saturation floor everywhere mean the truncation is exact and no slope
    is reported.
    """
    c_list = tuple(float(c) for c in c_list)
    if len(c_list) < 3:
        raise ContractError("order estimate needs at least three c values")
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite errors raise below
        errors = [float(np.linalg.norm(np.subtract(exact(c), approx(c)))) for c in c_list]
    if all(e < SATURATION_FLOOR for e in errors):
        return OrderEstimate(saturated=True, slope=None, errors=tuple(errors))
    if not all(0.0 < e < math.inf for e in errors):
        raise ContractError("error zero at one point only, or not finite; cannot fit a slope")
    # Closed-form least squares on Python floats.
    xs, ys = [math.log(c) for c in c_list], [math.log(e) for e in errors]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
    return OrderEstimate(saturated=False, slope=slope, errors=tuple(errors))
