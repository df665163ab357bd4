"""Weak-coupling behaviour: decay-rate series and the stationary-state
series for the Jordan shape with a diagonal, non-degenerate Hamiltonian.

Rates expand as rate = a0 + a1 c^2 + O(c^4) with a0 in {0, +i gap, -i gap};
the module carries the closed-form a1 for both canonical Lindblad shapes
and a small log-log slope estimator used to confirm truncation orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .model import DiagonalL, JordanL, SystemSpec

__all__ = [
    "RateSeries",
    "weak_rates",
    "POINTER_SERIES_ORDERS",
    "pointer_series",
    "OrderEstimate",
    "order_estimate",
    "SMALL_C_GRID",
]

SMALL_C_GRID = (0.2, 0.1, 0.05)
# Truncation orders of ``pointer_series``: the highest power of c kept.
POINTER_SERIES_ORDERS = (2, 4, 6, 8)
SATURATION_FLOOR = 1e-13


@dataclass(frozen=True)
class RateSeries:
    """Three branches of (a0, a1) with rate = a0 + a1 c^2 + ..."""

    branches: tuple[tuple[complex, complex], ...]

    def predicted(self, c: float) -> list[complex]:
        c2 = c * c
        return [a0 + a1 * c2 for a0, a1 in self.branches]


def _require_diagonal_nondegenerate(spec: SystemSpec) -> float:
    h = spec.hamiltonian.matrix
    scale = max(1.0, float(np.linalg.norm(h)))
    if abs(h[0, 1]) > 1e-12 * scale:
        raise ContractError("weak-coupling series assumes a diagonal Hamiltonian")
    gap = spec.hamiltonian.gap
    if abs(gap) <= 1e-12 * scale:
        raise ContractError("weak-coupling series needs a nonzero level gap")
    return gap


def weak_rates(spec: SystemSpec) -> RateSeries:
    """Leading decay-rate series for the two canonical Lindblad shapes."""
    gap = _require_diagonal_nondegenerate(spec)
    form = spec.lindblad
    if isinstance(form, JordanL):
        return RateSeries(
            branches=(
                (0.0 + 0j, -1.0 + 0j),
                (1j * gap, -0.5 + 0j),
                (-1j * gap, -0.5 + 0j),
            )
        )
    if isinstance(form, DiagonalL):
        l1, l2 = form.lambda1, form.lambda2
        mag = abs(l1) ** 2 + abs(l2) ** 2
        return RateSeries(
            branches=(
                (0.0 + 0j, 0.0 + 0j),
                (1j * gap, -0.5 * (mag - 2.0 * np.conj(l1) * l2)),
                (-1j * gap, -0.5 * (mag - 2.0 * l1 * np.conj(l2))),
            )
        )
    raise ContractError("weak-coupling series is defined for canonical shapes only")


def pointer_series(lam: complex, delta_eps: float, c: float, order: int) -> np.ndarray:
    """Stationary state of the Jordan shape as a series in c truncated at
    ``order``, the highest power of c kept (one of POINTER_SERIES_ORDERS),
    evaluated at c.  f11 + f22 = 1 holds identically at every order and
    f21 = conj(f12)."""
    if order not in POINTER_SERIES_ORDERS:
        raise ContractError(f"order must be one of {POINTER_SERIES_ORDERS}")
    if delta_eps == 0.0 or not math.isfinite(delta_eps):
        raise ContractError("series needs a nonzero finite level gap")
    lam, gap = complex(lam), float(delta_eps)
    mag2 = abs(lam) ** 2
    aux = 0.5 * mag2 + 0.25
    c2 = c * c
    f11 = 1.0 + 0j
    if order >= 4:
        f11 -= c2**2 * mag2 / (4.0 * gap**2)
    if order >= 8:
        f11 += c2**4 * mag2 * aux / (4.0 * gap**4)
    f12 = 0.0 + 0j
    if order >= 2:
        f12 += 0.5j * np.conj(lam) * c2 / gap
    if order >= 4:
        f12 -= 0.25 * np.conj(lam) * c2**2 / gap**2
    if order >= 6:
        f12 -= 0.5j * np.conj(lam) * aux * c2**3 / gap**3
    if order >= 8:
        f12 += 0.25 * np.conj(lam) * aux * c2**4 / gap**4
    return np.array([[f11, f12], [np.conj(f12), 1.0 - f11]], dtype=complex)


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
    errors = []
    for c in c_list:
        diff = np.asarray(exact(c)) - np.asarray(approx(c))
        errors.append(float(np.linalg.norm(diff)))
    if all(e < SATURATION_FLOOR for e in errors):
        return OrderEstimate(saturated=True, slope=None, errors=tuple(errors))
    if any(e <= 0.0 for e in errors):
        raise ContractError("zero error at one point only; cannot fit a slope")
    logs_c = np.log(np.array(c_list))
    logs_e = np.log(np.array(errors))
    slope = float(np.polyfit(logs_c, logs_e, 1)[0])
    return OrderEstimate(saturated=False, slope=slope, errors=tuple(errors))
