"""Stationary states (pointers) of the two-level master equation.

The stationary set of the affine flow on (f11, f12, f21) is a point, a
line, or a higher-dimensional family depending on the Lindblad shape:

* diagonal L splits four ways on eps_21 and lambda1 - lambda2,
* Jordan L always has a single closed-form pointer (c > 0),
* general L is solved in its canonical frame and mapped back when
  ``canonicalize`` reduces it; otherwise it goes through the numeric 3x3
  solve with nullspace extraction.

c = 0 means closed Liouville dynamics: stationary states exist but nothing
is attracting, reported as ``NoAttractor``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import numerics
from .generator import build_generator, rhs
from .model import (
    Canonical,
    DiagonalL,
    JordanL,
    SystemSpec,
    dagger_coords,
    det2,
    direction_matrix,
    from_coords,
    from_frame_hermitian,
    hermitian_span,
)
from .numerics import COINCIDENCE_RTOL

_IDENTITY_HALF = np.eye(2, dtype=complex) / 2.0


@dataclass(frozen=True, eq=False)
class UniquePointer:
    """Single attracting stationary state."""

    rho: np.ndarray
    label: str = "unique"


@dataclass(frozen=True)
class DiagonalFamily:
    """Every diagonal unit-trace matrix is stationary; f11 is free."""

    label: str = "diagonal family"

    def rho(self, f11: float) -> np.ndarray:
        return np.diag([complex(f11), complex(1.0 - f11)])

    @property
    def base(self) -> np.ndarray:
        return _IDENTITY_HALF.copy()

    @property
    def directions(self) -> tuple[np.ndarray, ...]:
        return (np.diag([1.0 + 0j, -1.0 + 0j]),)


@dataclass(frozen=True, eq=False)
class FullFamily:
    """Stationary family with two or three free real parameters.

    ``base + sum_i x_i * directions[i]`` is stationary for all real x_i;
    the canonical branch (every unit-trace matrix stationary) carries all
    three traceless Hermitian directions.
    """

    base: np.ndarray
    directions: tuple[np.ndarray, ...]
    label: str = "arbitrary unit-trace family"

    def rho(self, *coords: float) -> np.ndarray:
        out = np.array(self.base, dtype=complex)
        for x, d in zip(coords, self.directions):
            out = out + float(x) * d
        return out

    @classmethod
    def whole_state_space(cls) -> "FullFamily":
        dirs = (
            np.diag([1.0 + 0j, -1.0 + 0j]),
            np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
            np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
        )
        return cls(base=_IDENTITY_HALF.copy(), directions=dirs)


@dataclass(frozen=True, eq=False)
class LineFamily:
    """One-real-parameter stationary family rho(x) = base + x * direction."""

    base: np.ndarray
    direction: np.ndarray
    label: str = "one-parameter family"

    def rho(self, x: float) -> np.ndarray:
        return self.base + float(x) * self.direction

    def physical_interval(self) -> tuple[float, float]:
        """Range of x with det rho(x) >= 0 (positivity of the representative)."""
        # det(base + x dir) is a downward parabola in x for traceless dir.
        b = self.base
        d = self.direction
        a2 = -float(det2(d))  # det of traceless Hermitian dir is <= 0
        a1 = float((b[0, 0] * d[1, 1] + d[0, 0] * b[1, 1] - b[0, 1] * d[1, 0] - d[0, 1] * b[1, 0]).real)
        a0 = float(det2(b))
        if a2 <= 0.0:
            return (0.0, 0.0)
        disc = a1 * a1 + 4.0 * a2 * a0
        if disc < 0.0:
            return (0.0, 0.0)
        root = float(np.sqrt(disc))
        return ((a1 - root) / (2.0 * a2), (a1 + root) / (2.0 * a2))


@dataclass(frozen=True)
class NoAttractor:
    reason: str
    label: str = "no attractor"


PointerResult = UniquePointer | DiagonalFamily | FullFamily | LineFamily | NoAttractor


def _is_negligible(value: complex, *scales: float) -> bool:
    return abs(value) < COINCIDENCE_RTOL * max(1.0, *scales)


def _general_pointer(spec: SystemSpec) -> PointerResult:
    gen = build_generator(spec)
    result = numerics.solve3(gen.matrix, -gen.inhom)
    if isinstance(result, numerics.UniqueSolution):
        x = 0.5 * (result.x + dagger_coords(result.x))
        return UniquePointer(from_coords(x), label="general numeric")
    if isinstance(result, numerics.Inconsistent):
        return NoAttractor("stationary system numerically inconsistent")
    x = 0.5 * (result.particular + dagger_coords(result.particular))
    base = from_coords(x)
    dirs = hermitian_span([direction_matrix(v) for v in result.nullspace])
    if len(dirs) == 0:
        return UniquePointer(base, label="general numeric")
    if len(dirs) == 1:
        return LineFamily(base=base, direction=dirs[0])
    return FullFamily(base=base, directions=tuple(dirs))


def _from_frame_pointer(result: PointerResult, basis: np.ndarray) -> PointerResult:
    """Map a canonical-frame result back to the caller's frame.  The diagonal
    family is diagonal only in the canonical frame; elsewhere it is a line."""

    def back(m: np.ndarray) -> np.ndarray:
        return from_frame_hermitian(m, basis)

    if isinstance(result, UniquePointer):
        return replace(result, rho=back(result.rho))
    if isinstance(result, DiagonalFamily):
        return LineFamily(base=back(result.base), direction=back(result.directions[0]))
    if isinstance(result, LineFamily):
        return replace(result, base=back(result.base), direction=back(result.direction))
    if isinstance(result, FullFamily):
        return replace(
            result,
            base=back(result.base),
            directions=tuple(back(d) for d in result.directions),
        )
    return result


def compute_pointer(spec: SystemSpec) -> PointerResult:
    """Stationary-state classification for a system specification.

    Diagonal form follows the four-way case split on eps_21 and
    lambda1 - lambda2; Jordan form evaluates the closed-form pointer;
    general form is solved in its canonical frame when it has one, and
    through the 3x3 stationary system numerically otherwise.
    """
    c = spec.c
    if c == 0.0:
        return NoAttractor("closed system (c = 0): Liouville evolution has no attractor")

    reduction = spec.reduction
    if isinstance(reduction, Canonical):
        return _from_frame_pointer(compute_pointer(reduction.system), reduction.basis)

    form = spec.lindblad
    # The canonical branches run on Python scalars: numpy's per-call
    # overhead would cost more than the arithmetic on four entries.
    (h00, h01), (h10, h11) = spec.hamiltonian.entries
    hscale = math.hypot(h00.real, h11.real, h01.real, h01.imag, h10.real, h10.imag)
    gap = spec.hamiltonian.gap

    if isinstance(form, DiagonalL):
        lam1, lam2 = form.lambda1, form.lambda2
        lam_equal = _is_negligible(lam1 - lam2, abs(lam1), abs(lam2))
        eps21_zero = _is_negligible(h10, hscale)
        if not eps21_zero and not lam_equal:
            return UniquePointer(_IDENTITY_HALF.copy(), label="maximally mixed")
        if eps21_zero:
            c2 = c * c
            bval = (
                -1j * gap / c2
                + lam1 * lam2.conjugate()
                - 0.5 * (abs(lam1) ** 2 + abs(lam2) ** 2)
            )
            if _is_negligible(bval, hscale / c2, abs(lam1) ** 2, abs(lam2) ** 2):
                return FullFamily.whole_state_space()
            return DiagonalFamily()
        # lambda1 == lambda2 with eps21 != 0: L is scalar, the dissipator
        # vanishes, and the states commuting with H form a line along the
        # traceless part of H.
        half_gap = 0.5 * gap
        norm = math.hypot(half_gap, half_gap, abs(h01), abs(h10))
        return LineFamily(
            base=_IDENTITY_HALF.copy(),
            direction=np.array([[half_gap / norm, h01 / norm], [h10 / norm, -half_gap / norm]]),
        )

    if isinstance(form, JordanL):
        c2 = c * c
        a = 1j * h10 / c2 + 0.5 * form.lam
        b = -0.5 - 1j * gap / c2
        a2 = abs(a) ** 2
        b2 = abs(b) ** 2
        inv = 1.0 / (2.0 * a2 + b2)
        rho = np.array(
            [[(a2 + b2) * inv, a.conjugate() * b.conjugate() * inv], [a * b * inv, a2 * inv]],
            dtype=complex,
        )
        label = "Jordan unique"
        if _is_negligible(h01, hscale) and _is_negligible(gap, hscale):
            label = "degenerate-H Jordan"
        return UniquePointer(rho, label=label)

    return _general_pointer(spec)


def pointer_residual(spec: SystemSpec, rho: np.ndarray) -> float:
    """Frobenius norm of the flow at rho; zero iff rho is stationary."""
    return float(np.linalg.norm(rhs(spec, rho)))


def representative(result: PointerResult) -> np.ndarray:
    """A stationary matrix standing in for the result (I/2 when nothing
    is attracting: it commutes with everything and is dissipation-free
    at c = 0)."""
    if isinstance(result, UniquePointer):
        return np.array(result.rho)
    if isinstance(result, (FullFamily, LineFamily)):
        return np.array(result.base)
    if isinstance(result, DiagonalFamily):
        return result.base
    return _IDENTITY_HALF.copy()
