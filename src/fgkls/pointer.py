"""Stationary states (pointers) of the two-level master equation.

Every system is solved in its canonical form (H', c', x, t) and mapped
back through the frame U.  The stationary set of the affine flow on
(f11, f12, f21) is then

* for t = 0 (diagonal l), unique where there is no zero mode
  (``Canonical.zero_mode``), and else a family split on h01, x and H,
* for t > 0, one closed-form pointer: a non-normal l and its adjoint
  generate all 2x2 matrices, so the stationary state is unique (Spohn,
  Lett. Math. Phys. 2, 1977); x = 0 is the Jordan shape.

c = 0 means closed Liouville dynamics: stationary states exist but nothing
is attracting, reported as ``NoAttractor``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .generator import rhs
from .model import Canonical, Entries2, SystemSpec, det2, hermitian_from_frame

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


def _from_frame_pointer(result: PointerResult, basis: Entries2) -> PointerResult:
    """Map a canonical-frame result back to the caller's frame.  The diagonal
    family is diagonal only in the canonical frame; elsewhere it is a line."""

    def back(m: np.ndarray) -> np.ndarray:
        return hermitian_from_frame(m.tolist(), basis)

    if isinstance(result, UniquePointer):
        return UniquePointer(back(result.rho), result.label)
    if isinstance(result, DiagonalFamily):
        return LineFamily(back(result.base), back(result.directions[0]))
    if isinstance(result, LineFamily):
        return LineFamily(back(result.base), back(result.direction), result.label)
    if isinstance(result, FullFamily):
        return FullFamily(back(result.base), tuple(map(back, result.directions)), result.label)
    return result


def stationary_state(canon: Canonical, scaled: tuple[float, complex]) -> np.ndarray:
    """Stationary state of the canonical (x, t > 0) with H' / c'^2 = scaled,
    in its frame: f11 = n1 / (n1 + n2), f22 = n2 / (n1 + n2) with
    n1 + n2 = 2 p0 (the cubic's constant term), every sum free of
    cancellation."""
    x, t = canon.x, canon.t
    g, h = scaled
    re, im = h.real, h.imag
    xt, t2 = x * t, t * t
    a = 2.0 * x * x + 0.5 * t2
    n1 = (
        a * (xt - 2.0 * im) ** 2
        + a * t2 * t2
        + 2.0 * (t * g - 2.0 * x * re) ** 2
        + 2.0 * t2 * re * re
    )
    n2 = a * ((xt + 2.0 * im) ** 2 + 4.0 * re * re)
    total = n1 + n2
    diff = a * t2 * t2 + 2.0 * t2 * g * g - 8.0 * xt * (a * im + g * re)
    f12 = (1j * h * diff - 0.5 * xt * (n1 + 3.0 * n2)) / ((a + 1j * g) * total)
    return np.array([[n1 / total, f12], [f12.conjugate(), n2 / total]], dtype=complex)


def canonical_pointer(canon: Canonical) -> PointerResult:
    """Pointer of a canonical system in its own frame, on Python scalars."""
    x, t = canon.x, canon.t
    if t == 0.0:
        if not canon.zero_mode:
            return UniquePointer(_IDENTITY_HALF.copy(), label="maximally mixed")
        gap, h01 = canon.gap, canon.h01
        if h01 != 0:
            # Scalar L with eps21 != 0: the dissipator vanishes, and the states
            # commuting with H form a line along the traceless part of H.
            half_gap = 0.5 * gap
            norm = math.hypot(half_gap, half_gap, abs(h01), abs(h01))
            return LineFamily(
                base=_IDENTITY_HALF.copy(),
                direction=np.array(
                    [[half_gap / norm, h01 / norm], [h01.conjugate() / norm, -half_gap / norm]]
                ),
            )
        # The coherences decay at 2 x^2 + i gap / c^2: nothing decays when l
        # is scalar and H degenerate.
        return FullFamily.whole_state_space() if x == 0.0 and canon.degenerate else DiagonalFamily()
    rho = stationary_state(canon, canon.scaled)
    if x != 0.0:
        return UniquePointer(rho, label="non-normal unique")
    if canon.degenerate:
        return UniquePointer(rho, label="degenerate-H Jordan")
    return UniquePointer(rho, label="Jordan unique")


def compute_pointer(spec: SystemSpec) -> PointerResult:
    """Stationary-state classification for a system specification, from
    its canonical form (see ``canonical_pointer``)."""
    if spec.c == 0.0:
        return NoAttractor("closed system (c = 0): Liouville evolution has no attractor")
    canon = spec.canonical
    result = canonical_pointer(canon)
    return result if canon.basis is None else _from_frame_pointer(result, canon.basis)


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
