"""Domain types for a driven two-level open system.

A system is a Hermitian Hamiltonian plus a single Lindblad operator
L = c * l with real coupling c >= 0.  The small matrix l is given in one of
three input forms: diagonal, Jordan block (lambda * I + sigma_plus), or a
general 2x2.  ``canonicalize`` takes every form to one canonical system
(H', c', x, t) and a frame U: the scalar part of l moves into H', and a
Schur rotation brings the rest to c' [[x, t], [0, -x]] with real x, t >= 0.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ContractError, InputError
from .numerics import eigvec2, finite_matrix, power_of_two

SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)

HERMITICITY_ATOL = 1e-14
EPS = sys.float_info.epsilon
# Rounding level of the shape decisions on the inputs, relative to the
# largest entry: whether a general l is normal or scalar (``_general_shape``),
# whether H is degenerate (``Hamiltonian.splitting``), whether H is diagonal
# in the frame of a normal l, and whether H commutes with a uniton candidate.
SHAPE_RTOL = 64 * EPS
# The closed forms take up to the sixth power of H' / c'^2 (the cubic's
# discriminant), so its entries must stay below the sixth root of the
# largest float.
SCALED_MAX = sys.float_info.max ** (1.0 / 6.0)


def _finite_complex(z, name: str) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise InputError(f"non-finite {name}")
    return z


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


Entries2 = tuple[tuple[complex, complex], tuple[complex, complex]]


def _hermitian_part(m, tol: float) -> tuple[bool, Entries2, complex]:
    """(whether max|m - m^dag| <= tol * ||m||, a bound relative at every
    scale, the entries of (m + m^dag) / 2, tr m) for a finite 2x2 matrix.

    Scalar arithmetic on the four entries: numpy's per-call overhead would
    cost several times the arithmetic itself.
    """
    (a, b), (g, d) = finite_matrix(m).tolist()
    scale = math.hypot(a.real, a.imag, b.real, b.imag, g.real, g.imag, d.real, d.imag)
    hermitian = max(2.0 * abs(a.imag), abs(b - g.conjugate()), 2.0 * abs(d.imag)) <= tol * scale
    off = (b + g.conjugate()) / 2
    return hermitian, ((complex(a.real), off), (off.conjugate(), complex(d.real))), a + d


@dataclass(frozen=True, eq=False)
class Hamiltonian:
    """2x2 Hermitian Hamiltonian (hbar = 1), symmetrized on construction;
    ``entries`` holds its entries as Python complex scalars."""

    matrix: np.ndarray
    entries: Entries2 = field(init=False, repr=False)

    def __post_init__(self):
        hermitian, entries, _ = _hermitian_part(self.matrix, HERMITICITY_ATOL)
        if not hermitian:
            raise InputError("Hamiltonian is not Hermitian")
        object.__setattr__(self, "matrix", _frozen(np.array(entries, dtype=complex)))
        object.__setattr__(self, "entries", entries)

    @property
    def gap(self) -> float:
        """Level splitting eps_11 - eps_22."""
        (e11, _), (_, e22) = self.entries
        return e11.real - e22.real

    @property
    def splitting(self) -> float:
        """E1 - E2 >= 0, and exactly 0 where H is degenerate: its traceless
        part is below SHAPE_RTOL of its largest entry."""
        (h00, h01), (_, h11) = self.entries
        split = math.hypot(h00.real - h11.real, 2.0 * abs(h01))
        return split if split > SHAPE_RTOL * max(abs(h00), abs(h01), abs(h11)) else 0.0

    @classmethod
    def diagonal(cls, e1: float, e2: float) -> "Hamiltonian":
        return cls(np.diag([complex(e1), complex(e2)]))

    @classmethod
    def zero(cls) -> "Hamiltonian":
        return cls(np.zeros((2, 2), dtype=complex))


def _check_coupling(c: float) -> float:
    c = float(c)
    if not math.isfinite(c) or c < 0.0:
        raise InputError("coupling c must be finite and >= 0")
    return c


class _Shape:
    """Base of the Lindblad shapes, whose ``entries`` are those of l."""

    def small_l(self) -> np.ndarray:
        return np.array(self.entries, dtype=complex)


@dataclass(frozen=True)
class DiagonalL(_Shape):
    """Diagonal Lindblad shape: L = c * diag(lambda1, lambda2)."""

    lambda1: complex
    lambda2: complex
    c: float

    def __post_init__(self):
        object.__setattr__(self, "lambda1", _finite_complex(self.lambda1, "lambda1"))
        object.__setattr__(self, "lambda2", _finite_complex(self.lambda2, "lambda2"))
        object.__setattr__(self, "c", _check_coupling(self.c))

    @property
    def entries(self) -> Entries2:
        return (self.lambda1, 0j), (0j, self.lambda2)


@dataclass(frozen=True)
class JordanL(_Shape):
    """Jordan-block Lindblad shape: L = c * (lam * I + sigma_plus)."""

    lam: complex
    c: float

    def __post_init__(self):
        object.__setattr__(self, "lam", _finite_complex(self.lam, "lambda"))
        object.__setattr__(self, "c", _check_coupling(self.c))

    @property
    def entries(self) -> Entries2:
        return (self.lam, 1 + 0j), (0j, self.lam)


@dataclass(frozen=True, eq=False)
class GeneralL(_Shape):
    """Arbitrary 2x2 Lindblad shape: L = c * matrix."""

    matrix: np.ndarray
    c: float

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen(finite_matrix(self.matrix)))
        object.__setattr__(self, "c", _check_coupling(self.c))

    @property
    def entries(self) -> Entries2:
        return tuple(map(tuple, self.matrix.tolist()))


LindbladForm = DiagonalL | JordanL | GeneralL


def lindblad_operator(form: LindbladForm) -> np.ndarray:
    """Full operator L = c * l."""
    return form.c * form.small_l()


@dataclass(frozen=True, eq=False)
class SystemSpec:
    """Hamiltonian plus Lindblad form: everything the equation needs."""

    hamiltonian: Hamiltonian
    lindblad: LindbladForm

    @property
    def c(self) -> float:
        return self.lindblad.c

    @cached_property
    def canonical(self) -> Canonical:
        """``canonicalize`` of this spec, computed once."""
        return canonicalize(self)


@dataclass(frozen=True, eq=False)
class Canonical:
    """The canonical system (H', c', x, t) of a spec and its frame U.

    With mu = tr l / 2 and l0 = l - mu I, the coupling L = c (mu I + l0)
    gives the same equation as c l0 under H' = H + (i c^2 / 2)(conj(mu) l0 -
    mu l0^dag): the Lindblad form is not unique.  The unitary U and a phase
    of L bring l0 to (c' / c) [[x, t], [0, -x]] with real x, t >= 0 and
    x^2 + t^2 = 1; a scalar l has x = t = 0 and c' = c.  t = 0 is the
    diagonal shape and x = 0 the Jordan shape.  A closed system (c = 0)
    has x = t = 0, c' = 0 and U = I whatever l is.  Rates are canonical in
    s' = rate / ``unit``, c'^2, or for c = 0 the power of two that brings H's
    traceless part to [1, 2) (1 for H = a I); ``k`` = unit / c^2 (as (c' /
    c)^2, inf beyond the float range; the unit for c = 0) maps s' to s.

    ``gap`` and ``h01`` are the level gap and (0, 1) entry of U^dag H U,
    ``gauge`` those of the gauge term over c'^2, ``scaled`` those of
    H' / unit and ``err`` a bound on the rounding of the latter, which is
    eps times the size of the terms they were formed from.  ``basis`` holds
    the entries ((u00, u01), (u10, u11)) of U as Python scalars
    (rho' = U^dag rho U), or None for U = I.  Like x and t, ``gap`` and
    ``h01`` are exactly 0 where the shape of H makes them so: both where H
    is degenerate, h01 where c > 0, l is normal and H diagonal in its frame.
    """

    c: float
    x: float
    t: float
    gap: float
    h01: complex
    gauge: tuple[float, complex]
    scaled: tuple[float, complex]
    basis: Entries2 | None
    err: float
    unit: float
    k: float

    @property
    def degenerate(self) -> bool:
        """Whether H is a multiple of I (``Hamiltonian.splitting``)."""
        return self.gap == 0.0 and self.h01 == 0

    @property
    def zero_mode(self) -> bool:
        """Whether the generator has a zero rate, and so a family of
        stationary states: its cubic's p0, a sum of squares, vanishes exactly
        when t = 0 and (x = 0 or h01 = 0)."""
        return self.t == 0.0 and (self.x == 0.0 or self.h01 == 0)


def coords_from_frame(v, u: Entries2) -> tuple[complex, complex, complex]:
    """Coordinates (f11, f12, f21) of U m U^dag for the traceless matrix m
    with coordinates v, on Python scalars."""
    a, b, c = v
    (p, r), (q, s) = u
    pc, rc, qc, sc = p.conjugate(), r.conjugate(), q.conjugate(), s.conjugate()
    return (
        a * (p * pc - r * rc) + b * p * rc + c * r * pc,
        a * (p * qc - r * sc) + b * p * sc + c * r * qc,
        a * (q * pc - s * rc) + b * q * rc + c * s * pc,
    )


def dagger2(u: Entries2) -> Entries2:
    """Entries of U^dag."""
    (p, r), (q, s) = u
    return (p.conjugate(), q.conjugate()), (r.conjugate(), s.conjugate())


def hermitian_from_frame(m, u: Entries2) -> np.ndarray:
    """U m U^dag for a Hermitian 2x2 m given by its rows, as an exactly
    Hermitian array: the trace part stays, the traceless part maps."""
    (a, b), (g, d) = m
    x, y, _ = coords_from_frame((0.5 * (a - d), b, g), u)
    mean = 0.5 * (a + d).real
    return np.array([[mean + x.real, y], [y.conjugate(), mean - x.real]], dtype=complex)


def _general_shape(e: complex, b: complex, g: complex, lmax: float):
    """(x, t, s, (p, q)) with U^dag l0 U = s [[x, t], [~0, -x]] for the
    traceless l0 = [[e, b], [g, -e]] != 0 and U = [[p, -conj q], [q, conj p]]
    (None for U = I), before phases and normalization.

    The decisions are taken on l0 / s, whose largest entry is O(1), against
    the rounding that entries of size lmax leave there: t is zero (l0 is
    normal) below that level, and so is x when its square, the eigenvalue
    discriminant, is (rounding of eps moves x by about sqrt(eps)).  Then the
    eigenvector at the exact mean 0 leaves a residual of the size of the
    discriminant, where a split eigenvalue would leave its square root.
    """
    # Divide by the power of two s that puts the largest entry in [1, 2), real and
    # imaginary parts apart: exact (complex division by a subnormal s overflows).
    scale = power_of_two(max(abs(e), abs(b), abs(g)))
    e, b, g = (complex(z.real / scale, z.imag / scale) for z in (e, b, g))
    tol = SHAPE_RTOL * lmax / scale
    coincide = abs(e * e + b * g) <= tol
    if not coincide and g == 0:
        return e, (0j if abs(b) <= tol else b), scale, None
    p, q = eigvec2(e, b, g, -e, 0.0 if coincide else None)
    pc, qc = p.conjugate(), q.conjugate()
    x = 0j if coincide else e * (p * pc - q * qc) + b * pc * q + g * p * qc
    t = b * pc * pc - g * qc * qc - 2.0 * e * pc * qc
    return x, (0j if abs(t) <= tol else t), scale, (p, q)


def canonicalize(spec: SystemSpec) -> Canonical:
    """The canonical system (H', c', x, t), frame U and unit of a spec, on
    Python scalars.

    A ``DiagonalL`` or ``JordanL`` shape is exact and keeps U = I; the
    shape of a ``GeneralL`` is decided at the rounding level of its
    entries, and a closed system's l is not read.  Raises ``ContractError``
    when c'^2 > 0 is not a normal float or H' / c'^2 is out of the range
    the closed forms can take.
    """
    form, c = spec.lindblad, spec.c
    (a, b), (g, d) = form.entries
    mu = (a + d) / 2.0
    lmax = max(abs(a), abs(b), abs(g), abs(d))
    # l0 = scale [[x, t], [~0, -x]] in the frame of vec = (p, q) (None: U = I).
    x, t, scale, vec = (a - d) / 2.0, 0j, 1.0, None
    if not c:
        x = 0j
    elif isinstance(form, JordanL):
        x, t = 0j, 1 + 0j
    elif isinstance(form, GeneralL):
        if max(abs(x), abs(b), abs(g)) > SHAPE_RTOL * lmax:
            x, t, scale, vec = _general_shape(x, b, g, lmax)
        else:
            x = 0j
    norm = math.hypot(abs(x), abs(t))
    if norm == 0.0:
        # Scalar l or c = 0: the dissipator vanishes and so does the gauge term.
        c_new, x, t, gauge, lsize, turn = c, 0.0, 0.0, (0.0, 0j), 0.0, 1.0
    else:
        # A phase of L makes x real and nonnegative, one of the second
        # basis vector makes t so.
        phase = x / abs(x) if x else 1.0
        turn = abs(t) * phase / t if t else 1.0
        m = mu * phase.conjugate() / (scale * norm)
        c_new, x, t = c * scale * norm, abs(x) / norm, abs(t) / norm
        gauge = (2.0 * x * m.imag, 0.5j * m.conjugate() * t)
        lsize = lmax / (scale * norm)
    (h00, h01), (_, h11) = spec.hamiltonian.entries
    gap, basis = h00.real - h11.real, None
    # The gap and h01 round at their own size, or in a rotated frame at the
    # size of the whole of H; set to exact zeros, they do not round.
    hsize = math.hypot(gap, abs(h01))
    # H's entries are known to SHAPE_RTOL of the largest, as in ``splitting``.
    hround = SHAPE_RTOL * max(abs(h00), abs(h01), abs(h11))
    if vec is not None or turn != 1.0:
        p, q = vec or (1 + 0j, 0j)
        basis = ((p, -q.conjugate() * turn), (q, p.conjugate() * turn))
        hsize = math.hypot(h00.real, h11.real, abs(h01), abs(h01))
        x0, h01, _ = coords_from_frame((0.5 * gap, h01, h01.conjugate()), dagger2(basis))
        gap = 2.0 * x0.real
        # The frame, decided on l0 to SHAPE_RTOL lmax (a share lsize of l0),
        # moves h01 by that share of H.
        hround *= 1.0 + lsize
    if not spec.hamiltonian.splitting:
        gap, h01, hsize = 0.0, 0j, 0.0
    elif c and t == 0.0 and abs(h01) <= hround:
        h01 = 0j
    if c:
        unit = c_new * c_new
        if not sys.float_info.min <= unit < math.inf:
            raise ContractError(f"c'^2 = {unit!r} is not a normal float")
        # A power raises on overflow; from c' / c = 1e154 on, p2 k >= 2 k overflows anyway.
        k = (c_new / c) ** 2 if c_new < 1e154 * c else math.inf
    else:
        # A power of two, so that H' / unit and the rates in it are exact.
        unit = k = power_of_two(max(abs(0.5 * gap), abs(h01)))
    scaled = (gap / unit + gauge[0], h01 / unit + gauge[1])
    if not (abs(scaled[0]) <= SCALED_MAX and abs(scaled[1]) <= SCALED_MAX):
        raise ContractError("H' / c'^2 is beyond the range of the closed forms")
    return Canonical(c_new, x, t, gap, h01, gauge, scaled, basis, EPS * (hsize / unit + lsize), unit, k)


def gauge_shift(hamiltonian: Hamiltonian, lam: complex, c: float) -> Hamiltonian:
    """Hamiltonian absorbing the scalar part of a Jordan-form coupling.

    Evolving (H, c*(lam*I + sigma_plus)) is equivalent to evolving
    (gauge_shift(H, lam, c), c*sigma_plus): the scalar part of L only shifts
    H by -(i c^2 / 2)(lam sigma_minus - conj(lam) sigma_plus).
    """
    lam = _finite_complex(lam, "lambda")
    c = _check_coupling(c)
    shift = -0.5j * c * c * (lam * SIGMA_MINUS - np.conj(lam) * SIGMA_PLUS)
    return Hamiltonian(hamiltonian.matrix + shift)


@dataclass(frozen=True)
class DensityReport:
    hermitian: bool
    trace_dev: float
    min_eigenvalue: float


def _re_product(a, b):
    # Rounds like a scalar complex product; numpy's vectorised one may not.
    return a.real * b.real - a.imag * b.imag


def det2(rho: np.ndarray):
    """Determinant of a (numerically) Hermitian 2x2 matrix as a real number,
    or of each matrix in a stack of shape (..., 2, 2) as an array."""
    return _re_product(rho[..., 0, 0], rho[..., 1, 1]) - _re_product(rho[..., 0, 1], rho[..., 1, 0])


def min_eig2(rho: np.ndarray):
    """Smaller eigenvalue of a Hermitian 2x2 matrix (or of each in a stack
    (..., 2, 2)): (tr - sqrt(disc)) / 2.

    disc = (f11 - f22)^2 + 4 Re(f12 f21) equals tr^2 - 4 det without the
    cancellation that costs half the precision near I/2.
    """
    tr = (rho[..., 0, 0] + rho[..., 1, 1]).real
    diff = (rho[..., 0, 0] - rho[..., 1, 1]).real
    disc = diff * diff + 4.0 * _re_product(rho[..., 0, 1], rho[..., 1, 0])
    return (tr - np.sqrt(np.maximum(disc, 0.0))) / 2.0


def validate_density(rho, tol: float = 1e-9) -> DensityReport:
    """Report hermiticity, trace deviation and the smaller eigenvalue.

    Positivity is reported, never enforced: min_eigenvalue < 0 flags an
    unphysical matrix without raising.
    """
    hermitian, sym, trace = _hermitian_part(rho, tol)
    return DensityReport(
        hermitian=hermitian, trace_dev=abs(trace - 1.0), min_eigenvalue=min_eig2(np.array(sym))
    )


def as_density(rho, tol: float = 1e-9) -> np.ndarray:
    """Validate and symmetrize a density matrix (Hermitian, unit trace)."""
    hermitian, sym, trace = _hermitian_part(rho, tol)
    if not hermitian:
        raise InputError("density matrix is not Hermitian")
    trace_dev = abs(trace - 1.0)
    if trace_dev > tol:
        raise InputError(f"density matrix trace deviates by {trace_dev:.3e}")
    t = trace.real
    return np.array([[complex(z.real / t, z.imag / t) for z in row] for row in sym])


def coords(rho: np.ndarray) -> np.ndarray:
    """Independent coordinates (f11, f12, f21) of a unit-trace matrix."""
    return np.array([rho[0, 0], rho[0, 1], rho[1, 0]], dtype=complex)


def from_coords(x: np.ndarray) -> np.ndarray:
    """Unit-trace matrix from coordinates, f22 = 1 - f11; a stack of
    coordinates (..., 3) gives a stack of matrices (..., 2, 2)."""
    x = np.asarray(x, dtype=complex)
    out = np.empty(x.shape[:-1] + (2, 2), dtype=complex)
    # Row-major (f11, f12, f21, f22) is the coordinates followed by f22.
    flat = out.reshape(x.shape[:-1] + (4,))
    flat[..., :3] = x
    np.subtract(1.0, x[..., 0], out=flat[..., 3])
    return out


def direction_matrix(x: np.ndarray) -> np.ndarray:
    """Traceless matrix from homogeneous coordinates, f22 = -f11."""
    return np.array([[x[0], x[1]], [x[2], -x[0]]], dtype=complex)


def dagger_coords(x) -> tuple[complex, complex, complex]:
    """Coordinates of the adjoint: (f11, f12, f21) -> (conj f11, conj f21,
    conj f12), for an array or any sequence of three scalars.  Its fixed
    points are the Hermitian matrices."""
    x0, x1, x2 = x
    return x0.conjugate(), x2.conjugate(), x1.conjugate()
