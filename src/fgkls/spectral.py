"""Characteristic cubic, mode decomposition and stability of the generator.

The homogeneous flow on (f11, f12, f21) is governed by a 3x3 matrix whose
characteristic polynomial has real coefficients.  Every system is solved
in its canonical form (H', c', x, t): the generator and its cubic in
s = rate / unit (``Canonical.unit``) are closed forms in (H' / unit, x,
t).  Whether roots coincide (the measure-zero branches that turn
exponentials into exponentials times polynomials) is decided for every
shape from the cubic's coefficients, in its depressed form, against a
bound on their rounding; that test is well-conditioned even though the
roots themselves are not.  Where the dissipator vanishes (c = 0, or a
scalar l) the rates are exactly 0 and +/- i (E1 - E2).  The labels are
read from the canonical parameters (``Canonical.zero_mode``), not from
computed rates; as p1 p2 - p0 > 0 for every non-scalar l (Routh-Hurwitz),
only a vanishing dissipator leaves an undamped oscillation.

The generator is an arrowhead matrix, rows [m10, m11, 0] and [conj m10, 0,
conj m11] below the first, and its modes are closed forms on Python scalars:
eigenvectors are row cross products, chain links minimum-norm solutions, and
a multiple root has two eigenvectors only where m10 or m01 vanishes and m11
is real.  Modes are built on first read and mapped back through the frame U.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, partial

import numpy as np

from .errors import ContractError, InternalError
from .model import EPS, Canonical, SystemSpec, coords_from_frame, dagger_coords, direction_matrix
from .numerics import cubic_roots

# A coinciding-root condition is an exact equality between the coefficients
# of the depressed cubic and those of a cubic with a multiple root.  It is
# accepted when the two sides agree to BRANCH_SLACK times a first-order bound
# on their rounding (``_depressed``).  So only systems on a coinciding-root
# manifold are snapped onto it, and the snapped roots still solve the cubic
# to rounding.
BRANCH_SLACK = 2.0


class SpectrumStructure(str, Enum):
    DISTINCT = "Distinct"
    COMPLEX_PAIR_PLUS_REAL = "ComplexPairPlusReal"
    DOUBLE_ROOT = "DoubleRoot"
    TRIPLE_ROOT = "TripleRoot"
    ZERO_MODE = "ZeroMode"
    OSCILLATORY_UNDAMPED = "OscillatoryUndamped"


class StabilityVerdict(str, Enum):
    ALL_DAMPED = "AllDamped"
    ZERO_MODE_PRESENT = "ZeroModePresent"
    UNDAMPED = "Undamped"


@dataclass(frozen=True, eq=False)
class Mode:
    """One (possibly generalized) mode of the homogeneous flow.

    ``vectors`` is a Jordan chain of triples (f11, f12, f21): vectors[0] is
    a true eigenvector and (M - rate) vectors[j+1] = vectors[j].  A chain of
    length k contributes exp(rate * t) times a polynomial of degree k - 1.
    """

    rate: complex
    vectors: tuple[tuple[complex, complex, complex], ...]

    @property
    def poly_degree(self) -> int:
        return len(self.vectors) - 1

    @property
    def matrices(self) -> tuple[np.ndarray, ...]:
        """Chain vectors embedded as traceless 2x2 matrices (f22 = -f11)."""
        return tuple(direction_matrix(v) for v in self.vectors)


@dataclass(frozen=True, eq=False)
class ModeDecomposition:
    """Rates, structure and cubic, in s = rate / c^2 (``rate_unit``);
    ``modes`` is made by ``_build`` on first read."""

    roots: tuple[tuple[complex, int], ...]  # distinct rates and their algebraic multiplicities
    rates: tuple[complex, complex, complex]  # by multiplicity, in the order of the modes' chain vectors
    structure: SpectrumStructure
    cubic: tuple[complex, complex, complex]
    _build: partial
    modes = cached_property(lambda self: self._build())


def _canonical_cubic(canon: Canonical) -> tuple[float, float, float]:
    """Monic characteristic cubic of the canonical generator in s = rate / unit.

    With a = 2 x^2 + t^2 / 2 the coherence damping and (g, h) the gap and
    (0, 1) entry of H' / unit, the constant term is a sum of squares.  The
    literals are integers and the halving a division, so that rational
    (x, t, g, h) give the exact cubic.
    """
    x, t = canon.x, canon.t
    g, h = canon.scaled
    re, im = h.real, h.imag
    x2, t2, h2 = x * x, t * t, re * re + im * im
    a = 2 * x2 + t2 / 2
    p1 = a * a + g * g + 4 * h2 + t2 * t2 + 3 * x2 * t2
    p0 = a * t2 * (x2 + t2 / 2) + (t * g - 2 * x * re) ** 2 + 4 * x2 * (re * re + 2 * im * im) + 2 * t2 * h2
    return 4 * x2 + 2 * t2, p1, p0


def scaled_rows(canon: Canonical) -> list[list[complex]]:
    """Rows of the canonical generator on (f11, f12, f21) over its unit, in s."""
    x, t = canon.x, canon.t
    g, h = canon.scaled
    xt = x * t
    m01 = 1j * h.conjugate() + 0.5 * xt
    m10 = 2j * h + xt
    m11 = -complex(2.0 * x * x + 0.5 * t * t, g)
    return [
        [complex(-t * t), m01, m01.conjugate()],
        [m10, m11, 0j],
        [m10.conjugate(), 0j, m11.conjugate()],
    ]


def char_cubic(spec: SystemSpec) -> tuple[complex, complex, complex]:
    """Monic characteristic cubic of the homogeneous generator.

    Coefficients are in s = rate / c^2, the bare rate for c = 0: the
    canonical closed form rescaled by ``Canonical.k``.
    """
    return spectrum(spec).cubic


def _near(a: float, b: float, err: float) -> bool:
    """a == b to BRANCH_SLACK times err, the propagated rounding of their
    terms, plus eps of their own size."""
    return abs(a - b) <= BRANCH_SLACK * (err + EPS * (abs(a) + abs(b)))


def _depressed(canon: Canonical, a: float, b: float, c: float) -> tuple[float, float, float, float]:
    """(p, q, dp, dq): the canonical cubic s^3 + a s^2 + b s + c in its
    depressed form y^3 + p y + q, y = s + a / 3, and first-order bounds dp,
    dq on the rounding of p and q.

    A bound is what the rounding of g and h (``Canonical.err``) makes of p
    or q, plus 2 eps times the size of its terms (the value with every term
    taken positive), which bounds the rounding of evaluating it from
    (x, t, g, h).
    """
    x, t = canon.x, canon.t
    g, h = canon.scaled
    re, im = abs(h.real), abs(h.imag)
    p = b - a * a / 3.0
    q = 2.0 * a**3 / 27.0 - a * b / 3.0 + c
    # The one term of c that cancels is d^2 = (t g - 2 x Re h)^2, of size
    # (|t g| + 2 x |Re h|)^2.
    d = t * g - 2.0 * x * h.real
    size_c = c - d * d + (t * abs(g) + 2.0 * x * re) ** 2
    err = canon.err
    db = err * (2.0 * abs(g) + 8.0 * (re + im) + 9.0 * err)
    dc = err * (
        2.0 * (t + 2.0 * x) * (abs(d) + 1.5 * err) + (8.0 * x * x + 4.0 * t * t) * (re + 2.0 * im + 3.0 * err)
    )
    dp = db + 2.0 * EPS * (b + a * a / 3.0)
    dq = dc + a * db / 3.0 + 2.0 * EPS * (2.0 * a**3 / 27.0 + a * b / 3.0 + size_c)
    return p, q, dp, dq


def _canonical_roots(canon: Canonical, a: float, b: float, c: float) -> list[tuple[complex, int]]:
    """Roots of the canonical cubic s^3 + a s^2 + b s + c in s = rate / c'^2,
    with their multiplicities.

    Multiple roots are decided from the depressed form y^3 + p y + q.  The
    roots u (double) and -2 u give p = -3 u^2 and q = 2 u^3, so the
    discriminant -4 p^3 - 27 q^2 vanishes.  A triple root (u = 0) is taken
    where p and q vanish to their rounding; a double root where the cubic
    of u = sign(q) sqrt(-p / 3) matches p to its rounding and q to
    dq + |u| dp (q* = 2 (-p / 3)^(3/2) has slope -u in p).  Away from the
    triple point this is -4 p^3 = 27 q^2 to about 12 p^2 dp + 54 |q| dq;
    near it, where the discriminant vanishes to second order, it still
    asks q to be 2 u^3.  Both roots are closed forms, exact on their
    manifold.  Elsewhere the roots are those of ``cubic_roots``, each
    simple.

    A real root near 0 is taken from the product of the roots, -c, and
    keeps its sign: as every real root lies in [-a, 0] and b >= 1 / 4 for a
    non-scalar l, the other two are well apart from it.
    """
    p, q, dp, dq = _depressed(canon, a, b, c)
    # + 0.0 makes a zero root +0.0 where a = 0.
    center = -a / 3.0 + 0.0
    if _near(p, 0.0, dp) and _near(q, 0.0, dq):
        return [(complex(center), 3)]
    u = math.copysign(math.sqrt(max(-p / 3.0, 0.0)), q)
    if _near(p, -3.0 * u * u, dp) and _near(q, 2.0 * u**3, dq + abs(u) * dp):
        double = center + u
        return [(complex(double), 2), (complex(-c / (double * double) + 0.0), 1)]
    roots = cubic_roots(a, b, c)
    r1, r2, r3 = roots
    if not r2.imag and 2.0 * abs(r3) < abs(r2):
        # Three real roots, sorted, of which r3 is nearest 0.
        roots[2] = complex(-(c / r1.real) / r2.real + 0.0)
    return [(s, 1) for s in roots]


_R = math.sqrt(0.5)
# Orthonormal coordinates of sigma_z / sqrt 2, sigma_x / sqrt 2 and -sigma_y / sqrt 2.
_HERMITIAN_BASIS = ((1 + 0j, 0j, 0j), (0j, _R + 0j, _R + 0j), (0j, complex(0.0, _R), complex(0.0, -_R)))


def _norm2(v) -> float:
    """Squared norm of three coordinates."""
    a, b, c = v
    return (a * a.conjugate() + b * b.conjugate() + c * c.conjugate()).real


def _symmetrize_real(v) -> list[complex]:
    """Project three coordinates onto the Hermitian slice (f11 real,
    f21 = conj f12), with a phase of i where that keeps more of v, and
    normalize, on Python scalars."""
    v0, v1, v2 = v
    w0, w1 = v0.real, 0.5 * (v1 + v2.conjugate())
    n2 = w0 * w0 + 2.0 * (w1 * w1.conjugate()).real
    if 4.0 * n2 < _norm2(v):
        w0, w1 = -v0.imag, 0.5j * (v1 - v2.conjugate())
        n2 = w0 * w0 + 2.0 * (w1 * w1.conjugate()).real
    if n2 == 0.0:
        raise InternalError("mode vector collapsed under symmetrization")
    n = math.sqrt(n2)
    w0, w1 = w0 / n, w1 / n
    # Fix the residual sign freedom for reproducibility.
    for comp in (w0, w1.real, w1.imag):
        if abs(comp) > 1e-12:
            if comp < 0:
                w0, w1 = -w0, -w1
            break
    return [complex(w0), w1, w1.conjugate()]


def _hermitian(v) -> list[complex]:
    """The Hermitian part (v + v^dag) / 2 of three coordinates."""
    v0, v1, v2 = v
    w1 = 0.5 * (v1 + v2.conjugate())
    return [complex(v0.real), w1, w1.conjugate()]


def _cross(u, v) -> tuple[complex, complex, complex]:
    """Bilinear cross product: (u x v) . w = det[u; v; w]."""
    u0, u1, u2 = u
    v0, v1, v2 = v
    return u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0


def _largest_cross(b) -> tuple[int, int, tuple[complex, complex, complex], float]:
    """(i, j, n, |n|^2) for the first pair of rows i, j of B = M - rate with
    the largest cross product n.  The rows of the arrowhead B are
    [b00, b01, b02], [b10, b11, 0] and [b20, 0, b22]; for a B of rank two
    the cross product spans its null space (Kopp, arXiv:physics/0610206),
    and that of rows 1 and 2 is Hermitian for a real rate."""
    (b00, b01, b02), (b10, b11, _), (b20, _, b22) = b
    n01 = (-b02 * b11, b02 * b10, b00 * b11 - b01 * b10)
    n02 = (b01 * b22, b02 * b20 - b00 * b22, -b01 * b20)
    n12 = (b11 * b22, -b10 * b22, -b11 * b20)
    s01, s02, s12 = _norm2(n01), _norm2(n02), _norm2(n12)
    if s01 >= s02 and s01 >= s12:
        return 0, 1, n01, s01
    if s02 >= s12:
        return 0, 2, n02, s02
    return 1, 2, n12, s12


def _chain_link(b, v, cross) -> list[complex]:
    """Minimum-norm solution of B x = v for a B of rank two with v in its
    range, given cross = _largest_cross(b): the two rows of the largest
    cross product n hold exactly, and conj(n) . x = 0 keeps x orthogonal to
    null(B).  Cramer's rule on these three rows has the determinant |n|^2."""
    i, j, (x, y, z), det = cross
    border = (x.conjugate(), y.conjugate(), z.conjugate())
    vi, vj = v[i] / det, v[j] / det
    return [vi * p + vj * q for p, q in zip(_cross(b[j], border), _cross(border, b[i]))]


def _semisimple_chains(b, mult: int) -> list[list[list[complex]]]:
    """Chains of a multiple real root at which B = M - rate has rank one:
    Hermitian null vectors, and for a triple root a chain of two (range(B)
    lies in null(B)) plus one null vector.

    With row the largest row of B, row x w is a null vector orthogonal to
    the mirror (w0, w2, w1), which for a Hermitian w is its conjugate."""
    row = max(b, key=_norm2)

    def null_orthogonal_to(w):
        return _symmetrize_real(_cross(row, (w[0], w[2], w[1])))

    if mult == 2:
        first = _symmetrize_real(max((_cross(row, e) for e in _HERMITIAN_BASIS), key=_norm2))
        return [[first], [null_orthogonal_to(first)]]
    head = _symmetrize_real(max(zip(*b), key=_norm2))
    # B^+ = B^dag / ||B||^2 for a B of rank one.
    frob = sum(map(_norm2, b))
    link = [sum(r[k].conjugate() * z for r, z in zip(b, head)) / frob for k in range(3)]
    return [[head, _hermitian(link)], [null_orthogonal_to(head)]]


def _rank_one(canon: Canonical) -> bool:
    """Whether B = M - s has rank one at a multiple real root s of the
    canonical generator: where m11 = s is real (g = 0) and m10 or m01
    vanishes (h = i x t / 2 or -i x t / 2), to the rounding of g and h."""
    g, h = canon.scaled
    half = 0.5j * canon.x * canon.t
    return _near(g, 0.0, canon.err) and (_near(h, half, canon.err) or _near(h, -half, canon.err))


def _real_root_chains(b, mult: int) -> list[list[list[complex]]]:
    """The Jordan chain of a real root from the rows of B = M - rate of rank
    two (see ``_rank_one``): its head is Hermitian and its links are made
    so, as M commutes with the adjoint and the minimum-norm link is unique."""
    cross = _largest_cross(b)
    chain = [_symmetrize_real(cross[2])]
    for _ in range(mult - 1):
        chain.append(_hermitian(_chain_link(b, chain[-1], cross)))
    return [chain]


def _minus_rate(m: list[list[complex]], rate: complex) -> list[list[complex]]:
    """Rows of M - rate I from the rows of M."""
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = m
    return [[m00 - rate, m01, m02], [m10, m11 - rate, m12], [m20, m21, m22 - rate]]


def rate_unit(c: float) -> float:
    """c^2, the unit of the rates in s (1 for c = 0); ``ContractError``
    where it is not a normal float."""
    if c and not sys.float_info.min <= c * c < math.inf:
        raise ContractError(f"c^2 = {c * c!r} is not a normal float")
    return c * c or 1.0


def _modes(canon: Canonical, s_roots) -> tuple[Mode, ...]:
    """Jordan chains of ``spectrum``'s roots in s = rate / unit on Python
    scalars, from the rows of M / unit of ``scaled_rows``; the j-th link is
    scaled back by unit^-j."""
    rows, frame, unit = scaled_rows(canon), canon.basis, canon.unit
    # Chain vectors map as the traceless matrices they stand for, so they
    # stay Jordan chains of the caller's generator.
    back = tuple if frame is None else (lambda v: coords_from_frame(v, frame))
    modes: list[Mode] = []
    for s, mult in s_roots:
        rate = s * unit
        if mult == 3 and s == 0:
            # M = 0 (a damped triple root is -(4 x^2 + 2 t^2) / 3): every direction is a mode.
            modes += [Mode(rate, (back(v),)) for v in _HERMITIAN_BASIS]
        elif s.imag == 0.0:
            rate = complex(rate.real)
            b = _minus_rate(rows, s.real)
            rank_one = mult > 1 and _rank_one(canon)
            for chain in _semisimple_chains(b, mult) if rank_one else _real_root_chains(b, mult):
                for j in range(1, len(chain)):
                    chain[j] = [x / unit**j for x in chain[j]]
                modes.append(Mode(rate, tuple(map(back, chain))))
        elif s.imag < 0.0:
            # A real cubic's complex roots come in exact conjugate pairs,
            # sorted lower member first; the upper one leads here.
            _, _, n, n2 = _largest_cross(_minus_rate(rows, s.conjugate()))
            v = [z / math.sqrt(n2) for z in n]
            modes += [Mode(rate.conjugate(), (back(v),)), Mode(rate, (back(dagger_coords(v)),))]
    if sum(len(m.vectors) for m in modes) != 3:
        raise InternalError("mode chains do not span three dimensions")
    return tuple(modes)


def spectrum(spec: SystemSpec) -> ModeDecomposition:
    """Roots, structure and cubic of the homogeneous generator, with modes
    built by ``_modes`` on first read.  Raises ``ContractError`` when c^2 is
    not a normal float (``rate_unit``)."""
    rate_unit(spec.c)
    canon = spec.canonical
    unit, k = canon.unit, canon.k
    p2, p1, p0 = _canonical_cubic(canon)
    # The rates are frame-invariant; s = k s' in the reported unit.
    cubic = (complex(p2 * k), complex(p1 * k * k), complex(p0 * k * k * k))
    if canon.x or canon.t:
        s_roots = _canonical_roots(canon, p2, p1, p0)
        freq = None
    else:
        # No dissipation (c = 0 or a scalar l): the rates are exactly 0 and
        # +/- i (E1 - E2), which is 0 where H is degenerate.
        freq = spec.hamiltonian.splitting / unit
        s_roots = [(complex(0.0, -freq), 1), (0j, 1), (complex(0.0, freq), 1)] if freq else [(0j, 3)]
    # In the order of _modes's chain vectors, which lead a complex pair with its upper member.
    roots: list[tuple[complex, int]] = []
    for s, mult in s_roots:
        rate = s * unit
        if s.imag <= 0.0:
            roots += [(complex(rate.real), mult)] if s.imag == 0.0 else [(rate.conjugate(), 1), (rate, 1)]

    # Structure reflects algebraic multiplicity: a diagonalizable double root
    # is still DoubleRoot even though it carries two simple modes.
    top = max(mult for _, mult in s_roots)
    if freq:
        structure = SpectrumStructure.OSCILLATORY_UNDAMPED
    elif freq is not None or canon.zero_mode:
        structure = SpectrumStructure.ZERO_MODE
    elif top == 3:
        structure = SpectrumStructure.TRIPLE_ROOT
    elif top == 2:
        structure = SpectrumStructure.DOUBLE_ROOT
    elif any(s.imag for s, _ in s_roots):
        structure = SpectrumStructure.COMPLEX_PAIR_PLUS_REAL
    else:
        structure = SpectrumStructure.DISTINCT
    rates = tuple(rate for rate, mult in roots for _ in range(mult))
    return ModeDecomposition(tuple(roots), rates, structure, cubic, partial(_modes, canon, s_roots))


def assert_stability(md: ModeDecomposition, spec: SystemSpec) -> StabilityVerdict:
    """Classify the decay-rate signs as ``md.structure`` does: all strictly
    damped, a zero mode, or undamped oscillation.  A zero rate is exact and
    other real parts negative, so a positive real part raises."""
    for rate in md.rates:
        if rate.real > 0.0:
            raise InternalError(f"growing mode {rate!r}: generator cannot expand states")
    if md.structure is SpectrumStructure.OSCILLATORY_UNDAMPED:
        return StabilityVerdict.UNDAMPED
    if md.structure is SpectrumStructure.ZERO_MODE:
        return StabilityVerdict.ZERO_MODE_PRESENT
    return StabilityVerdict.ALL_DAMPED
