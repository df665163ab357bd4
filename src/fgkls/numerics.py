"""Small dense complex kernel: cubic roots with multiplicity detection,
3x3 linear solves with nullspace extraction, and 2x2 Schur triangularization.

Everything here is exact-arithmetic-flavoured: closed forms polished by a
single Newton step, scale-aware tolerances, and explicit handling of the
degenerate branches that the physics upstairs actually hits.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InputError

# Two roots coincide when |s_i - s_j| < COINCIDENCE_RTOL * max(1, |s_i|, |s_j|).
COINCIDENCE_RTOL = 1e-8
# solve3 treats the matrix as singular when |det M| < RANK_RTOL * ||M||^3.
RANK_RTOL = 1e-10


class RootPattern(str, Enum):
    THREE_DISTINCT = "ThreeDistinct"
    ONE_DOUBLE_ONE_SIMPLE = "OneDoubleOneSimple"
    TRIPLE = "Triple"


@dataclass(frozen=True)
class CubicRoots:
    """Roots of a monic cubic with multiplicities summing to 3."""

    roots: tuple[tuple[complex, int], ...]
    classification: RootPattern

    def values(self) -> list[complex]:
        """Roots repeated according to multiplicity."""
        out: list[complex] = []
        for value, mult in self.roots:
            out.extend([value] * mult)
        return out


def finite_matrix(m, shape=(2, 2)) -> np.ndarray:
    """Complex copy of m, checked for its shape and for finite entries."""
    arr = np.array(m, dtype=complex)
    if arr.shape != shape:
        raise InputError(f"expected shape {shape}, got {arr.shape}")
    # Python's isfinite on the few parts costs less than a numpy reduction.
    if not all(map(math.isfinite, arr.view(float).ravel().tolist())):
        raise InputError("non-finite matrix entries")
    return arr


def unit_scaled(m: np.ndarray) -> tuple[float, np.ndarray]:
    """(s, m / s) with s the power of two that puts max|m / s| in [1, 2), or
    s = 1 for a zero matrix.  The division is exact, so results computed on
    m / s and scaled back equal those computed on m wherever the latter do
    not under- or overflow.  Real and imaginary parts are divided as reals,
    because complex division by a subnormal s overflows."""
    top = float(np.max(np.abs(m)))
    scale = math.ldexp(1.0, math.frexp(top)[1] - 1) if top > 0.0 else 1.0
    return scale, (m.view(float) / scale).view(complex)


def _require_finite(*values: complex) -> None:
    for v in values:
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise InputError(f"non-finite coefficient {v!r}")


def _poly_eval(s: complex, p2: complex, p1: complex, p0: complex) -> complex:
    return ((s + p2) * s + p1) * s + p0


def _newton_polish(s: complex, p2: complex, p1: complex, p0: complex) -> complex:
    """One guarded Newton step; kept only if it reduces the residual."""
    f = _poly_eval(s, p2, p1, p0)
    fp = (3.0 * s + 2.0 * p2) * s + p1
    abs_f = abs(f)
    if abs(fp) <= 1e-3 * abs_f or fp == 0:
        return s
    cand = s - f / fp
    if abs(_poly_eval(cand, p2, p1, p0)) <= abs_f:
        return cand
    return s


def _real_cbrt(x: float) -> float:
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def _real_quadratic(b: float, c: float) -> list[complex]:
    """Roots of s^2 + b s + c with real coefficients, exact conjugate pairing."""
    disc = b * b - 4.0 * c
    if disc >= 0.0:
        sq = math.sqrt(disc)
        if b >= 0.0:
            q = -(b + sq) / 2.0
        else:
            q = -(b - sq) / 2.0
        if q != 0.0:
            return [complex(q), complex(c / q)]
        return [complex(0.0), complex(-b)]
    im = math.sqrt(-disc) / 2.0
    return [complex(-b / 2.0, im), complex(-b / 2.0, -im)]


def _real_cubic(b: float, c: float, d: float) -> list[complex]:
    """Roots of s^3 + b s^2 + c s + d, real coefficients.

    Keeps a zero root exact when d == 0 and returns complex roots as exact
    conjugate pairs, which the conjugation-symmetry of the physics relies on.
    """
    if d == 0.0:
        return [complex(0.0)] + _real_quadratic(b, c)
    shift = b / 3.0
    p = c - b * b / 3.0
    q = 2.0 * b**3 / 27.0 - b * c / 3.0 + d
    if p == 0.0 and q == 0.0:
        return [complex(-shift)] * 3
    if p / 3.0 == 0.0:
        # p is zero or so small that p / 3 underflows: pure cube roots of -q
        # (the discriminant may underflow here).
        y1 = _real_cbrt(-q)
        re, im = -y1 / 2.0, math.sqrt(3.0) / 2.0 * abs(y1)
        return [complex(y1) - shift, complex(re, im) - shift, complex(re, -im) - shift]
    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    if disc > 0.0 or p > 0.0:
        # One real root plus a conjugate pair (p > 0 forces this even when
        # the discriminant underflows to zero).
        sq = math.sqrt(max(disc, 0.0))
        a_half = -q / 2.0
        t1 = a_half + sq if a_half >= 0.0 else a_half - sq
        u = _real_cbrt(t1)
        v = -p / (3.0 * u) if u != 0.0 else 0.0
        y_real = u + v
        re = -y_real / 2.0
        im = math.sqrt(3.0) / 2.0 * abs(u - v)
        roots = [complex(y_real), complex(re, im), complex(re, -im)]
    else:
        # Three real roots (trigonometric form; p < 0 is guaranteed here).
        m = 2.0 * math.sqrt(-p / 3.0)
        arg = (3.0 * q / p) / m  # two-stage division avoids underflow in p*m
        arg = min(1.0, max(-1.0, arg))
        phi = math.acos(arg)
        roots = [
            complex(m * math.cos((phi + 2.0 * math.pi * k) / 3.0)) for k in range(3)
        ]
    return [r - shift for r in roots]


def _complex_cubic(p2: complex, p1: complex, p0: complex) -> list[complex]:
    """Cardano for genuinely complex coefficients."""
    shift = p2 / 3.0
    p = p1 - p2 * p2 / 3.0
    q = 2.0 * p2**3 / 27.0 - p2 * p1 / 3.0 + p0
    if p == 0 and q == 0:
        return [-shift] * 3
    sq = cmath.sqrt((q / 2.0) ** 2 + (p / 3.0) ** 3)
    t1 = -q / 2.0 + sq
    t2 = -q / 2.0 - sq
    t = t1 if abs(t1) >= abs(t2) else t2
    u = t ** (1.0 / 3.0)
    omega = complex(-0.5, math.sqrt(3.0) / 2.0)
    roots = []
    for k in range(3):
        uk = u * omega**k
        vk = -p / (3.0 * uk) if uk != 0 else 0.0
        roots.append(uk + vk - shift)
    return roots


_REFINE_BAND = 1e-5
_PAIRS = ((0, 1), (0, 2), (1, 2))


def cubic_roots(p2: complex, p1: complex, p0: complex) -> CubicRoots:
    """Solve the monic cubic s^3 + p2 s^2 + p1 s + p0 = 0.

    Closed form (trigonometric/Cardano) with one guarded Newton polish per
    root, plus a critical-point refinement of nearly coincident pairs:
    closed-form roots lose half the working precision near a double root,
    while around the critical point c (p'(c) = 0) the pair
    c +/- sqrt(-2 p(c) / p''(c)) is accurate to full precision and an exact
    double (p(c) == 0) is recovered exactly.  Roots closer than the
    coincidence tolerance are merged into multiple roots; for real
    coefficients the non-real roots come back as exact conjugate pairs.
    """
    p2, p1, p0 = complex(p2), complex(p1), complex(p0)
    _require_finite(p2, p1, p0)

    coeff_scale = max(1.0, abs(p2), abs(p1), abs(p0))
    is_real = max(abs(p2.imag), abs(p1.imag), abs(p0.imag)) < 1e-10 * coeff_scale
    if is_real:
        raw = _real_cubic(p2.real, p1.real, p0.real)
        rp2, rp1, rp0 = p2.real, p1.real, p0.real
        polished: list[complex] = []
        seen_pair = False
        for r in raw:
            if r.imag == 0.0:
                # Real arithmetic: the same real parts as on complex scalars.
                polished.append(complex(_newton_polish(r.real, rp2, rp1, rp0)))
            elif not seen_pair:
                s = _newton_polish(r, rp2, rp1, rp0)
                polished.append(s)
                polished.append(s.conjugate())
                seen_pair = True
        if seen_pair:
            # A dominant pair z, z* leaves r and Re z with an error of about
            # eps |z|; the identities r |z|^2 = -p0 and r + 2 Re z = -p2 give
            # both to full relative precision.
            r, z = polished[0].real, polished[1]
            mag = abs(z)
            if mag > abs(r):
                r = -(rp0 / mag) / mag
                re = (-rp2 - r) / 2.0
                polished = [complex(r), complex(re, z.imag), complex(re, -z.imag)]
        roots = polished
        p2u, p1u, p0u = complex(rp2), complex(rp1), complex(rp0)
    else:
        roots = [_newton_polish(r, p2, p1, p0) for r in _complex_cubic(p2, p1, p0)]
        p2u, p1u, p0u = p2, p1, p0

    # Critical-point refinement of the closest pair, if it is nearly double.
    # Each |root| and each pair distance is taken once, for the refinement
    # test and the clustering below.
    mags = [abs(r) for r in roots]
    dists = [abs(roots[0] - roots[1]), abs(roots[0] - roots[2]), abs(roots[1] - roots[2])]
    kmin = dists.index(min(dists))
    ia, ib = _PAIRS[kmin]
    if 0.0 < dists[kmin] <= _REFINE_BAND * max(1.0, mags[ia], mags[ib]):
        mid = (roots[ia] + roots[ib]) / 2.0
        disc = cmath.sqrt(p2u * p2u - 3.0 * p1u)
        crit = min(
            [(-p2u + disc) / 3.0, (-p2u - disc) / 3.0], key=lambda z: abs(z - mid)
        )
        curv = 6.0 * crit + 2.0 * p2u
        if abs(curv) > 1e-6 * max(1.0, abs(p2u)):
            val = _poly_eval(crit, p2u, p1u, p0u)
            delta = cmath.sqrt(-2.0 * val / curv)
            cand_pair = [crit + delta, crit - delta]
            cand_third = -p2u - 2.0 * crit
            old_res = max(
                abs(_poly_eval(roots[ia], p2u, p1u, p0u)),
                abs(_poly_eval(roots[ib], p2u, p1u, p0u)),
            )
            new_res = max(abs(_poly_eval(z, p2u, p1u, p0u)) for z in cand_pair)
            if new_res <= 10.0 * old_res + 1e-13 * coeff_scale:
                if is_real:
                    # Keep exact realness or exact conjugacy of the pair.
                    if abs(delta.imag) <= abs(delta.real):
                        cand_pair = [
                            complex(crit.real + abs(delta)),
                            complex(crit.real - abs(delta)),
                        ]
                    else:
                        cand_pair = [
                            complex(crit.real, abs(delta)),
                            complex(crit.real, -abs(delta)),
                        ]
                    cand_third = complex(cand_third.real)
                roots = cand_pair + [cand_third]
                mags = [abs(r) for r in roots]
                dists = [
                    abs(roots[0] - roots[1]), abs(roots[0] - roots[2]), abs(roots[1] - roots[2])
                ]

    # Cluster coincident roots: the union over the three pairs.  Two close
    # pairs share a root, so they join all three (near-triple cases merge).
    close = [
        (a, b)
        for (a, b), dist in zip(_PAIRS, dists)
        if dist < COINCIDENCE_RTOL * max(1.0, mags[a], mags[b])
    ]
    if len(close) >= 2:
        groups, pattern = [roots], RootPattern.TRIPLE
    elif close:
        (a, b), = close
        groups = [[roots[a], roots[b]], [roots[3 - a - b]]]
        pattern = RootPattern.ONE_DOUBLE_ONE_SIMPLE
    else:
        groups, pattern = [[r] for r in roots], RootPattern.THREE_DISTINCT

    entries = []
    for g in groups:
        mean = sum(g) / len(g)
        if is_real and abs(mean.imag) <= COINCIDENCE_RTOL * max(1.0, abs(mean)):
            mean = complex(mean.real)
        entries.append((mean, len(g)))
    entries.sort(key=lambda e: (e[0].real, e[0].imag))
    return CubicRoots(roots=tuple(entries), classification=pattern)


@dataclass(frozen=True, eq=False)
class UniqueSolution:
    x: np.ndarray


@dataclass(frozen=True, eq=False)
class SolutionFamily:
    particular: np.ndarray
    nullspace: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class Inconsistent:
    pass


Solve3Result = UniqueSolution | SolutionFamily | Inconsistent


def scalar_norm(values) -> float:
    """Euclidean norm of a short sequence of Python complex scalars."""
    return math.hypot(*map(abs, values))


def det3(m: np.ndarray) -> complex:
    """Explicit 3x3 determinant."""
    return (
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )


def solve_pivoted3(a, b) -> list[complex] | None:
    """x with a x = b for a 3x3 matrix a given as three rows, by Gaussian
    elimination with partial pivoting on Python scalars (cheaper than
    numpy's per-call overhead); None when a pivot is exactly zero."""
    r0, r1, r2 = ([*row, rhs] for row, rhs in zip(a, b))
    if abs(r1[0]) > abs(r0[0]):
        r0, r1 = r1, r0
    if abs(r2[0]) > abs(r0[0]):
        r0, r2 = r2, r0
    p0 = r0[0]
    if p0 == 0:
        return None
    f1, f2 = r1[0] / p0, r2[0] / p0
    r1 = [r1[j] - f1 * r0[j] for j in (1, 2, 3)]
    r2 = [r2[j] - f2 * r0[j] for j in (1, 2, 3)]
    if abs(r2[0]) > abs(r1[0]):
        r1, r2 = r2, r1
    p1 = r1[0]
    if p1 == 0:
        return None
    f = r2[0] / p1
    p2 = r2[1] - f * r1[1]
    if p2 == 0:
        return None
    x2 = (r2[2] - f * r1[2]) / p2
    x1 = (r1[2] - r1[1] * x2) / p1
    return [(r0[3] - r0[1] * x1 - r0[2] * x2) / p0, x1, x2]


def solve3(m, b) -> Solve3Result:
    """Solve a 3x3 complex system, rank-revealing in the singular case.

    Returns ``UniqueSolution`` when |det M| clears the scale-aware rank
    threshold, otherwise an SVD-based ``SolutionFamily`` (minimum-norm
    particular solution plus an orthonormal nullspace basis) or
    ``Inconsistent`` when the right-hand side has a component outside the
    range of M.
    """
    m = finite_matrix(m, (3, 3))
    b = finite_matrix(b, (3,))
    # Solve on M / s (see unit_scaled): the rank thresholds are relative, so
    # every returned null vector v has |M v| <= RANK_RTOL ||M|| |v| at any
    # scale, and no square or division by a tiny singular value overflows.
    scale, unit = unit_scaled(m)
    unit_norm = float(np.linalg.norm(unit))
    nullvecs = None
    x = None
    if abs(det3(unit)) > RANK_RTOL * unit_norm**3:
        x = solve_pivoted3(unit.tolist(), b.tolist())
    if x is not None:
        x = np.array(x)
    else:
        u, sing, vh = np.linalg.svd(unit)
        rank = int(np.sum(sing > RANK_RTOL * float(sing[0])))
        x = vh[:rank].conj().T @ ((u.conj().T @ b)[:rank] / sing[:rank])
        nullvecs = tuple(vh[i].conj() for i in range(rank, 3))
    x = (x.view(float) / scale).view(complex)
    norm = scale * unit_norm
    residual = float(np.linalg.norm(m @ x - b))
    bound = 1e-10 * (norm * float(np.linalg.norm(x)) + float(np.linalg.norm(b)))
    # A non-finite x (the solution is not representable) fails this too.
    if not residual <= bound + 1e-14 * (norm + 1.0):
        return Inconsistent()
    # The SVD branch can find full rank when |det| alone looked singular.
    if not nullvecs:
        return UniqueSolution(x)
    return SolutionFamily(particular=x, nullspace=nullvecs)


def eigvec2(a: complex, b: complex, g: complex, d: complex, mu: complex | None = None):
    """Unit eigenvector (p, q) of [[a, b], [g, d]] for its eigenvalue mu, by
    default the larger one (the better conditioned, for entries of order
    one), taken from the larger row of m - mu I, on Python scalars."""
    if mu is None:
        # (a - d)^2 + 4 b g equals tr^2 - 4 det without the cancellation.
        disc = cmath.sqrt((a - d) ** 2 + 4.0 * b * g)
        mu = max((a + d + disc) / 2.0, (a + d - disc) / 2.0, key=abs)
    cand1 = (b, mu - a)
    cand2 = (mu - d, g)
    p, q = cand1 if max(map(abs, cand1)) >= max(map(abs, cand2)) else cand2
    if max(abs(p), abs(q)) < 1e-290:
        # Near-subnormal parts lose bits in abs and the division; lift exactly.
        p, q = p * 2.0**600, q * 2.0**600
    # hypot scales internally: no square underflows for entries near 1e-160.
    r = math.hypot(abs(p), abs(q))
    return p / r, q / r


def schur2(m) -> tuple[np.ndarray, np.ndarray]:
    """Schur triangularization of a 2x2 complex matrix.

    Returns (U, T) with U unitary, T = U^dag M U upper triangular, and the
    lower-left entry of T exactly zero.  Upper-triangular input returns
    (identity, input) unchanged.
    """
    m = finite_matrix(m)
    if m[1, 0] == 0:
        return np.eye(2, dtype=complex), m
    # Work on n = m / max|m| so that the discriminant neither underflows nor
    # overflows at extreme scales.
    _, n = unit_scaled(m)
    p, q = eigvec2(*n.ravel().tolist())
    u = np.array([[p, -q.conjugate()], [q, p.conjugate()]])
    t = u.conj().T @ m @ u
    t[1, 0] = 0.0
    return u, t
