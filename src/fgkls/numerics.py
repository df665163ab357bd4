"""Small dense kernels: the roots of a real cubic, 3x3 linear solves with
nullspace extraction, and 2x2 Schur triangularization.

The cubic's roots are the trigonometric or Cardano closed form with no
polishing, and its caller decides where roots coincide from the
coefficients.  The other kernels use scale-aware tolerances and handle the
degenerate branches that the physics upstairs actually hits.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError

# solve3 treats the matrix as singular when |det M| < RANK_RTOL * ||M||^3.
RANK_RTOL = 1e-10


def finite_matrix(m, shape=(2, 2)) -> np.ndarray:
    """Complex copy of m, checked for its shape and for finite entries."""
    arr = np.array(m, dtype=complex)
    if arr.shape != shape:
        raise InputError(f"expected shape {shape}, got {arr.shape}")
    # Python's isfinite on the few parts costs less than a numpy reduction.
    if not all(map(math.isfinite, arr.view(float).ravel().tolist())):
        raise InputError("non-finite matrix entries")
    return arr


def power_of_two(x: float) -> float:
    """The power of two p with x / p in [1, 2), or 1 for x = 0: scaling by
    it is exact wherever the result neither under- nor overflows."""
    return math.ldexp(1.0, math.frexp(x)[1] - 1) if x else 1.0


def unit_scaled(m: np.ndarray) -> tuple[float, np.ndarray]:
    """(s, m / s) with s = power_of_two(max|m|): results computed on m / s
    and scaled back equal those computed on m wherever the latter do not
    under- or overflow.  Real and imaginary parts are divided as reals,
    because complex division by a subnormal s overflows."""
    scale = power_of_two(float(np.max(np.abs(m))))
    return scale, (m.view(float) / scale).view(complex)


def _require_finite(*values: complex) -> None:
    for v in values:
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise InputError(f"non-finite coefficient {v!r}")


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


def cubic_roots(p2: complex, p1: complex, p0: complex) -> list[complex]:
    """The three roots of the monic cubic s^3 + p2 s^2 + p1 s + p0 with real
    coefficients, sorted by (real, imag).

    The closed form of ``_real_cubic``, unpolished: non-real roots come as
    an exact conjugate pair and p0 == 0 gives an exact zero root.  A
    dominant pair z, z* leaves the real root r and Re z with an error of
    about eps |z|; the identities r |z|^2 = -p0 and r + 2 Re z = -p2 give
    both to full relative precision.  Roots are not merged: whether they
    coincide is decided from the coefficients (``spectral.spectrum``).
    Raises ``InputError`` for a non-finite or non-real coefficient.
    """
    coeffs = [complex(p) for p in (p2, p1, p0)]
    _require_finite(*coeffs)
    if any(p.imag for p in coeffs):
        raise InputError(f"non-real cubic coefficients {coeffs!r}")
    b, c, d = (p.real for p in coeffs)
    roots = _real_cubic(b, c, d)
    r, z, _ = roots
    mag = abs(z)
    if d != 0.0 and z.imag != 0.0 and mag > abs(r):
        r = -(d / mag) / mag
        re = (-b - r) / 2.0
        roots = [complex(r), complex(re, z.imag), complex(re, -z.imag)]
    return sorted(roots, key=lambda s: (s.real, s.imag))


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
