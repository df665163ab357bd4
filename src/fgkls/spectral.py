"""Characteristic cubic, mode decomposition and stability of the generator.

The homogeneous flow on (f11, f12, f21) is governed by a 3x3 matrix whose
characteristic polynomial has real coefficients.  For c > 0 every system
is solved in its canonical form (H', c', x, t): the generator, its cubic in
s = rate / c'^2 and the measure-zero coinciding-root branches of the
diagonal (t = 0) and Jordan (x = 0) shapes (which turn exponentials into
exponentials times polynomials) are closed forms in (H' / c'^2, x, t); the
branches are recognized from conditions in parameter space, where
detection is well-conditioned even though the roots themselves are not.
Modes are mapped back through the frame U.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InternalError
from .generator import build_generator
from .model import (
    Canonical,
    SystemSpec,
    coords,
    dagger_coords,
    direction_matrix,
    from_frame,
    hermitian_span,
)
from .numerics import cubic_roots, scalar_norm

# Branch conditions are exact equalities; they are accepted when satisfied
# to this absolute defect on O(1)-normalized data, a bound on their rounding
# (at most 266 eps on the manifold benchmark's systems): only systems on a
# coinciding-root manifold are snapped onto it.
BRANCH_TOL = 1024 * sys.float_info.epsilon
# Ties in the double-vs-triple sign test resolve to the triple branch.
TIE_TOL = 1e-12
# (M - rate I) loses a rank for each singular value below
# GEO_RTOL * max(1, largest singular value): the geometric multiplicity.
GEO_RTOL = 1e-6
# Residual allowed to eigenvectors and chain vectors, relative to max(1, ||M||).
CHAIN_RTOL = 1e-8


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

    ``vectors`` is a Jordan chain: vectors[0] is a true eigenvector and
    (M - rate) vectors[j+1] = vectors[j].  A chain of length k contributes
    exp(rate * t) times a polynomial of degree poly_degree = k - 1.
    """

    rate: complex
    vectors: tuple[np.ndarray, ...]

    @property
    def poly_degree(self) -> int:
        return len(self.vectors) - 1

    @property
    def matrices(self) -> tuple[np.ndarray, ...]:
        """Chain vectors embedded as traceless 2x2 matrices (f22 = -f11)."""
        return tuple(direction_matrix(v) for v in self.vectors)


@dataclass(frozen=True, eq=False)
class ModeDecomposition:
    modes: tuple[Mode, ...]
    structure: SpectrumStructure
    cubic: tuple[complex, complex, complex]
    scaled: bool  # True when the cubic variable is s = rate / c^2
    zero_tol: float  # |Re rate| up to this is undamped: the structure's damping scale

    def s_roots(self, c: float) -> list[tuple[complex, int]]:
        """Root list in the rescaled variable (identity when c == 0)."""
        scale = c * c if c > 0 else 1.0
        return [(m.rate / scale, len(m.vectors)) for m in self.modes]


def _canonical_cubic(canon: Canonical) -> tuple[float, float, float]:
    """Monic characteristic cubic of the canonical generator in s = rate / c'^2.

    With a = 2 x^2 + t^2 / 2 the coherence damping and (g, h) the gap and
    (0, 1) entry of H' / c'^2, the constant term is a sum of squares.
    """
    x, t = canon.x, canon.t
    g, h = canon.scaled
    re, im = h.real, h.imag
    x2, t2, h2 = x * x, t * t, re * re + im * im
    a = 2.0 * x2 + 0.5 * t2
    p1 = a * a + g * g + 4.0 * h2 + t2 * t2 + 3.0 * x2 * t2
    p0 = (
        a * t2 * (x2 + 0.5 * t2)
        + (t * g - 2.0 * x * re) ** 2
        + 4.0 * x2 * (re * re + 2.0 * im * im)
        + 2.0 * t2 * h2
    )
    return 4.0 * x2 + 2.0 * t2, p1, p0


def _canonical_rows(canon: Canonical) -> list[list[complex]]:
    """Rows of the canonical generator on (f11, f12, f21), in rates."""
    x, t = canon.x, canon.t
    g, h = canon.scaled
    c2 = canon.c * canon.c
    xt = x * t
    a = 2.0 * x * x + 0.5 * t * t
    m01 = c2 * (1j * h.conjugate() + 0.5 * xt)
    m10 = c2 * (2j * h + xt)
    m11 = -c2 * complex(a, g)
    return [
        [-c2 * t * t, m01, m01.conjugate()],
        [m10, m11, 0j],
        [m10.conjugate(), 0j, m11.conjugate()],
    ]


def char_cubic(spec: SystemSpec) -> tuple[complex, complex, complex]:
    """Monic characteristic cubic of the homogeneous generator.

    Coefficients are in the rescaled variable s = rate / c^2 when c > 0 and
    in the bare rate when c = 0.  A closed system (c = 0) has the exact
    cubic s (s^2 + (E1 - E2)^2) whatever its shape; otherwise the closed
    form of the canonical system, rescaled from c' to c.
    """
    c = spec.c
    if c == 0:
        # A closed system's rates are 0 and +/- i (E1 - E2), with
        # (E1 - E2)^2 = gap^2 + 4 |h01|^2 in any frame; the exact cubic keeps
        # their real parts exactly zero, where a numeric one would leave
        # rounding of order eps |H| for assert_stability to read as growth.
        (_, h01), _ = spec.hamiltonian.entries
        return (0j, complex(spec.hamiltonian.gap**2 + 4.0 * abs(h01) ** 2), 0j)
    canon = spec.canonical
    # The rates are frame-invariant, but s' = rate / c'^2 = s / k.
    k = (canon.c / c) ** 2
    p2, p1, p0 = _canonical_cubic(canon)
    return (complex(p2 * k), complex(p1 * k * k), complex(p0 * k**3))


def jordan_coincident_roots(
    gap_sq: float, coupling_sq: float, tol: float = BRANCH_TOL
) -> list[tuple[float, int]] | None:
    """Closed-form coinciding roots for the Jordan cubic, if its branch
    conditions hold within tol.  Returns [(s, multiplicity), ...] or None."""
    e, k = gap_sq, coupling_sq
    if abs(k - 1.0 / 54.0) <= tol and abs(e - 1.0 / 108.0) <= tol:
        return [(-2.0 / 3.0, 3)]
    if e + 4.0 * k < 1.0 / 12.0:
        lhs = (0.25 - 3.0 * e - 12.0 * k) ** 3
        rhs = (0.125 + 4.5 * e - 9.0 * k) ** 2
        if abs(lhs - rhs) <= tol:
            root = math.sqrt(max(0.25 - 3.0 * e - 12.0 * k, 0.0))
            sign_test = 1.0 / 36.0 + e - 2.0 * k
            if abs(sign_test) < TIE_TOL:
                return [(-2.0 / 3.0, 3)]
            if sign_test > 0:
                return [(-2.0 / 3.0 + root / 3.0, 2), (-2.0 / 3.0 - 2.0 * root / 3.0, 1)]
            return [(-2.0 / 3.0 - root / 3.0, 2), (-2.0 / 3.0 + 2.0 * root / 3.0, 1)]
    return None


def diagonal_coincident_roots(
    musq: float, e12_sq: float, detune_sq: float, tol: float = BRANCH_TOL
) -> list[tuple[float, int]] | None:
    """Closed-form coinciding roots for the diagonal cubic.

    Arguments are |lambda1 - lambda2|^2, |e12|^2 and the squared effective
    detuning; conditions as printed for that branch family.
    """
    m4 = musq * musq
    if abs(e12_sq - m4 / 54.0) <= tol and abs(detune_sq - m4 / 108.0) <= tol:
        return [(-musq / 3.0, 3)]
    if m4 > 48.0 * e12_sq + 12.0 * detune_sq:
        inner = 0.25 * m4 - 12.0 * e12_sq - 3.0 * detune_sq
        lhs = inner**3
        rhs = m4 * (-0.125 * m4 + 9.0 * e12_sq - 4.5 * detune_sq) ** 2
        if abs(lhs - rhs) <= tol:
            root = math.sqrt(max(inner, 0.0))
            sign_test = musq * (-0.125 * m4 + 9.0 * e12_sq - 4.5 * detune_sq)
            if abs(sign_test) < TIE_TOL:
                return [(-musq / 3.0, 3)]
            if sign_test > 0:
                return [(-musq / 3.0 + root / 3.0, 2), (-musq / 3.0 - 2.0 * root / 3.0, 1)]
            return [(-musq / 3.0 - root / 3.0, 2), (-musq / 3.0 + 2.0 * root / 3.0, 1)]
    return None


def _closed_form_roots(canon: Canonical) -> list[tuple[complex, int]] | None:
    """Coinciding roots of the diagonal (t = 0) or Jordan (x = 0) shape
    when their branch conditions hold, in s = rate / c'^2."""
    g, h = canon.scaled
    h2 = abs(h) ** 2
    if canon.t == 0.0:
        out = diagonal_coincident_roots(4.0 * canon.x**2, h2, g * g)
    elif canon.x == 0.0:
        out = jordan_coincident_roots(g * g, h2)
    else:
        return None
    if out is None:
        return None
    return [(complex(s), mult) for s, mult in out]


def _symmetrize_real(v) -> list[complex]:
    """Project three coordinates onto the Hermitian slice (f11 real,
    f21 = conj f12) and normalize, on Python scalars."""
    mirror = dagger_coords(v)
    w = [0.5 * (x + m) for x, m in zip(v, mirror)]
    n = scalar_norm(w)
    if n < 0.5 * scalar_norm(v):
        w = [0.5j * (x - m) for x, m in zip(v, mirror)]
        n = scalar_norm(w)
    if n == 0.0:
        raise InternalError("mode vector collapsed under symmetrization")
    w = [z / n for z in w]
    # Fix the residual sign freedom for reproducibility.
    for comp in (w[0].real, w[1].real, w[1].imag):
        if abs(comp) > 1e-12:
            if comp < 0:
                w = [-z for z in w]
            break
    return w


def _chain_solve(b: np.ndarray, target, mscale: float) -> np.ndarray:
    sol, *_ = np.linalg.lstsq(b, target, rcond=GEO_RTOL)
    if np.linalg.norm(b @ sol - target) > CHAIN_RTOL * max(1.0, mscale):
        raise InternalError("generalized-eigenvector chain is inconsistent")
    return sol


def _cross_null_vector(b: list[list[complex]], mscale: float) -> list[complex] | None:
    """Unit null vector of the 3x3 matrix B, given as three rows, from the
    largest cross product of two of its rows (Kopp, arXiv:physics/0610206),
    or None unless B is certainly of rank two and the vector passes the
    residual check.

    With F = ||B|| and c the largest cross product, sigma_2 >= c / (sqrt(3) F),
    so c > sqrt(3) GEO_RTOL F max(1, F) proves sigma_2 above the SVD's
    rank tolerance GEO_RTOL max(1, sigma_1): the geometric multiplicity is 1
    exactly when the SVD would find it so.  Scalar arithmetic on the nine
    entries costs less than numpy's per-call overhead; squares that under-
    or overflow fail the tests and fall back to the SVD.
    """
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = b
    crosses = (
        (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0),
        (a1 * c2 - a2 * c1, a2 * c0 - a0 * c2, a0 * c1 - a1 * c0),
        (b1 * c2 - b2 * c1, b2 * c0 - b0 * c2, b0 * c1 - b1 * c0),
    )
    n2s = [abs(x) ** 2 + abs(y) ** 2 + abs(z) ** 2 for x, y, z in crosses]
    best_n2 = max(n2s)
    f2 = scalar_norm((a0, a1, a2, b0, b1, b2, c0, c1, c2)) ** 2
    if not best_n2 > 3.0 * GEO_RTOL**2 * f2 * max(1.0, f2):
        return None
    x0, x1, x2 = best = crosses[n2s.index(best_n2)]
    resid2 = sum(abs(r0 * x0 + r1 * x1 + r2 * x2) ** 2 for r0, r1, r2 in b)
    if not resid2 <= (CHAIN_RTOL * max(1.0, mscale)) ** 2 * best_n2:
        return None
    n = math.sqrt(best_n2)
    return [z / n for z in best]


def _minus_rate(m: list[list[complex]], rate: complex) -> list[list[complex]]:
    """Rows of M - rate I from the rows of M."""
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = m
    return [[m00 - rate, m01, m02], [m10, m11 - rate, m12], [m20, m21, m22 - rate]]


def _modes_for_root(
    b: list[list[complex]], mult: int, mscale: float
) -> list[tuple[list[complex], int]]:
    """Jordan chains of one root, as (head, chain length) pairs, from the
    rows of B = M - rate I: the geometric multiplicity decides between
    simple modes and generalized chains.  ``spectrum`` solves each chain's
    links from its symmetrized head."""
    v = _cross_null_vector(b, mscale)
    if v is not None:
        # Rank two: one eigenvector, heading a chain of length mult.
        return [(v, mult)]
    u, sing, vh = np.linalg.svd(np.array(b))
    tol = GEO_RTOL * max(1.0, float(sing[0]))
    geo = int(np.sum(sing <= tol))
    geo = max(1, min(geo, mult))
    null = vh[3 - geo :].conj()
    if geo >= mult:
        return [(v, 1) for v in null[:mult].tolist()]
    if geo == 1:
        return [(null[0].tolist(), mult)]
    # mult == 3, geo == 2: rank one, so range(B) sits inside null(B).
    head = u[:, 0]
    spare = null[0] - np.vdot(head, null[0]) * head
    if np.linalg.norm(spare) < 1e-8:
        spare = null[1] - np.vdot(head, null[1]) * head
    spare = spare / np.linalg.norm(spare)
    return [(head.tolist(), 2), (spare.tolist(), 1)]


def generator_rows(spec: SystemSpec) -> tuple[list[list[complex]], np.ndarray | None]:
    """Rows of the generator on (f11, f12, f21) and their frame U: the
    canonical one for c > 0, the caller's (U = None) for a closed system."""
    if spec.c > 0:
        canon = spec.canonical
        return _canonical_rows(canon), canon.basis
    return build_generator(spec).matrix.tolist(), None


def spectrum(spec: SystemSpec) -> ModeDecomposition:
    """Roots, Jordan chains and structure of the homogeneous generator, on
    Python scalars except for the SVD and least-squares fallbacks: in the
    canonical frame for c > 0, in the caller's for a closed system."""
    c = spec.c
    rows, frame = generator_rows(spec)
    if c > 0:
        canon = spec.canonical
        scale = canon.c * canon.c
        p2, p1, p0 = _canonical_cubic(canon)
        s_roots = _closed_form_roots(canon) or list(cubic_roots(p2, p1, p0).roots)
    else:
        scale = 1.0
        s_roots = list(cubic_roots(*char_cubic(spec)).roots)
    mscale = scalar_norm(rows[0] + rows[1] + rows[2])

    root_scale = max([1.0] + [abs(s) for s, _ in s_roots])
    ztol = 1e-10 * root_scale

    raw_modes: list[tuple[complex, list]] = []
    done_pairs: set[int] = set()
    for idx, (s, mult) in enumerate(s_roots):
        if idx in done_pairs:
            continue
        rate = s * scale
        if abs(s.imag) <= ztol:
            rate = complex(rate.real)
            b = _minus_rate(rows, rate)
            chains = _modes_for_root(b, mult, mscale)
            if len(chains) > 1 and all(k == 1 for _, k in chains):
                # Diagonalizable multiple root: re-extract the Hermitian slice
                # jointly so the simple modes stay independent.
                basis = hermitian_span([direction_matrix(v) for v, _ in chains])
                if len(basis) < len(chains):
                    raise InternalError("Hermitian slice of the eigenspace is too small")
                for herm in basis[: len(chains)]:
                    raw_modes.append((rate, [coords(herm)]))
                continue
            for head, k in chains:
                chain = [_symmetrize_real(head)]
                for _ in range(k - 1):
                    nxt = _chain_solve(np.array(b), chain[-1], mscale)
                    chain.append(0.5 * (nxt + dagger_coords(nxt)))
                raw_modes.append((rate, chain))
        else:
            if mult != 1:
                raise InternalError("repeated non-real root of a real cubic")
            partner = None
            for jdx in range(idx + 1, len(s_roots)):
                sj, mj = s_roots[jdx]
                close = abs(sj - s.conjugate()) <= 1e-6 * root_scale
                if jdx not in done_pairs and mj == 1 and close:
                    partner = jdx
                    break
            if partner is None:
                raise InternalError("unpaired complex root of a real cubic")
            done_pairs.add(partner)
            if s.imag < 0:
                s = s.conjugate()
            rate = s * scale
            (v, _), = _modes_for_root(_minus_rate(rows, rate), 1, mscale)
            raw_modes.append((rate, [v]))
            raw_modes.append((rate.conjugate(), [dagger_coords(v)]))

    if sum(len(chain) for _, chain in raw_modes) != 3:
        raise InternalError("mode chains do not span three dimensions")
    if frame is None:
        modes = [
            Mode(rate, tuple(np.array(v, dtype=complex) for v in chain)) for rate, chain in raw_modes
        ]
    else:
        # Chain vectors map as the traceless matrices they stand for, so
        # they stay Jordan chains of the caller's generator.
        modes = [
            Mode(rate, tuple(coords(from_frame(direction_matrix(v), frame)) for v in chain))
            for rate, chain in raw_modes
        ]

    # Structure reflects algebraic multiplicity: a diagonalizable double root
    # is still DoubleRoot even though it carries two simple modes.  Real
    # parts are compared with the damping scale -p2 = sum Re s, which the
    # roots keep to full relative precision however large their imaginary
    # parts; bare rates (c = 0) have no damping scale.
    dtol = 1e-10 * max(1.0, abs(p2)) if c > 0 else ztol
    top = max(mult for _, mult in s_roots)
    # For each root without damping: whether it oscillates.
    undamped = [abs(s.imag) > ztol for s, _ in s_roots if abs(s.real) <= dtol]
    if any(undamped):
        structure = SpectrumStructure.OSCILLATORY_UNDAMPED
    elif undamped:
        structure = SpectrumStructure.ZERO_MODE
    elif top == 3:
        structure = SpectrumStructure.TRIPLE_ROOT
    elif top == 2:
        structure = SpectrumStructure.DOUBLE_ROOT
    elif any(abs(s.imag) > ztol for s, _ in s_roots):
        structure = SpectrumStructure.COMPLEX_PAIR_PLUS_REAL
    else:
        structure = SpectrumStructure.DISTINCT

    return ModeDecomposition(tuple(modes), structure, char_cubic(spec), c > 0, dtol * scale)


def assert_stability(md: ModeDecomposition, spec: SystemSpec) -> StabilityVerdict:
    """Classify the decay-rate signs: all strictly damped, a zero mode, or
    undamped oscillation, as ``md.structure`` does on its damping scale.  A
    rate with positive real part is impossible for this flow and raises."""
    for m in md.modes:
        if m.rate.real > md.zero_tol:
            raise InternalError(f"growing mode {m.rate!r}: generator cannot expand states")
    if md.structure is SpectrumStructure.OSCILLATORY_UNDAMPED:
        return StabilityVerdict.UNDAMPED
    if md.structure is SpectrumStructure.ZERO_MODE:
        return StabilityVerdict.ZERO_MODE_PRESENT
    return StabilityVerdict.ALL_DAMPED
