"""Assembly and evaluation of the full analytic solution.

rho(t) is the stationary part plus exp(tM) d0, with d0 the initial
deviation and exp(tM) in the Newton form f[r1] + f[r1, r2] (M - r1) +
f[r1, r2, r3] (M - r2)(M - r1) of f(z) = exp(z t) at the roots of M's cubic
(Putzer, Amer. Math. Monthly 73, 1966), which is continuous where roots
coincide.  The module also reduces single-real-mode solutions to the compact
polar form and computes the time from which such a solution is a valid
(positive) density matrix.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NotReducibleError
from .model import SystemSpec, as_density, coords_from_frame, dagger2, det2
from .numerics import _real_cubic, scalar_norm
from .pointer import compute_pointer, representative
from .spectral import ModeDecomposition, generator_rows, spectrum

# Nodes must solve M's cubic to rounding: each coefficient of prod (s - r)
# within NODE_RTOL R^k, R = max |r|.  The rates of ``spectrum`` do (20 eps at
# most on the benchmark systems) but near a coinciding root, where cubic_roots
# leaves them jointly off by up to 1e-9; Cardano's roots (4 eps) stand in.
NODE_RTOL = 64 * sys.float_info.epsilon
# Divided differences of nodes closer than NODE_SEPARATION max |r| use expm1,
# and a Taylor series where |r3 - r1| t < TAYLOR_SPAN, whose k-th term is below
# (k + 1) TAYLOR_SPAN^k / (k + 2)!; the quotient used elsewhere loses at most
# 2 / TAYLOR_SPAN (McCurdy, Ng and Parlett, Math. Comp. 43, 1984).
NODE_SEPARATION = 0.125
TAYLOR_SPAN = 0.25
TAYLOR_TERMS = 13
# A rate r carries the state when (M - r) d0 is below this share of the
# largest |node| times max(1, |d0|), states having unit trace.
REDUCTION_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class AnalyticSolution:
    """Closed-form trajectory: pointer part plus the Newton form.

    ``nodes`` are the roots of M's cubic, r1 and r3 farthest apart.  The
    rows of ``terms`` are the coordinates of the pointer part, of
    d0 = rho0 - pointer_part, of w1 = (M - r1) d0 and of w2 = (M - r2) w1:
    rho(t) = [1, f[r1], f[r1, r2], f[r1, r2, r3]] . terms.
    """

    spec: SystemSpec
    pointer_part: np.ndarray
    modes: ModeDecomposition
    nodes: tuple[complex, complex, complex]
    terms: np.ndarray


def _minus(rows: list[list[complex]], unit: float, r: complex, v) -> list[complex]:
    """(M - r) v on Python scalars, M given by the rows of M / unit."""
    x, y, z = v
    return [unit * (a * x + b * y + c * z) - r * w for (a, b, c), w in zip(rows, v)]


def solve_ivp(spec: SystemSpec, rho0) -> AnalyticSolution:
    """The analytic solution from an initial density matrix.

    The pointer part is the attracting state when it is unique and a family
    representative otherwise (the deviation then carries the family
    freedom).  The Newton vectors are computed in ``spectrum``'s frame and
    mapped back through its U once.
    """
    rho0 = as_density(rho0)
    pointer_part = representative(compute_pointer(spec))
    md = spectrum(spec)
    rates = [m.rate for m in md.modes for _ in m.vectors]
    scale = spec.c**2 if md.scaled else 1.0
    p2, p1, p0 = cubic = [p.real for p in md.cubic]
    s1, s2, s3 = [r / scale for r in rates]
    radius = max(abs(s1), abs(s2), abs(s3))
    misses = (s1 + s2 + s3 + p2, s1 * s2 + s1 * s3 + s2 * s3 - p1, s1 * s2 * s3 + p0)
    if any(abs(d) > NODE_RTOL * radius**k for k, d in enumerate(misses, 1)):
        rates = [s * scale for s in _real_cubic(*cubic)]
    # r1 and r3 farthest apart, the first such pair in the order of rates.
    a, b, c = rates
    gaps = (abs(a - c), abs(a - b), abs(b - c))
    r1, r2, r3 = ((a, b, c), (a, c, b), (b, a, c))[gaps.index(max(gaps))]

    (f00, f01), (f10, _) = rho0.tolist()
    (q00, q01), (q10, _) = pointer_part.tolist()
    d0 = [f00 - q00, f01 - q01, f10 - q10]
    rows, frame, unit = generator_rows(spec)
    w1 = _minus(rows, unit, r1, d0 if frame is None else coords_from_frame(d0, dagger2(frame)))
    w2 = _minus(rows, unit, r2, w1)
    if frame is not None:
        w1, w2 = coords_from_frame(w1, frame), coords_from_frame(w2, frame)
    terms = np.array([[q00, q01, q10], d0, w1, w2])
    return AnalyticSolution(spec, pointer_part, md, (r1, r2, r3), terms)


def rho_at(sol: AnalyticSolution, t: float) -> np.ndarray:
    """Density matrix at one time (see ``trajectory``)."""
    return trajectory(sol, [float(t)])[0]


def trajectory(sol: AnalyticSolution, ts) -> np.ndarray:
    """Stack of density matrices on a grid, shape (len(ts), 2, 2), exactly
    Hermitian with f22 = 1 - f11: one (T, 4) . (4, 2) product of the
    divided differences with the (f11, f12) columns of ``sol.terms``."""
    ts = np.asarray(ts, dtype=float)
    r1, r2, r3 = sol.nodes
    # One exponential per real node and per conjugate pair.
    exps = {r: np.exp(r * ts if r.imag else r.real * ts) for r in sol.nodes if r.imag >= 0.0}
    exps.update({r: np.conjugate(exps[r.conjugate()]) for r in sol.nodes if r.imag < 0.0})
    close = NODE_SEPARATION * max(map(abs, sol.nodes))

    def first_difference(p: complex, q: complex) -> np.ndarray:
        """f[p, q], with expm1 based on the slower node when p, q are close."""
        if abs(q - p) > close:
            return (exps[q] - exps[p]) * (1.0 / (q - p))
        if q.real > p.real:
            p, q = q, p
        return ts * exps[p] if q == p else exps[p] * np.expm1((q - p) * ts) * (1.0 / (q - p))

    span = r3 - r1
    weights = np.empty((len(ts), 4), dtype=complex)
    weights[:, 0] = 1.0
    weights[:, 1] = exps[r1]
    weights[:, 2] = f12 = first_difference(r1, r2)
    if span != 0:
        weights[:, 3] = (first_difference(r2, r3) - f12) * (1.0 / span)
    if abs(span) <= close:
        # f[r1, r2, r3] = t^2 e^(r1 t) sum_k h_k(r2 - r1, span) t^k / (k + 2)!.
        coef, h, power = [0.5], 1.0, 1.0
        for k in range(1, TAYLOR_TERMS if span else 1):
            power *= span
            h = (r2 - r1) * h + power
            coef.append(h / math.factorial(k + 2))
        near = np.abs(ts) * abs(span) < TAYLOR_SPAN
        tn = ts[near]
        weights[near, 3] = tn * tn * exps[r1][near] * np.vander(tn, len(coef), True).dot(coef)
    top = weights.dot(sol.terms[:, :2])
    out = np.empty((len(ts), 2, 2), dtype=complex)
    out[:, 0] = top
    out[:, 0, 0].imag = 0.0
    np.conjugate(top[:, 1], out=out[:, 1, 0])
    np.subtract(1.0, out[:, 0, 0], out=out[:, 1, 1])
    return out


@dataclass(frozen=True, eq=False)
class SingleModeReduction:
    """Polar data of a solution with one real decaying mode excited:

        rho(t) = pointer + sign * w * exp(s3 c^2 t) * [[h, p e^{i beta/2}],
                                                       [p e^{-i beta/2}, -h]]

    with w, h, p >= 0, h^2 + p^2 = 1 folded into w, and s3 the rescaled
    decay rate.  Constant (zero-mode) contributions are folded into
    ``pointer`` before reduction.
    """

    w: float
    sign: int
    h: float
    p: float
    beta: float
    s3: float
    pointer: np.ndarray


@dataclass(frozen=True)
class TimeWindow:
    """Times t >= t_min where the solution is a valid density matrix."""

    t_min: float
    valid: bool


def single_mode_reduction(sol: AnalyticSolution) -> SingleModeReduction:
    """Reduce to the one-real-mode polar form.

    The state is single-mode at a real decaying rate r exactly when (M - r) d0
    vanishes, or M (M - r) d0 when 0 is a root; the pointer then absorbs the
    zero-mode part -(M - r) d0 / r.  Both are read off the Newton vectors,
    M d0 = w1 + r1 d0 and M w1 = w2 + r2 w1, and rates are judged on
    ``spectrum``'s damping scale.  Raises ``NotReducibleError`` when no such
    rate carries the whole deviation.
    """
    md = sol.modes
    scale = sol.spec.c**2 if md.scaled else 1.0
    r1, r2, _ = sol.nodes
    _, d0, w1, w2 = sol.terms.tolist()
    md0 = [w + r1 * d for w, d in zip(w1, d0)]
    radius = max(map(abs, sol.nodes))
    bound = REDUCTION_TOL * max(1.0, scalar_norm(d0))
    real = [r.real for r in sol.nodes if r.imag == 0.0]
    has_zero = any(abs(r) <= md.zero_tol for r in real)

    for rate in dict.fromkeys(r for r in real if r < -md.zero_tol):
        x = [a - rate * d for a, d in zip(md0, d0)]
        # With a zero root, M (M - rate) d0 = w2 + r2 w1 + (r1 - rate) M d0 must vanish.
        y = [a + r2 * b + (r1 - rate) * e for a, b, e in zip(w2, w1, md0)] if has_zero else x
        if scalar_norm(y) <= bound * radius ** (2 if has_zero else 1):
            zero = [-v / rate for v in x] if has_zero else [0j, 0j, 0j]
            s3 = rate / scale
            break
    else:
        # No decaying rate carries the deviation, so it must be stationary.
        if scalar_norm(md0) > bound * radius:
            raise NotReducibleError("no single real decaying mode carries the deviation")
        zero, s3 = d0, 0.0

    # Hermitian parts (f11, f12) of the zero-mode part and of the excited d0 - zero.
    z11, z12 = zero[0].real, (zero[1] + zero[2].conjugate()) / 2.0
    (p00, p01), (p10, p11) = sol.pointer_part.tolist()
    pointer_eff = np.array([[p00 + z11, p01 + z12], [p10 + z12.conjugate(), p11 - z11]])
    h_signed = d0[0].real - z11
    off = (d0[1] + d0[2].conjugate()) / 2.0 - z12
    norm = math.hypot(h_signed, abs(off))
    if norm <= REDUCTION_TOL:  # nothing is excited
        norm, h_signed, off = 0.0, 0.0, 0j
    # The sign of the first nonzero of h, Re off, Im off.
    sigma = 1 if (h_signed, off.real, off.imag) >= (0.0, 0.0, 0.0) else -1
    unit = sigma / norm if norm else 0.0
    h = unit * h_signed
    off_c = unit * off
    p = abs(off_c)
    beta = 2.0 * cmath.phase(off_c) if p > 1e-15 else 0.0
    return SingleModeReduction(
        w=norm, sign=sigma, h=h, p=p, beta=beta, s3=s3, pointer=pointer_eff
    )


def reconstructed_mode_matrix(red: SingleModeReduction) -> np.ndarray:
    """sign * w * [[h, p e^{i beta/2}], [p e^{-i beta/2}, -h]]."""
    off = red.p * cmath.exp(0.5j * red.beta)
    m0 = np.array([[red.h, off], [np.conj(off), -red.h]], dtype=complex)
    return red.sign * red.w * m0


def positivity_window(red: SingleModeReduction, pointer: np.ndarray, c: float) -> TimeWindow:
    """Earliest time from which the reduced solution is positive.

    det rho(t) is a downward parabola in x = sign * w * exp(s3 c^2 t); its
    roots straddle zero whenever the pointer itself is positive, and the
    window follows from inverting the exponential against the relevant
    root.
    """
    if red.w <= 1e-14:
        return TimeWindow(t_min=0.0, valid=True)
    if not (red.s3 < 0.0):
        raise NotReducibleError("positivity window needs a decaying mode (s3 < 0)")
    if c <= 0.0:
        raise NotReducibleError("positivity window needs c > 0")
    n2 = red.h * red.h + red.p * red.p
    if n2 <= 1e-28:
        return TimeWindow(t_min=0.0, valid=True)
    phase = cmath.exp(0.5j * red.beta)
    lin = red.h * float((pointer[1, 1] - pointer[0, 0]).real) - 2.0 * red.p * float(
        (phase * pointer[1, 0]).real
    )
    const = det2(pointer)
    disc = lin * lin + 4.0 * n2 * const
    if disc < 0.0:
        return TimeWindow(t_min=math.inf, valid=False)
    root = math.sqrt(disc)
    x_hi = (lin + root) / (2.0 * n2)
    x_lo = (lin - root) / (2.0 * n2)
    limit = x_hi if red.sign > 0 else -x_lo
    if limit <= 0.0:
        return TimeWindow(t_min=math.inf, valid=False)
    if red.w <= limit:
        return TimeWindow(t_min=0.0, valid=True)
    t_min = math.log(red.w / limit) / (-red.s3 * c * c)
    return TimeWindow(t_min=t_min, valid=True)
