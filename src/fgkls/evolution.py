"""Assembly and evaluation of the full analytic solution.

rho(t) is the stationary part plus a sum of modes, each an exponential in
the decay rate times (for coinciding roots) a polynomial in t, with
matrix-valued amplitudes fitted to the initial state.  The module also
reduces single-real-mode solutions to the compact polar form and computes
the time from which such a solution is a valid (positive) density matrix.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import InternalError, NotReducibleError
from .model import SystemSpec, as_density, det2
from .numerics import scalar_norm, solve_pivoted3
from .pointer import compute_pointer, representative
from .spectral import ModeDecomposition, spectrum


@dataclass(frozen=True, eq=False)
class AnalyticSolution:
    """Closed-form trajectory: pointer part plus fitted modes.

    ``amplitudes`` has one entry per chain vector, flattened across modes in
    order; chain vector j of a mode contributes amplitude * exp(rate t)
    times t^(j-i)/ (j-i)! down its chain.
    """

    spec: SystemSpec
    pointer_part: np.ndarray
    modes: ModeDecomposition
    amplitudes: np.ndarray


def solve_ivp(spec: SystemSpec, rho0) -> AnalyticSolution:
    """Fit the analytic solution to an initial density matrix.

    The pointer part is the attracting state when it is unique and a family
    representative otherwise (the zero-mode amplitude then absorbs the
    family freedom); amplitudes solve the 3x3 system stacking all chain
    vectors at t = 0 against the initial deviation.
    """
    rho0 = as_density(rho0)
    ptr = compute_pointer(spec)
    pointer_part = representative(ptr)
    md = spectrum(spec)

    fit = list(zip(*(v.tolist() for mode in md.modes for v in mode.vectors)))
    (r00, r01), (r10, _) = rho0.tolist()
    (p00, p01), (p10, _) = pointer_part.tolist()
    dev = [r00 - p00, r01 - p01, r10 - p10]
    amps = solve_pivoted3(fit, dev)
    if amps is None:
        raise InternalError("mode vectors do not span the deviation")
    if not all(math.isfinite(a.real) and math.isfinite(a.imag) for a in amps):
        raise InternalError("amplitude fit produced non-finite values")
    a0, a1, a2 = amps
    resid = scalar_norm([f0 * a0 + f1 * a1 + f2 * a2 - d for (f0, f1, f2), d in zip(fit, dev)])
    if resid > 1e-9 * max(1.0, scalar_norm(dev)):
        raise InternalError(f"amplitude fit residual {resid:.3e}")
    return AnalyticSolution(
        spec=spec, pointer_part=pointer_part, modes=md, amplitudes=np.array(amps)
    )


def rho_at(sol: AnalyticSolution, t: float) -> np.ndarray:
    """Density matrix at one time (Hermitian, unit trace; positivity is the
    positivity window's business)."""
    return trajectory(sol, [float(t)])[0]


def trajectory(sol: AnalyticSolution, ts) -> np.ndarray:
    """Stack of density matrices on a grid, shape (len(ts), 2, 2), exactly
    Hermitian with f22 = 1 - f11.

    (f11, f12) is the pointer plus sum_p t^p E (coef[p] * V), by Horner in
    t, with E[:, i] = exp(rate t) and coef[p][i] = a_(i+p) / p! down the
    chain of vector i.  One exponential per distinct rate: a real one for a
    real rate; for a conjugate pair, one complex one and its conjugate.
    """
    ts = np.asarray(ts, dtype=float)
    amps = sol.amplitudes.tolist()
    modes = sol.modes.modes
    vectors = [v.tolist() for mode in modes for v in mode.vectors]
    # terms[p][i] = coef[p][i] * (f11, f12) of v_i, on Python scalars.  The
    # last column of E is 1 and the last row of terms[0] the pointer's
    # (f11, f12), so the product at p = 0 adds the pointer.
    terms = [[(0j, 0j)] * 4 for _ in range(max(len(mode.vectors) for mode in modes))]
    terms[0][3] = tuple(sol.pointer_part.tolist()[0])
    # E^T, one row per column of E, each row written in place.
    exps = np.empty((4, len(ts)), dtype=complex)
    exps[3] = 1.0
    seen: dict[complex, int] = {}
    col = 0
    for mode in modes:
        k, rate = len(mode.vectors), mode.rate
        for i in range(col, col + k):
            v11, v12, _ = vectors[i]
            for p in range(col + k - i):
                a = amps[i + p] / math.factorial(p)
                terms[p][i] = (a * v11, a * v12)
        if rate.imag == 0.0:
            exps[col] = np.exp(rate.real * ts)
        elif rate.conjugate() in seen:
            np.conjugate(exps[seen[rate.conjugate()]], out=exps[col])
        else:
            np.exp(rate * ts, out=exps[col])
        seen[rate] = col
        if k > 1:
            exps[col + 1 : col + k] = exps[col]
        col += k
    terms = np.array(terms)
    # |exp(rate t)| <= 1 for this flow.
    exps = exps.T
    top = exps.dot(terms[-1])
    for p in range(len(terms) - 2, -1, -1):
        top = exps.dot(terms[p]) + ts[:, None] * top
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


def single_mode_reduction(sol: AnalyticSolution, tol: float = 1e-10) -> SingleModeReduction:
    """Reduce to the one-real-mode polar form.

    Raises ``NotReducibleError`` when any oscillatory mode, polynomial
    (chain) term, or second distinct decay rate carries amplitude above
    tolerance.
    """
    c = sol.spec.c
    scale = c * c if c > 0 else 1.0
    zthr = 1e-12 * max(1.0, scale)

    # Python scalars throughout: the pointer entries, and the coordinates
    # (f11, f12, f21) of the excited traceless part.
    (p00, p01), (p10, p11) = sol.pointer_part.tolist()
    excited: list[tuple[complex, list[complex]]] = []
    amps = sol.amplitudes.tolist()
    tol_abs = tol * max([1.0] + [abs(a) for a in amps])

    idx = 0
    for mode in sol.modes.modes:
        k = len(mode.vectors)
        rate = mode.rate
        is_zero = abs(rate) <= zthr
        for j in range(k):
            a = amps[idx + j]
            if abs(a) <= tol_abs:
                continue
            if j > 0:
                raise NotReducibleError("polynomial (coinciding-root) term is excited")
            x11, x12, x21 = (a * x for x in mode.vectors[0].tolist())
            if is_zero:
                p00, p01, p10, p11 = p00 + x11, p01 + x12, p10 + x21, p11 - x11
            elif abs(rate.imag) > zthr:
                raise NotReducibleError("complex-pair amplitude exceeds tolerance")
            else:
                excited.append((rate, [x11, x12, x21]))
        idx += k
    pointer_eff = np.array([[p00, p01], [p10, p11]], dtype=complex)

    if not excited:
        s3 = 0.0
        for mode in sol.modes.modes:
            if abs(mode.rate.imag) <= zthr and mode.rate.real < -zthr:
                s3 = mode.rate.real / scale
                break
        return SingleModeReduction(
            w=0.0, sign=1, h=0.0, p=0.0, beta=0.0, s3=s3, pointer=pointer_eff
        )

    rate0 = excited[0][0]
    if any(abs(r - rate0) > 1e-8 * max(1.0, abs(r), abs(rate0)) for r, _ in excited[1:]):
        raise NotReducibleError("two distinct real decay rates are excited")
    x11, x12, x21 = map(sum, zip(*(v for _, v in excited)))
    # The traceless matrix [[x11, x12], [x21, -x11]] must be Hermitian.
    anti = x11 - x11.conjugate()
    skew = scalar_norm((anti, x12 - x21.conjugate(), x21 - x12.conjugate(), anti))
    if skew > 1e-9 * scalar_norm((x11, x12, x21, x11)):
        raise InternalError("excited real mode is not Hermitian")

    h_signed = x11.real
    off = (x12 + x21.conjugate()) / 2.0
    norm = math.hypot(h_signed, abs(off))
    if h_signed != 0.0:
        sigma = 1 if h_signed > 0 else -1
    elif off.real != 0.0:
        sigma = 1 if off.real > 0 else -1
    else:
        sigma = 1 if off.imag >= 0 else -1
    h = (sigma * h_signed) / norm
    off_c = sigma * off / norm
    p = abs(off_c)
    beta = 2.0 * cmath.phase(off_c) if p > 1e-15 else 0.0
    return SingleModeReduction(
        w=norm,
        sign=sigma,
        h=h,
        p=p,
        beta=beta,
        s3=rate0.real / scale,
        pointer=pointer_eff,
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
