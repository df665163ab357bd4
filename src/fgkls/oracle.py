"""Independent numerical cross-check: fixed-step RK4 on the raw flow.

The integrator never touches the spectral machinery.  It probes the
right-hand side at basis states to recover the (exactly affine) field on
(f11, f12, f21) and then applies the classical 4th-order step, itself an
affine map x -> P x + r.  s steps compose into the stride map
x -> P^s x + (sum_{i<s} P^i) r, and the recorded samples follow by
doubling: with A the augmented stride map, samples [h, 2h) are A^h times
samples [0, h).  This reproduces the literal RK4 sequence up to rounding
at a fraction of the cost.  Trace is never renormalized: drift is a
measured diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .generator import rhs
from .model import SystemSpec, as_density, coords, det2, from_coords

DEFAULT_DT = 1e-3
# Interior points of each det_scan refinement grid.
REFINE_POINTS = 64


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step configuration; dt must clear the stability gate
    dt <= 0.1 / max(||H||, c^2 ||l||^2) for the system it is used with."""

    dt: float
    t_end: float
    record_stride: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ConfigError("dt must be positive and finite")
        if not (math.isfinite(self.t_end) and self.t_end > 0.0):
            raise ConfigError("t_end must be positive and finite")
        if self.record_stride < 1:
            raise ConfigError("record_stride must be >= 1")


def _norm2(m) -> float:
    """Largest singular value of a 2x2 matrix given as rows of Python
    scalars, in closed form on the matrix scaled like ``unit_scaled``, so
    that no square under- or overflows."""
    entries = [z for row in m for z in row]
    top = max(map(abs, entries))
    if top == 0.0:
        return 0.0
    scale = math.ldexp(1.0, math.frexp(top)[1] - 1)
    a, b, g, d = (complex(z.real / scale, z.imag / scale) for z in entries)
    frob2 = sum(abs(z) ** 2 for z in (a, b, g, d))
    det = abs(a * d - b * g)
    # sigma_max^2 = (F^2 + sqrt(F^4 - 4 |det|^2)) / 2, the difference factored.
    disc = max(0.0, (frob2 - 2.0 * det) * (frob2 + 2.0 * det))
    return scale * math.sqrt(0.5 * (frob2 + math.sqrt(disc)))


def stiffness_scale(spec: SystemSpec) -> float:
    """max(||H||, c^2 ||l||^2) in the operator norm."""
    l_norm = _norm2(spec.lindblad.entries)
    return max(_norm2(spec.hamiltonian.entries), spec.c * spec.c * l_norm * l_norm)


def _affine_field(spec: SystemSpec) -> tuple[np.ndarray, np.ndarray]:
    """Recover x' = M x + q on (f11, f12, f21) from rhs probes alone."""

    def probe(x: np.ndarray) -> np.ndarray:
        # rhs is linear in rho (no conjugation), so non-Hermitian probes are fine.
        return coords(rhs(spec, from_coords(x)))

    zero = np.zeros(3, dtype=complex)
    q = probe(zero)
    cols = []
    for i in range(3):
        e = np.zeros(3, dtype=complex)
        e[i] = 1.0
        cols.append(probe(e) - q)
    return np.column_stack(cols), q


def _step_maps(m: np.ndarray, q: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """One classical RK4 step of an affine field, as x -> P x + r."""
    eye = np.eye(3, dtype=complex)
    m2 = m @ m
    m3 = m2 @ m
    m4 = m3 @ m
    p = eye + dt * m + dt**2 / 2.0 * m2 + dt**3 / 6.0 * m3 + dt**4 / 24.0 * m4
    r = dt * (eye + dt / 2.0 * m + dt**2 / 6.0 * m2 + dt**3 / 24.0 * m3) @ q
    return p, r


def _power_map(p: np.ndarray, r: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """x -> P x + r composed n times, (P^n, (sum_{i<n} P^i) r), by binary
    powering of the augmented matrix [[P, r], [0, 1]]."""
    aug = np.eye(4, dtype=complex)
    aug[:3, :3] = p
    aug[:3, 3] = r
    aug = np.linalg.matrix_power(aug, n)
    return aug[:3, :3], aug[:3, 3]


def _check_gate(spec: SystemSpec, dt: float) -> None:
    scale = stiffness_scale(spec)
    if scale > 0.0 and dt > 0.1 / scale:
        raise ConfigError(
            f"dt = {dt:g} violates the stability gate 0.1 / {scale:g}"
        )


def integrate(
    spec: SystemSpec, rho0, cfg: IntegratorConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the flow; returns (times, states) at the recorded strides."""
    _check_gate(spec, cfg.dt)
    rho0 = as_density(rho0)
    m, q = _affine_field(spec)
    p, r = _step_maps(m, q, cfg.dt)
    n_steps = max(1, int(round(cfg.t_end / cfg.dt)))
    stride = min(cfg.record_stride, n_steps)
    steps = list(range(0, n_steps + 1, stride))
    if steps[-1] != n_steps:
        steps.append(n_steps)
    # Rows of xs are augmented samples (f11, f12, f21, 1) at whole strides.
    full = n_steps // stride + 1
    xs = np.empty((len(steps), 4), dtype=complex)
    xs[0, :3] = coords(rho0)
    xs[0, 3] = 1.0
    aug = np.eye(4, dtype=complex)
    aug[:3, :3], aug[:3, 3] = _power_map(p, r, stride)
    done = 1
    while done < full:
        m = min(done, full - done)
        xs[done : done + m] = xs[:m] @ aug.T
        aug = aug @ aug
        done += m
    if full < len(steps):
        p_k, r_k = _power_map(p, r, n_steps - steps[-2])
        xs[-1, :3] = p_k @ xs[-2, :3] + r_k
    return np.array(steps) * cfg.dt, from_coords(xs[:, :3])


@dataclass(frozen=True, eq=False)
class Converged:
    rho: np.ndarray
    t: float


@dataclass(frozen=True)
class NotConverged:
    reason: str


def pointer_numeric(
    spec: SystemSpec,
    rho0,
    tol: float = 1e-8,
    window: float | None = None,
    t_cap: float | None = None,
    dt: float | None = None,
) -> Converged | NotConverged:
    """Late-time state by brute-force integration.

    Converged when the state moves less than tol over a window of length
    5 / c^2; a time cap turns slow or oscillatory dynamics into
    ``NotConverged``.
    """
    rho0 = as_density(rho0)
    c2 = spec.c * spec.c
    if window is None:
        window = 5.0 / c2 if c2 > 0 else 5.0
    if t_cap is None:
        t_cap = 80.0 * window
    scale = stiffness_scale(spec)
    if dt is None:
        dt = min(1e-2, 0.05 / scale) if scale > 0 else 1e-2
    _check_gate(spec, dt)

    m, q = _affine_field(spec)
    p, r = _step_maps(m, q, dt)
    steps_per_window = max(1, int(round(window / dt)))
    p_w, r_w = _power_map(p, r, steps_per_window)
    x = coords(rho0)
    snapshot = x.copy()
    t = 0.0
    while t < t_cap:
        x = p_w @ x + r_w
        t += steps_per_window * dt
        if float(np.linalg.norm(x - snapshot)) < tol:
            return Converged(rho=from_coords(x), t=t)
        snapshot = x.copy()
    return NotConverged(reason=f"no settling within t = {t_cap:g}")


def det_scan(states_fn, t_grid, t_tol: float = 1e-8, det_tol: float = 1e-12):
    """Earliest time from which det rho(t) stays nonnegative on the grid.

    ``states_fn`` maps an array of times to the stack of states there; the
    grid takes one call, and each refinement one call on REFINE_POINTS
    interior points of the bracket, which then shrinks to the last negative
    sample and the one after it.  Returns 0.0 when the determinant never
    goes negative, None when it is still negative at the end of the
    horizon, and otherwise the crossing time refined to t_tol.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    neg = det2(states_fn(t_grid)) < -det_tol
    if not np.any(neg):
        return 0.0
    last_neg = int(np.max(np.nonzero(neg)[0]))
    if last_neg == len(t_grid) - 1:
        return None
    lo, hi = float(t_grid[last_neg]), float(t_grid[last_neg + 1])
    while hi - lo > t_tol:
        sub = np.linspace(lo, hi, REFINE_POINTS + 2)[1:-1]
        neg = np.nonzero(det2(states_fn(sub)) < -det_tol)[0]
        k = int(neg[-1]) if len(neg) else -1
        if k >= 0:
            lo = float(sub[k])
        if k + 1 < len(sub):
            hi = float(sub[k + 1])
    return 0.5 * (lo + hi)
