"""Independent reference for the two-level FGKLS equation, and the checks
that compare fgkls results with it.

The reference is the 4x4 Liouvillian on row-major vec(rho), built from
Kronecker products of H and L = c * l, and propagated with a matrix
exponential.  Nothing here imports fgkls: the checks take plain arrays and
numbers, so the reference cannot inherit a fault of the code it checks.

Every check returns a list of problems; an empty list means the result
passed.  The tolerances and the reasons for them are listed in README.md.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np
from scipy.linalg import expm

I2 = np.eye(2, dtype=complex)

# Entries of a propagated state.  fgkls accepts amplitude fits with a
# relative residual up to 1e-9, and near-coinciding roots amplify it; the
# worst passing case seen is about 3e-9.
STATE_ATOL = 1e-7
# Hermiticity, unit trace and the smallest eigenvalue of a density matrix.
DENSITY_ATOL = 1e-10
# |L vec(rho)| relative to the operator norm of L.
STATIONARY_RTOL = 1e-9
# Late-time reference state against a unique pointer.
POINTER_ATOL = 1e-8
# Characteristic-polynomial coefficient k against norm(L)^k.
COEFF_RTOL = 1e-8
# Real part of a rate relative to norm(L).
RATE_RTOL = 1e-9
# Singular values below this share of the largest span a kernel.
RANK_RTOL = 1e-9
# Relative step before and after t_min for the positivity-window test.
WINDOW_STEP = 1e-5


def hamiltonian_part(h: np.ndarray) -> np.ndarray:
    """Superoperator of rho -> -i [H, rho] on row-major vec(rho)."""
    h = np.asarray(h, dtype=complex)
    return -1j * (np.kron(h, I2) - np.kron(I2, h.T))


def dissipator(big_l: np.ndarray) -> np.ndarray:
    """Superoperator of rho -> L rho L^dag - (1/2){L^dag L, rho}."""
    big_l = np.asarray(big_l, dtype=complex)
    ldl = big_l.conj().T @ big_l
    return np.kron(big_l, big_l.conj()) - 0.5 * (np.kron(ldl, I2) + np.kron(I2, ldl.T))


def null_basis(m: np.ndarray, rtol: float = RANK_RTOL) -> np.ndarray:
    """Orthonormal kernel basis of m as columns (empty when m has full rank)."""
    _, sing, vh = np.linalg.svd(m)
    top = float(sing[0]) if sing.size else 0.0
    if top == 0.0:
        return np.eye(m.shape[1], dtype=complex)
    rank = int(np.sum(sing > rtol * top))
    return vh[rank:].conj().T


def min_eig(rho: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian part of a 2x2 matrix."""
    rho = np.asarray(rho, dtype=complex)
    return float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0])


class Reference:
    """The Liouvillian of one system and what follows from it.

    Derived quantities and propagators are computed once and kept, so that
    a round repeated on the same inputs pays for the reference only once.
    """

    def __init__(self, h, big_l):
        self.big_l = np.asarray(big_l, dtype=complex)
        self.diss = dissipator(self.big_l)
        self.ham = hamiltonian_part(h)
        self.lv = self.ham + self.diss
        self.scale = max(1.0, float(np.linalg.norm(self.lv, 2)))
        self._propagators: dict[float, np.ndarray] = {}

    @cached_property
    def eigs(self) -> np.ndarray:
        return np.linalg.eigvals(self.lv)

    def state(self, rho0, t: float) -> np.ndarray:
        t = float(t)
        prop = self._propagators.get(t)
        if prop is None:
            prop = self._propagators[t] = expm(self.lv * t)
        return (prop @ np.asarray(rho0, dtype=complex).reshape(4)).reshape(2, 2)

    def nonzero_rates(self) -> np.ndarray:
        """The three eigenvalues of L left after removing the one nearest zero."""
        eigs = self.eigs
        return np.delete(eigs, int(np.argmin(np.abs(eigs))))

    @cached_property
    def charpoly(self) -> np.ndarray:
        """Monic coefficients of det(s - L) / s, highest power first."""
        return np.poly(self.lv)[:4]

    @cached_property
    def stationary_dim(self) -> int:
        return null_basis(self.lv / self.scale).shape[1]

    def stationary_state(self) -> np.ndarray:
        """Unit-trace Hermitian kernel element (meaningful when the kernel is 1-d)."""
        vec = null_basis(self.lv / self.scale)[:, 0].reshape(2, 2)
        rho = vec / np.trace(vec)
        return 0.5 * (rho + rho.conj().T)

    @cached_property
    def late_time(self) -> float | None:
        """Time after which every nonzero mode has decayed below 1e-14, or
        None when a nonzero mode does not decay."""
        slowest = float(np.min(-self.nonzero_rates().real))
        if slowest <= 1e-6 * self.scale:
            return None
        return 33.0 / slowest

    @cached_property
    def uniton(self) -> tuple[str, np.ndarray | None, bool]:
        return uniton_verdict(self)

    def real_mode(self, sep: float = 1e-3) -> np.ndarray | None:
        """A traceless Hermitian eigenmatrix of a real, simple, nonzero
        eigenvalue of L, normalised to unit Frobenius norm; None if none is
        separated from the others by sep * norm(L)."""
        vals, vecs = np.linalg.eig(self.lv)
        zero = int(np.argmin(np.abs(vals)))
        for i in np.argsort(vals.real):
            if i == zero or abs(vals[i].imag) > 1e-12 * self.scale:
                continue
            gaps = [abs(vals[i] - vals[j]) for j in range(4) if j != i]
            if min(gaps) < sep * self.scale:
                continue
            x = vecs[:, i].reshape(2, 2)
            herm = x + x.conj().T
            if np.linalg.norm(herm) < 0.5 * np.linalg.norm(x):
                herm = 1j * (x - x.conj().T)
            return herm / np.linalg.norm(herm)
        return None


def _close(a, b, atol: float) -> bool:
    return bool(np.max(np.abs(np.asarray(a) - np.asarray(b))) <= atol)


def check_density(rho, what: str) -> list[str]:
    rho = np.asarray(rho, dtype=complex)
    problems = []
    if not _close(rho, rho.conj().T, DENSITY_ATOL):
        problems.append(f"{what} is not Hermitian")
    if abs(complex(np.trace(rho)) - 1.0) > DENSITY_ATOL:
        problems.append(f"{what} trace is {complex(np.trace(rho)):.12g}")
    if min_eig(rho) < -DENSITY_ATOL:
        problems.append(f"{what} has eigenvalue {min_eig(rho):.3e}")
    return problems


def check_stationary(ref: Reference, rho, what: str) -> list[str]:
    resid = float(np.linalg.norm(ref.lv @ np.asarray(rho, dtype=complex).reshape(4)))
    if resid > STATIONARY_RTOL * ref.scale:
        return [f"{what} is not annihilated by L (|L rho| = {resid:.3e})"]
    return []


def check_unique_pointer(ref: Reference, rho) -> list[str]:
    """Stationary, a density matrix, and (when the stationary state is
    unique and attracting) the late-time reference state."""
    problems = check_stationary(ref, rho, "pointer") + check_density(rho, "pointer")
    if ref.stationary_dim != 1:
        problems.append(f"pointer reported unique, stationary space has dimension {ref.stationary_dim}")
        return problems
    t_late = ref.late_time
    if t_late is not None:
        # The late-time state does not depend on where it starts.
        late = ref.state(I2 / 2.0, t_late)
        if not _close(late, rho, POINTER_ATOL):
            problems.append(
                f"pointer differs from the late-time state by {np.max(np.abs(late - rho)):.3e}"
            )
    return problems


def check_family(ref: Reference, base, directions) -> list[str]:
    """A stationary family: base and every direction are annihilated by L."""
    problems = check_stationary(ref, base, "family base")
    for i, d in enumerate(directions):
        problems += check_stationary(ref, d, f"family direction {i}")
    return problems


def check_rates(ref: Reference, rates) -> list[str]:
    """Rates repeated by chain length rebuild det(s - L)/s; none grows."""
    rates = np.asarray(rates, dtype=complex)
    if rates.shape != (3,):
        return [f"expected 3 rates counted with chain length, got {rates.shape[0]}"]
    problems = []
    mine = np.poly(rates)
    theirs = ref.charpoly
    for k in range(1, 4):
        if abs(mine[k] - theirs[k]) > COEFF_RTOL * ref.scale**k:
            problems.append(
                f"characteristic coefficient {k} is {mine[k]:.10g}, reference {theirs[k]:.10g}"
            )
    worst = float(np.max(rates.real))
    if worst > RATE_RTOL * ref.scale:
        problems.append(f"rate with positive real part {worst:.3e}")
    return problems


def check_trajectory(ref: Reference, rho0, ts, states, rows) -> list[str]:
    """States at the given grid rows match the propagated reference."""
    problems = []
    for k in rows:
        want = ref.state(rho0, ts[k])
        if not _close(states[k], want, STATE_ATOL):
            problems.append(
                f"state at t = {ts[k]:.6g} differs from the reference by "
                f"{np.max(np.abs(states[k] - want)):.3e}"
            )
    return problems


def check_positivity(
    ref: Reference, rho0, t_min: float | None, valid: bool, horizon: float | None = None
) -> list[str]:
    """The reference state is positive from t_min on and, when t_min > 0,
    is not positive just before it.  An invalid window means the state is
    not positive at the end of the horizon (the late-time state when no
    horizon is given)."""
    if not valid or t_min is None or not math.isfinite(t_min):
        t_end = horizon if horizon is not None else (ref.late_time or 1.0)
        if min_eig(ref.state(rho0, t_end)) > DENSITY_ATOL:
            return [f"window reported invalid, yet the state at t = {t_end:.6g} is positive"]
        return []
    problems = []
    step = WINDOW_STEP * (1.0 + t_min)
    spacing = (1.0 + t_min) / 4.0
    for j in range(9):
        t = t_min + step + j * spacing
        lowest = min_eig(ref.state(rho0, t))
        if lowest < -DENSITY_ATOL:
            problems.append(f"state at t = {t:.6g} after t_min has eigenvalue {lowest:.3e}")
            break
    if t_min > 0.0:
        before = min_eig(ref.state(rho0, max(0.0, t_min - step)))
        if before >= 0.0:
            problems.append(f"state just before t_min = {t_min:.6g} is already positive")
    return problems


def uniton_verdict(ref: Reference) -> tuple[str, np.ndarray | None, bool]:
    """(label, stationary uniton or None, whether any uniton moves).

    Unitons lie in the largest [H, .]-invariant subspace W of ker D.  The
    stationary ones are the kernel of D stacked with [H, .].  AllStates when
    D vanishes; StationaryPointerOnly when ker D is one-dimensional and its
    element commutes with H and is a state; None otherwise.
    """
    dnorm = float(np.linalg.norm(ref.diss))
    if dnorm <= RANK_RTOL * max(1.0, float(np.linalg.norm(ref.big_l)) ** 2):
        return "AllStates", None, False
    d = ref.diss / dnorm
    ad = ref.ham / max(1.0, float(np.linalg.norm(ref.ham)))
    ker_d = null_basis(d).shape[1]
    if ker_d == 4:
        return "AllStates", None, False
    ker_k = null_basis(np.vstack([d, ad]))
    krylov = [d]
    for _ in range(3):
        krylov.append(krylov[-1] @ ad)
    moving = null_basis(np.vstack(krylov)).shape[1] > ker_k.shape[1]
    if ker_d == 1 and ker_k.shape[1] == 1:
        vec = ker_k[:, 0].reshape(2, 2)
        trace = complex(np.trace(vec))
        if abs(trace) > 1e-10:
            rho = vec / trace
            rho = 0.5 * (rho + rho.conj().T)
            if min_eig(rho) >= -1e-12:
                return "StationaryPointerOnly", rho, moving
    return "None", None, moving


def check_uniton(ref: Reference, label: str, rho=None) -> list[str]:
    want, want_rho, moving = ref.uniton
    problems = []
    if moving:
        problems.append("the reference finds a uniton that moves")
    if label != want:
        problems.append(f"uniton verdict {label}, reference {want}")
    elif want_rho is not None and (rho is None or not _close(rho, want_rho, POINTER_ATOL)):
        problems.append("stationary uniton differs from the reference kernel element")
    return problems
