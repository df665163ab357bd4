"""Unitons: states whose dissipative part vanishes so they evolve unitarily.

A state qualifies when (i) L rho L^dag - (1/2){L^dag L, rho} = 0 and
(ii) rho(t) = exp(-iHt) rho(0) exp(iHt) keeps satisfying (i).  Condition (i)
is linear: a four-index tensor acting on the flattened state, whose kernel
(intersected with Hermitian unit-trace matrices) carries the candidates.
The Hamiltonian never enters the tensor, and the coupling c factors out.
The kernel of the two canonical shapes is known in closed form; a general
form that ``canonicalize`` reduces is classified in its canonical frame and
mapped back, so only NonCanonical input takes the numeric kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .model import (
    Canonical,
    DiagonalL,
    JordanL,
    LindbladForm,
    SystemSpec,
    from_frame_hermitian,
    hermitian_span,
)
from .numerics import scalar_norm

COMMUTE_RTOL = 1e-10
# The dissipator kills a direction when its singular value is below
# KERNEL_RTOL * max(1, largest singular value).
KERNEL_RTOL = 1e-10

_FAMILY_CONSTANT = "family members reduce to constants under unitary evolution"


def uniton_tensor(form: LindbladForm) -> np.ndarray:
    """Four-index tensor a[m, n, k, j] of the dissipative-part-vanishes
    condition, with the coupling factored out: the sum over the terms
    L rho L^dag, -(1/2) L^dag L rho and -(1/2) rho L^dag L of
    weight * A[m, k] * B[n, j]."""
    l = form.small_l()
    ldl = l.conj().T @ l
    eye = np.eye(2)
    weights = np.array([1.0, -0.5, -0.5])
    left = np.stack([l, ldl, eye])
    right = np.stack([l.conj(), eye, ldl.T])
    return np.einsum("t,tmk,tnj->mnkj", weights, left, right)


@dataclass(frozen=True)
class AllStates:
    """Every density matrix is a uniton (the dissipator vanishes identically)."""

    label: str = "AllStates"


@dataclass(frozen=True, eq=False)
class StationaryPointerOnly:
    """A single dissipation-free state that also commutes with H: it sits
    still forever, a pointer-like uniton."""

    rho: np.ndarray
    label: str = "StationaryPointerOnly"


@dataclass(frozen=True, eq=False)
class NoUnitons:
    """No nontrivially evolving unitons; candidate or family describes what
    the kernel does contain."""

    reason: str
    candidate: np.ndarray | None = None
    family: tuple[np.ndarray, ...] = field(default_factory=tuple)
    label: str = "None"


UnitonVerdict = AllStates | StationaryPointerOnly | NoUnitons


def classify_unitons(spec: SystemSpec) -> UnitonVerdict:
    """Full case analysis of the uniton conditions for one system."""
    if spec.c == 0.0:
        return AllStates()
    reduction = spec.reduction
    if isinstance(reduction, Canonical):
        return _from_frame_verdict(classify_unitons(reduction.system), reduction.basis)
    form = spec.lindblad
    if isinstance(form, DiagonalL):
        # The dissipator of diag(lambda1, lambda2) kills the diagonal
        # matrices and scales the coherences by mu and conj(mu).
        lam1, lam2 = form.lambda1, form.lambda2
        mu = lam1 * lam2.conjugate() - (abs(lam1) ** 2 + abs(lam2) ** 2) / 2
        if abs(mu) <= KERNEL_RTOL * max(1.0, abs(mu)):
            return AllStates()
        return NoUnitons(
            reason=_FAMILY_CONSTANT,
            candidate=np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),
            family=(np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex),),
        )
    if isinstance(form, JordanL):
        # The kernel of lambda I + sigma_plus is one state, positive for
        # every lambda.
        lam = form.lam
        n2 = abs(lam) ** 2
        inv = 1.0 / (1.0 + 2.0 * n2)
        rho = ((1.0 + n2) * inv, -lam.conjugate() * inv), (-lam * inv, n2 * inv)
        return _single_candidate_verdict(spec.hamiltonian.entries, rho)
    return _numeric_verdict(spec)


def _from_frame_verdict(verdict: UnitonVerdict, basis: np.ndarray) -> UnitonVerdict:
    """Map a canonical-frame verdict back to the caller's frame."""
    if isinstance(verdict, StationaryPointerOnly):
        return replace(verdict, rho=from_frame_hermitian(verdict.rho, basis))
    if isinstance(verdict, NoUnitons) and verdict.candidate is not None:
        return replace(
            verdict,
            candidate=from_frame_hermitian(verdict.candidate, basis),
            family=tuple(from_frame_hermitian(d, basis) for d in verdict.family),
        )
    return verdict


def _single_candidate_verdict(h, base) -> UnitonVerdict:
    """Verdict for a one-dimensional kernel spanned by the unit-trace base,
    from the entries ((x11, x12), (x21, x22)) of H and of the base, on
    Python scalars."""
    (h00, h01), (h10, h11) = h
    (b00, b01), (b10, b11) = base
    hscale = max(1.0, scalar_norm((h00, h01, h10, h11)))
    # [H, base]: its diagonal entries are opposite.
    c00 = h01 * b10 - b01 * h10
    c01 = b01 * (h00 - h11) - h01 * (b00 - b11)
    c10 = h10 * (b00 - b11) - b10 * (h00 - h11)
    candidate = np.array(base, dtype=complex)
    if scalar_norm((c00, c01, c10, c00)) <= COMMUTE_RTOL * hscale:
        # Twice the smaller eigenvalue of the Hermitian part.
        two_min = (b00 + b11).real - math.hypot((b00 - b11).real, abs(b01 + b10.conjugate()))
        if two_min >= -2e-12:
            return StationaryPointerOnly(rho=candidate)
        return NoUnitons(
            reason="unique dissipation-free matrix is not positive",
            candidate=candidate,
        )
    return NoUnitons(
        reason="unique candidate does not commute with the Hamiltonian",
        candidate=candidate,
    )


def _real_coords(m: np.ndarray) -> list[float]:
    """Real coordinates (f11, Re f12, Im f12, f22) of a Hermitian matrix."""
    return [m[0, 0].real, m[0, 1].real, m[0, 1].imag, m[1, 1].real]


def _numeric_verdict(spec: SystemSpec) -> UnitonVerdict:
    """The case analysis on the numeric kernel of the uniton tensor."""
    h = spec.hamiltonian.matrix
    hscale = max(1.0, float(np.linalg.norm(h)))
    _, sing, vh = np.linalg.svd(uniton_tensor(spec.lindblad).reshape(4, 4))
    tol = KERNEL_RTOL * max(1.0, float(sing[0]))
    nullvecs = [vh[i].conj() for i in range(4) if sing[i] <= tol]
    dim = len(nullvecs)

    if dim == 4:
        return AllStates()
    if dim == 0:
        return NoUnitons(reason="the dissipative condition has only the zero solution")

    basis = hermitian_span([v.reshape(2, 2) for v in nullvecs])
    traces = [float(np.trace(b).real) for b in basis]
    pivot = int(np.argmax(np.abs(traces)))
    if abs(traces[pivot]) < 1e-10:
        return NoUnitons(reason="every dissipation-free matrix is traceless")
    base = basis[pivot] / traces[pivot]
    dirs = [
        basis[i] - (traces[i] / traces[pivot]) * basis[pivot]
        for i in range(len(basis))
        if i != pivot
    ]

    if dim == 1:
        return _single_candidate_verdict(spec.hamiltonian.entries, base.tolist())

    # A family: unitary motion within it would need -i[H, d] proportional to
    # a direction, which the trace inner product forbids; members therefore
    # reduce to constants (or a single stationary member).  Each flow is a
    # column of one least-squares problem against the directions.
    note = "unexpected three-parameter kernel in dimension 2; " if dim == 3 else ""
    span = np.array([_real_coords(d) for d in dirs]).T
    flows = np.array([_real_coords(-1j * (h @ d - d @ h)) for d in [base] + dirs]).T
    coef, *_ = np.linalg.lstsq(span, flows, rcond=None)
    in_span = np.linalg.norm(span @ coef - flows, axis=0) <= 1e-10 * hscale
    moving = bool(np.any(in_span & (np.linalg.norm(coef, axis=0) > 1e-10 * hscale)))
    if moving:
        return NoUnitons(
            reason=note + "family admits internal unitary motion (unexpected)",
            candidate=base,
            family=tuple(dirs),
        )
    return NoUnitons(reason=note + _FAMILY_CONSTANT, candidate=base, family=tuple(dirs))
