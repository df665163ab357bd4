"""Unitons: states whose dissipative part vanishes so they evolve unitarily.

A state qualifies when (i) L rho L^dag - (1/2){L^dag L, rho} = 0 and
(ii) rho(t) = exp(-iHt) rho(0) exp(iHt) keeps satisfying (i).  Condition (i)
is linear: a four-index tensor acting on the flattened state, whose kernel
(intersected with Hermitian unit-trace matrices) carries the candidates.
The Hamiltonian never enters the tensor, and the coupling c factors out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import LindbladForm, SystemSpec, hermitian_span, min_eig2

COMMUTE_RTOL = 1e-10


def uniton_tensor(form: LindbladForm) -> np.ndarray:
    """Four-index tensor a[m, n, k, l] of the dissipative-part-vanishes
    condition, with the coupling factored out."""
    l = form.small_l()
    ldl = l.conj().T @ l
    a = np.zeros((2, 2, 2, 2), dtype=complex)
    for m in range(2):
        for n in range(2):
            for k in range(2):
                for j in range(2):
                    val = l[m, k] * np.conj(l[n, j])
                    if j == n:
                        val -= 0.5 * ldl[m, k]
                    if k == m:
                        val -= 0.5 * ldl[j, n]
                    a[m, n, k, j] = val
    return a


def flatten_tensor(a: np.ndarray) -> np.ndarray:
    """4x4 matrix acting on (f11, f12, f21, f22), row index (m, n)."""
    return a.reshape(4, 4)


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
    h = spec.hamiltonian.matrix
    hscale = max(1.0, float(np.linalg.norm(h)))
    if spec.c == 0.0:
        return AllStates()

    t4 = flatten_tensor(uniton_tensor(spec.lindblad))
    _, sing, vh = np.linalg.svd(t4)
    tol = 1e-10 * max(1.0, float(sing[0]))
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
        commutator = h @ base - base @ h
        if float(np.linalg.norm(commutator)) <= COMMUTE_RTOL * hscale:
            if min_eig2((base + base.conj().T) / 2.0) >= -1e-12:
                return StationaryPointerOnly(rho=base)
            return NoUnitons(
                reason="unique dissipation-free matrix is not positive",
                candidate=base,
            )
        return NoUnitons(
            reason="unique candidate does not commute with the Hamiltonian",
            candidate=base,
        )

    # A family: unitary motion within it would need -i[H, d] proportional to
    # a direction, which the trace inner product forbids; members therefore
    # reduce to constants (or a single stationary member).
    note = "unexpected three-parameter kernel in dimension 2; " if dim == 3 else ""
    flows = [-1j * (h @ d - d @ h) for d in [base] + dirs]
    span = np.array(
        [[d[0, 0].real, d[0, 1].real, d[0, 1].imag, d[1, 1].real] for d in dirs]
    )
    moving = False
    for f in flows:
        row = np.array([f[0, 0].real, f[0, 1].real, f[0, 1].imag, f[1, 1].real])
        coef, res, *_ = np.linalg.lstsq(span.T, row, rcond=None)
        in_span = float(np.linalg.norm(span.T @ coef - row)) <= 1e-10 * hscale
        if in_span and float(np.linalg.norm(coef)) > 1e-10 * hscale:
            moving = True
    if moving:
        return NoUnitons(
            reason=note + "family admits internal unitary motion (unexpected)",
            candidate=base,
            family=tuple(dirs),
        )
    return NoUnitons(
        reason=note + "family members reduce to constants under unitary evolution",
        candidate=base,
        family=tuple(dirs),
    )
