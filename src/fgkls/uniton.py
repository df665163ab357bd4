"""Unitons: states whose dissipative part vanishes so they evolve unitarily.

A state qualifies when (i) L rho L^dag - (1/2){L^dag L, rho} = 0 and
(ii) rho(t) = exp(-iHt) rho(0) exp(iHt) keeps satisfying (i).  The states
that satisfy (i) are the stationary states of the system (H = 0, l), so
they come from the closed-form pointer of the canonical form (H', c', x, t)
with H' the gauge term alone: the gauge shift moves part of the dissipator
into H'.  The Hamiltonian enters only through (ii).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import SystemSpec, hermitian_from_frame
from .numerics import scalar_norm
from .pointer import DiagonalFamily, FullFamily, canonical_pointer

COMMUTE_RTOL = 1e-10

_FAMILY_CONSTANT = "family members reduce to constants under unitary evolution"


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
    canon = spec.canonical
    kernel = canonical_pointer(canon, 0.0, 0j, canon.gauge, 0.0)
    if isinstance(kernel, FullFamily):
        return AllStates()
    basis = canon.basis

    def back(m) -> np.ndarray:
        return np.array(m, dtype=complex) if basis is None else hermitian_from_frame(m, basis)

    if isinstance(kernel, DiagonalFamily):
        # The dissipator of a diagonal l kills the diagonal matrices and
        # scales the coherences.
        candidate, direction = ((1.0, 0.0), (0.0, 0.0)), ((-1.0, 0.0), (0.0, 1.0))
        return NoUnitons(reason=_FAMILY_CONSTANT, candidate=back(candidate), family=(back(direction),))
    # t > 0: one dissipation-free state, positive as a pointer is.
    rho = kernel.rho if basis is None else back(kernel.rho.tolist())
    return _single_candidate_verdict(spec.hamiltonian.entries, rho.tolist())


def _single_candidate_verdict(h, base) -> UnitonVerdict:
    """Verdict for a one-dimensional kernel spanned by the state base, from
    the entries ((x11, x12), (x21, x22)) of H and of the base, on Python
    scalars."""
    (h00, h01), (h10, h11) = h
    (b00, b01), (b10, b11) = base
    hscale = max(1.0, scalar_norm((h00, h01, h10, h11)))
    # [H, base]: its diagonal entries are opposite.
    c00 = h01 * b10 - b01 * h10
    c01 = b01 * (h00 - h11) - h01 * (b00 - b11)
    c10 = h10 * (b00 - b11) - b10 * (h00 - h11)
    candidate = np.array(base, dtype=complex)
    if scalar_norm((c00, c01, c10, c00)) <= COMMUTE_RTOL * hscale:
        return StationaryPointerOnly(rho=candidate)
    return NoUnitons(
        reason="unique candidate does not commute with the Hamiltonian",
        candidate=candidate,
    )
