"""Right-hand side of the master equation and its 3x3 affine reduction.

With rho = [[f11, f12], [f21, f22]], Hermitian and unit trace, the flow

    drho/dt = -i [H, rho] + L rho L^dag - (1/2) {L^dag L, rho}

closes on the coordinate vector (f11, f12, f21) once f22 = 1 - f11 is
eliminated.  The generator is kept unscaled (entries carry eps_ij and c^2
directly) so the closed-system limit c = 0 stays regular.  Its coefficients
are exactly the closed system's part plus c^2 times the dissipator's at
unit coupling, the split the weak-coupling series expand in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import Entries2, SystemSpec, lindblad_operator

__all__ = [
    "RateCoefficients", "AffineGenerator", "hamiltonian_part", "dissipator_part",
    "coefficients", "affine_rows", "build_generator", "rhs",
]


class RateCoefficients(NamedTuple):
    """Coefficients of the linear system for the density-matrix entries.

    Named source-to-target: ``d11_22`` multiplies f22 in the f11 equation,
    and so on.  The remaining rows follow by conjugation and the trace:

        df11/dt =  d11_11 f11 + d11_22 f22 + d11_12 f12 + conj(d11_12) f21
        df22/dt = -df11/dt
        df12/dt =  d12_11 f11 + d12_22 f22 + d12_12 f12 + d12_21 f21
        df21/dt =  conjugate mirror of df12/dt

    ``d11_11`` and ``d11_22`` are real; both vanish together with every other
    dissipative term when c = 0, leaving only the +/- i eps pieces.
    """

    d11_11: complex
    d11_22: complex
    d11_12: complex
    d12_11: complex
    d12_22: complex
    d12_12: complex
    d12_21: complex


@dataclass(frozen=True, eq=False)
class AffineGenerator:
    """d/dt (f11, f12, f21) = matrix @ (f11, f12, f21) + inhom."""

    matrix: np.ndarray
    inhom: np.ndarray


def hamiltonian_part(h: Entries2) -> RateCoefficients:
    """The closed system's coefficients, from the Hamiltonian entries h.

    A coefficient without a Hamiltonian term is -0.0, the exact additive
    identity of IEEE arithmetic, so adding the dissipator's part keeps it
    bit for bit."""
    (e11, e12), (e21, e22) = h
    zero = complex(-0.0, -0.0)
    return RateCoefficients(-0.0, -0.0, 1j * e21, 1j * e12, -1j * e12, -1j * (e11 - e22), zero)


def dissipator_part(l: Entries2, c2: float) -> RateCoefficients:
    """The dissipator's coefficients for L = c * l with c^2 = c2, on Python
    scalars: numpy's per-call overhead would cost more than the arithmetic."""
    (l11, l12), (l21, l22) = l
    return RateCoefficients(
        d11_11=-c2 * abs(l21) ** 2,
        d11_22=c2 * abs(l12) ** 2,
        d11_12=0.5 * c2 * (l11 * l12.conjugate() - l22.conjugate() * l21),
        d12_11=c2 * (l11 * l21.conjugate() - 0.5 * l11.conjugate() * l12 - 0.5 * l21.conjugate() * l22),
        d12_22=c2 * (l22.conjugate() * l12 - 0.5 * l11.conjugate() * l12 - 0.5 * l21.conjugate() * l22),
        d12_12=c2
        * (
            l11 * l22.conjugate()
            - 0.5 * (abs(l11) ** 2 + abs(l22) ** 2 + abs(l12) ** 2 + abs(l21) ** 2)
        ),
        d12_21=c2 * l12 * l21.conjugate(),
    )


def coefficients(spec: SystemSpec) -> RateCoefficients:
    """Rate coefficients of the system: the closed system's part plus the
    dissipator's, which is exactly linear in c^2."""
    k0 = hamiltonian_part(spec.hamiltonian.entries)
    k1 = dissipator_part(spec.lindblad.entries, spec.c * spec.c)
    return RateCoefficients(*[a + b for a, b in zip(k0, k1)])


def affine_rows(k: RateCoefficients) -> tuple[list[list[complex]], list[complex]]:
    """Rows of the matrix and the inhomogeneous term of the affine generator
    with coefficients k, on (f11, f12, f21) after eliminating f22 = 1 - f11.
    They are linear in k."""
    m10 = k.d12_11 - k.d12_22
    rows = [
        [k.d11_11 - k.d11_22, k.d11_12, k.d11_12.conjugate()],
        [m10, k.d12_12, k.d12_21],
        [m10.conjugate(), k.d12_21.conjugate(), k.d12_12.conjugate()],
    ]
    return rows, [k.d11_22, k.d12_22, k.d12_22.conjugate()]


def build_generator(spec: SystemSpec) -> AffineGenerator:
    """Affine generator on (f11, f12, f21) after eliminating f22 = 1 - f11."""
    m, b = affine_rows(coefficients(spec))
    return AffineGenerator(matrix=np.array(m, dtype=complex), inhom=np.array(b, dtype=complex))


def rhs(spec: SystemSpec, rho: np.ndarray) -> np.ndarray:
    """-i[H, rho] + L rho L^dag - (1/2){L^dag L, rho}.

    Traceless and Hermiticity-preserving for Hermitian rho.
    """
    h = spec.hamiltonian.matrix
    big_l = lindblad_operator(spec.lindblad)
    ldl = big_l.conj().T @ big_l
    return (
        -1j * (h @ rho - rho @ h)
        + big_l @ rho @ big_l.conj().T
        - 0.5 * (ldl @ rho + rho @ ldl)
    )
