"""Frame maps on numpy matrices, for tests that rotate whole systems.

fgkls maps through a frame U on Python scalars (``model.coords_from_frame``,
``model.hermitian_from_frame``); these are the plain matrix products.
"""

import numpy as np


def basis_matrix(canon) -> np.ndarray:
    """The frame U of a ``Canonical`` as an array (the identity for U = I)."""
    return np.eye(2, dtype=complex) if canon.basis is None else np.array(canon.basis)


def to_frame(rho, basis) -> np.ndarray:
    """U^dag rho U."""
    basis = np.asarray(basis)
    return basis.conj().T @ rho @ basis


def from_frame(rho, basis) -> np.ndarray:
    """U rho U^dag."""
    basis = np.asarray(basis)
    return basis @ rho @ basis.conj().T
