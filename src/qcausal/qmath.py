"""Dense complex linear algebra for one- and two-qubit objects.

Scalars are numpy ``complex128``; state vectors are 1-d arrays and
operators 2-d arrays. All four-dimensional objects use the fixed product
basis ``|00>, |01>, |10>, |11>`` (first factor outer in Kronecker
products). Eigenvectors follow a fixed global-phase convention — first
nonzero amplitude real positive — so fixtures are deterministic.

All constants returned here are read-only arrays; treat every array in
this package as an immutable value.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

__all__ = [
    "pauli",
    "bell",
    "pauli_eigenbasis",
    "tensor_product",
    "projector",
    "is_unitary",
    "is_density",
    "is_unitary_batch",
    "is_density_batch",
    "require_unitary",
    "require_density",
    "UNITARY_TOL",
    "DENSITY_TOL",
]

UNITARY_TOL = 1e-10
DENSITY_TOL = 1e-9

_SQ2 = np.sqrt(2.0)


def _frozen(values) -> np.ndarray:
    arr = np.array(values, dtype=complex)
    arr.setflags(write=False)
    return arr


_PAULI = (
    _frozen([[1, 0], [0, 1]]),
    _frozen([[0, 1], [1, 0]]),
    _frozen([[0, -1j], [1j, 0]]),
    _frozen([[1, 0], [0, -1]]),
)

# |b1>..|b4| in the product basis; rows of the Bell expansion used everywhere.
_BELL = (
    _frozen([1, 0, 0, 1]) / _SQ2,
    _frozen([1, 0, 0, -1]) / _SQ2,
    _frozen([0, 1, 1, 0]) / _SQ2,
    _frozen([0, 1, -1, 0]) / _SQ2,
)

# (+1, -1) eigenvector pairs of the three non-trivial Pauli operators.
_EIGENBASES = {
    1: (_frozen([1, 1]) / _SQ2, _frozen([1, -1]) / _SQ2),
    2: (_frozen([1, 1j]) / _SQ2, _frozen([1, -1j]) / _SQ2),
    3: (_frozen([1, 0]), _frozen([0, 1])),
}


def pauli(i: int) -> np.ndarray:
    """Return the 2x2 Pauli operator with index ``i`` in 0..3."""
    if i not in (0, 1, 2, 3):
        raise ValidationError(f"pauli index must be in 0..3, got {i!r}")
    return _PAULI[i]


def bell(j: int) -> np.ndarray:
    """Return the maximally entangled two-qubit state with index ``j`` in 1..4."""
    if j not in (1, 2, 3, 4):
        raise ValidationError(f"bell index must be in 1..4, got {j!r}")
    return _BELL[j - 1]


def pauli_eigenbasis(i: int) -> tuple[np.ndarray, np.ndarray]:
    """Return the orthonormal (+1, -1) eigenvector pair of ``pauli(i)``, i in 1..3."""
    if i not in (1, 2, 3):
        raise ValidationError(f"eigenbasis index must be in 1..3, got {i!r}")
    return _EIGENBASES[i]


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two dimension-2 vectors or 2x2 operators."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    for name, x in (("a", a), ("b", b)):
        if x.shape not in ((2,), (2, 2)):
            raise ValidationError(
                f"tensor_product expects dimension-2 operands, {name} has shape {x.shape}"
            )
    if a.shape != b.shape:
        raise ValidationError(
            f"tensor_product operands must both be vectors or both matrices, "
            f"got shapes {a.shape} and {b.shape}"
        )
    return np.kron(a, b)


def projector(v: np.ndarray) -> np.ndarray:
    """Rank-1 projector ``|v><v|``."""
    v = np.asarray(v, dtype=complex)
    return np.outer(v, v.conj())


def _square(m: np.ndarray) -> bool:
    return m.ndim >= 2 and m.shape[-1] == m.shape[-2]


def _bounded_stack(ms: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Check a (..., d, d) stack; return (mask of matrices with all entries finite and
    within 1e150, so no product overflows; stack with the other matrices zeroed)."""
    if not _square(ms):
        raise ValidationError(f"{name} expects a stack of square matrices, got shape {ms.shape}")
    bounded = (np.maximum(np.abs(ms.real), np.abs(ms.imag)) <= 1e150).all(axis=(-2, -1))
    return bounded, np.where(bounded[..., None, None], ms, 0.0)


def is_unitary_batch(ms: np.ndarray, tol: float = UNITARY_TOL) -> np.ndarray:
    """:func:`is_unitary` of every matrix of a (..., d, d) stack, as a bool array."""
    bounded, ms = _bounded_stack(np.asarray(ms, dtype=complex), "is_unitary_batch")
    resid = ms @ ms.conj().swapaxes(-1, -2) - np.eye(ms.shape[-1])
    return bounded & (np.abs(resid).max(axis=(-2, -1)) <= tol)


def is_density_batch(ms: np.ndarray, tol: float = DENSITY_TOL) -> np.ndarray:
    """:func:`is_density` of every matrix of a (..., d, d) stack, as a bool array."""
    bounded, ms = _bounded_stack(np.asarray(ms, dtype=complex), "is_density_batch")
    adjoint = ms.conj().swapaxes(-1, -2)
    trace = np.trace(ms, axis1=-2, axis2=-1)
    ok = (
        bounded
        & (np.abs(ms - adjoint).max(axis=(-2, -1)) <= tol)
        & (np.abs(trace.real - 1.0) <= tol)
        & (np.abs(trace.imag) <= tol)
    )
    evals = np.linalg.eigvalsh((ms + adjoint) / 2.0)
    return ok & (evals.min(axis=-1) >= -tol)


def is_unitary(m: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    m = np.asarray(m, dtype=complex)
    return m.ndim == 2 and _square(m) and bool(is_unitary_batch(m, tol))


def is_density(m: np.ndarray, tol: float = DENSITY_TOL) -> bool:
    """Hermitian within ``tol``, trace within ``tol`` of 1, eigenvalues >= -tol."""
    m = np.asarray(m, dtype=complex)
    return m.ndim == 2 and _square(m) and bool(is_density_batch(m, tol))


def require_unitary(m: np.ndarray, tol: float = UNITARY_TOL) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise ValidationError(f"unitary must have shape (2, 2), got {m.shape}")
    if not is_unitary(m, tol):
        raise ValidationError("matrix failed the unitarity predicate")
    return m


def require_density(m: np.ndarray, tol: float = DENSITY_TOL) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise ValidationError(f"density operator must have shape (4, 4), got {m.shape}")
    if not is_density(m, tol):
        raise ValidationError("matrix failed the density-operator predicate")
    return m
