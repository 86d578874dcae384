"""Correlation indices and the product statistic for two-qubit scenarios.

Measuring the same Pauli observable on both variables yields outcomes k
and m; the correlation index for axis ``i`` is
``p(k = m | ii) - p(k != m | ii)``. The three indices form a point in the
cube [-1, 1]^3 and their product is the scalar discrimination statistic.

Three scenarios are covered:

* common cause — both qubits prepared jointly in a density operator rho;
* direct cause — the second outcome produced by evolving the first qubit
  with a 2x2 unitary and measuring again;
* a probabilistic mixture of the two.

Probabilities are computed exactly from projectors, so every result is
deterministic. Each correlation point has one implementation, a batch
kernel over a stack of objects; the scalar functions validate their input
once and take row 0 of that kernel, so a scalar call and a row of any
stack give the same bits. ``cc_equal_prob``/``dc_cond_prob`` and the
``*_oracle`` functions are second implementations, kept as the tests'
independent cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConsistencyError, ValidationError
from .qmath import (
    pauli_eigenbasis,
    projector,
    require_density,
    require_unitary,
    tensor_product,
)

__all__ = [
    "PPoint",
    "MixtureScenario",
    "cc_corr_index",
    "cc_pvector",
    "statistic_c",
    "statistic_c_batch",
    "dc_cond_prob",
    "dc_corr_index",
    "dc_pvector",
    "dc_pvector_oracle",
    "mixture_pvector",
    "mixture_pvector_oracle",
    "cc_pvector_batch",
    "dc_pvector_batch",
    "dc_pvector_params_batch",
    "IMAG_TOL",
]

IMAG_TOL = 1e-10
_COMPONENT_SLACK = 1e-9


class PPoint(NamedTuple):
    """Correlation point (c11, c22, c33) in the cube [-1, 1]^3."""

    c11: float
    c22: float
    c33: float

    def as_array(self) -> np.ndarray:
        return np.array(self, dtype=float)

    @classmethod
    def from_array(cls, values) -> "PPoint":
        arr = np.asarray(values, dtype=float)
        if arr.shape != (3,):
            raise ValidationError(f"correlation point needs 3 components, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError(f"correlation components must be finite, got {arr}")
        if np.max(np.abs(arr)) > 1.0 + _COMPONENT_SLACK:
            raise ValidationError(f"correlation components must lie in [-1, 1], got {arr}")
        return cls(float(arr[0]), float(arr[1]), float(arr[2]))


@dataclass(frozen=True)
class MixtureScenario:
    """p-mixture of a joint preparation ``rho`` and a causal evolution ``u``."""

    rho: np.ndarray
    u: np.ndarray
    p: float

    def validate(self) -> "MixtureScenario":
        require_density(self.rho)
        require_unitary(self.u)
        if not 0.0 <= self.p <= 1.0:
            raise ValidationError(f"mixture probability must be in [0, 1], got {self.p}")
        return self


# The fixed measurement axes 1..3: the equal-outcome projectors
# |m0 m0><m0 m0| + |m1 m1><m1 m1|, and the +1 eigenvectors m0.
_EQUAL_PROJ = tuple(
    projector(tensor_product(m0, m0)) + projector(tensor_product(m1, m1))
    for m0, m1 in map(pauli_eigenbasis, (1, 2, 3))
)
_PLUS_EIGVEC = tuple(pauli_eigenbasis(i)[0] for i in (1, 2, 3))
for _m in _EQUAL_PROJ:
    _m.setflags(write=False)


def _check_axis(i: int) -> int:
    if i not in (1, 2, 3):
        raise ValidationError(f"measurement axis must be in 1..3, got {i!r}")
    return i


def _check_residue(imag) -> None:
    worst = float(np.max(np.abs(imag)))
    if worst > IMAG_TOL:
        raise ConsistencyError(
            f"equal-outcome probability: imaginary residue {worst:.3e} exceeds "
            f"{IMAG_TOL:g}; the input is likely corrupted"
        )


def cc_equal_prob(rho: np.ndarray, i: int) -> float:
    """p(k = m | ii) when both qubits of ``rho`` are measured along axis i.

    A per-axis formula, independent of :func:`cc_pvector_batch`; it backs
    :func:`mixture_pvector_oracle`.
    """
    rho = require_density(rho)
    _check_axis(i)
    value = complex(np.trace(rho @ _EQUAL_PROJ[i - 1]))
    _check_residue(value.imag)
    return float(value.real)


def cc_corr_index(rho: np.ndarray, i: int) -> float:
    """Correlation index of the common-cause scenario along axis i."""
    return cc_pvector(rho)[_check_axis(i) - 1]


def cc_pvector(rho: np.ndarray) -> PPoint:
    """Correlation point of a joint preparation."""
    points, residues = _cc_pvector_residue_batch(require_density(rho)[None])
    _check_residue(residues)
    return PPoint(*points[0].tolist())


def statistic_c(p) -> float:
    """Product of the three correlation indices."""
    arr = np.asarray(p, dtype=float)
    if arr.shape != (3,):
        raise ValidationError(f"statistic needs a 3-component point, got shape {arr.shape}")
    return float(statistic_c_batch(arr[None])[0])


def dc_cond_prob(u: np.ndarray, i: int, k: int) -> float:
    """Probability that the evolved qubit repeats eigen-outcome ``k`` on axis i.

    Equals |<m_k| u |m_k>|^2; by unitarity it is the same for k = 0 and
    k = 1, which is what makes the direct-cause indices state-independent.
    """
    u = require_unitary(u)
    _check_axis(i)
    if k not in (0, 1):
        raise ValidationError(f"eigenvector index must be 0 or 1, got {k!r}")
    m = pauli_eigenbasis(i)[k]
    amp = m.conj() @ u @ m
    return float(abs(amp) ** 2)


def dc_corr_index(u: np.ndarray, i: int) -> float:
    """Correlation index of the direct-cause scenario along axis i."""
    return dc_pvector(u)[_check_axis(i) - 1]


def dc_pvector(u: np.ndarray) -> PPoint:
    """Correlation point of a causal evolution."""
    return PPoint(*dc_pvector_batch(require_unitary(u)[None])[0].tolist())


def _unitary_params(u: np.ndarray) -> tuple[float, float, float, float, float]:
    """Recover (a1, a2, b1, b2, alpha) with u = [[a1+i a2, b1+i b2],
    [-e^{i alpha}(b1-i b2), e^{i alpha}(a1-i a2)]].

    Every 2x2 unitary has this form: the second row is the conjugate
    first row rotated by the determinant phase. alpha is taken as the
    phase of det(u); the remaining parameters read off the first row.
    """
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    alpha = float(np.angle(det))
    a1, a2 = float(u[0, 0].real), float(u[0, 0].imag)
    b1, b2 = float(u[0, 1].real), float(u[0, 1].imag)
    return a1, a2, b1, b2, alpha


def dc_pvector_oracle(u: np.ndarray) -> PPoint:
    """Correlation point of a unitary via its sphere-plus-phase parameters.

    The closed form of :func:`dc_pvector_params_batch`, a route independent
    of :func:`dc_pvector`; the tests require the two to agree to 1e-10.
    """
    u = require_unitary(u)
    point = dc_pvector_params_batch(np.array([_unitary_params(u)]))[0]
    return PPoint(*point.tolist())


def mixture_pvector(s: MixtureScenario) -> PPoint:
    """Convex combination p*P(rho) + (1-p)*P(u) of the two scenario points."""
    s.validate()
    cc, residue = _cc_pvector_residue_batch(np.asarray(s.rho)[None])
    _check_residue(residue)
    return PPoint(*(s.p * cc[0] + (1.0 - s.p) * dc_pvector_batch(np.asarray(s.u)[None])[0]))


def mixture_pvector_oracle(s: MixtureScenario) -> PPoint:
    """Correlation point of the mixture evaluated through outcome probabilities.

    Mixes p(k = m | ii) of the two branches before forming the indices;
    agrees with :func:`mixture_pvector` by linearity and serves as its
    independent cross-check.
    """
    s.validate()
    out = []
    for i in (1, 2, 3):
        p_equal = s.p * cc_equal_prob(s.rho, i) + (1.0 - s.p) * dc_cond_prob(s.u, i, 0)
        out.append(2.0 * p_equal - 1.0)
    return PPoint(*out)


# -- batch kernels -----------------------------------------------------------
#
# The one implementation of each correlation point. Inputs are trusted
# (produced by this package or validated by a scalar wrapper), so they skip
# per-object validation. A row's bits do not depend on the other rows or on
# the size of the stack, which the tests check.


def _cc_pvector_residue_batch(
    rhos: np.ndarray, projectors=_EQUAL_PROJ
) -> tuple[np.ndarray, np.ndarray]:
    """Points of a stack of density operators measured with the equal-outcome
    projectors P_i, shape (n, 3), and the imaginary residues of the traces
    tr(rho P_i), which :func:`cc_pvector` checks against ``IMAG_TOL``."""
    rhos = np.asarray(rhos, dtype=complex)
    traces = np.empty((len(rhos), 3), dtype=complex)
    for k, proj in enumerate(projectors):
        np.einsum("nij,ji->n", rhos, proj, out=traces[:, k])
    return 2.0 * traces.real - 1.0, traces.imag


def cc_pvector_batch(rhos: np.ndarray, projectors=_EQUAL_PROJ) -> np.ndarray:
    """Correlation points of a stack of density operators, shape (n, 3), measured
    with the equal-outcome projectors ``projectors`` (default: the fixed axes)."""
    return _cc_pvector_residue_batch(rhos, projectors)[0]


def statistic_c_batch(points: np.ndarray) -> np.ndarray:
    """The statistic C = (c11 * c22) * c33 of each row of ``points``, shape (n,)."""
    return points[:, 0] * points[:, 1] * points[:, 2]


def dc_pvector_params_batch(params: np.ndarray) -> np.ndarray:
    """Correlation points from rows (a1, a2, b1, b2, alpha), shape (n, 3).

    The rows parameterize unitaries as in :func:`_unitary_params`, with
    (a1, a2, b1, b2) on the unit sphere. The arithmetic is elementwise, so
    a row's point does not depend on the other rows of the batch.
    """
    params = np.asarray(params, dtype=float)
    a1, a2, b1, b2, alpha = (params[:, k] for k in range(5))
    sa, ca = np.sin(alpha), np.cos(alpha)
    c = 0.5 + a1 * a2 * sa + 0.5 * ca * (a1 * a1 - a2 * a2)
    d = b1 * b2 * sa + 0.5 * ca * (b1 * b1 - b2 * b2)
    return np.stack(
        [2.0 * (c - d) - 1.0, 2.0 * (c + d) - 1.0, 2.0 * (a1 * a1 + a2 * a2) - 1.0], axis=1
    )


def dc_pvector_batch(us: np.ndarray, eigenvectors=_PLUS_EIGVEC) -> np.ndarray:
    """Correlation points of a stack of 2x2 unitaries, shape (n, 3), measured
    along the axes with +1 eigenvectors m0 ``eigenvectors`` (default: the fixed axes).

    Each amplitude <m0| u |m0> is summed elementwise in row-major (i, j)
    order, so a one-row stack gives the bits of the same row in any stack.
    """
    us = np.asarray(us, dtype=complex)
    u00, u01, u10, u11 = us[:, 0, 0], us[:, 0, 1], us[:, 1, 0], us[:, 1, 1]
    cols = []
    for b in eigenvectors:
        a = b.conj()
        amp = a[0] * u00 * b[0] + a[0] * u01 * b[1] + a[1] * u10 * b[0] + a[1] * u11 * b[1]
        cols.append(2.0 * np.abs(amp) ** 2 - 1.0)
    return np.stack(cols, axis=1)
