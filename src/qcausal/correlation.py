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

Every point is read off one quantity, the correlation matrix M: T_ij =
tr(rho sigma_i (x) sigma_j) for a preparation, the transfer matrix R_ij =
tr(sigma_i u sigma_j u^dag) / 2 for an evolution (Horodecki & Horodecki,
PRA 54:1838, 1996). The point is diag(M); along axes rotated by v it is
diag(Q^T M Q), Q the transfer matrix of v (:func:`rotated_pvector_batch`).
M has one implementation in real arithmetic, whose bits do not depend on
numpy's SIMD loops, and two ways in:

* sampled draws: :func:`correlation_matrix_batch` takes M straight from
  the drawn components, without building an object;
* objects: a density operator gives the same CC formula the real and
  imaginary parts of its Hermitian part, read entry by entry, so the
  anti-Hermitian part that validation tolerates never reaches a point; a
  unitary gives the DC formula its first row and the phase of its
  determinant (:func:`_object_matrix`).

The scalar functions validate their input once and take row 0 of the batch
kernel, so a scalar call and a row of any stack give the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .qmath import require_density, require_unitary

__all__ = [
    "PPoint",
    "MixtureScenario",
    "cc_corr_index",
    "cc_pvector",
    "statistic_c",
    "statistic_c_batch",
    "dc_corr_index",
    "dc_pvector",
    "mixture_pvector",
    "cc_pvector_batch",
    "dc_pvector_batch",
    "dc_pvector_params_batch",
    "correlation_matrix_batch",
    "dc_transfer_matrix",
    "rotated_pvector_batch",
]

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


def _check_axis(i: int) -> int:
    if i not in (1, 2, 3):
        raise ValidationError(f"measurement axis must be in 1..3, got {i!r}")
    return i


def cc_corr_index(rho: np.ndarray, i: int) -> float:
    """Correlation index of the common-cause scenario along axis i."""
    return cc_pvector(rho)[_check_axis(i) - 1]


def cc_pvector(rho: np.ndarray) -> PPoint:
    """Correlation point of a joint preparation."""
    return PPoint(*cc_pvector_batch(require_density(rho)[None])[0].tolist())


def statistic_c(p) -> float:
    """Product of the three correlation indices."""
    arr = np.asarray(p, dtype=float)
    if arr.shape != (3,):
        raise ValidationError(f"statistic needs a 3-component point, got shape {arr.shape}")
    return float(statistic_c_batch(arr[None])[0])


def dc_corr_index(u: np.ndarray, i: int) -> float:
    """Correlation index of the direct-cause scenario along axis i."""
    return dc_pvector(u)[_check_axis(i) - 1]


def dc_pvector(u: np.ndarray) -> PPoint:
    """Correlation point of a causal evolution."""
    return PPoint(*dc_pvector_batch(require_unitary(u)[None])[0].tolist())


def mixture_pvector(s: MixtureScenario) -> PPoint:
    """Convex combination p*P(rho) + (1-p)*P(u) of the two scenario points."""
    s.validate()
    cc, dc = cc_pvector_batch(np.asarray(s.rho)[None]), dc_pvector_batch(np.asarray(s.u)[None])
    return PPoint(*(s.p * cc[0] + (1.0 - s.p) * dc[0]))


# -- batch kernels -----------------------------------------------------------
#
# The one implementation of each correlation point. Inputs are trusted
# (produced by this package or validated by a scalar wrapper), so they skip
# per-object validation. A row's bits do not depend on the other rows or on
# the size of the stack, which the tests check.


def cc_pvector_batch(rhos: np.ndarray) -> np.ndarray:
    """Correlation points of a stack of density operators, shape (n, 3)."""
    return np.stack(_object_matrix("CC", rhos, diagonal=True), axis=1)


def statistic_c_batch(points: np.ndarray) -> np.ndarray:
    """The statistic C = (c11 * c22) * c33 of each row of ``points``, shape (n,)."""
    return points[:, 0] * points[:, 1] * points[:, 2]


def _dc_diagonal(a1, a2, b1, b2, sa, ca):
    """(R11, R22, R33), elementwise, of the unitaries [[a1 + i a2, b1 + i b2],
    [-e^{i alpha}(b1 - i b2), e^{i alpha}(a1 - i a2)]], (a1, a2, b1, b2) on the
    unit sphere, sa, ca = sin(alpha), cos(alpha). Every 2x2 unitary has this form."""
    a11, a22, half_ca = a1 * a1, a2 * a2, 0.5 * ca
    c = 0.5 + a1 * a2 * sa + half_ca * (a11 - a22)
    d = b1 * b2 * sa + half_ca * (b1 * b1 - b2 * b2)
    return 2.0 * (c - d) - 1.0, 2.0 * (c + d) - 1.0, 2.0 * (a11 + a22) - 1.0


def dc_pvector_params_batch(params: np.ndarray) -> np.ndarray:
    """Correlation points from rows (a1, a2, b1, b2, alpha) (see :func:`_dc_diagonal`),
    shape (n, 3); a row's point does not depend on the other rows."""
    a1, a2, b1, b2, alpha = np.asarray(params, dtype=float).T
    return np.stack(_dc_diagonal(a1, a2, b1, b2, np.sin(alpha), np.cos(alpha)), axis=1)


def dc_transfer_matrix(a1, a2, b1, b2, sa, ca) -> list:
    """Rows of R_ij = tr(sigma_i u sigma_j u^dag) / 2 for the parameters of
    :func:`_dc_diagonal`, elementwise over floats or arrays. With A = a1^2 - a2^2,
    B = b1^2 - b2^2, P = 2 a1 a2, P' = 2 b1 b2: R12 = cos (P + P') - sin (A + B)."""
    big_a, big_b, p, p2 = a1 * a1 - a2 * a2, b1 * b1 - b2 * b2, 2.0 * a1 * a2, 2.0 * b1 * b2
    even, odd = a1 * b1 - a2 * b2, a1 * b2 + a2 * b1
    r11, r22, r33 = _dc_diagonal(a1, a2, b1, b2, sa, ca)
    return [
        [r11, ca * (p + p2) - sa * (big_a + big_b), -2.0 * (ca * even + sa * odd)],
        [sa * (big_a - big_b) - ca * (p - p2), r22, 2.0 * (ca * odd - sa * even)],
        [2.0 * (a1 * b1 + a2 * b2), 2.0 * (a2 * b1 - a1 * b2), r33],
    ]


def _cc_matrix(bilinears, lam, diagonal: bool) -> list:
    """[T11, T22, T33], or the rows of (T + T^T) / 2, of sum_r lam_r rho_r (one
    term of weight 1 if ``lam`` is None). Term r comes as its bilinears (g, h):
    g(a, b) + i h(a, b) is (rho_r)_ba times a positive scale, which the term's
    trace ((g(0, 0) + g(1, 1)) + g(2, 2)) + g(3, 3) divides out before the
    weight lam_r. Only the Hermitian part of rho_r enters: g is symmetric, and
    h is read only above the diagonal."""
    total = None
    for r, (g, h) in enumerate(bilinears):
        g00, g11, g22, g33 = (g(a, a) for a in range(4))
        g03, g12 = g(0, 3), g(1, 2)
        terms = [2.0 * (g03 + g12), 2.0 * (g12 - g03), (g00 + g33) - (g11 + g22)]
        if not diagonal:
            terms += [2.0 * h(0, 3), (g(0, 1) + g(0, 2)) - (g(1, 3) + g(2, 3)),
                      (h(0, 1) + h(0, 2)) - (h(1, 3) + h(2, 3))]
        norm = ((g00 + g11) + g22) + g33
        terms = [t / norm if lam is None else t / norm * lam[r] for t in terms]
        total = terms if total is None else [s + t for s, t in zip(total, terms)]
    if diagonal:
        return total
    t11, t22, t33, s12, s13, s23 = total
    return [[t11, s12, s13], [s12, t22, s23], [s13, s23, t33]]


def _pure_bilinears(x, y):
    """(g, h) of the pure state psi = x + i y: g_ab + i h_ab = conj(psi_a) psi_b."""
    return (lambda a, b: x[a] * x[b] + y[a] * y[b]), (lambda a, b: x[a] * y[b] - y[a] * x[b])


def correlation_matrix_batch(kind: str, components: tuple, diagonal: bool = False) -> list:
    """Rows of (n,) entries of M, symmetrized for 'CC' (only that part reaches a
    point), or with ``diagonal`` the point [M11, M22, M33], from the drawn
    ``components`` (``samplers.kernel_components``): for 'CC' the real and
    imaginary parts of the pure components, (rank, 4, n) each, and above rank 1
    their weights, (rank, n); for 'DC' the rows (a1, a2, b1, b2, alpha)."""
    if kind == "CC":
        lam = components[2] if len(components) > 2 else None
        return _cc_matrix(map(_pure_bilinears, components[0], components[1]), lam, diagonal)
    a1, a2, b1, b2, alpha = components
    sa, ca = np.sin(alpha), np.cos(alpha)
    if diagonal:
        return list(_dc_diagonal(a1, a2, b1, b2, sa, ca))
    return dc_transfer_matrix(a1, a2, b1, b2, sa, ca)


def _object_matrix(kind: str, objs: np.ndarray, diagonal: bool = False) -> list:
    """:func:`correlation_matrix_batch` of a stack of objects, its entries (n,) arrays,
    or of one object, its entries floats: density operators for 'CC', read as their
    Hermitian parts, g_ab = (Re rho_ab + Re rho_ba) / 2 and h_ab = (Im rho_ba -
    Im rho_ab) / 2; 2x2 unitaries for 'DC', as the parameters of :func:`_dc_diagonal`,
    from the first row and the phase of the determinant."""
    objs = np.asarray(objs, dtype=complex)
    # entry (a, b) of every object at [b, a]: a float for one object, else an (n,) array
    re, im = objs.real.T, objs.imag.T
    if kind == "CC":
        g, h = (re + re.swapaxes(0, 1)) / 2.0, (im - im.swapaxes(0, 1)) / 2.0
        return _cc_matrix([(lambda a, b: g[a, b], lambda a, b: h[a, b])], None, diagonal)
    (p1, r1), (q1, t1) = re
    (p2, r2), (q2, t2) = im
    det_re = (p1 * t1 - p2 * t2) - (q1 * r1 - q2 * r2)
    det_im = (p1 * t2 + p2 * t1) - (q1 * r2 + q2 * r1)
    modulus = np.sqrt(det_re * det_re + det_im * det_im)
    params = p1, p2, q1, q2, det_im / modulus, det_re / modulus
    return list(_dc_diagonal(*params)) if diagonal else dc_transfer_matrix(*params)


def rotated_pvector_batch(m: list, q) -> np.ndarray:
    """diag(Q^T M Q), shape (n, 3): the points of the objects with matrices ``m``
    measured along axes rotated by a v with transfer matrix ``q`` (3x3 floats).
    Entry k sums q_ik^2 M_ii, then q_ik q_jk (M_ij + M_ji) for i < j, in ascending order:
    six products from the symmetric part of M, into row k of a (3, n) array, transposed."""
    parts = (m[0][0], m[1][1], m[2][2], m[0][1] + m[1][0], m[0][2] + m[2][0], m[1][2] + m[2][1])
    out = np.zeros((3, len(parts[0])))
    for row, (a, b, c) in zip(out, zip(*q)):
        for coef, part in zip((a * a, b * b, c * c, a * b, a * c, b * c), parts):
            row += coef * part
    return out.T


def dc_pvector_batch(us: np.ndarray) -> np.ndarray:
    """Correlation points of a stack of 2x2 unitaries, shape (n, 3)."""
    return np.stack(_object_matrix("DC", us, diagonal=True), axis=1)
