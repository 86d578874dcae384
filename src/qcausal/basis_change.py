"""Measurement-basis rotation, the overlap escape experiments and the exact escape test.

Rotating all measurement bases by a single-qubit unitary v maps the
correlation point of a preparation rho to that of (v (x) v)^dag rho
(v (x) v), and the point of an evolution u to that of v^dag u v. The
escape experiment rotates the three measurement axes instead, once per
call, and runs the point kernels over the whole sample: projectors
P'_i = (v (x) v) P_i (v (x) v)^dag, or +1 eigenvectors m'_i = v m0_i. The
transformed objects and the ``pprime_*_oracle`` functions are the tests'
independent routes to the same points.

A point in the octahedral overlap is ambiguous. :func:`escape_witness`
decides exactly whether a rotation moves one object's point out of it;
the escape experiment measures how often a given rotation moves
conditioned samples out. Four reference rotations are embedded at
4-decimal precision and re-unitarized by polar projection (printed
matrices are only approximately unitary).

Reference escape proportions (20000 samples each) are reproduced by pure
preparations and sphere-plus-phase unitaries conditioned on the overlap;
mixed-rank preparations escape far less often, so the experiment defaults
to rank 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlation import (
    _EQUAL_PROJ,
    _PLUS_EIGVEC,
    PPoint,
    _cc_pvector_residue_batch,
    _check_residue,
    cc_pvector_batch,
    dc_pvector_batch,
)
from .errors import ConsistencyError, ValidationError
from .geometry import contains, in_otc, in_otd, in_overlap, tcc, tdc
from .qmath import (
    is_density,
    is_unitary,
    pauli,
    pauli_eigenbasis,
    projector,
    require_density,
    require_unitary,
    tensor_product,
)
from .samplers import SamplerConfig, sample_in_region_batch

__all__ = [
    "EscapeResult",
    "transform_density",
    "transform_unitary",
    "pprime_cc_oracle",
    "pprime_dc_oracle",
    "escape_experiment",
    "escape_witness",
    "ESCAPE_V1",
    "ESCAPE_V2",
    "ESCAPE_V3",
    "ESCAPE_V4",
    "ESCAPE_V_SET",
    "REFERENCE_PROPORTIONS",
    "nearest_unitary",
]

_MEMBERSHIP_TOL = 1e-9
# sigma_1, sigma_2, sigma_3 as one (3, 2, 2) stack.
_SIGMA = np.stack([pauli(i) for i in (1, 2, 3)])


def nearest_unitary(m: np.ndarray) -> np.ndarray:
    """Polar projection onto the unitary group (drops the Hermitian factor)."""
    m = np.asarray(m, dtype=complex)
    w, _, vh = np.linalg.svd(m)
    return w @ vh


def _reference(entries) -> np.ndarray:
    u = nearest_unitary(np.array(entries, dtype=complex))
    u.setflags(write=False)
    return u


ESCAPE_V1 = _reference(
    [[0.1813 - 0.5744j, 0.2656 + 0.7527j], [-0.6807 + 0.4170j, -0.2213 + 0.5602j]]
)
ESCAPE_V2 = _reference(
    [[-0.1080 + 0.7959j, 0.4848 - 0.3461j], [-0.4763 - 0.3577j, -0.0888 - 0.7983j]]
)
ESCAPE_V3 = _reference(
    [[-0.2947 + 0.5266j, 0.7483 - 0.2754j], [-0.6926 - 0.3950j, -0.2039 - 0.5680j]]
)
ESCAPE_V4 = _reference(
    [[0.3482 + 0.3352j, -0.3442 + 0.8050j], [-0.2069 + 0.8507j, 0.4796 - 0.0597j]]
)
ESCAPE_V_SET = (ESCAPE_V1, ESCAPE_V2, ESCAPE_V3, ESCAPE_V4)

# Published escape percentages per reference rotation, (CC, DC) pairs.
REFERENCE_PROPORTIONS = (
    (36.44, 58.91),
    (35.84, 57.32),
    (29.9, 50.64),
    (33.45, 52.56),
)


@dataclass(frozen=True)
class EscapeResult:
    """Outcome of one escape experiment."""

    kind: str
    v: np.ndarray
    n_samples: int
    escaped: int
    proportion: float
    image_in_target: bool


def transform_density(rho: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(v (x) v)^dag rho (v (x) v)."""
    out = _transform_density_batch(require_density(rho), require_unitary(v))
    if not is_density(out, 1e-9):
        raise ConsistencyError("transformed operator failed the density predicate")
    return out


def transform_unitary(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """v^dag u v."""
    out = _transform_unitary_batch(require_unitary(u), require_unitary(v))
    if not is_unitary(out, 1e-10):
        raise ConsistencyError("transformed matrix failed the unitarity predicate")
    return out


def pprime_cc_oracle(rho: np.ndarray, v: np.ndarray) -> PPoint:
    """Rotated-basis correlation point of a preparation, via rotated projectors.

    Uses the projectors onto v|m_k> (x) v|m_k> directly; must equal
    ``cc_pvector(transform_density(rho, v))`` to 1e-10 — the identity is
    asserted in tests, not assumed.
    """
    rho = require_density(rho)
    v = require_unitary(v)
    out = []
    for i in (1, 2, 3):
        m0, m1 = pauli_eigenbasis(i)
        q0 = v @ m0
        q1 = v @ m1
        proj = projector(tensor_product(q0, q0)) + projector(tensor_product(q1, q1))
        value = np.trace(rho @ proj)
        if abs(value.imag) > 1e-10:
            raise ConsistencyError("rotated-projector trace has a large imaginary residue")
        out.append(2.0 * float(value.real) - 1.0)
    return PPoint(*out)


def pprime_dc_oracle(u: np.ndarray, v: np.ndarray) -> PPoint:
    """Rotated-basis correlation point of an evolution, via rotated eigenvectors.

    Uses |(v|m_0>)^dag u (v|m_0>)|^2 directly; must equal
    ``dc_pvector(transform_unitary(u, v))`` to 1e-10.
    """
    u = require_unitary(u)
    v = require_unitary(v)
    out = []
    for i in (1, 2, 3):
        w = v @ pauli_eigenbasis(i)[0]
        amp = w.conj() @ u @ w
        out.append(2.0 * float(abs(amp) ** 2) - 1.0)
    return PPoint(*out)


# The batch transforms broadcast over leading axes; the witness checks itself with
# them, and the tests use them as the oracle of the escape experiment's axes.


def _transform_density_batch(rhos: np.ndarray, vs: np.ndarray) -> np.ndarray:
    vv = (vs[..., :, None, :, None] * vs[..., None, :, None, :]).reshape(vs.shape[:-2] + (4, 4))
    return vv.conj().swapaxes(-1, -2) @ rhos @ vv


def _transform_unitary_batch(us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    return np.einsum("...ji,...jk,...kl->...il", vs.conj(), us, vs)


def _rotated_points(kind: str, objs: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Points of ``objs`` measured along the axes rotated by ``v`` (see module docstring)."""
    if kind == "CC":
        vv = np.kron(v, v)
        return cc_pvector_batch(objs, [vv @ proj @ vv.conj().T for proj in _EQUAL_PROJ])
    return dc_pvector_batch(objs, [v @ m0 for m0 in _PLUS_EIGVEC])


def escape_experiment(
    kind: str,
    v: np.ndarray,
    n: int,
    cfg: SamplerConfig | None = None,
    rng: np.random.Generator | None = None,
) -> EscapeResult:
    """Count overlap-conditioned samples rotated into the decidable region.

    Draws ``n`` objects of ``kind`` with correlation point in the overlap,
    measures them along the axes rotated by ``v``, and counts rotated points
    landing in the corner-cut tetrahedron minus the overlap.
    ``image_in_target`` reports whether every rotated point stayed inside the
    corner-cut tetrahedron (it must, by the conjugation invariants; a rotated
    point outside its full tetrahedron would be an internal error).
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    if kind not in ("CC", "DC"):
        raise ValidationError(f"kind must be 'CC' or 'DC', got {kind!r}")
    v = require_unitary(v)
    cfg = SamplerConfig(density_rank=1) if cfg is None else cfg
    objs = sample_in_region_batch(cfg, kind, "O", n, rng=rng)
    full, cut = (tcc(), in_otc) if kind == "CC" else (tdc(), in_otd)
    pts = _rotated_points(kind, objs, v)
    if not contains(full, pts, _MEMBERSHIP_TOL).all():
        raise ConsistencyError("a rotated point left its tetrahedron")
    in_target = cut(pts, _MEMBERSHIP_TOL)
    escaped = int((in_target & ~in_overlap(pts, _MEMBERSHIP_TOL)).sum())
    return EscapeResult(
        kind=kind,
        v=v,
        n_samples=n,
        escaped=escaped,
        proportion=escaped / n,
        image_in_target=bool(in_target.all()),
    )


def _lift(q: np.ndarray) -> np.ndarray:
    """The SU(2) rotation whose transfer matrix is ``q`` in SO(3), by Shepperd's rule.

    k = 4 t t^T for the quaternion t = (w, x, y, z) of ``q``; t is read off
    the row of k's largest diagonal entry, so it stays exact at angle pi.
    """
    trace = np.trace(q)
    k = np.empty((4, 4))
    k[0, 0], k[1:, 1:] = 1 + trace, q + q.T + (1 - trace) * np.eye(3)
    k[0, 1:] = k[1:, 0] = q[2, 1] - q[1, 2], q[0, 2] - q[2, 0], q[1, 0] - q[0, 1]
    i = np.argmax(np.diag(k))
    w, x, y, z = k[i] / (2.0 * np.sqrt(k[i, i]))
    return np.array([[w - 1j * z, -y - 1j * x], [y - 1j * x, w + 1j * z]])


def escape_witness(
    kind: str, target, tol: float = _MEMBERSHIP_TOL
) -> tuple[float, np.ndarray | None]:
    """Decide exactly whether a rotation moves one ambiguous object out of the overlap.

    The point of ``target`` (a density operator for 'CC', a unitary for 'DC')
    is the diagonal of M: T_ij = tr(rho sigma_i (x) sigma_j), or the transfer
    matrix R_ij = tr(sigma_i u sigma_j u^dag)/2. A rotation v maps M to
    Q^T M Q, Q the transfer matrix of v, so by Schur-Horn the largest
    |c11| + |c22| + |c33| reached is sum |lambda(S)|, S = (M + M^T)/2, at the
    Q that diagonalises S. Returns (margin = sum |lambda(S)| - 1, v): v lifts
    that Q if it moves the point into its tetrahedron and out of the overlap
    at ``tol``, else None. The target's point must lie in the overlap at
    ``tol``. ``ConsistencyError`` if a check of the scalar API fails on v or
    the moved object, or a margin past ``tol`` does not escape.
    """
    if kind == "CC":
        target = require_density(target)
        m = np.einsum("iab,jcd,bdac->ij", _SIGMA, _SIGMA, target.reshape(2, 2, 2, 2)).real
    elif kind == "DC":
        target = require_unitary(target)
        m = np.einsum("iab,bc,jcd,ad->ij", _SIGMA, target, _SIGMA, target.conj()).real / 2.0
    else:
        raise ValidationError(f"kind must be 'CC' or 'DC', got {kind!r}")
    if not in_overlap(np.diag(m), tol):
        raise ValidationError("target's correlation point is already outside the overlap")
    lam, q = np.linalg.eigh((m + m.T) / 2.0)
    q[:, 0] *= np.sign(np.linalg.det(q))
    margin = float(np.abs(lam).sum() - 1.0)
    v = _lift(q)
    if kind == "CC":
        moved = _transform_density_batch(target, v)
        point, residue = _cc_pvector_residue_batch(moved[None])
        ok, tetra = is_density(moved, 1e-9), tcc()
    else:
        moved = _transform_unitary_batch(target, v)
        point, residue = dc_pvector_batch(moved[None]), 0.0
        ok, tetra = is_unitary(moved, 1e-10), tdc()
    if not (is_unitary(v) and ok):
        raise ConsistencyError("escape witness: the rotation or moved object failed a predicate")
    _check_residue(residue)
    if contains(tetra, point[0], tol) and not in_overlap(point[0], tol):
        return margin, v
    if margin > tol + 1e-12:  # the witness reaches 1 + margin up to rounding
        raise ConsistencyError(f"escape witness: margin {margin:.3e}, but no escape")
    return margin, None
