"""Measurement-basis rotation, the overlap escape experiments and the exact escape test.

Rotating all measurement bases by a single-qubit unitary v maps the
correlation point of a preparation rho to that of (v (x) v)^dag rho
(v (x) v), and the point of an evolution u to that of v^dag u v. Both map
the correlation matrix M to Q^T M Q, Q the transfer matrix of v, so no
rotated object is ever built. The escape experiment takes M from the drawn
components of the overlap sample, a block of rows at a time, and the
points diag(Q^T M Q) of every rotation asked for, each Q built once per
call. The escape witness takes M of one object by the correlation module's
object route, and its moved point the same way. The transformed objects
are the tests' independent route to the same points.

A point in the octahedral overlap is ambiguous. :func:`escape_witness`
decides exactly whether a rotation moves one object's point out of it;
the escape experiment measures how often a given rotation moves
conditioned samples out. Four reference rotations are printed at 4-decimal
precision, which is only approximately unitary; they are embedded as the
exact floats of their polar projections.

Reference escape proportions (20000 samples each) are reproduced by pure
preparations and sphere-plus-phase unitaries conditioned on the overlap;
mixed-rank preparations escape far less often, so the experiment defaults
to rank 1.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from .correlation import _object_matrix, correlation_matrix_batch, rotated_pvector_batch
from .errors import ConsistencyError, ValidationError
from .geometry import _ESCAPE_RUNS, _SIGNS, RegionLabel, _face_masks, classify
from .qmath import is_density, is_unitary, require_density, require_unitary
from .samplers import SamplerConfig, _region_chunks

__all__ = [
    "EscapeResult",
    "transform_density",
    "transform_unitary",
    "escape_experiment",
    "escape_witness",
    "ESCAPE_V1",
    "ESCAPE_V2",
    "ESCAPE_V3",
    "ESCAPE_V4",
    "ESCAPE_V_SET",
    "REFERENCE_PROPORTIONS",
]

_MEMBERSHIP_TOL = 1e-9
# Accepted rows per block of the escape kernel: M is built for one block at a time,
# so the kernel's memory does not grow with n.
_BLOCK = 2**14
# The rounding slack of the escape witness, whose point reaches 1 + margin only
# up to a few ulps of 1: at a smaller tol, rounding alone would decide its exit.
_WITNESS_SLACK = 1e-12


def _pinned(entries) -> np.ndarray:
    u = np.array(entries, dtype=complex)
    u.setflags(write=False)
    return u


# The polar projections (U = W V^H of the SVD W S V^H) of the printed 4-decimal
# matrices, as exact floats: no LAPACK build decides their bits.
ESCAPE_V_SET = ESCAPE_V1, ESCAPE_V2, ESCAPE_V3, ESCAPE_V4 = tuple(map(_pinned, (
    [[0.1812977060048415 - 0.5744062363134501j, 0.26561544313414237 + 0.7527529832888425j],
     [-0.6806733623888818 + 0.41698008491511124j, -0.22130038337992838 + 0.5602120338178194j]],
    [[-0.10801167118659176 + 0.7959302901053672j, 0.48480246609197025 - 0.3461141734332915j],
     [-0.47631779392257956 - 0.3577007287845432j, -0.08879277535198472 - 0.7983028190261052j]],
    [[-0.2947353903020513 + 0.5266228882058878j, 0.7482956336653288 - 0.275414284231213j],
     [-0.6926507609050676 - 0.3950117805063769j, -0.2038818480332052 - 0.5680077541032151j]],
    [[0.3481639814026977 + 0.3351897532183231j, -0.34417558154585737 + 0.8049676021175217j],
     [-0.20688132449387583 + 0.850664322142948j, 0.4795919878904766 - 0.05968126808303923j]],
)))

# Published escape percentages per reference rotation, (CC, DC) pairs.
REFERENCE_PROPORTIONS = ((36.44, 58.91), (35.84, 57.32), (29.9, 50.64), (33.45, 52.56))


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


# The batch transforms broadcast over leading axes; the tests use them as the oracle
# of the escape experiment's axes and of the escape witness.


def _transform_density_batch(rhos: np.ndarray, vs: np.ndarray) -> np.ndarray:
    vv = (vs[..., :, None, :, None] * vs[..., None, :, None, :]).reshape(vs.shape[:-2] + (4, 4))
    return vv.conj().swapaxes(-1, -2) @ rhos @ vv


def _transform_unitary_batch(us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    return vs.conj().swapaxes(-1, -2) @ us @ vs


def escape_experiment(
    kind: str,
    v: np.ndarray,
    n: int,
    cfg: SamplerConfig | None = None,
    rng: np.random.Generator | None = None,
) -> EscapeResult:
    """Count overlap-conditioned samples rotated into the decidable region.

    Draws ``n`` objects of ``kind`` with correlation point in the overlap (their
    components, see ``samplers.sample_region_components``) from ``rng``, by default
    ``cfg.rng()``, measures them along the axes rotated by ``v``, and counts rotated
    points landing in the corner-cut tetrahedron minus the overlap: ``table2``'s
    kernel with the one rotation ``v``. ``image_in_target`` reports whether every
    rotated point stayed inside the corner-cut tetrahedron (it must, by the
    conjugation invariants; one outside its full tetrahedron is an internal error).
    """
    cfg = SamplerConfig(density_rank=1) if cfg is None else cfg
    return _escape_counts(kind, [v], n, cfg, cfg.rng() if rng is None else rng)[0]


def _blocks(chunks, rows: int):
    """The chunks' columns joined into blocks of ``rows`` rows or more, the last one less."""
    pending, count = [], 0
    for chunk in chunks:
        pending.append(chunk)
        count += chunk[-1].shape[-1]
        if count >= rows:
            yield tuple(np.concatenate(columns, axis=-1) for columns in zip(*pending))
            pending, count = [], 0
    if pending:
        yield tuple(np.concatenate(columns, axis=-1) for columns in zip(*pending))


def _escape_counts(kind: str, rotations: list, n: int, cfg: SamplerConfig, rng) -> list:
    """The escape experiment of each of ``rotations`` on one stream of ``n`` overlap
    objects of ``kind`` drawn from ``rng``. M is built once per block of about
    ``_BLOCK`` accepted rows, and each rotation takes diag(Q^T M Q) of it and one
    pass over the eight faces. A row's point does not depend on its block, so the
    counts are those of the whole stream at once."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    if kind not in ("CC", "DC"):
        raise ValidationError(f"kind must be 'CC' or 'DC', got {kind!r}")
    rotations = [require_unitary(v) for v in rotations]
    qs = [_object_matrix("DC", v) for v in rotations]
    escaped, inside = [0] * len(qs), [True] * len(qs)
    runs = _ESCAPE_RUNS[kind]
    for block in _blocks(_region_chunks(cfg, kind, "O", n, rng, _MEMBERSHIP_TOL), _BLOCK):
        m = correlation_matrix_batch(kind, block)
        for k, q in enumerate(qs):
            pts = rotated_pvector_batch(m, q)
            full, in_target, rest = _face_masks(pts, _SIGNS, 1.0, _MEMBERSHIP_TOL, runs)
            if not full.all():
                raise ConsistencyError("a rotated point left its tetrahedron")
            # Inside the tetrahedron, the cut face alone decides the corner-cut region,
            # and the overlap is that region inside the other three mirror faces.
            escaped[k] += int((in_target & ~rest).sum())
            inside[k] = inside[k] and bool(in_target.all())
    return [EscapeResult(kind, v, n, e, e / n, t) for v, e, t in zip(rotations, escaped, inside)]


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
    that Q if :func:`classify` labels the moved point diag(Q'^T M Q'), Q' the
    transfer matrix of v, CC_ONLY (for 'CC') or DC_ONLY (for 'DC') at ``tol``,
    or at the rounding slack 1e-12 if ``tol`` is smaller, else None. M is the
    point kernel's, read from the Hermitian part of a density operator, and the
    target's point diag(M) must be labelled AMBIGUOUS at ``tol``.
    ``ConsistencyError`` if v fails the unitarity predicate, or a margin past
    ``tol`` does not escape.
    """
    if kind == "CC":
        target, own = require_density(target), RegionLabel.CC_ONLY
    elif kind == "DC":
        target, own = require_unitary(target), RegionLabel.DC_ONLY
    else:
        raise ValidationError(f"kind must be 'CC' or 'DC', got {kind!r}")
    s = np.array(_object_matrix(kind, target))
    if classify(np.diag(s), tol) is not RegionLabel.AMBIGUOUS:
        raise ValidationError("target's correlation point is already outside the overlap")
    lam, q = np.linalg.eigh((s + s.T) / 2.0)
    q[:, 0] *= np.sign(np.linalg.det(q))
    margin = float(np.abs(lam).sum() - 1.0)
    v = _lift(q)
    if not is_unitary(v):
        raise ConsistencyError("escape witness: the rotation failed the unitarity predicate")
    moved = rotated_pvector_batch(s[..., None], _object_matrix("DC", v))[0]
    with contextlib.suppress(ValidationError):  # rounded out of the cube: no escape
        if classify(moved, max(tol, _WITNESS_SLACK)) is own:
            return margin, v
    if margin > tol + _WITNESS_SLACK:
        raise ConsistencyError(f"escape witness: margin {margin:.3e}, but no escape")
    return margin, None
