"""Correlation-polytope geometry for the causal-discrimination picture.

Every region is cut out of the cube [-1, 1]^3 by sign faces s . c <= 1,
s in {-1, 1}^3, and the eight of them form one read-only table. The four
with an even number of minus signs bound the tetrahedron of joint
preparations (vertices at the four entangled-basis points); the four with
an odd number bound its mirror image, the tetrahedron of causal evolutions
(vertices at the four Pauli points). All eight bound their intersection,
the octahedron whose vertices are the six cube face centers; inside it the
base statistic cannot discriminate, and a point inside both tetrahedra is
labelled ambiguous.

Each tetrahedron also has a "reachable-after-rotation" variant: its four
faces plus the mirror face across one corner (the sign row equal to that
corner), which conjugation invariants make unreachable from the overlap.
For a preparation it is (-1, -1, -1): the fourth barycentric coordinate is
the singlet population, which collective single-qubit rotations preserve.
For an evolution it is (1, 1, 1): the first barycentric coordinate is
|tr u|^2 / 4, which conjugation preserves. Containment is closed (within
tolerance), so the cut faces themselves stay classifiable.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .qmath import bell

__all__ = [
    "Tetrahedron",
    "RegionLabel",
    "tcc",
    "tdc",
    "contains",
    "in_overlap",
    "in_otc",
    "in_otd",
    "classify",
    "classify_batch",
    "barycentric",
    "state_from_weights",
    "unitary_from_probs",
]

WEIGHT_NEG_TOL = 1e-12
WEIGHT_SUM_TOL = 1e-10


class RegionLabel(enum.Enum):
    """Classification of a correlation point."""

    CC_ONLY = "CC_ONLY"
    DC_ONLY = "DC_ONLY"
    AMBIGUOUS = "AMBIGUOUS"
    MIXTURE_REQUIRED = "MIXTURE_REQUIRED"


@dataclass(frozen=True, eq=False)
class Tetrahedron:
    """Non-degenerate tetrahedron given by its four vertices.

    ``halfspaces``/``offsets`` hold one face inequality per row, with the
    interior described by ``row . p <= offset``; normals are scaled to
    max-abs 1, so for the two canonical tetrahedra the rows are exactly
    the sign vectors +-c11 +-c22 +-c33 <= 1 (even number of minus signs
    for the preparation tetrahedron, odd for the evolution one).
    """

    vertices: np.ndarray
    halfspaces: np.ndarray = field(init=False)
    offsets: np.ndarray = field(init=False)

    def __post_init__(self):
        verts = np.asarray(self.vertices, dtype=float)
        if verts.shape != (4, 3):
            raise ValidationError(f"tetrahedron needs 4 3-d vertices, got {verts.shape}")
        object.__setattr__(self, "vertices", verts)
        if self.volume() < 1e-12:
            raise ValidationError("degenerate tetrahedron (volume ~ 0)")
        rows = []
        offs = []
        for j in range(4):
            face = np.delete(verts, j, axis=0)
            normal = np.cross(face[1] - face[0], face[2] - face[0])
            offset = normal @ face[0]
            if normal @ verts[j] > offset:  # orient inward: opposite vertex on <= side
                normal, offset = -normal, -offset
            scale = np.abs(normal).max()
            rows.append(normal / scale)
            offs.append(offset / scale)
        halfspaces = np.asarray(rows, dtype=float)
        offsets = np.asarray(offs, dtype=float)
        object.__setattr__(self, "halfspaces", halfspaces)
        object.__setattr__(self, "offsets", offsets)
        verts.setflags(write=False)
        halfspaces.setflags(write=False)
        offsets.setflags(write=False)

    def volume(self) -> float:
        edges = self.vertices[1:] - self.vertices[0]
        return abs(np.linalg.det(edges)) / 6.0


_TCC = Tetrahedron([[1, -1, 1], [-1, 1, 1], [1, 1, -1], [-1, -1, -1]])
_TDC = Tetrahedron([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])

# The eight sign faces s . c <= 1 (see module docstring): rows 0-3 bound tcc(),
# rows 4-7 tdc(). Face j of a tetrahedron lies opposite vertex j, so the mirror
# face across tcc()'s removed corner (-1, -1, -1) is row 4, and the one across
# tdc()'s (1, 1, 1) is row 3. Every canonical region is a run of rows.
_SIGNS = np.vstack([_TCC.halfspaces, _TDC.halfspaces])
_SIGNS.setflags(write=False)
_ROWS = {"TCC": slice(0, 4), "TDC": slice(4, 8), "OTC": slice(0, 5), "OTD": slice(3, 8)}
# The escape experiment's one pass, by kind: the tetrahedron's rows, its cut face,
# and the other three mirror rows.
_ESCAPE_RUNS = {"CC": (slice(0, 4), slice(4, 5), slice(5, 8)),
                "DC": (slice(4, 8), slice(3, 4), slice(0, 3))}


def tcc() -> Tetrahedron:
    """Tetrahedron of common-cause correlation points (entangled-basis order)."""
    return _TCC


def tdc() -> Tetrahedron:
    """Tetrahedron of direct-cause correlation points (Pauli order)."""
    return _TDC


def _points(p) -> np.ndarray:
    arr = np.asarray(p, dtype=float)
    if arr.shape[-1] != 3:
        raise ValidationError(f"correlation points need 3 components, got shape {arr.shape}")
    return arr


def _check_tol(tol: float) -> None:
    """``ValidationError`` unless ``tol >= 0``; NaN fails it, as no comparison with NaN holds."""
    if not tol >= 0:
        raise ValidationError(f"tolerance must be >= 0, got {tol!r}")


def _face_masks(arr: np.ndarray, normals: np.ndarray, offsets, tol: float, runs=(slice(None),)):
    """One mask per run of faces: ``normal . p <= offset + tol`` for every face in the run.

    Each face sum is ``(a x + b y) + c z`` over contiguous columns, and each shared
    partial sum is computed once: for the +-1/0 normals used here that gives a
    matmul's bits, without a BLAS thread pool in every forked worker. A face and its
    negation share one sum S (``-S <= d`` is ``S >= -d``), and a +-1 coefficient adds
    or subtracts its column, exactly for any normals: eight sign faces, four sums. A
    single point takes the same sums in Python floats, a fifth of the array calls' cost.
    """
    _check_tol(tol)
    faces = list(zip(normals.tolist(), np.full(len(normals), offsets + tol).tolist()))
    if arr.size == 3:
        x, y, z = arr.ravel().tolist()
        inside = [all(a * x + b * y + c * z <= d for (a, b, c), d in faces[run]) for run in runs]
        return [np.full(arr.shape[:-1], ok) for ok in inside]
    x, y, z = np.ascontiguousarray(np.moveaxis(arr, -1, 0))
    def plus(left, coef, column):  # left + coef * column
        return left + column if coef == 1 else left - column if coef == -1 else left + coef * column
    head = functools.cache(lambda a, b: plus(x if a == 1 else a * x, b, y))
    total = functools.cache(lambda a, b, c: plus(head(a, b), c, z))
    masks = [np.ones(x.shape, dtype=bool) for _ in runs]
    for mask, run in zip(masks, runs):
        for normal, bound in faces[run]:
            sign = next((1 if v > 0 else -1 for v in normal if v), 1)  # a face or its negation
            a, b, c = (sign * v for v in normal)
            mask &= total(a, b, c) <= bound if sign == 1 else total(a, b, c) >= -bound
    return masks


def _member(normals: np.ndarray, offsets, p, tol: float = 0.0):
    """Closed membership in the intersection of ``normal . p <= offset``, within ``tol``."""
    arr = _points(p)
    (result,) = _face_masks(arr, normals, offsets, tol)
    return bool(result) if arr.ndim == 1 else result


def contains(t: Tetrahedron, p, tol: float = 0.0):
    """Closed containment test; broadcasts over leading axes of ``p``."""
    return _member(t.halfspaces, t.offsets, p, tol)


def in_overlap(p, tol: float = 0.0):
    """Membership in the octahedral overlap: all eight sign faces, as one comparison.

    ``(|x| + |y|) + |z| <= 1 + tol`` has the bits of the eight face tests
    ``(a x + b y) + c z <= 1 + tol``: multiplying by +-1 is exact and rounding
    is monotone, so the face whose signs match the point's gives the largest sum.
    """
    _check_tol(tol)
    arr = np.abs(_points(p))
    inside = (arr[..., 0] + arr[..., 1]) + arr[..., 2] <= 1.0 + tol
    return bool(inside) if arr.ndim == 1 else inside


def in_otc(p, tol: float = 0.0):
    """Preparation tetrahedron minus its unreachable corner (beyond the cut face)."""
    return _member(_SIGNS[_ROWS["OTC"]], 1.0, p, tol)


def in_otd(p, tol: float = 0.0):
    """Evolution tetrahedron minus its unreachable corner (beyond the cut face)."""
    return _member(_SIGNS[_ROWS["OTD"]], 1.0, p, tol)


def classify(p, tol: float = 1e-9) -> RegionLabel:
    """Classify one correlation point inside the cube.

    Exactly one label applies: points in the overlap are AMBIGUOUS, points
    in exactly one tetrahedron are CC_ONLY / DC_ONLY, the rest of the cube
    needs a mixture.
    """
    arr = _points(p)
    if arr.ndim != 1:
        raise ValidationError("classify expects a single point; use classify_batch")
    return _LABELS[_classify_codes(arr[None], tol)[0]]


# The codes of _classify_codes index this table.
_LABELS = tuple(RegionLabel)
_LABEL_NAMES = np.array([label.value for label in _LABELS], dtype=object)
_CODE = {label: code for code, label in enumerate(_LABELS)}


def _classify_codes(pts: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Vectorized :func:`classify` as uint8 codes into ``_LABEL_NAMES``: one pass
    over each tetrahedron's four faces, and the overlap is inside both."""
    _check_tol(tol)
    arr = _points(pts)
    if not np.isfinite(arr).all():
        raise ValidationError("a correlation point has a non-finite component")
    if np.abs(arr).max() > 1.0 + tol:
        raise ValidationError("a correlation point lies outside the correlation cube")
    in_tcc, in_tdc = _face_masks(arr, _SIGNS, 1.0, tol, (_ROWS["TCC"], _ROWS["TDC"]))
    codes = np.full(arr.shape[0], _CODE[RegionLabel.MIXTURE_REQUIRED], dtype=np.uint8)
    codes[in_tcc] = _CODE[RegionLabel.CC_ONLY]
    codes[in_tdc] = _CODE[RegionLabel.DC_ONLY]
    codes[in_tcc & in_tdc] = _CODE[RegionLabel.AMBIGUOUS]
    return codes


def classify_batch(pts: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Vectorized :func:`classify`; returns an array of label strings."""
    return _LABEL_NAMES[_classify_codes(pts, tol)]


def barycentric(t: Tetrahedron, p, tol: float = 1e-9) -> np.ndarray:
    """Barycentric weights of ``p`` in ``t`` = ``tcc()`` or ``tdc()`` (point must lie inside).

    The weights have the closed form ``w_j = (vertex_j . p + 1) / 4``.
    """
    if t is not _TCC and t is not _TDC:
        raise ValidationError("barycentric weights are defined for tcc() and tdc() only")
    arr = _points(p)
    if arr.ndim != 1:
        raise ValidationError("barycentric expects a single point")
    if not contains(t, arr, tol):
        raise ValidationError(f"point {arr} lies outside the tetrahedron")
    w = np.clip((t.vertices @ arr + 1.0) / 4.0, 0.0, None)
    return w / w.sum()


def _check_weights(w) -> np.ndarray:
    arr = np.asarray(w, dtype=float)
    if arr.shape != (4,):
        raise ValidationError(f"weights need 4 components, got shape {arr.shape}")
    if arr.min() < -WEIGHT_NEG_TOL:
        raise ValidationError(f"weights must be non-negative, got {arr}")
    if abs(arr.sum() - 1.0) > WEIGHT_SUM_TOL:
        raise ValidationError(f"weights must sum to 1, got sum {arr.sum()!r}")
    return np.clip(arr, 0.0, None)


def state_from_weights(w) -> np.ndarray:
    """Real pure state sum_j sqrt(w_j) |b_j> realizing the point sum_j w_j vertex_j."""
    weights = _check_weights(w)
    state = sum(np.sqrt(wj) * bell(j) for j, wj in enumerate(weights, start=1))
    return state / np.linalg.norm(state)


def unitary_from_probs(w) -> np.ndarray:
    """Unitary realizing the point sum_j w_j vertex_j of the evolution tetrahedron.

    Takes weights in Pauli order and uses the zero-phase parameter
    solution (a1, a2, b1, b2) = (sqrt w0, sqrt w3, sqrt w2, sqrt w1); any
    sign pattern gives the same correlation point, all-plus is fixed here.
    """
    weights = _check_weights(w)
    a1, a2 = np.sqrt(weights[0]), np.sqrt(weights[3])
    b1, b2 = np.sqrt(weights[2]), np.sqrt(weights[1])
    return np.array(
        [[a1 + 1j * a2, b1 + 1j * b2], [-(b1 - 1j * b2), a1 - 1j * a2]], dtype=complex
    )
