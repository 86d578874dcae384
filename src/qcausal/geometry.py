"""Correlation-polytope geometry for the causal-discrimination picture.

The reachable correlation points form two regular tetrahedra inscribed in
the cube [-1, 1]^3, mirror images of each other: one traced by joint
preparations (vertices at the four entangled-basis points) and one by
causal evolutions (vertices at the four Pauli points). Their intersection
is the octahedron |c11| + |c22| + |c33| <= 1 whose vertices are the six
cube face centers; inside it the base statistic cannot discriminate.

Each tetrahedron also has a "reachable-after-rotation" variant with one
corner removed. The removed corners are forced by conjugation invariants:

* the fourth barycentric coordinate of a preparation's point equals its
  singlet population, which collective single-qubit rotations preserve, so
  points beyond the cut plane at the (-1, -1, -1) vertex stay unreachable
  from the octahedron;
* the first barycentric coordinate of an evolution's point equals
  |tr u|^2 / 4, which conjugation preserves, so the corner at (1, 1, 1)
  is likewise unreachable.

Containment is closed (within tolerance); the dug-out corners are removed
beyond their cut planes, so the cut planes themselves stay classifiable.
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
    "dug_tcc",
    "dug_tdc",
    "contains",
    "in_overlap",
    "in_otc",
    "in_otd",
    "classify",
    "classify_batch",
    "barycentric",
    "state_from_weights",
    "unitary_from_probs",
    "region_test",
]

_TCC_VERTICES = np.array(
    [[1, -1, 1], [-1, 1, 1], [1, 1, -1], [-1, -1, -1]], dtype=float
)
_TDC_VERTICES = np.array(
    [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
)

# Cut-plane normals of the dug-out corners (see module docstring).
_OTC_CUT = np.array([-1.0, -1.0, -1.0])
_OTD_CUT = np.array([1.0, 1.0, 1.0])

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


_TCC = Tetrahedron(_TCC_VERTICES)
_TDC = Tetrahedron(_TDC_VERTICES)
_DUG_TCC = Tetrahedron(
    np.array([[-1, -1, -1], [-1, 0, 0], [0, -1, 0], [0, 0, -1]], dtype=float)
)
_DUG_TDC = Tetrahedron(
    np.array([[1, 1, 1], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
)


def tcc() -> Tetrahedron:
    """Tetrahedron of common-cause correlation points (entangled-basis order)."""
    return _TCC


def tdc() -> Tetrahedron:
    """Tetrahedron of direct-cause correlation points (Pauli order)."""
    return _TDC


def dug_tcc() -> Tetrahedron:
    """Corner of ``tcc()`` unreachable from the overlap after any rotation."""
    return _DUG_TCC


def dug_tdc() -> Tetrahedron:
    """Corner of ``tdc()`` unreachable from the overlap after any rotation."""
    return _DUG_TDC


def _points(p) -> np.ndarray:
    arr = np.asarray(p, dtype=float)
    if arr.shape[-1] != 3:
        raise ValidationError(f"correlation points need 3 components, got shape {arr.shape}")
    return arr


def contains(t: Tetrahedron, p, tol: float = 0.0):
    """Closed containment test; broadcasts over leading axes of ``p``."""
    if tol < 0:
        raise ValidationError("tolerance must be >= 0")
    arr = _points(p)
    result = np.all(arr @ t.halfspaces.T <= t.offsets + tol, axis=-1)
    return bool(result) if arr.ndim == 1 else result


def in_overlap(p, tol: float = 0.0):
    """Membership in the octahedral overlap |c11|+|c22|+|c33| <= 1."""
    if tol < 0:
        raise ValidationError("tolerance must be >= 0")
    arr = _points(p)
    result = np.abs(arr).sum(axis=-1) <= 1.0 + tol
    return bool(result) if arr.ndim == 1 else result


def _corner_cut(t: Tetrahedron, cut: np.ndarray, p, tol: float):
    arr = _points(p)
    result = contains(t, arr, tol) & (arr @ cut <= 1.0 + tol)
    return bool(result) if arr.ndim == 1 else result


def in_otc(p, tol: float = 0.0):
    """Preparation tetrahedron minus its unreachable corner (beyond the cut plane)."""
    return _corner_cut(_TCC, _OTC_CUT, p, tol)


def in_otd(p, tol: float = 0.0):
    """Evolution tetrahedron minus its unreachable corner (beyond the cut plane)."""
    return _corner_cut(_TDC, _OTD_CUT, p, tol)


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
    """Vectorized :func:`classify` as uint8 codes into ``_LABEL_NAMES``."""
    arr = _points(pts)
    if not np.all(np.isfinite(arr)):
        raise ValidationError("a correlation point has a non-finite component")
    if np.max(np.abs(arr)) > 1.0 + tol:
        raise ValidationError("a correlation point lies outside the correlation cube")
    codes = np.full(arr.shape[0], _CODE[RegionLabel.MIXTURE_REQUIRED], dtype=np.uint8)
    codes[contains(_TCC, arr, tol)] = _CODE[RegionLabel.CC_ONLY]
    codes[contains(_TDC, arr, tol)] = _CODE[RegionLabel.DC_ONLY]
    codes[in_overlap(arr, tol)] = _CODE[RegionLabel.AMBIGUOUS]
    return codes


def classify_batch(pts: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Vectorized :func:`classify`; returns an array of label strings."""
    return _LABEL_NAMES[_classify_codes(pts, tol)]


def barycentric(t: Tetrahedron, p, tol: float = 1e-9) -> np.ndarray:
    """Barycentric weights of ``p`` in ``t`` (point must lie inside).

    For the canonical tetrahedra the weights have the closed form
    ``w_j = (vertex_j . p + 1) / 4``; the general case solves the 4x4
    linear system.
    """
    arr = _points(p)
    if arr.ndim != 1:
        raise ValidationError("barycentric expects a single point")
    if not contains(t, arr, tol):
        raise ValidationError(f"point {arr} lies outside the tetrahedron")
    if t is _TCC or t is _TDC:
        w = (t.vertices @ arr + 1.0) / 4.0
    else:
        system = np.vstack([t.vertices.T, np.ones(4)])
        w = np.linalg.lstsq(system, np.append(arr, 1.0), rcond=None)[0]
    return np.clip(w, 0.0, None) / np.clip(w, 0.0, None).sum()


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


_REGIONS = {
    "O": in_overlap,
    "TCC": functools.partial(contains, _TCC),
    "TDC": functools.partial(contains, _TDC),
    "OTC": in_otc,
    "OTD": in_otd,
}


def region_test(name: str):
    """Return the membership predicate ``(p, tol=0.0)`` for a named region."""
    if name not in _REGIONS:
        raise ValidationError(f"unknown region {name!r}; expected one of {sorted(_REGIONS)}")
    return _REGIONS[name]
