"""Measurement-basis rotation and the overlap escape experiments.

Rotating all measurement bases by a single-qubit unitary v maps the
correlation point of a preparation rho to that of (v (x) v)^dag rho
(v (x) v), and the point of an evolution u to that of v^dag u v. Both
identities are computed here through two independent routes (rotated
projectors vs. transformed object) and asserted equal in the tests.

A point in the octahedral overlap is ambiguous; the escape experiment
measures how often a suitable rotation moves conditioned samples out of
the overlap into the decidable part of their tetrahedron. Four reference
rotations are embedded at 4-decimal precision and re-unitarized by polar
projection (printed matrices are only approximately unitary).

Reference escape proportions (20000 samples each) are reproduced by pure
preparations and sphere-plus-phase unitaries conditioned on the overlap;
mixed-rank preparations escape far less often, so the experiment defaults
to rank 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlation import (
    IMAG_TOL,
    PPoint,
    _cc_pvector_residue_batch,
    cc_pvector,
    cc_pvector_batch,
    dc_pvector,
    dc_pvector_batch,
)
from .errors import ConsistencyError, ValidationError
from .geometry import contains, in_otc, in_otd, in_overlap, tcc, tdc
from .qmath import (
    is_density,
    is_density_batch,
    is_unitary,
    is_unitary_batch,
    pauli_eigenbasis,
    projector,
    require_density,
    require_unitary,
    tensor_product,
)
from .samplers import SamplerConfig, sample_in_region_batch, sample_unitary_serial

__all__ = [
    "EscapeResult",
    "transform_density",
    "transform_unitary",
    "pprime_cc_oracle",
    "pprime_dc_oracle",
    "escape_experiment",
    "search_escape_v",
    "ESCAPE_V1",
    "ESCAPE_V2",
    "ESCAPE_V3",
    "ESCAPE_V4",
    "ESCAPE_V_SET",
    "REFERENCE_PROPORTIONS",
    "nearest_unitary",
]

_MEMBERSHIP_TOL = 1e-9
# Tries per block of the escape search; far below the 2^14 rows from which
# ``unitaries_from_params`` changes bits.
_SEARCH_BLOCK = 256
# Most objects per block of the escape experiment's transform.
_ESCAPE_BLOCK = 4096


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


# The batch transforms broadcast: a stack of objects under one rotation (the
# escape experiment) or one object under a stack of rotations (the search).


def _transform_density_batch(rhos: np.ndarray, vs: np.ndarray) -> np.ndarray:
    vv = (vs[..., :, None, :, None] * vs[..., None, :, None, :]).reshape(vs.shape[:-2] + (4, 4))
    return vv.conj().swapaxes(-1, -2) @ rhos @ vv


def _transform_unitary_batch(us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    return np.einsum("...ji,...jk,...kl->...il", vs.conj(), us, vs)


def escape_experiment(
    kind: str,
    v: np.ndarray,
    n: int,
    cfg: SamplerConfig | None = None,
    rng: np.random.Generator | None = None,
) -> EscapeResult:
    """Count overlap-conditioned samples rotated into the decidable region.

    Draws ``n`` objects of ``kind`` with correlation point in the overlap,
    applies the basis rotation ``v``, and counts transformed points landing
    in the corner-cut tetrahedron minus the overlap. ``image_in_target``
    reports whether every transformed point stayed inside the corner-cut
    tetrahedron (it must, by the conjugation invariants; a transformed
    point outside its full tetrahedron would be an internal error).
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    if kind not in ("CC", "DC"):
        raise ValidationError(f"kind must be 'CC' or 'DC', got {kind!r}")
    v = require_unitary(v)
    cfg = SamplerConfig(density_rank=1) if cfg is None else cfg
    objs = sample_in_region_batch(cfg, kind, "O", n, rng=rng)
    if kind == "CC":
        transform, pvec, full, cut = _transform_density_batch, cc_pvector_batch, tcc(), in_otc
    else:
        transform, pvec, full, cut = _transform_unitary_batch, dc_pvector_batch, tdc(), in_otd
    # In blocks, so the transformed objects never hold a second copy of ``objs``.
    # The transforms and kernels give a row the same bits in any block.
    blocks = np.array_split(objs, -(-n // _ESCAPE_BLOCK))
    pts = np.concatenate([pvec(transform(block, v)) for block in blocks])
    if not contains(full, pts, _MEMBERSHIP_TOL).all():
        raise ConsistencyError("a transformed point left its tetrahedron")
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


def search_escape_v(
    kind: str,
    target,
    max_tries: int = 2000,
    cfg: SamplerConfig | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray | None:
    """Search for a rotation that moves one ambiguous object out of the overlap.

    ``target`` is a density operator (kind 'CC') or unitary (kind 'DC')
    whose correlation point must lie in the overlap. Returns the first
    sampled rotation whose transformed point leaves the overlap while
    staying in the proper tetrahedron, or None when ``max_tries`` random
    rotations all fail (the maximally mixed preparation, for instance, is
    rotation-invariant and always returns None).

    Stream rule: try k uses the k-th of successive single
    ``sample_unitary(rng)`` draws. Tries are drawn and evaluated in blocks
    of ``_SEARCH_BLOCK`` (fewer in the last block), so a caller-supplied
    ``rng`` ends at the end of the block that holds the returned try, or of
    the last block when none escapes. Every try up to and including the
    returned one must pass the checks the scalar API makes: ``v`` unitary,
    the transformed object a density operator or unitary, and, for 'CC',
    each trace's imaginary residue within ``IMAG_TOL``; a failure raises
    ``ConsistencyError``.
    """
    if max_tries < 1:
        raise ValidationError("max_tries must be >= 1")
    if kind == "CC":
        target = require_density(target)
        base = cc_pvector(target)
        tetra = tcc()
    elif kind == "DC":
        target = require_unitary(target)
        base = dc_pvector(target)
        tetra = tdc()
    else:
        raise ValidationError(f"kind must be 'CC' or 'DC', got {kind!r}")
    if not in_overlap(base.as_array(), _MEMBERSHIP_TOL):
        raise ValidationError("target's correlation point is already outside the overlap")
    rng = (SamplerConfig() if cfg is None else cfg).rng() if rng is None else rng
    for start in range(0, max_tries, _SEARCH_BLOCK):
        vs = sample_unitary_serial(rng, min(_SEARCH_BLOCK, max_tries - start))
        checks = [(is_unitary_batch(vs), "a sampled rotation failed the unitarity predicate")]
        if kind == "CC":
            objs = _transform_density_batch(target, vs)
            moved, residue = _cc_pvector_residue_batch(objs)
            checks += [
                (is_density_batch(objs, 1e-9), "transformed operator failed the density predicate"),
                ((np.abs(residue) <= IMAG_TOL).all(axis=1),
                 f"an equal-outcome trace has an imaginary residue above {IMAG_TOL:g}"),
            ]
        else:
            objs = _transform_unitary_batch(target, vs)
            moved = dc_pvector_batch(objs)
            checks += [
                (is_unitary_batch(objs, 1e-10), "transformed matrix failed the unitarity predicate")
            ]
        escapes = np.flatnonzero(
            contains(tetra, moved, _MEMBERSHIP_TOL) & ~in_overlap(moved, _MEMBERSHIP_TOL)
        )
        last = escapes[0] if escapes.size else len(vs) - 1
        # Tries after the returned one are never checked, as in a try-by-try loop.
        bad = np.flatnonzero(~np.logical_and.reduce([ok for ok, _ in checks])[: last + 1])
        if bad.size:
            message = next(msg for ok, msg in checks if not ok[bad[0]])
            raise ConsistencyError(f"search try {start + bad[0]}: {message}")
        if escapes.size:
            return vs[last].copy()
    return None
