"""Second routes to the correlation points and the escape counts, kept as the
tests' independent oracles.

The package reads every point off the correlation matrix M in real arithmetic:
from the drawn components, from a density operator's Hermitian part entry by
entry, or from a unitary's first row and determinant phase. The routes here
take complex traces of the objects instead: tr(rho P_i) with the equal-outcome
projectors P_i, the amplitudes <m_0| u |m_0> of the +1 eigenvectors, and M as
the traces tr(rho sigma_i (x) sigma_j) and tr(sigma_i u sigma_j u^dag) / 2; along
rotated axes, the projectors onto v|m_k> (x) v|m_k> or the eigenvectors v m_0.
The per-axis probabilities check the fixed-axis points and their mixtures. The
SVD's polar projection of the printed reference rotations checks their pinned
floats, and the explicit corner tetrahedra check the cut regions. ``sample``'s
draw, held whole, checks the CSV that its chunks write one at a time. The
one-move-at-a-time compass search checks the batched polish of the bound
certificates. One plain sum per face checks the region tests' shared sums, and
nine products per entry the rotated points' six.
"""

from __future__ import annotations

import numpy as np

from qcausal import bounds
from qcausal.correlation import MixtureScenario, PPoint, _check_axis
from qcausal.errors import ConsistencyError, ValidationError
from qcausal.geometry import _ESCAPE_RUNS, _SIGNS, Tetrahedron, _face_masks
from qcausal.qmath import (
    DENSITY_TOL,
    pauli,
    pauli_eigenbasis,
    projector,
    require_density,
    require_unitary,
    tensor_product,
)
from qcausal.samplers import (
    _CHUNK,
    SAMPLE_CHUNK_KEY,
    SamplerConfig,
    kernel_components,
    sample_density,
    sample_unitary,
)

SAMPLE_CHUNK_ROWS = 1 << 16

# The fixed measurement axes 1..3: the equal-outcome projectors
# |m0 m0><m0 m0| + |m1 m1><m1 m1|, and the +1 eigenvectors m0.
_EQUAL_PROJ = tuple(
    projector(tensor_product(m0, m0)) + projector(tensor_product(m1, m1))
    for m0, m1 in map(pauli_eigenbasis, (1, 2, 3))
)
_PLUS_EIGVEC = tuple(pauli_eigenbasis(i)[0] for i in (1, 2, 3))
# sigma_1, sigma_2, sigma_3 as one (3, 2, 2) stack.
_SIGMA = np.stack([pauli(i) for i in (1, 2, 3)])
# |Im tr(rho P)| <= 2 * DENSITY_TOL for every rho that require_density accepts,
# as the entries of each P sum to at most 4 in magnitude; 1e-14 covers rounding.
_IMAG_TOL = 2.0 * DENSITY_TOL + 1e-14

# The corners of tcc() and tdc() beyond the mirror faces across (-1, -1, -1) and
# (1, 1, 1), as explicit tetrahedra: the check of the cut regions' face rows.
_DUG_TCC = Tetrahedron([[-1, -1, -1], [-1, 0, 0], [0, -1, 0], [0, 0, -1]])
_DUG_TDC = Tetrahedron([[1, 1, 1], [1, 0, 0], [0, 1, 0], [0, 0, 1]])

# The four reference rotations as printed, at 4 decimals and so only nearly unitary.
PRINTED_ESCAPE_V = tuple(np.array(v) for v in (
    [[0.1813 - 0.5744j, 0.2656 + 0.7527j], [-0.6807 + 0.4170j, -0.2213 + 0.5602j]],
    [[-0.1080 + 0.7959j, 0.4848 - 0.3461j], [-0.4763 - 0.3577j, -0.0888 - 0.7983j]],
    [[-0.2947 + 0.5266j, 0.7483 - 0.2754j], [-0.6926 - 0.3950j, -0.2039 - 0.5680j]],
    [[0.3482 + 0.3352j, -0.3442 + 0.8050j], [-0.2069 + 0.8507j, 0.4796 - 0.0597j]],
))


def nearest_unitary(m: np.ndarray) -> np.ndarray:
    """Polar projection onto the unitary group (drops the Hermitian factor), by LAPACK's
    SVD: the route by which the pinned reference rotations were made."""
    w, _, vh = np.linalg.svd(np.asarray(m, dtype=complex))
    return w @ vh


def dug_tcc() -> Tetrahedron:
    """Corner of ``tcc()`` unreachable from the overlap after any rotation."""
    return _DUG_TCC


def dug_tdc() -> Tetrahedron:
    """Corner of ``tdc()`` unreachable from the overlap after any rotation."""
    return _DUG_TDC


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


def _rotated_points(kind: str, objs: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Points of the stacked ``objs`` measured along the axes rotated by ``v``:
    traces with the projectors P'_i = (v (x) v) P_i (v (x) v)^dag, or the
    amplitudes of the eigenvectors m'_i = v m0_i."""
    if kind == "CC":
        vv = np.kron(v, v)
        traces = [np.einsum("nij,ji->n", objs, vv @ proj @ vv.conj().T) for proj in _EQUAL_PROJ]
        return 2.0 * np.stack(traces, axis=1).real - 1.0
    amps = [np.einsum("i,nij,j->n", w.conj(), objs, w) for w in (v @ m0 for m0 in _PLUS_EIGVEC)]
    return 2.0 * np.abs(np.stack(amps, axis=1)) ** 2 - 1.0


def cc_pvector_batch_oracle(rhos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Points 2 Re tr(rho P_i) - 1 of a stack of density operators, shape (n, 3), and
    the imaginary parts of the traces, which no accepted density takes past 2e-9."""
    traces = np.stack([np.einsum("nij,ji->n", rhos, proj) for proj in _EQUAL_PROJ], axis=1)
    return 2.0 * traces.real - 1.0, traces.imag


def dc_pvector_batch_oracle(us: np.ndarray) -> np.ndarray:
    """Points 2 |<m_0| u |m_0>|^2 - 1 of a stack of 2x2 unitaries, shape (n, 3)."""
    amps = [np.einsum("i,nij,j->n", m0.conj(), us, m0) for m0 in _PLUS_EIGVEC]
    return 2.0 * np.abs(np.stack(amps, axis=1)) ** 2 - 1.0


def correlation_matrix_oracle(kind: str, obj: np.ndarray) -> np.ndarray:
    """M of one object as complex traces: T_ij = tr(rho sigma_i (x) sigma_j) for 'CC',
    R_ij = tr(sigma_i u sigma_j u^dag) / 2 for 'DC', 3x3 floats."""
    if kind == "CC":
        return np.einsum("iab,jcd,bdac->ij", _SIGMA, _SIGMA, obj.reshape(2, 2, 2, 2)).real
    return np.einsum("iab,bc,jcd,ad->ij", _SIGMA, obj, _SIGMA, obj.conj()).real / 2.0


def face_masks_oracle(arr, normals, offsets, tol: float, runs=(slice(None),)) -> list:
    """``geometry._face_masks`` with one plain sum ``(a x + b y) + c z <= offset + tol``
    per face, every coefficient a multiply and no sum shared between faces."""
    arr = np.asarray(arr, dtype=float)
    x, y, z = arr[..., 0], arr[..., 1], arr[..., 2]
    bounds = np.broadcast_to(np.asarray(offsets, dtype=float) + tol, (len(normals),))
    masks = []
    for run in runs:
        mask = np.ones(arr.shape[:-1], dtype=bool)
        for (a, b, c), bound in zip(normals[run].tolist(), bounds[run].tolist()):
            mask &= (a * x + b * y) + c * z <= bound
        masks.append(mask)
    return masks


def rotated_pvector_oracle(m: list, q) -> np.ndarray:
    """diag(Q^T M Q) with nine products per entry, q_ik q_jk M_ij summed in row-major
    (i, j) order: ``correlation.rotated_pvector_batch`` without the symmetric part."""
    return np.stack(
        [sum(q[i][k] * q[j][k] * m[i][j] for i in range(3) for j in range(3)) for k in range(3)],
        axis=1,
    )


def overlap_objects_oracle(kind: str, rank: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` overlap objects the way the rejection sampler once drew them: whole
    density operators or unitaries, chunk by chunk, their points from the complex
    kernels and tested against all eight sign faces at 1e-9."""
    kept, count = [], 0
    while count < n:
        if kind == "CC":
            objs = sample_density(rng, rank=rank, size=_CHUNK)
            pts = cc_pvector_batch_oracle(objs)[0]
        else:
            objs = sample_unitary(rng, size=_CHUNK)
            pts = dc_pvector_batch_oracle(objs)
        (inside,) = _face_masks(pts, _SIGNS, 1.0, 1e-9)
        kept.append(objs[inside])
        count += int(inside.sum())
    return np.concatenate(kept)[:n]


def escaped_oracle(kind: str, v: np.ndarray, objs: np.ndarray) -> int:
    """How many of the overlap objects ``objs`` the rotated axes of ``v`` move into
    the corner-cut tetrahedron minus the overlap, by :func:`_rotated_points`."""
    pts = _rotated_points(kind, objs, v)
    full, in_target, rest = _face_masks(pts, _SIGNS, 1.0, 1e-9, _ESCAPE_RUNS[kind])
    assert full.all(), "a rotated point left its tetrahedron"
    return int((in_target & ~rest).sum())


def cc_equal_prob(rho: np.ndarray, i: int) -> float:
    """p(k = m | ii) when both qubits of ``rho`` are measured along axis i.

    A per-axis formula, independent of ``cc_pvector_batch``; it backs
    :func:`mixture_pvector_oracle`.
    """
    rho = require_density(rho)
    _check_axis(i)
    value = complex(np.trace(rho @ _EQUAL_PROJ[i - 1]))
    if abs(value.imag) > _IMAG_TOL:
        raise ConsistencyError(f"equal-outcome probability: imaginary residue {value.imag:.3e}")
    return float(value.real)


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


def dc_pvector_oracle(u: np.ndarray) -> PPoint:
    """Correlation point of a unitary via its complex amplitudes <m_0| u |m_0>.

    A route independent of ``dc_pvector``, which reads u's first row and the
    phase of its determinant; the tests require the two to agree.
    """
    return PPoint(*dc_pvector_batch_oracle(require_unitary(u)[None])[0].tolist())


def mixture_pvector_oracle(s: MixtureScenario) -> PPoint:
    """Correlation point of the mixture evaluated through outcome probabilities.

    Mixes p(k = m | ii) of the two branches before forming the indices;
    agrees with ``mixture_pvector`` by linearity and serves as its
    independent cross-check.
    """
    s.validate()
    out = []
    for i in (1, 2, 3):
        p_equal = s.p * cc_equal_prob(s.rho, i) + (1.0 - s.p) * dc_cond_prob(s.u, i, 0)
        out.append(2.0 * p_equal - 1.0)
    return PPoint(*out)


def simplex_compass_oracle(t, sign: float, w0: np.ndarray, tol: float):
    """The compass polish one candidate per evaluation, in sweep order.

    Transfers ``delta`` of weight from j to i for every ordered pair, taking
    each improvement at once; must return the same end point, value and
    convergence flag as ``bounds._simplex_compass``, bit for bit.
    """

    def score(w):
        return sign * float(bounds._statistic_at(t, w[None])[0])

    w = w0.copy()
    best = score(w)
    delta = 0.25
    iterations = 0
    while delta >= tol and iterations < bounds._POLISH_MAX_ITER:
        iterations += 1
        improved = False
        for i in range(4):
            for j in range(4):
                if i == j or w[j] < delta:
                    continue
                cand = w.copy()
                cand[i] += delta
                cand[j] -= delta
                val = score(cand)
                if val > best + 1e-16:
                    w, best = cand, val
                    improved = True
        if not improved:
            delta /= 2.0
    return w, sign * best, delta < tol


def sample_components_oracle(kind: str, n: int, seed: int, rank: int = 4) -> tuple:
    """The drawn components of ``sample``'s first ``n`` rows, held whole, rows
    last: each 2^16-row chunk's whole draw from its own generator, concatenated."""
    cfg = SamplerConfig(seed=seed, density_rank=rank)
    chunks = [
        kernel_components(cfg.worker_rng(SAMPLE_CHUNK_KEY, k), kind, rank, SAMPLE_CHUNK_ROWS)
        for k in range(-(-n // SAMPLE_CHUNK_ROWS))
    ]
    return tuple(np.concatenate(columns, axis=-1)[..., :n] for columns in zip(*chunks))
