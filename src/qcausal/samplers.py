"""Seeded random generation of states, density operators and unitaries.

All sampling flows through numpy's PCG64 generator, so one 64-bit seed
pins the full sample stream on any platform. Parallel workers derive
independent generators from (seed, worker index) through
``numpy.random.SeedSequence(seed, spawn_key=(index,))`` — see
:meth:`SamplerConfig.worker_rng`.

Samplers accept an optional ``size``: ``None`` returns a single object,
an integer returns a stacked batch (leading axis). Rejection sampling for
region-conditioned draws works on fixed-size chunks, which keeps the
stream deterministic for a given seed. It tests each chunk's correlation
points in real arithmetic from the drawn components (the unitary parameters,
or the density draw's blocks as ``cc_components`` lays them out) and keeps
the components of the accepted rows alone.

The density and unitary-parameter draws are each defined once, as a
:class:`DrawStream`. The whole-n samplers draw it in one go; ``record`` and
``replay`` rebuild any span of its rows, with the same bits, from a few
generator states, so a process need not hold the rest.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .correlation import correlation_matrix_batch
from .errors import SamplingExhaustedError, ValidationError
from .geometry import region_test

__all__ = [
    "SamplerConfig",
    "DrawStream",
    "density_stream",
    "UNITARY_PARAMS",
    "sample_real_pure",
    "sample_complex_pure",
    "sample_density",
    "sample_unitary",
    "sample_unitary_params",
    "unitaries_from_params",
    "cc_components",
    "sample_region_components",
    "sample_in_region",
    "sample_in_region_batch",
    "REGIONS_BY_KIND",
]

REGIONS_BY_KIND = {"CC": ("O", "TCC", "OTC"), "DC": ("O", "TDC", "OTD")}

_CHUNK = 4096


@dataclass(frozen=True)
class SamplerConfig:
    """Seed and knobs for the sampling layer.

    ``density_rank`` is the number of pure components mixed into a sampled
    density operator; ``max_rejections`` bounds the total number of raw
    draws a region-conditioned sampler may spend.
    """

    seed: int = 42
    density_rank: int = 4
    max_rejections: int = 10_000_000

    def __post_init__(self):
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ValidationError(f"seed must be an integer >= 0, got {seed!r}")
        if not 1 <= self.density_rank <= 4:
            raise ValidationError(f"density_rank must be in 1..4, got {self.density_rank}")
        if self.max_rejections < 1:
            raise ValidationError("max_rejections must be >= 1")

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(self.seed))

    def worker_rng(self, index: int) -> np.random.Generator:
        """Independent generator for worker ``index`` (documented split rule)."""
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(index,)))


def _squeeze(batch: np.ndarray, size):
    return batch[0] if size is None else batch


def sample_real_pure(rng: np.random.Generator, size=None) -> np.ndarray:
    """Real unit vectors in dimension 4, uniform on the 3-sphere."""
    n = 1 if size is None else int(size)
    v = rng.standard_normal((n, 4))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return _squeeze(v.astype(complex), size)


def sample_complex_pure(rng: np.random.Generator, size=None) -> np.ndarray:
    """Complex unit vectors in dimension 4, unitarily invariant."""
    n = 1 if size is None else int(size)
    v = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return _squeeze(v, size)


@dataclass(frozen=True)
class DrawStream:
    """A random draw of n rows: ``blocks`` drawn one after another, each for
    all n rows (``block(rng, n)``), and combined row by row by ``assemble``.

    ``assemble`` takes an iterator over the blocks and must take all of them,
    in order; each block is drawn only when taken, so a block that is used
    up can be freed before the next one is drawn. A block fills its rows in
    order, so rows ``lo:hi`` of a block are what the generator yields from
    its state at row ``lo`` of that block: ``record`` keeps those states and
    ``replay`` redraws any span from them.
    """

    blocks: tuple
    assemble: Callable

    def draw(self, rng: np.random.Generator, n: int, assemble: Callable | None = None):
        """n assembled rows; ``assemble`` replaces the stream's own assembly."""
        return (assemble or self.assemble)(block(rng, n) for block in self.blocks)

    def record(self, rng: np.random.Generator, sizes: list[int]) -> list[list[dict]]:
        """For consecutive spans of ``sizes`` rows, each span's generator state
        at its first row of every block. Draws the whole stream from ``rng``,
        one span at a time, and keeps none of it."""
        states: list[list[dict]] = [[] for _ in sizes]
        for block in self.blocks:
            for span_states, rows in zip(states, sizes):
                span_states.append(rng.bit_generator.state)
                block(rng, rows)
        return states

    def replay(self, states: list[dict], rows: int, assemble: Callable | None = None):
        """The ``rows`` assembled rows of the span whose recorded (PCG64)
        states are ``states``: the same bits as those rows of ``draw``."""

        def at(state: dict) -> np.random.Generator:
            bitgen = np.random.PCG64(0)
            bitgen.state = state
            return np.random.Generator(bitgen)

        blocks = (block(at(state), rows) for block, state in zip(self.blocks, states))
        return (assemble or self.assemble)(blocks)


def _density_from_blocks(blocks) -> np.ndarray:
    states = next(blocks) + 1j * next(blocks)
    states /= np.linalg.norm(states, axis=2, keepdims=True)
    lam = next(blocks, None)
    if lam is None:
        lam = np.ones((len(states), 1))
    return np.einsum("nr,nri,nrj->nij", lam, states, states.conj())


def density_stream(rank: int = 4) -> DrawStream:
    """The draw of :func:`sample_density`: real then imaginary normals of the
    ``rank`` pure components, then (above rank 1) their Dirichlet weights."""
    if not 1 <= rank <= 4:
        raise ValidationError(f"rank must be in 1..4, got {rank}")

    def normals(rng, n):
        return rng.standard_normal((n, rank, 4))

    def weights(rng, n):
        return rng.dirichlet(np.ones(rank), size=n)

    return DrawStream((normals, normals) + ((weights,) if rank > 1 else ()), _density_from_blocks)


def _unitary_params_from_blocks(blocks):
    v = next(blocks).T.copy()
    v /= np.sqrt(((v[0] * v[0] + v[1] * v[1]) + v[2] * v[2]) + v[3] * v[3])
    return (*v, next(blocks))


# The draw of sample_unitary_params: sphere normals, then phases.
UNITARY_PARAMS = DrawStream(
    (
        lambda rng, n: rng.standard_normal((n, 4)),
        lambda rng, n: rng.uniform(0.0, 2.0 * np.pi, size=n),
    ),
    _unitary_params_from_blocks,
)


def sample_density(rng: np.random.Generator, rank: int = 4, size=None) -> np.ndarray:
    """Mixtures of ``rank`` unitarily-invariant pure states with flat simplex weights."""
    stream = density_stream(rank)
    return _squeeze(stream.draw(rng, 1 if size is None else int(size)), size)


def sample_unitary(rng: np.random.Generator, size=None) -> np.ndarray:
    """2x2 unitaries from the uniform 3-sphere x phase parameterization."""
    params = sample_unitary_params(rng, 1 if size is None else int(size))
    return _squeeze(unitaries_from_params(*params), size)


def sample_unitary_params(rng: np.random.Generator, n: int):
    """Raw parameters (a1, a2, b1, b2, alpha): uniform sphere and uniform phase."""
    return UNITARY_PARAMS.draw(rng, n)


def unitaries_from_params(a1, a2, b1, b2, alpha) -> np.ndarray:
    """Assemble [[a1+i a2, b1+i b2], [-e^{i a}(b1-i b2), e^{i a}(a1-i a2)]].

    The products are ``np.multiply`` calls, which numpy never computes in
    place, so a row has the same bits at any batch size.
    """
    a1, a2, b1, b2, alpha = np.broadcast_arrays(a1, a2, b1, b2, alpha)
    phase = np.exp(1j * alpha)
    u = np.empty(a1.shape + (2, 2), dtype=complex)
    u[..., 0, 0] = a1 + 1j * a2
    u[..., 0, 1] = b1 + 1j * b2
    u[..., 1, 0] = np.multiply(-phase, b1 - 1j * b2)
    u[..., 1, 1] = np.multiply(phase, a1 - 1j * a2)
    return u


def cc_components(blocks) -> tuple:
    """The density draw's blocks as the contiguous component columns that
    ``correlation.correlation_matrix_batch`` takes: the real and imaginary normals,
    (rank, 4, n) each, then (above rank 1) the weights, (rank, n). Pass it as the
    ``assemble`` of ``density_stream(rank).draw`` or ``replay``."""
    return tuple(np.ascontiguousarray(np.moveaxis(block, 0, -1)) for block in blocks)


def sample_region_components(
    cfg: SamplerConfig,
    kind: str,
    region: str,
    size: int,
    rng: np.random.Generator | None = None,
    tol: float = 1e-9,
) -> tuple:
    """Rejection-sample the drawn components of ``size`` objects whose correlation
    point lies in ``region``: those of :func:`cc_components` ('CC') or of
    :func:`sample_unitary_params` ('DC'), each with the rows last.

    Draws always come in full chunks of ``_CHUNK`` objects, so the accepted
    stream depends only on the generator, not on ``cfg.max_rejections``. The
    budget is checked before each chunk, so the raw draws spent may pass
    ``max_rejections`` by less than one chunk.
    """
    if kind not in REGIONS_BY_KIND:
        raise ValidationError(f"kind must be 'CC' or 'DC', got {kind!r}")
    if region not in REGIONS_BY_KIND[kind]:
        raise ValidationError(
            f"region {region!r} is not compatible with kind {kind!r}; "
            f"expected one of {REGIONS_BY_KIND[kind]}"
        )
    if size < 1:
        raise ValidationError("size must be >= 1")
    member = region_test(region)
    rng = cfg.rng() if rng is None else rng
    stream, assemble = UNITARY_PARAMS, None
    if kind == "CC":
        stream, assemble = density_stream(cfg.density_rank), cc_components
    accepted: list[tuple] = []
    n_accepted = 0
    attempts = 0
    while n_accepted < size:
        if attempts >= cfg.max_rejections:
            raise SamplingExhaustedError(
                f"rejection budget {cfg.max_rejections} exhausted for "
                f"({kind}, {region}): {n_accepted}/{size} accepted "
                f"(acceptance rate {n_accepted / max(attempts, 1):.3g})",
                accepted=n_accepted,
                attempts=attempts,
            )
        components = stream.draw(rng, _CHUNK, assemble)
        attempts += _CHUNK
        pts = np.stack(correlation_matrix_batch(kind, components, diagonal=True), axis=1)
        keep = np.flatnonzero(member(pts, tol))
        accepted.append(tuple(column[..., keep] for column in components))
        n_accepted += len(keep)
    return tuple(np.concatenate(columns, axis=-1)[..., :size] for columns in zip(*accepted))


def sample_in_region_batch(
    cfg: SamplerConfig,
    kind: str,
    region: str,
    size: int,
    rng: np.random.Generator | None = None,
    tol: float = 1e-9,
) -> np.ndarray:
    """Rejection-sample ``size`` objects whose correlation point lies in ``region``:
    the objects of the components that :func:`sample_region_components` keeps."""
    components = sample_region_components(cfg, kind, region, size, rng, tol)
    if kind == "DC":
        return unitaries_from_params(*components)
    return _density_from_blocks(np.moveaxis(column, -1, 0) for column in components)


def sample_in_region(
    cfg: SamplerConfig,
    kind: str,
    region: str,
    size=None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Single-object (or batched) region-conditioned draw."""
    batch = sample_in_region_batch(cfg, kind, region, 1 if size is None else int(size), rng)
    return _squeeze(batch, size)
