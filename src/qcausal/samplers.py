"""Seeded random generation of states, density operators and unitaries.

All sampling flows through numpy's PCG64 generator, so one 64-bit seed
pins the full sample stream on any platform. Independent parts of a run
draw from generators split off the seed by one rule,
``numpy.random.SeedSequence(seed, spawn_key=key)`` (see
:meth:`SamplerConfig.worker_rng`): ``table2`` draws its CC objects with
the one-word key ``(0,)`` and its DC objects with ``(1,)``, and ``sample``
chunk ``k`` uses the two-word key ``(SAMPLE_CHUNK_KEY, k)``, so no chunk
shares a generator with ``table2``.

Samplers accept an optional ``size``: ``None`` returns a single object,
an integer returns a stacked batch (leading axis). Rejection sampling for
region-conditioned draws works on fixed-size chunks, which keeps the
stream deterministic for a given seed. It tests each chunk's correlation
points in real arithmetic from the drawn components and yields the
components of each chunk's accepted rows alone, so a caller that consumes
them chunk by chunk never holds the whole sample.

The density draw and the unitary draw are each defined once, in
:func:`kernel_components`, straight in the layout the point kernel reads:
``sample``'s chunks, the rejection sampler and the whole-n object samplers
all draw with it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlation import correlation_matrix_batch
from .errors import SamplingExhaustedError, ValidationError
from .geometry import region_test

__all__ = [
    "SamplerConfig",
    "sample_real_pure",
    "sample_complex_pure",
    "sample_density",
    "sample_unitary",
    "unitaries_from_params",
    "kernel_components",
    "SAMPLE_CHUNK_KEY",
    "sample_region_components",
    "sample_in_region",
    "sample_in_region_batch",
    "REGIONS_BY_KIND",
]

REGIONS_BY_KIND = {"CC": ("O", "TCC", "OTC"), "DC": ("O", "TDC", "OTD")}

_CHUNK = 4096

# The first spawn-key word of every ``sample`` chunk's generator, a tag: with the
# chunk index as the second word, a chunk's key is two words long, and each of
# ``table2``'s two keys one word, so the two never share a generator.
SAMPLE_CHUNK_KEY = 0x73616D70  # "samp" in ASCII


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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
        if not _is_integer(self.seed) or self.seed < 0:
            raise ValidationError(f"seed must be an integer >= 0, got {self.seed!r}")
        if not 1 <= self.density_rank <= 4:
            raise ValidationError(f"density_rank must be in 1..4, got {self.density_rank}")
        if self.max_rejections < 1:
            raise ValidationError("max_rejections must be >= 1")

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(self.seed))

    def worker_rng(self, *key: int) -> np.random.Generator:
        """Independent generator for spawn key ``key`` (documented split rule)."""
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=key))


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


def _densities(components) -> np.ndarray:
    """The density operators, (n, 4, 4), of 'CC' components in the layout of
    :func:`kernel_components`: sum_r lam_r |psi_r><psi_r|, psi_r = x_r + i y_r
    normalised, with weight 1 at rank 1."""
    states = components[0] + 1j * components[1]
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    lam = components[2] if len(components) > 2 else np.ones(states.shape[::2])
    return np.einsum("rn,rin,rjn->nij", lam, states, states.conj())


def sample_density(rng: np.random.Generator, rank: int = 4, size=None) -> np.ndarray:
    """Mixtures of ``rank`` unitarily-invariant pure states with flat simplex weights."""
    components = kernel_components(rng, "CC", rank, 1 if size is None else size)
    return _squeeze(_densities(components), size)


def sample_unitary(rng: np.random.Generator, size=None) -> np.ndarray:
    """2x2 unitaries from the uniform 3-sphere x phase parameterization."""
    params = kernel_components(rng, "DC", 1, 1 if size is None else size)
    return _squeeze(unitaries_from_params(*params), size)


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


def kernel_components(rng: np.random.Generator, kind: str, rank: int, size: int) -> tuple:
    """``size`` objects' components drawn straight in the layout that
    ``correlation.correlation_matrix_batch`` reads, rows last. 'CC': the real,
    then the imaginary normals of ``rank`` pure components, (rank, 4, size)
    each, then, above rank 1, flat Dirichlet weights, (rank, size), drawn as
    standard exponentials and divided by their sum. 'DC', which reads no rank:
    (a1, a2, b1, b2) from (4, size) normals projected on the unit sphere, then
    ``size`` uniform phases. Column i of each depends only on the generator and
    ``size``. ``ValidationError``, before any draw, unless ``kind`` is 'CC' or
    'DC', ``rank`` an integer in 1..4 and ``size`` an integer >= 1."""
    if kind not in REGIONS_BY_KIND:
        raise ValidationError(f"kind must be 'CC' or 'DC', got {kind!r}")
    if not _is_integer(rank) or not 1 <= rank <= 4:
        raise ValidationError(f"rank must be an integer in 1..4, got {rank!r}")
    if not _is_integer(size) or size < 1:
        raise ValidationError(f"size must be an integer >= 1, got {size!r}")
    if kind == "DC":
        v = rng.standard_normal((4, size))
        v /= np.sqrt(((v[0] * v[0] + v[1] * v[1]) + v[2] * v[2]) + v[3] * v[3])
        return (*v, rng.uniform(0.0, 2.0 * np.pi, size=size))
    components = (rng.standard_normal((rank, 4, size)), rng.standard_normal((rank, 4, size)))
    if rank == 1:
        return components
    weights = rng.standard_exponential((rank, size))
    weights /= sum(weights)  # row after row, in order
    return (*components, weights)


def _region_chunks(cfg: SamplerConfig, kind: str, region: str, size: int, rng, tol: float):
    """The loop of :func:`sample_region_components`, arguments unchecked: the accepted
    columns of each ``_CHUNK``-object draw until ``size`` rows, the last chunk's cut to fit."""
    member = region_test(region)
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
        components = kernel_components(rng, kind, cfg.density_rank, _CHUNK)
        attempts += _CHUNK
        pts = np.stack(correlation_matrix_batch(kind, components, diagonal=True), axis=1)
        keep = np.flatnonzero(member(pts, tol))[: size - n_accepted]
        n_accepted += len(keep)
        yield tuple(column[..., keep] for column in components)


def sample_region_components(
    cfg: SamplerConfig,
    kind: str,
    region: str,
    size: int,
    rng: np.random.Generator | None = None,
    tol: float = 1e-9,
) -> tuple:
    """Rejection-sample the drawn components of ``size`` objects whose correlation
    point lies in ``region``: those of :func:`kernel_components`, each with the rows
    last, as the chunks of ``_region_chunks`` concatenated.

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
    chunks = _region_chunks(cfg, kind, region, size, cfg.rng() if rng is None else rng, tol)
    return tuple(np.concatenate(columns, axis=-1) for columns in zip(*chunks))


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
    return _densities(components)


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
