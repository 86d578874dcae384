"""Seeded random generation of states, density operators and unitaries.

All sampling flows through numpy's PCG64 generator, so one 64-bit seed
pins the full sample stream on any platform. Parallel workers derive
independent generators from (seed, worker index) through
``numpy.random.SeedSequence(seed, spawn_key=(index,))`` — see
:meth:`SamplerConfig.worker_rng`.

Samplers accept an optional ``size``: ``None`` returns a single object,
an integer returns a stacked batch (leading axis). Rejection sampling for
region-conditioned draws works on fixed-size chunks, which keeps the
stream deterministic for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlation import cc_pvector_batch, dc_pvector_batch
from .errors import SamplingExhaustedError, ValidationError
from .geometry import region_test

__all__ = [
    "SamplerConfig",
    "sample_real_pure",
    "sample_complex_pure",
    "sample_density",
    "sample_unitary",
    "sample_unitary_params",
    "unitaries_from_params",
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


def sample_density(rng: np.random.Generator, rank: int = 4, size=None) -> np.ndarray:
    """Mixtures of ``rank`` unitarily-invariant pure states with flat simplex weights."""
    if not 1 <= rank <= 4:
        raise ValidationError(f"rank must be in 1..4, got {rank}")
    n = 1 if size is None else int(size)
    states = rng.standard_normal((n, rank, 4)) + 1j * rng.standard_normal((n, rank, 4))
    states /= np.linalg.norm(states, axis=2, keepdims=True)
    if rank == 1:
        lam = np.ones((n, 1))
    else:
        lam = rng.dirichlet(np.ones(rank), size=n)
    rhos = np.einsum("nr,nri,nrj->nij", lam, states, states.conj())
    return _squeeze(rhos, size)


def sample_unitary(rng: np.random.Generator, size=None) -> np.ndarray:
    """2x2 unitaries from the uniform 3-sphere x phase parameterization."""
    params = sample_unitary_params(rng, 1 if size is None else int(size))
    return _squeeze(unitaries_from_params(*params), size)


def sample_unitary_params(rng: np.random.Generator, n: int):
    """Raw parameters (a1, a2, b1, b2, alpha): uniform sphere and uniform phase."""
    v = rng.standard_normal((n, 4))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    alpha = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return v[:, 0], v[:, 1], v[:, 2], v[:, 3], alpha


def unitaries_from_params(a1, a2, b1, b2, alpha) -> np.ndarray:
    """Assemble [[a1+i a2, b1+i b2], [-e^{i a}(b1-i b2), e^{i a}(a1-i a2)]].

    From 2^14 rows on, numpy reuses the complex temporaries in place, which
    changes the last bits of the products; a row's bits therefore depend on
    whether its batch is above or below that size.
    """
    a1, a2, b1, b2, alpha = np.broadcast_arrays(a1, a2, b1, b2, alpha)
    phase = np.exp(1j * alpha)
    u = np.empty(a1.shape + (2, 2), dtype=complex)
    u[..., 0, 0] = a1 + 1j * a2
    u[..., 0, 1] = b1 + 1j * b2
    u[..., 1, 0] = -phase * (b1 - 1j * b2)
    u[..., 1, 1] = phase * (a1 - 1j * a2)
    return u


def _draw_batch(kind: str, cfg: SamplerConfig, rng: np.random.Generator, n: int):
    if kind == "CC":
        objs = sample_density(rng, rank=cfg.density_rank, size=n)
        return objs, cc_pvector_batch(objs)
    objs = sample_unitary(rng, size=n)
    return objs, dc_pvector_batch(objs)


def sample_in_region_batch(
    cfg: SamplerConfig,
    kind: str,
    region: str,
    size: int,
    rng: np.random.Generator | None = None,
    tol: float = 1e-9,
) -> np.ndarray:
    """Rejection-sample ``size`` objects whose correlation point lies in ``region``.

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
    accepted: list[np.ndarray] = []
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
        objs, pts = _draw_batch(kind, cfg, rng, _CHUNK)
        attempts += _CHUNK
        keep = member(pts, tol)
        if keep.any():
            accepted.append(objs[keep])
            n_accepted += int(keep.sum())
    return np.concatenate(accepted, axis=0)[:size]


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
