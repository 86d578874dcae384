"""Numerical certification of the four extremal statistic values.

The product statistic over each tetrahedron reaches -1 and +1/27 on the
preparation side and -1/27 and +1 on the evolution side. Two independent
oracles certify these numbers and must agree:

* an exhaustive barycentric grid over the weight simplex (the statistic is
  a trilinear polynomial of an affine image of the weights, so the mesh
  error is bounded by L * step with L <= 3 * sqrt(3)), refined by an
  in-repo derivative-free compass polish on the simplex;
* multi-start Nelder-Mead over raw quantum parameters (real state
  coefficients, or sphere-plus-phase unitary parameters), re-evaluated
  through the correlation module. All starts advance in lockstep as one
  numpy array of simplices, with the standard coefficients and stop rule
  (Nelder & Mead 1965; Lagarias et al. 1998). The objectives normalize the
  leading four parameters, so the simplices are rescaled along that ray
  after every iteration; this changes no objective value, and it keeps a
  start from drifting outward until the iteration cap. Each start's path
  is the same bits whether it runs alone or in a batch.

Reported witnesses always reproduce the reported value through the
correlation layer; that closure is part of the contract and is asserted
in the tests. Multistart reports also carry the number of objective
evaluations and of starts stopped by the iteration cap.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .correlation import cc_pvector, dc_pvector, dc_pvector_params_batch, statistic_c
from .errors import ValidationError
from .geometry import (
    Tetrahedron,
    barycentric,
    state_from_weights,
    tcc,
    tdc,
    unitary_from_probs,
)
from .qmath import bell, projector
from .samplers import SamplerConfig, unitaries_from_params

__all__ = [
    "BoundReport",
    "grid_extremum",
    "polish_extremum",
    "multistart_state_extremum",
    "multistart_unitary_extremum",
    "TARGET_VALUES",
]

# Certified extrema for each target.
TARGET_VALUES = {
    "CC_MAX": 1.0 / 27.0,
    "CC_MIN": -1.0,
    "DC_MAX": 1.0,
    "DC_MIN": -1.0 / 27.0,
}

_POLISH_MAX_ITER = 10_000


@dataclass(frozen=True)
class BoundReport:
    """One certified extremum with its reproducing witness.

    ``witness`` holds barycentric weights; ``witness_object`` the quantum
    object (real state vector or 2x2 unitary) that reproduces ``value``
    through the correlation module.
    """

    target: str
    value: float
    witness: np.ndarray
    witness_object: np.ndarray
    grid_step: float | None = None
    starts: int | None = None
    converged: bool = True
    evaluations: int | None = None
    nonconverged: int | None = None


def _target_for(t: Tetrahedron, direction: str) -> str:
    if direction not in ("MIN", "MAX"):
        raise ValidationError(f"direction must be 'MIN' or 'MAX', got {direction!r}")
    if t is tcc():
        return f"CC_{direction}"
    if t is tdc():
        return f"DC_{direction}"
    raise ValidationError("bounds run over the two canonical tetrahedra only")


def _witness_object(target: str, weights: np.ndarray) -> np.ndarray:
    if target.startswith("CC"):
        return state_from_weights(weights)
    return unitary_from_probs(weights)


def _evaluate_witness(target: str, obj: np.ndarray) -> float:
    if target.startswith("CC"):
        return statistic_c(cc_pvector(projector(obj)))
    return statistic_c(dc_pvector(obj))


def _simplex_grid(n: int) -> np.ndarray:
    """All weight vectors (i, j, k, n-i-j-k)/n with non-negative parts."""
    idx = np.arange(n + 1, dtype=np.int32)
    i, j, k = np.meshgrid(idx, idx, idx, indexing="ij")
    mask = (i + j + k) <= n
    i, j, k = i[mask], j[mask], k[mask]
    grid = np.stack([i, j, k, n - i - j - k], axis=1).astype(float)
    return grid / n


def grid_extremum(t: Tetrahedron, direction: str, step: float) -> BoundReport:
    """Exhaustive simplex-grid search for the statistic's extremum over ``t``."""
    if not 0.0 < step <= 0.1:
        raise ValidationError(f"grid step must be in (0, 0.1], got {step}")
    target = _target_for(t, direction)
    n = max(int(round(1.0 / step)), 10)
    weights = _simplex_grid(n)
    values = (weights @ t.vertices).prod(axis=1)
    best = int(values.argmax() if direction == "MAX" else values.argmin())
    w = weights[best]
    return BoundReport(
        target=target,
        value=float(values[best]),
        witness=w,
        witness_object=_witness_object(target, w),
        grid_step=1.0 / n,
    )


def _simplex_compass(
    t: Tetrahedron, direction: str, w0: np.ndarray, tol: float
) -> tuple[np.ndarray, bool]:
    """Pairwise weight-transfer descent along the simplex, halving the step.

    The transfer directions e_i - e_j positively span the feasible cone at
    every face of the simplex, so stalling at step < tol certifies a
    stationary point up to tol.
    """
    sign = 1.0 if direction == "MAX" else -1.0

    def score(w):
        return sign * float((w @ t.vertices).prod())

    w = w0.copy()
    best = score(w)
    delta = 0.25
    iterations = 0
    while delta >= tol and iterations < _POLISH_MAX_ITER:
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
    return w, delta < tol


def polish_extremum(report: BoundReport, tol: float = 1e-10) -> BoundReport:
    """Refine a grid report by simplex-constrained compass search.

    Never worsens the objective; returns ``converged=False`` when the
    iteration cap is hit before the step threshold.
    """
    t = tcc() if report.target.startswith("CC") else tdc()
    direction = report.target.split("_")[1]
    w, converged = _simplex_compass(t, direction, np.asarray(report.witness, float), tol)
    value = float((w @ t.vertices).prod())
    if (direction == "MAX" and value < report.value) or (
        direction == "MIN" and value > report.value
    ):
        w, value = report.witness, report.value  # keep the better point
    return replace(
        report,
        value=value,
        witness=w,
        witness_object=_witness_object(report.target, w),
        converged=converged,
    )


# Nelder-Mead coefficients (reflection, expansion, contraction, shrink) of
# Nelder & Mead (1965), and the initial simplex: each vertex moves one
# coordinate of the start by 5 %, or to 0.00025 where it is zero.
_NM_RHO, _NM_CHI, _NM_PSI, _NM_SIGMA = 1.0, 2.0, 0.5, 0.5
_NM_NONZDELT, _NM_ZDELT = 0.05, 0.00025
_NM_MAX_ITER = 10_000
_NM_XATOL = 1e-12
_NM_FATOL = 1e-14
# Leading coordinates the objectives normalize: z, or (a1, a2, b1, b2).
_SCALE_BLOCK = 4
_TINY_NORM2 = 1e-12


@dataclass(frozen=True)
class _SimplexResult:
    """Per-start outcome of :func:`_nelder_mead`: best vertex and value,
    objective evaluations, and whether the stop rule was met."""

    x: np.ndarray
    fun: np.ndarray
    evaluations: np.ndarray
    converged: np.ndarray


def _sum_rows(a: np.ndarray) -> np.ndarray:
    """Sum over axis 1 in a fixed order, so each start's sum is independent
    of the batch it runs in."""
    total = a[:, 0]
    for j in range(1, a.shape[1]):
        total = total + a[:, j]
    return total


def _rescale_block(sim: np.ndarray, block: int) -> None:
    """Scale the leading ``block`` coordinates of every vertex, in place, by
    the power of two that brings their centroid's norm into [0.5, 1).

    The objectives normalize this block, and a power-of-two scaling is exact
    in floating point, so no objective value and no decision of the search
    changes; the absolute ``xatol`` test stays reachable however far the
    simplex has drifted along the ray.
    """
    centroid = _sum_rows(sim[:, :, :block]) / sim.shape[1]
    norm = np.sqrt(_sum_rows(centroid * centroid))
    _, exponent = np.frexp(norm)
    sim[:, :, :block] = np.ldexp(sim[:, :, :block], -exponent[:, None, None])


def _nelder_mead(objective, x0: np.ndarray, block: int, max_iter: int) -> _SimplexResult:
    """Nelder-Mead from every row of ``x0`` at once, advanced in lockstep.

    ``objective`` maps an (n, d) array of points to n values and must treat
    rows independently. All simplices form one (starts, d+1, d) array; each
    iteration evaluates the reflections in one call, the single expansion or
    contraction point each simplex needs in a second, and the shrinks in a
    third. A start leaves the active set once its vertices lie within
    ``_NM_XATOL`` of the best one and their values within ``_NM_FATOL``, or
    after ``max_iter`` iterations. With ``block`` > 0 the leading ``block``
    coordinates are taken to be scale-invariant and rescaled after every
    iteration (see :func:`_rescale_block`).
    """
    x0 = np.asarray(x0, dtype=float)
    starts, d = x0.shape
    sim = np.repeat(x0[:, None, :], d + 1, axis=1)
    for k in range(d):
        col = sim[:, k + 1, k]
        sim[:, k + 1, k] = np.where(col != 0, (1 + _NM_NONZDELT) * col, _NM_ZDELT)
    fsim = objective(sim.reshape(-1, d)).reshape(starts, d + 1)
    nfev = np.full(starts, d + 1)

    best_x = np.empty((starts, d))
    best_f = np.empty(starts)
    evaluations = np.empty(starts, dtype=int)
    converged = np.zeros(starts, dtype=bool)
    idx = np.arange(starts)
    iterations = 0
    while True:
        order = np.argsort(fsim, axis=1, kind="stable")
        rows = np.arange(idx.size)[:, None]
        fsim, sim = fsim[rows, order], sim[rows, order]
        if block:
            _rescale_block(sim, block)
        # fsim is sorted and rounding is monotone, so its spread is last - first
        done = (fsim[:, -1] - fsim[:, 0] <= _NM_FATOL) & (
            np.abs(sim[:, 1:] - sim[:, :1]).max(axis=(1, 2)) <= _NM_XATOL
        )
        stop = done | (iterations >= max_iter)
        if stop.any():
            out = idx[stop]
            best_x[out] = sim[stop, 0]
            best_f[out] = fsim[stop, 0]
            evaluations[out] = nfev[stop]
            converged[out] = done[stop]
            keep = ~stop
            sim, fsim, nfev, idx = sim[keep], fsim[keep], nfev[keep], idx[keep]
            if idx.size == 0:
                break
        iterations += 1
        n = idx.size

        xbar = _sum_rows(sim[:, :-1]) / d
        worst, f_worst = sim[:, -1], fsim[:, -1]
        xr = (1 + _NM_RHO) * xbar - _NM_RHO * worst
        fxr = objective(xr)
        nfev += 1

        expand = fxr < fsim[:, 0]
        reflect = ~expand & (fxr < fsim[:, -2])
        outside = ~expand & ~reflect & (fxr < f_worst)
        inside = ~(expand | reflect | outside)
        xe = (1 + _NM_RHO * _NM_CHI) * xbar - _NM_RHO * _NM_CHI * worst
        xc = (1 + _NM_PSI * _NM_RHO) * xbar - _NM_PSI * _NM_RHO * worst
        xcc = (1 - _NM_PSI) * xbar + _NM_PSI * worst
        second = ~reflect
        x2 = np.where(expand[:, None], xe, np.where(outside[:, None], xc, xcc))
        f2 = np.full(n, np.nan)
        if second.any():
            f2[second] = objective(x2[second])
            nfev[second] += 1

        take2 = (expand & (f2 < fxr)) | (outside & (f2 <= fxr)) | (inside & (f2 < f_worst))
        shrink = (outside | inside) & ~take2
        # a shrinking simplex keeps its worst vertex until the shrink below
        sim[:, -1] = np.where(take2[:, None], x2, np.where(shrink[:, None], worst, xr))
        fsim[:, -1] = np.where(take2, f2, np.where(shrink, f_worst, fxr))
        if shrink.any():
            s = sim[shrink]
            s[:, 1:] = s[:, :1] + _NM_SIGMA * (s[:, 1:] - s[:, :1])
            fs = fsim[shrink]
            fs[:, 1:] = objective(s[:, 1:].reshape(-1, d)).reshape(-1, d)
            sim[shrink], fsim[shrink] = s, fs
            nfev[shrink] += d
    return _SimplexResult(best_x, best_f, evaluations, converged)


def _state_objective(sign: float):
    """Signed statistic of the real state with entangled-basis coefficients z."""
    vertices = tcc().vertices

    def objective(z):
        n2 = _sum_rows(z * z)
        tiny = n2 < _TINY_NORM2
        w = z * z / np.where(tiny, 1.0, n2)[:, None]
        point = _sum_rows(w[:, :, None] * vertices)
        value = sign * (point[:, 0] * point[:, 1] * point[:, 2])
        return np.where(tiny, 1.0, value)

    return objective


def _unitary_objective(sign: float):
    """Signed statistic of the unitary with parameters (a1, a2, b1, b2, alpha)."""

    def objective(x):
        v = x[:, :4]
        n2 = _sum_rows(v * v)
        tiny = n2 < _TINY_NORM2
        params = x.copy()
        params[:, :4] = v / np.sqrt(np.where(tiny, 1.0, n2))[:, None]
        point = dc_pvector_params_batch(params)
        value = sign * (point[:, 0] * point[:, 1] * point[:, 2])
        return np.where(tiny, 1.0, value)

    return objective


def _best_start(objective, x0: np.ndarray) -> tuple[np.ndarray, dict]:
    """Run every start; return the best end point (the first on ties) and
    the evaluation and non-convergence counts for the report."""
    res = _nelder_mead(objective, x0, _SCALE_BLOCK, _NM_MAX_ITER)
    counts = {
        "evaluations": int(res.evaluations.sum()),
        "nonconverged": int((~res.converged).sum()),
    }
    return res.x[int(np.argmin(res.fun))], counts


def multistart_state_extremum(
    direction: str, starts: int, cfg: SamplerConfig
) -> BoundReport:
    """Multi-start Nelder-Mead over real dimension-4 states.

    Optimizes the statistic of the state's correlation point; coordinates
    are coefficients in the entangled basis (an orthogonal change of
    basis), normalized inside the objective so the search is effectively
    on the unit sphere.
    """
    target = _target_for(tcc(), direction)
    if starts < 1:
        raise ValidationError("starts must be >= 1")
    sign = -1.0 if direction == "MAX" else 1.0
    x0 = cfg.rng().standard_normal((starts, 4))
    best_z, counts = _best_start(_state_objective(sign), x0)
    z = best_z / np.linalg.norm(best_z)
    weights = z * z
    state = sum(zj * bell(j) for j, zj in enumerate(z, start=1))
    value = _evaluate_witness(target, state)
    return BoundReport(
        target=target, value=value, witness=weights, witness_object=state, starts=starts,
        **counts,
    )


def multistart_unitary_extremum(
    direction: str, starts: int, cfg: SamplerConfig
) -> BoundReport:
    """Multi-start Nelder-Mead over sphere-plus-phase unitary parameters."""
    target = _target_for(tdc(), direction)
    if starts < 1:
        raise ValidationError("starts must be >= 1")
    sign = -1.0 if direction == "MAX" else 1.0
    rng = cfg.rng()
    x0 = np.array([
        np.concatenate([rng.standard_normal(4), rng.uniform(0, 2 * np.pi, 1)])
        for _ in range(starts)
    ])
    best_x, counts = _best_start(_unitary_objective(sign), x0)
    v = best_x[:4] / np.linalg.norm(best_x[:4])
    u = unitaries_from_params(v[0], v[1], v[2], v[3], best_x[4])
    value = _evaluate_witness(target, u)
    weights = barycentric(tdc(), dc_pvector(u).as_array(), tol=1e-6)
    return BoundReport(
        target=target, value=value, witness=weights, witness_object=u, starts=starts, **counts
    )
