"""Numerical certification of the four extremal statistic values.

The product statistic over each tetrahedron reaches -1 and +1/27 on the
preparation side and -1/27 and +1 on the evolution side. Two independent
oracles certify these numbers and must agree:

* an exhaustive barycentric grid over the weight simplex, one slice of the
  first weight at a time (the statistic is a trilinear polynomial of an
  affine image of the weights, so the mesh error is bounded by L * step
  with L <= 3 * sqrt(3)), refined by an in-repo derivative-free compass
  polish on the simplex. One sweep serves all four targets: each slice's
  weights are built once and C is evaluated once per tetrahedron;
* multi-start Nelder-Mead over raw quantum parameters (real state
  coefficients, or sphere-plus-phase unitary parameters), re-evaluated
  through the correlation module. All starts advance in lockstep as one
  numpy array of simplices, with the standard coefficients and stop rule
  (Nelder & Mead 1965; Lagarias et al. 1998). One batch spans both
  directions of a parameterization: both run the same starts, each row
  signed by its start's direction. The objectives normalize the
  leading four parameters, so the simplices are rescaled along that ray
  after every iteration; this changes no objective value, and it keeps a
  start from drifting outward until the iteration cap. Each start's path
  is the same bits whether it runs alone or in a batch.

The grid, the polish and the state objective share one evaluator of the
statistic at barycentric weights, elementwise like every sum here, so this
module makes no BLAS call and its values do not depend on the BLAS kernel.

Reported witnesses always reproduce the reported value through the
correlation layer; that closure is part of the contract and is asserted
in the tests. A multistart value is the objective's own at the best end
point, which real arithmetic alone decides. Multistart reports also carry
the number of objective evaluations and of starts stopped by the iteration
cap.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .correlation import correlation_matrix_batch, dc_pvector, statistic_c_batch
from .errors import ValidationError
from .geometry import (
    Tetrahedron,
    barycentric,
    state_from_weights,
    tcc,
    tdc,
    unitary_from_probs,
)
from .qmath import bell
from .samplers import SamplerConfig, unitaries_from_params

__all__ = [
    "BoundReport",
    "polish_extremum",
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

# Per direction: the first extremal index of an array, the strict improvement
# test across grid slices, and the value every slice improves on.
_EXTREMUM = {"MAX": (np.argmax, np.greater, -np.inf), "MIN": (np.argmin, np.less, np.inf)}


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
    converged: bool = True
    evaluations: int | None = None
    nonconverged: int | None = None


def _witness_object(target: str, weights: np.ndarray) -> np.ndarray:
    if target.startswith("CC"):
        return state_from_weights(weights)
    return unitary_from_probs(weights)


def _sum_rows(a: np.ndarray) -> np.ndarray:
    """Sum over axis 1 in a fixed order, so each row's sum is independent
    of the batch it is in."""
    total = a[:, 0]
    for j in range(1, a.shape[1]):
        total = total + a[:, j]
    return total


def _statistic_at(t: Tetrahedron, weights: np.ndarray) -> np.ndarray:
    """C at each row of barycentric ``weights`` over ``t``, shape (n,); each
    coordinate is summed over the vertices in order, with no (n, 4, 3) temporary."""
    point = weights[:, :1] * t.vertices[0]
    for k in range(1, 4):
        point = point + weights[:, k : k + 1] * t.vertices[k]
    return statistic_c_batch(point)


def _grid_extrema(targets, step: float) -> dict[str, BoundReport]:
    """Each target's extremum over the weights (i, j, k, n-i-j-k)/n, n = 1/step,
    from one sweep: a slice of i at a time, C evaluated once per tetrahedron;
    the first in lexicographic (i, j, k) order wins a tie."""
    if not 0.001 <= step <= 0.1:
        raise ValidationError(f"grid step must be in [0.001, 0.1], got {step}")
    n = round(1.0 / step)
    best = {target: (_EXTREMUM[target[3:]][2], None) for target in targets}
    for i in range(n + 1):
        j, jk = np.triu_indices(n - i + 1)  # jk = j + k, in lexicographic (j, k) order
        weights = np.column_stack([np.full(j.size, i), j, jk - j, n - i - jk]) / n
        for kind, t in (("CC", tcc()), ("DC", tdc())):
            wanted = [target for target in best if target.startswith(kind)]
            if not wanted:
                continue
            values = _statistic_at(t, weights)
            for target in wanted:
                pick, better, _ = _EXTREMUM[target[3:]]
                at = int(pick(values))
                if better(values[at], best[target][0]):
                    best[target] = (values[at], weights[at])
    return {
        target: BoundReport(target, float(value), w, _witness_object(target, w))
        for target, (value, w) in best.items()
    }


# The compass moves in sweep order, each taking weight from _MOVE_FROM to _MOVE_TO.
_MOVE_TO, _MOVE_FROM = np.array([(i, j) for i in range(4) for j in range(4) if i != j]).T


def _simplex_compass(
    t: Tetrahedron, sign: float, w0: np.ndarray, tol: float
) -> tuple[np.ndarray, float, bool]:
    """Pairwise weight-transfer ascent of ``sign`` * C along the simplex, halving
    the step; returns the end point, C there, and whether the step fell below tol.

    The transfer directions e_i - e_j positively span the feasible cone at
    every face of the simplex, so stalling at step < tol certifies a
    stationary point up to tol. A sweep takes the first move that improves on
    the current point; all its moves from one point are evaluated in one call,
    and after a move is taken only the moves that follow it, from the new point.
    """
    w = w0.copy()
    best = sign * float(_statistic_at(t, w[None])[0])
    delta = 0.25
    iterations = 0
    while delta >= tol and iterations < _POLISH_MAX_ITER:
        iterations += 1
        improved = False
        first = 0
        while True:
            moves = first + np.flatnonzero(w[_MOVE_FROM[first:]] >= delta)
            if moves.size == 0:
                break
            rows = np.arange(moves.size)
            cand = np.repeat(w[None], moves.size, axis=0)
            cand[rows, _MOVE_TO[moves]] += delta
            cand[rows, _MOVE_FROM[moves]] -= delta
            values = sign * _statistic_at(t, cand)
            up = np.flatnonzero(values > best + 1e-16)
            if up.size == 0:
                break
            k = up[0]
            w, best, improved, first = cand[k], float(values[k]), True, moves[k] + 1
        if not improved:
            delta /= 2.0
    return w, sign * best, delta < tol


def polish_extremum(report: BoundReport, tol: float = 1e-10) -> BoundReport:
    """Refine a grid report by simplex-constrained compass search.

    Never worsens the objective: the search only takes improvements on its
    start, whose value the grid took from the same evaluator. Returns
    ``converged=False`` when the iteration cap is hit before the step threshold.
    ``ValidationError`` unless ``tol`` is finite and > 0.
    """
    if not 0.0 < tol < np.inf:
        raise ValidationError(f"polish tolerance must be finite and > 0, got {tol!r}")
    t = tcc() if report.target.startswith("CC") else tdc()
    sign = 1.0 if report.target.endswith("MAX") else -1.0
    w, value, converged = _simplex_compass(t, sign, np.asarray(report.witness, float), tol)
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

    ``objective`` maps an (n, d) array of points and the index of the start
    each belongs to (its row of ``x0``) to n values, and must treat rows
    independently. All simplices form one (starts, d+1, d) array; each
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
    idx = np.arange(starts)
    fsim = objective(sim.reshape(-1, d), np.repeat(idx, d + 1)).reshape(starts, d + 1)
    nfev = np.full(starts, d + 1)

    best_x = np.empty((starts, d))
    best_f = np.empty(starts)
    evaluations = np.empty(starts, dtype=int)
    converged = np.zeros(starts, dtype=bool)
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
        fxr = objective(xr, idx)
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
            f2[second] = objective(x2[second], idx[second])
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
            fs[:, 1:] = objective(
                s[:, 1:].reshape(-1, d), np.repeat(idx[shrink], d)
            ).reshape(-1, d)
            sim[shrink], fsim[shrink] = s, fs
            nfev[shrink] += d
    return _SimplexResult(best_x, best_f, evaluations, converged)


def _state_objective(signs: np.ndarray):
    """Statistic of the real state with entangled-basis coefficients z, times
    the sign of each row's start."""

    def objective(z, start):
        n2 = _sum_rows(z * z)
        tiny = n2 < _TINY_NORM2
        value = signs[start] * _statistic_at(tcc(), z * z / np.where(tiny, 1.0, n2)[:, None])
        return np.where(tiny, 1.0, value)

    return objective


def _unitary_objective(signs: np.ndarray):
    """Statistic of the unitary with parameters (a1, a2, b1, b2, alpha), times
    the sign of each row's start."""

    def objective(x, start):
        v = x[:, :4]
        n2 = _sum_rows(v * v)
        tiny = n2 < _TINY_NORM2
        v = v / np.sqrt(np.where(tiny, 1.0, n2))[:, None]
        r11, r22, r33 = correlation_matrix_batch("DC", (*v.T, x[:, 4]), diagonal=True)
        value = signs[start] * (r11 * r22 * r33)
        return np.where(tiny, 1.0, value)

    return objective


def _multistart_extrema(
    kind: str, directions, starts: int, cfg: SamplerConfig
) -> dict[str, BoundReport]:
    """Multi-start Nelder-Mead in each direction over the ``kind`` ("CC" or
    "DC") parameterization, as one lockstep batch.

    The starts are drawn once from ``cfg.rng()`` and every direction runs
    them all, minimizing -C for MAX and C for MIN; each start's path has the
    same bits as in a one-direction batch. Returns a report per target, from
    the best end point of its starts (the first on ties): its value is the
    objective's own there, sign * f, and its witness object reproduces it.
    """
    if starts < 1:
        raise ValidationError("starts must be >= 1")
    rng = cfg.rng()
    if kind == "CC":
        x0 = rng.standard_normal((starts, 4))
    else:
        x0 = np.array([
            np.concatenate([rng.standard_normal(4), rng.uniform(0, 2 * np.pi, 1)])
            for _ in range(starts)
        ])
    signs = np.repeat([-1.0 if direction == "MAX" else 1.0 for direction in directions], starts)
    objective = (_state_objective if kind == "CC" else _unitary_objective)(signs)
    res = _nelder_mead(objective, np.tile(x0, (len(directions), 1)), _SCALE_BLOCK, _NM_MAX_ITER)
    reports = {}
    for k, direction in enumerate(directions):
        part, target = slice(k * starts, (k + 1) * starts), f"{kind}_{direction}"
        at = part.start + int(np.argmin(res.fun[part]))
        best = res.x[at]
        if kind == "CC":
            z = best / np.sqrt(_sum_rows(best[None] ** 2))
            weights, obj = z * z, sum(zj * bell(j) for j, zj in enumerate(z, start=1))
        else:
            v = best[:4] / np.sqrt(_sum_rows(best[None, :4] ** 2))
            obj = unitaries_from_params(v[0], v[1], v[2], v[3], best[4])
            weights = barycentric(tdc(), dc_pvector(obj).as_array(), tol=1e-6)
        reports[target] = BoundReport(
            target, float(signs[at] * res.fun[at]), weights, obj,
            evaluations=int(res.evaluations[part].sum()),
            nonconverged=int((~res.converged[part]).sum()),
        )
    return reports
