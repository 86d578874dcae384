"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and measured figures.
"""

import time

import numpy as np
import pytest

import oracles
from qcausal import basis_change as bc
from qcausal import bounds, cli
from qcausal import correlation as corr
from qcausal import geometry as geo
from qcausal import qmath
from qcausal.samplers import (
    SamplerConfig,
    sample_complex_pure,
    sample_density,
    sample_real_pure,
    sample_unitary,
)

CC_MAX = 1 / 27
DC_MIN = -1 / 27
SEED = 20260810


def report(criterion, message):
    print(f"ACCEPTANCE {criterion}: PASS — {message}")


def test_criterion_01_table1_exact():
    """All 8 signature rows match bit-exactly (tol 1e-12), under 1 second."""
    start = time.perf_counter()
    rows = [
        (corr.dc_pvector(qmath.pauli(0)), (1, 1, 1), 1.0),
        (corr.dc_pvector(qmath.pauli(1)), (1, -1, -1), 1.0),
        (corr.dc_pvector(qmath.pauli(2)), (-1, 1, -1), 1.0),
        (corr.dc_pvector(qmath.pauli(3)), (-1, -1, 1), 1.0),
        (corr.cc_pvector(qmath.projector(qmath.bell(1))), (1, -1, 1), -1.0),
        (corr.cc_pvector(qmath.projector(qmath.bell(2))), (-1, 1, 1), -1.0),
        (corr.cc_pvector(qmath.projector(qmath.bell(3))), (1, 1, -1), -1.0),
        (corr.cc_pvector(qmath.projector(qmath.bell(4))), (-1, -1, -1), -1.0),
    ]
    for point, pattern, cval in rows:
        np.testing.assert_allclose(point.as_array(), pattern, atol=1e-12)
        assert abs(corr.statistic_c(point) - cval) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"8/8 signature rows exact at 1e-12 in {elapsed:.3f}s")


def test_criterion_02_tetrahedron_vertices():
    """Entangled-basis and Pauli vertices match the printed coordinates at 1e-12."""
    start = time.perf_counter()
    for j in range(1, 5):
        got = corr.cc_pvector(qmath.projector(qmath.bell(j))).as_array()
        np.testing.assert_allclose(got, geo.tcc().vertices[j - 1], atol=1e-12)
    for j in range(4):
        got = corr.dc_pvector(qmath.pauli(j)).as_array()
        np.testing.assert_allclose(got, geo.tdc().vertices[j], atol=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(2, f"all 8 vertices reproduced at 1e-12 in {elapsed:.3f}s")


def test_criterion_03_common_cause_sweep():
    """10^6 seeded density operators: no C above 1/27 + 1e-9, min C <= -0.99.

    The sweep stratifies over real pure, complex pure, rank-2 and rank-4
    preparations (250k each): the upper bound is universal, while the
    entangled-vertex floor is only approachable through the real stratum
    (see the decisions notes for the measured cap probabilities).
    """
    start = time.perf_counter()
    rng = SamplerConfig(seed=SEED).rng()
    per_stratum = 250_000
    cvals = []
    for states in (sample_real_pure(rng, size=per_stratum),
                   sample_complex_pure(rng, size=per_stratum)):
        rhos = states[:, :, None] * states[:, None, :].conj()
        cvals.append(corr.cc_pvector_batch(rhos).prod(axis=1))
    for rank in (2, 4):
        rhos = sample_density(rng, rank=rank, size=per_stratum)
        cvals.append(corr.cc_pvector_batch(rhos).prod(axis=1))
    cvals = np.concatenate(cvals)
    assert cvals.shape == (1_000_000,)
    n_violations = int((cvals > CC_MAX + 1e-9).sum())
    assert n_violations == 0
    assert cvals.min() <= -0.99
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(
        3,
        f"10^6 preparations: 0 bound violations, max C = {cvals.max():.8f}, "
        f"min C = {cvals.min():.6f} in {elapsed:.1f}s",
    )


def test_criterion_04_direct_cause_sweep():
    """10^6 seeded unitaries: no C below -1/27 - 1e-9, max C >= 0.99."""
    start = time.perf_counter()
    rng = SamplerConfig(seed=SEED + 1).rng()
    us = sample_unitary(rng, size=1_000_000)
    cvals = corr.dc_pvector_batch(us).prod(axis=1)
    n_violations = int((cvals < DC_MIN - 1e-9).sum())
    assert n_violations == 0
    assert cvals.max() >= 0.99
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(
        4,
        f"10^6 evolutions: 0 bound violations, min C = {cvals.min():.8f}, "
        f"max C = {cvals.max():.6f} in {elapsed:.1f}s",
    )


def test_criterion_05_bound_certification():
    """Grid+polish and multistart independently certify 1/27 and -1/27."""
    start = time.perf_counter()
    cfg = SamplerConfig(seed=SEED + 2)

    grid_cc = bounds.polish_extremum(bounds.grid_extremum(geo.tcc(), "MAX", 0.01))
    multi_cc = bounds.multistart_state_extremum("MAX", 200, cfg)
    assert abs(grid_cc.value - CC_MAX) <= 1e-6
    assert abs(multi_cc.value - CC_MAX) <= 1e-6
    assert abs(grid_cc.value - multi_cc.value) <= 1e-6

    grid_dc = bounds.polish_extremum(bounds.grid_extremum(geo.tdc(), "MIN", 0.01))
    multi_dc = bounds.multistart_unitary_extremum("MIN", 200, cfg)
    assert abs(grid_dc.value - DC_MIN) <= 1e-6
    assert abs(multi_dc.value - DC_MIN) <= 1e-6
    assert abs(grid_dc.value - multi_dc.value) <= 1e-6

    # published witness, resolved to the computational-basis reading
    witness = np.array([-2, 1, -1, 0], dtype=complex) / np.sqrt(6)
    value = corr.statistic_c(corr.cc_pvector(qmath.projector(witness)))
    assert abs(value - CC_MAX) <= 1e-10

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(
        5,
        f"CC_MAX {grid_cc.value:.9f}/{multi_cc.value:.9f}, "
        f"DC_MIN {grid_dc.value:.9f}/{multi_dc.value:.9f}, witness C = {value:.12f} "
        f"in {elapsed:.1f}s",
    )


def test_criterion_06_rotation_identities():
    """10^4 random pairs satisfy both rotated-point identities at 1e-10."""
    start = time.perf_counter()
    rng = SamplerConfig(seed=SEED + 3).rng()
    failures = 0
    for _ in range(10_000):
        rho = sample_density(rng)
        v = sample_unitary(rng)
        lhs = oracles.pprime_cc_oracle(rho, v).as_array()
        rhs = corr.cc_pvector(bc.transform_density(rho, v)).as_array()
        if np.abs(lhs - rhs).max() > 1e-10:
            failures += 1
    for _ in range(10_000):
        u = sample_unitary(rng)
        v = sample_unitary(rng)
        lhs = oracles.pprime_dc_oracle(u, v).as_array()
        rhs = corr.dc_pvector(bc.transform_unitary(u, v)).as_array()
        if np.abs(lhs - rhs).max() > 1e-10:
            failures += 1
    assert failures == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(6, f"2x10^4 rotation identities, 0 failures at 1e-10 in {elapsed:.1f}s")


def test_criterion_07_mixture_linearity():
    """10^4 random mixtures: direct evaluation equals the convex combination."""
    start = time.perf_counter()
    rng = SamplerConfig(seed=SEED + 4).rng()
    worst = 0.0
    for _ in range(10_000):
        scenario = corr.MixtureScenario(
            sample_density(rng), sample_unitary(rng), float(rng.uniform())
        )
        direct = oracles.mixture_pvector_oracle(scenario).as_array()
        combo = (
            scenario.p * corr.cc_pvector(scenario.rho).as_array()
            + (1 - scenario.p) * corr.dc_pvector(scenario.u).as_array()
        )
        worst = max(worst, float(np.abs(direct - combo).max()))
    assert worst <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(7, f"10^4 mixtures, worst deviation {worst:.2e} in {elapsed:.1f}s")


def test_criterion_08_geometry_oracles():
    """Octahedron formula vs brute-force half-spaces; reconstruction round-trips."""
    start = time.perf_counter()
    rng = SamplerConfig(seed=SEED + 5).rng()
    pts = rng.uniform(-1, 1, size=(100_000, 3))
    via_formula = np.abs(pts).sum(axis=-1) <= 1.0 + 1e-12
    via_halfspaces = geo.contains(geo.tcc(), pts, 1e-12) & geo.contains(geo.tdc(), pts, 1e-12)
    disagreements = int((via_formula != via_halfspaces).sum())
    assert disagreements == 0

    worst_cc = worst_dc = 0.0
    for _ in range(2_000):
        w = rng.dirichlet(np.ones(4))
        p = w @ geo.tcc().vertices
        state = geo.state_from_weights(geo.barycentric(geo.tcc(), p))
        got = corr.cc_pvector(qmath.projector(state)).as_array()
        worst_cc = max(worst_cc, float(np.abs(got - p).max()))

        q = w @ geo.tdc().vertices
        u = geo.unitary_from_probs(geo.barycentric(geo.tdc(), q))
        got = corr.dc_pvector(u).as_array()
        worst_dc = max(worst_dc, float(np.abs(got - q).max()))
    assert worst_cc <= 1e-9
    assert worst_dc <= 1e-9
    elapsed = time.perf_counter() - start
    report(
        8,
        f"10^5 overlap points, 0 disagreements; round-trips worst "
        f"{worst_cc:.2e}/{worst_dc:.2e} in {elapsed:.1f}s",
    )


def test_criterion_09_escape_proportions():
    """Escape proportions within +-5pp of the published figures, with fallback.

    Out-of-band rows (if any) are reported with the measured figure; the
    published-claim fallback — every transformed overlap preparation lands
    in the corner-cut tetrahedron for the first two rotations — is always
    asserted.
    """
    start = time.perf_counter()
    n = 20_000
    out_of_band = []
    measured = []
    for idx, (v, (ref_cc, ref_dc)) in enumerate(
        zip(bc.ESCAPE_V_SET, bc.REFERENCE_PROPORTIONS), start=1
    ):
        cc = bc.escape_experiment(
            "CC", v, n, SamplerConfig(seed=SEED + 6000 + idx, density_rank=1)
        )
        dc = bc.escape_experiment("DC", v, n, SamplerConfig(seed=SEED + 7000 + idx))
        measured.append((idx, 100 * cc.proportion, ref_cc, 100 * dc.proportion, ref_dc))
        for kind, res, ref in (("CC", cc, ref_cc), ("DC", dc, ref_dc)):
            delta = abs(100 * res.proportion - ref)
            if delta > 5.0:
                out_of_band.append((idx, kind, 100 * res.proportion, ref))
        if idx in (1, 2):
            assert cc.image_in_target, f"fallback failed: rotation {idx} image left region"
    for idx, mcc, rcc, mdc, rdc in measured:
        print(
            f"  rotation {idx}: CC {mcc:.2f}% (published {rcc}%), "
            f"DC {mdc:.2f}% (published {rdc}%)"
        )
    for row in out_of_band:
        print(f"  OUT OF BAND: rotation {row[0]} {row[1]} measured {row[2]:.2f}% vs {row[3]}%")
    assert not out_of_band, f"proportions out of the 5pp band: {out_of_band}"
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(9, f"8/8 escape proportions in band, fallback holds, in {elapsed:.1f}s")


def test_criterion_10_determinism(tmp_path):
    """Same seed, same bytes: CSV output and command reports."""
    start = time.perf_counter()
    path = tmp_path / "out.csv"
    rep_a = cli.run_sample("CC", 5_000, seed=SEED + 8, out_path=str(path))
    bytes_a = path.read_bytes()
    rep_b = cli.run_sample("CC", 5_000, seed=SEED + 8, out_path=str(path))
    assert bytes_a == path.read_bytes()
    assert rep_a.to_json() == rep_b.to_json()

    t2_a = cli.run_table2(n=500, seed=SEED + 9)
    t2_b = cli.run_table2(n=500, seed=SEED + 9)
    assert t2_a.to_json() == t2_b.to_json()

    bounds_a = cli.run_bounds(grid_step=0.02, starts=20, seed=SEED + 10)
    bounds_b = cli.run_bounds(grid_step=0.02, starts=20, seed=SEED + 10)
    assert bounds_a.to_json() == bounds_b.to_json()
    elapsed = time.perf_counter() - start
    report(10, f"byte-identical reruns for sample/table2/bounds in {elapsed:.1f}s")
