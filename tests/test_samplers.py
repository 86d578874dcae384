import pickle

import numpy as np
import pytest

from qcausal import correlation as corr
from qcausal import geometry as geo
from qcausal import qmath
from qcausal import samplers
from qcausal.errors import SamplingExhaustedError, ValidationError

CC_MAX = 1 / 27
DC_MIN = -1 / 27


def projectors(states):
    """|phi><phi| of each row of a stack of state vectors."""
    return states[:, :, None] * states[:, None, :].conj()


class TestDeterminism:
    def test_same_seed_same_stream(self):
        cfg = samplers.SamplerConfig(seed=123)
        a = samplers.sample_density(cfg.rng(), size=100)
        b = samplers.sample_density(cfg.rng(), size=100)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = samplers.sample_unitary(samplers.SamplerConfig(seed=1).rng(), size=10)
        b = samplers.sample_unitary(samplers.SamplerConfig(seed=2).rng(), size=10)
        assert not np.allclose(a, b)

    def test_worker_split_rule(self):
        cfg = samplers.SamplerConfig(seed=9)
        w0 = samplers.sample_complex_pure(cfg.worker_rng(0), size=5)
        w0_again = samplers.sample_complex_pure(cfg.worker_rng(0), size=5)
        w1 = samplers.sample_complex_pure(cfg.worker_rng(1), size=5)
        np.testing.assert_array_equal(w0, w0_again)
        assert not np.allclose(w0, w1)


class TestRealPure:
    def test_unit_norm(self):
        rng = samplers.SamplerConfig(seed=40).rng()
        states = samplers.sample_real_pure(rng, size=1000)
        np.testing.assert_allclose(np.linalg.norm(states, axis=1), 1.0, atol=1e-12)
        assert np.abs(states.imag).max() == 0.0

    def test_points_inside_preparation_tetrahedron(self):
        rng = samplers.SamplerConfig(seed=41).rng()
        states = samplers.sample_real_pure(rng, size=100_000)
        pts = corr.cc_pvector_batch(projectors(states))
        assert geo.contains(geo.tcc(), pts, 1e-9).all()

    def test_mean_point_near_origin(self):
        # sign flips of the entangled-basis coefficients symmetrize the law
        rng = samplers.SamplerConfig(seed=42).rng()
        states = samplers.sample_real_pure(rng, size=100_000)
        pts = corr.cc_pvector_batch(projectors(states))
        assert np.abs(pts.mean(axis=0)).max() <= 0.02


class TestComplexPure:
    def test_unit_norm(self):
        rng = samplers.SamplerConfig(seed=43).rng()
        states = samplers.sample_complex_pure(rng, size=1000)
        np.testing.assert_allclose(np.linalg.norm(states, axis=1), 1.0, atol=1e-12)

    def test_statistic_bounded(self):
        rng = samplers.SamplerConfig(seed=44).rng()
        states = samplers.sample_complex_pure(rng, size=100_000)
        cvals = corr.cc_pvector_batch(projectors(states)).prod(axis=1)
        assert cvals.max() <= CC_MAX + 1e-9

    def test_real_imag_decomposition_reassembles(self):
        rng = samplers.SamplerConfig(seed=45).rng()
        for phi in samplers.sample_complex_pure(rng, size=200):
            np.testing.assert_allclose(phi.real + 1j * phi.imag, phi, atol=1e-12)


class TestDensity:
    def test_rank1_is_pure_projector(self):
        rng = samplers.SamplerConfig(seed=46).rng()
        rho = samplers.sample_density(rng, rank=1)
        assert qmath.is_density(rho, 1e-9)
        np.testing.assert_allclose(np.trace(rho @ rho).real, 1.0, atol=1e-10)

    def test_all_ranks_valid(self):
        rng = samplers.SamplerConfig(seed=47).rng()
        for rank in (1, 2, 3, 4):
            for rho in samplers.sample_density(rng, rank=rank, size=50):
                assert qmath.is_density(rho, 1e-9)

    def test_statistic_within_bounds(self):
        rng = samplers.SamplerConfig(seed=48).rng()
        rhos = samplers.sample_density(rng, size=100_000)
        cvals = corr.cc_pvector_batch(rhos).prod(axis=1)
        assert cvals.max() <= CC_MAX + 1e-9
        assert cvals.min() >= -1.0 - 1e-9

    def test_points_inside_preparation_tetrahedron(self):
        rng = samplers.SamplerConfig(seed=49).rng()
        rhos = samplers.sample_density(rng, size=50_000)
        pts = corr.cc_pvector_batch(rhos)
        assert geo.contains(geo.tcc(), pts, 1e-9).all()

    def test_bad_rank_rejected(self):
        rng = samplers.SamplerConfig(seed=50).rng()
        with pytest.raises(ValidationError):
            samplers.sample_density(rng, rank=5)


class TestUnitary:
    def test_unitarity(self):
        rng = samplers.SamplerConfig(seed=51).rng()
        for u in samplers.sample_unitary(rng, size=500):
            assert qmath.is_unitary(u, 1e-10)

    def test_statistic_within_bounds(self):
        rng = samplers.SamplerConfig(seed=52).rng()
        us = samplers.sample_unitary(rng, size=100_000)
        cvals = corr.dc_pvector_batch(us).prod(axis=1)
        assert cvals.min() >= DC_MIN - 1e-9
        assert cvals.max() <= 1.0 + 1e-9

    def test_points_inside_evolution_tetrahedron(self):
        rng = samplers.SamplerConfig(seed=53).rng()
        us = samplers.sample_unitary(rng, size=50_000)
        pts = corr.dc_pvector_batch(us)
        assert geo.contains(geo.tdc(), pts, 1e-9).all()


class TestRegionConditioning:
    def test_cc_overlap_members(self):
        cfg = samplers.SamplerConfig(seed=54)
        rhos = samplers.sample_in_region_batch(cfg, "CC", "O", 500)
        pts = corr.cc_pvector_batch(rhos)
        assert geo.in_overlap(pts, 1e-9).all()

    def test_dc_overlap_members(self):
        cfg = samplers.SamplerConfig(seed=55)
        us = samplers.sample_in_region_batch(cfg, "DC", "O", 500)
        pts = corr.dc_pvector_batch(us)
        assert geo.in_overlap(pts, 1e-9).all()

    def test_single_draw(self):
        cfg = samplers.SamplerConfig(seed=56)
        rho = samplers.sample_in_region(cfg, "CC", "OTC")
        assert rho.shape == (4, 4)
        assert geo.in_otc(corr.cc_pvector(rho).as_array(), 1e-9)

    def test_incompatible_region_rejected(self):
        cfg = samplers.SamplerConfig(seed=57)
        with pytest.raises(ValidationError):
            samplers.sample_in_region(cfg, "CC", "TDC")
        with pytest.raises(ValidationError):
            samplers.sample_in_region(cfg, "DC", "OTC")

    def test_exhaustion_reports_rate(self):
        cfg = samplers.SamplerConfig(seed=58, max_rejections=64)
        with pytest.raises(SamplingExhaustedError) as info:
            samplers.sample_in_region_batch(cfg, "CC", "O", 10_000)
        # one full chunk is drawn before the budget check stops the search
        assert info.value.attempts == samplers._CHUNK
        assert 0.0 <= info.value.acceptance_rate <= 1.0

    def test_exhaustion_survives_pickling(self):
        # a pool worker's exception reaches the parent pickled
        error = SamplingExhaustedError("budget spent", accepted=1, attempts=2)
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is SamplingExhaustedError
        assert (str(copy), copy.accepted, copy.attempts) == ("budget spent", 1, 2)

    def test_cc_overlap_acceptance_rate_regression(self):
        # measured once and frozen: ~85% of rank-4 mixtures land in the
        # overlap (must at minimum stay above the 1% contract)
        cfg = samplers.SamplerConfig(seed=59)
        rng = cfg.rng()
        rhos = samplers.sample_density(rng, rank=4, size=20_000)
        rate = geo.in_overlap(corr.cc_pvector_batch(rhos), 1e-9).mean()
        assert rate > 0.01
        assert 0.80 <= rate <= 0.90

    def test_stream_independent_of_budget(self):
        # size 3000 needs a third chunk (a budget of two chunks runs out), and
        # a 10,000 budget leaves less than a full chunk for that third draw
        size = 3000
        with pytest.raises(SamplingExhaustedError):
            samplers.sample_in_region_batch(
                samplers.SamplerConfig(seed=61, max_rejections=2 * samplers._CHUNK),
                "DC", "O", size,
            )
        tight = samplers.sample_in_region_batch(
            samplers.SamplerConfig(seed=61, max_rejections=10_000), "DC", "O", size
        )
        loose = samplers.sample_in_region_batch(
            samplers.SamplerConfig(seed=61, max_rejections=10_000_000), "DC", "O", size
        )
        np.testing.assert_array_equal(tight, loose)

    def test_determinism_of_conditioned_stream(self):
        cfg = samplers.SamplerConfig(seed=60)
        a = samplers.sample_in_region_batch(cfg, "DC", "O", 200)
        b = samplers.sample_in_region_batch(cfg, "DC", "O", 200)
        np.testing.assert_array_equal(a, b)


class TestConfigValidation:
    def test_bad_rank(self):
        with pytest.raises(ValidationError):
            samplers.SamplerConfig(density_rank=0)

    def test_bad_budget(self):
        with pytest.raises(ValidationError):
            samplers.SamplerConfig(max_rejections=0)

    @pytest.mark.parametrize("seed", [1.5, True, -1, None])
    def test_bad_seed(self, seed):
        with pytest.raises(ValidationError, match="seed must be an integer >= 0"):
            samplers.SamplerConfig(seed=seed)

    def test_numpy_integer_seed(self):
        assert samplers.SamplerConfig(seed=np.int64(7)).rng().random() == (
            samplers.SamplerConfig(seed=7).rng().random()
        )


def direct_density_oracle(rng, rank, n):
    """sample_density written out as one expression per step: the real and the
    imaginary normals, (rank, 4, n) each, then standard exponentials over their sum."""
    real = rng.standard_normal((rank, 4, n))
    imag = rng.standard_normal((rank, 4, n))
    states = real + 1j * imag
    states = states / np.linalg.norm(states, axis=1, keepdims=True)
    exponentials = np.ones((rank, n)) if rank == 1 else rng.standard_exponential((rank, n))
    lam = exponentials / exponentials.sum(axis=0)
    return np.einsum("rn,rin,rjn->nij", lam, states, states.conj())


class TestDraws:
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [1, samplers._CHUNK, 70_000])
    def test_density_matches_the_direct_formula(self, rank, n):
        cfg = samplers.SamplerConfig(seed=17)
        rng, oracle_rng = cfg.rng(), cfg.rng()
        got = samplers.sample_density(rng, rank=rank, size=n)
        assert got.tobytes() == direct_density_oracle(oracle_rng, rank, n).tobytes()
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_unitary_params_match_the_direct_formula(self):
        cfg = samplers.SamplerConfig(seed=18)
        rng, oracle_rng = cfg.rng(), cfg.rng()
        v = oracle_rng.standard_normal((4, 5000))
        v = v / np.sqrt((v * v).sum(axis=0))
        alpha = oracle_rng.uniform(0.0, 2.0 * np.pi, size=5000)
        got = samplers.kernel_components(rng, "DC", 1, 5000)
        assert len(got) == 5
        for a, b in zip(got, (*v, alpha)):
            assert a.tobytes() == b.tobytes()
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @pytest.mark.parametrize(
        "draw",
        [
            lambda rng: samplers.kernel_components(rng, "dc", 4, 3),
            lambda rng: samplers.kernel_components(rng, "CC", 0, 3),
            lambda rng: samplers.kernel_components(rng, "CC", 5, 3),
            lambda rng: samplers.kernel_components(rng, "DC", True, 3),
            lambda rng: samplers.kernel_components(rng, "DC", 4, 0),
            lambda rng: samplers.sample_density(rng, size=-1),
            lambda rng: samplers.sample_unitary(rng, size=2.5),
        ],
        ids=["lowercase-kind", "rank-0", "rank-5", "bool-rank", "size-0", "size-minus-1",
             "size-2.5"],
    )
    def test_bad_arguments_raise_before_drawing(self, draw):
        rng = samplers.SamplerConfig(seed=19).rng()
        state = rng.bit_generator.state
        with pytest.raises(ValidationError):
            draw(rng)
        assert rng.bit_generator.state == state


class TestKernelComponents:
    @pytest.mark.parametrize("size", [1, 7, 2**16])
    def test_dc_is_a_unit_sphere_point_and_a_phase(self, size):
        cfg = samplers.SamplerConfig(seed=21)
        rng, oracle_rng = cfg.worker_rng(5, 0), cfg.worker_rng(5, 0)
        *sphere, alpha = samplers.kernel_components(rng, "DC", 4, size)
        normals = oracle_rng.standard_normal((4, size))
        np.testing.assert_allclose(
            sphere, normals / np.linalg.norm(normals, axis=0), rtol=0, atol=1e-15
        )
        assert alpha.tobytes() == oracle_rng.uniform(0.0, 2.0 * np.pi, size).tobytes()

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_cc_normals_then_flat_dirichlet_weights(self, rank):
        cfg = samplers.SamplerConfig(seed=22)
        rng, oracle_rng = cfg.worker_rng(5, 1), cfg.worker_rng(5, 1)
        drawn = samplers.kernel_components(rng, "CC", rank, 1000)
        assert len(drawn) == (2 if rank == 1 else 3)
        for block in drawn[:2]:
            assert block.tobytes() == oracle_rng.standard_normal((rank, 4, 1000)).tobytes()
        if rank > 1:
            exponentials = oracle_rng.standard_exponential((rank, 1000))
            np.testing.assert_allclose(
                drawn[2], exponentials / exponentials.sum(axis=0), rtol=0, atol=1e-15
            )
            np.testing.assert_allclose(drawn[2].sum(axis=0), 1.0, rtol=0, atol=1e-15)

    def test_chunk_generators_miss_the_table2_cells(self):
        # sample's two-word keys (SAMPLE_CHUNK_KEY, k) against one-word keys (k,),
        # table2's (0,) and (1,) among them
        cfg = samplers.SamplerConfig(seed=42)
        chunks = {cfg.worker_rng(samplers.SAMPLE_CHUNK_KEY, k).integers(2**63) for k in range(64)}
        cells = {cfg.worker_rng(cell).integers(2**63) for cell in range(64)}
        assert len(chunks) == len(cells) == 64 and not chunks & cells
