import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qcausal import correlation as corr
from qcausal import qmath
from qcausal.errors import ValidationError
from qcausal.samplers import sample_complex_pure, sample_density, sample_unitary

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

# Published signature rows: (object, expected pvector, expected statistic).
TABLE1 = [
    ("unitary", 0, (1, 1, 1), 1.0),
    ("unitary", 1, (1, -1, -1), 1.0),
    ("unitary", 2, (-1, 1, -1), 1.0),
    ("unitary", 3, (-1, -1, 1), 1.0),
    ("density", 1, (1, -1, 1), -1.0),
    ("density", 2, (-1, 1, 1), -1.0),
    ("density", 3, (1, 1, -1), -1.0),
    ("density", 4, (-1, -1, -1), -1.0),
]


def bell_projector(j):
    return qmath.projector(qmath.bell(j))


class TestCommonCauseIndices:
    def test_bell1_y_axis(self):
        assert corr.cc_corr_index(bell_projector(1), 2) == pytest.approx(-1.0, abs=1e-12)

    def test_bell1_x_axis(self):
        assert corr.cc_corr_index(bell_projector(1), 1) == pytest.approx(1.0, abs=1e-12)

    def test_product_state_x_axis(self):
        # |<x0 x0|00>|^2 + |<x1 x1|00>|^2 = 1/2 by hand expansion
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        assert corr.cc_corr_index(rho, 1) == pytest.approx(0.0, abs=1e-12)

    def test_invalid_density_rejected(self):
        with pytest.raises(ValidationError):
            corr.cc_corr_index(np.eye(4, dtype=complex), 1)

    def test_invalid_axis_rejected(self):
        with pytest.raises(ValidationError):
            corr.cc_corr_index(bell_projector(1), 0)

    def test_pvector_bell2(self):
        np.testing.assert_allclose(
            corr.cc_pvector(bell_projector(2)), (-1, 1, 1), atol=1e-12
        )

    def test_pvector_product_state(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        np.testing.assert_allclose(corr.cc_pvector(rho), (0, 0, 1), atol=1e-12)

    def test_pvector_mixture_is_midpoint(self):
        rho = 0.5 * bell_projector(1) + 0.5 * bell_projector(2)
        np.testing.assert_allclose(corr.cc_pvector(rho), (0, 0, 1), atol=1e-12)


class TestStatistic:
    def test_bell_row(self):
        assert corr.statistic_c((1, -1, 1)) == -1.0

    def test_identity_row(self):
        assert corr.statistic_c((1, 1, 1)) == 1.0

    def test_thirds(self):
        assert corr.statistic_c((1 / 3, 1 / 3, 1 / 3)) == pytest.approx(1 / 27, abs=1e-15)

    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            corr.statistic_c((1.0, 0.5))

    def test_batch_bits(self):
        rng = np.random.default_rng(5)
        pts = np.vstack([
            rng.uniform(-1, 1, (2000, 3)),
            corr.dc_pvector_batch(sample_unitary(rng, 500)),
            corr.cc_pvector_batch(sample_density(rng, rank=2, size=500)),
        ])
        cvals = corr.statistic_c_batch(pts)
        assert cvals.shape == (len(pts),)
        assert cvals.tobytes() == pts.prod(axis=1).tobytes()
        assert [corr.statistic_c(p) for p in pts] == cvals.tolist()


class TestDirectCause:
    def test_identity_repeats(self):
        assert oracles.dc_cond_prob(qmath.pauli(0), 1, 0) == pytest.approx(1.0, abs=1e-12)

    def test_z_flips_plus(self):
        assert oracles.dc_cond_prob(qmath.pauli(3), 1, 0) == pytest.approx(0.0, abs=1e-12)

    def test_hadamard_z_half(self):
        assert oracles.dc_cond_prob(HADAMARD, 3, 0) == pytest.approx(0.5, abs=1e-12)

    def test_non_unitary_rejected(self):
        with pytest.raises(ValidationError):
            oracles.dc_cond_prob(np.diag([1.0, 2.0]), 1, 0)

    def test_index_x1(self):
        assert corr.dc_corr_index(qmath.pauli(1), 2) == pytest.approx(-1.0, abs=1e-12)

    def test_index_identity_z(self):
        assert corr.dc_corr_index(qmath.pauli(0), 3) == pytest.approx(1.0, abs=1e-12)

    def test_index_hadamard_y(self):
        assert corr.dc_corr_index(HADAMARD, 2) == pytest.approx(-1.0, abs=1e-12)

    def test_pvector_sigma2(self):
        np.testing.assert_allclose(corr.dc_pvector(qmath.pauli(2)), (-1, 1, -1), atol=1e-12)

    def test_pvector_hadamard(self):
        np.testing.assert_allclose(corr.dc_pvector(HADAMARD), (0, -1, 0), atol=1e-12)

    def test_pvector_identity(self):
        np.testing.assert_allclose(corr.dc_pvector(qmath.pauli(0)), (1, 1, 1), atol=1e-12)


class TestClosedForm:
    def test_hadamard(self):
        np.testing.assert_allclose(
            oracles.dc_pvector_oracle(HADAMARD), (0, -1, 0), atol=1e-12
        )

    def test_identity(self):
        np.testing.assert_allclose(
            oracles.dc_pvector_oracle(qmath.pauli(0)), (1, 1, 1), atol=1e-12
        )

    def test_matches_projector_route(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for u in sample_unitary(rng, size=10_000):
            delta = np.abs(
                oracles.dc_pvector_oracle(u).as_array() - corr.dc_pvector(u).as_array()
            ).max()
            worst = max(worst, delta)
        assert worst <= 1e-10


class TestStateIndependence:
    def test_sigma1_x(self):
        u = qmath.pauli(1)
        assert oracles.dc_cond_prob(u, 1, 0) == pytest.approx(oracles.dc_cond_prob(u, 1, 1))

    def test_hadamard_y(self):
        assert oracles.dc_cond_prob(HADAMARD, 2, 0) == pytest.approx(
            oracles.dc_cond_prob(HADAMARD, 2, 1), abs=1e-15
        )

    def test_random_sweep(self):
        rng = np.random.default_rng(12)
        for u in sample_unitary(rng, size=10_000):
            for i in (1, 2, 3):
                assert abs(oracles.dc_cond_prob(u, i, 0) - oracles.dc_cond_prob(u, i, 1)) <= 1e-12


class TestMixture:
    def test_pure_common_cause(self):
        s = corr.MixtureScenario(bell_projector(3), HADAMARD, 1.0)
        np.testing.assert_allclose(
            corr.mixture_pvector(s), corr.cc_pvector(bell_projector(3)), atol=1e-15
        )

    def test_pure_causality(self):
        s = corr.MixtureScenario(bell_projector(3), HADAMARD, 0.0)
        np.testing.assert_allclose(
            corr.mixture_pvector(s), corr.dc_pvector(HADAMARD), atol=1e-15
        )

    def test_midpoint(self):
        s = corr.MixtureScenario(bell_projector(4), qmath.pauli(0), 0.5)
        np.testing.assert_allclose(corr.mixture_pvector(s), (0, 0, 0), atol=1e-12)

    def test_direct_route_agrees(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            s = corr.MixtureScenario(
                sample_density(rng), sample_unitary(rng), rng.uniform()
            )
            np.testing.assert_allclose(
                corr.mixture_pvector(s).as_array(),
                oracles.mixture_pvector_oracle(s).as_array(),
                atol=1e-12,
            )

    def test_bad_probability_rejected(self):
        s = corr.MixtureScenario(bell_projector(1), qmath.pauli(0), 1.5)
        with pytest.raises(ValidationError):
            corr.mixture_pvector(s)

    def test_validates_once(self, monkeypatch):
        calls = []

        def counting(require):
            return lambda m, *args: calls.append(require) or require(m, *args)

        monkeypatch.setattr(corr, "require_density", counting(qmath.require_density))
        monkeypatch.setattr(corr, "require_unitary", counting(qmath.require_unitary))
        corr.mixture_pvector(corr.MixtureScenario(bell_projector(1), HADAMARD, 0.3))
        assert calls == [qmath.require_density, qmath.require_unitary]


class TestConvexityIdentities:
    def test_real_state_convexity(self):
        # states with real entangled-basis coefficients mix the vertex points
        rng = np.random.default_rng(14)
        vertices = np.array([corr.cc_pvector(bell_projector(j)) for j in range(1, 5)])
        for _ in range(300):
            w = rng.standard_normal(4)
            w /= np.linalg.norm(w)
            state = sum(wj * qmath.bell(j) for j, wj in enumerate(w, start=1))
            expected = (w**2) @ vertices
            actual = corr.cc_pvector(qmath.projector(state)).as_array()
            np.testing.assert_allclose(actual, expected, atol=1e-10)

    def test_complex_reduction(self):
        # a complex state reduces to a real pair: P = cos^2 P(x) + sin^2 P(y)
        rng = np.random.default_rng(15)
        for _ in range(300):
            phi = sample_complex_pure(rng)
            re, im = phi.real, phi.imag
            c, s = np.linalg.norm(re), np.linalg.norm(im)
            reassembled = (re + 1j * im).astype(complex)
            np.testing.assert_allclose(reassembled, phi, atol=1e-12)
            expected = np.zeros(3)
            if c > 1e-12:
                x = (re / c).astype(complex)
                expected += c**2 * corr.cc_pvector(qmath.projector(x)).as_array()
            if s > 1e-12:
                y = (im / s).astype(complex)
                expected += s**2 * corr.cc_pvector(qmath.projector(y)).as_array()
            actual = corr.cc_pvector(qmath.projector(phi)).as_array()
            np.testing.assert_allclose(actual, expected, atol=1e-10)

    def test_mixed_state_linearity(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            states = sample_complex_pure(rng, size=3)
            probs = rng.dirichlet(np.ones(3))
            rho = sum(p * qmath.projector(s) for p, s in zip(probs, states))
            expected = sum(
                p * corr.cc_pvector(qmath.projector(s)).as_array()
                for p, s in zip(probs, states)
            )
            np.testing.assert_allclose(
                corr.cc_pvector(rho).as_array(), expected, atol=1e-10
            )


class TestTable1:
    @pytest.mark.parametrize("kind,index,pattern,cval", TABLE1)
    def test_row(self, kind, index, pattern, cval):
        if kind == "unitary":
            point = corr.dc_pvector(qmath.pauli(index))
        else:
            point = corr.cc_pvector(bell_projector(index))
        np.testing.assert_allclose(point.as_array(), pattern, atol=1e-12)
        assert corr.statistic_c(point) == pytest.approx(cval, abs=1e-12)

    @pytest.mark.parametrize("kind,index,pattern,cval", TABLE1)
    def test_row_is_exact(self, kind, index, pattern, cval):
        # a Bell projector's trace divides out of its point, and a Pauli
        # matrix's first row and determinant are exact: every entry is +-1
        if kind == "unitary":
            point = corr.dc_pvector(qmath.pauli(index))
        else:
            point = corr.cc_pvector(bell_projector(index))
        assert list(point) == list(pattern)
        assert corr.statistic_c(point) == cval


def anti_hermitian(rng, scale):
    """A random traceless anti-Hermitian 4x4 matrix whose largest entry has modulus ``scale``."""
    a = rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))
    a = (a - a.conj().T) / 2
    a -= np.trace(a) / 4 * np.eye(4)
    return scale * a / np.abs(a).max()


class TestComplexOracles:
    """The real-arithmetic kernels against the complex traces of tests/oracles.py."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rank=st.sampled_from([1, 2, 3, 4]))
    def test_density_kernel_matches_traces(self, seed, rank):
        rhos = sample_density(np.random.default_rng(seed), rank=rank, size=8)
        points, residues = oracles.cc_pvector_batch_oracle(rhos)
        np.testing.assert_allclose(corr.cc_pvector_batch(rhos), points, rtol=0, atol=1e-14)
        assert np.abs(residues).max() <= 1e-15
        for rho in rhos:
            m = corr._object_matrix("CC", rho[None])
            t = oracles.correlation_matrix_oracle("CC", rho)
            np.testing.assert_allclose(np.array(m)[..., 0], (t + t.T) / 2, rtol=0, atol=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_unitary_kernel_matches_amplitudes(self, seed):
        us = sample_unitary(np.random.default_rng(seed), size=8)
        got = corr.dc_pvector_batch(us)
        np.testing.assert_allclose(got, oracles.dc_pvector_batch_oracle(us), rtol=0, atol=1e-14)
        for u in us:
            m = np.array(corr._object_matrix("DC", u[None]))[..., 0]
            np.testing.assert_allclose(m, oracles.correlation_matrix_oracle("DC", u),
                                       rtol=0, atol=1e-14)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rank=st.sampled_from([1, 2, 3, 4]),
           share=st.floats(0.0, 1.0))
    def test_point_reads_only_the_hermitian_part(self, seed, rank, share):
        # an anti-Hermitian part below DENSITY_TOL / 2 per entry keeps rho - rho^dag
        # within DENSITY_TOL, so validation accepts it; the point does not see it
        rng = np.random.default_rng(seed)
        rho = sample_density(rng, rank=rank)
        rho = 0.5 * rho + 0.5 * np.eye(4) / 4  # eigenvalues >= 1/8: the skew cannot make one negative
        skewed = rho + anti_hermitian(rng, 0.99 * share * qmath.DENSITY_TOL / 2)
        assert qmath.is_density(skewed)
        hermitian = (skewed + skewed.conj().T) / 2
        assert corr.cc_pvector(skewed).as_array().tobytes() == (
            corr.cc_pvector(hermitian).as_array().tobytes())


class TestBatchKernels:
    def test_density_batch_matches_scalar(self):
        rng = np.random.default_rng(17)
        rhos = sample_density(rng, size=50)
        batch = corr.cc_pvector_batch(rhos)
        for row, rho in zip(batch, rhos):
            np.testing.assert_allclose(row, corr.cc_pvector(rho).as_array(), atol=1e-12)

    def test_pure_batch_matches_scalar(self):
        rng = np.random.default_rng(18)
        phis = sample_complex_pure(rng, size=50)
        batch = corr.cc_pvector_batch(phis[:, :, None] * phis[:, None, :].conj())
        for row, phi in zip(batch, phis):
            assert row.tobytes() == corr.cc_pvector(qmath.projector(phi)).as_array().tobytes()

    def test_cc_pvector_validates_once(self, monkeypatch):
        calls = []

        def counting(m, *args):
            calls.append(m)
            return qmath.require_density(m, *args)

        monkeypatch.setattr(corr, "require_density", counting)
        corr.cc_pvector(bell_projector(1))
        assert len(calls) == 1

    def test_unitary_batch_matches_scalar(self):
        rng = np.random.default_rng(19)
        us = sample_unitary(rng, size=50)
        batch = corr.dc_pvector_batch(us)
        for row, u in zip(batch, us):
            np.testing.assert_allclose(row, corr.dc_pvector(u).as_array(), atol=1e-12)

