"""Property tests: conjugation invariants of the batch transforms, the
rotated measurement axes against the transformed objects, the stacked
predicates against their one-object calls, the correlation
kernels giving a row the same bits alone, in any stack and through the
scalar API, and the exact escape test against the random search."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qcausal import basis_change as bc
from qcausal import correlation as corr
from qcausal import qmath
from qcausal.samplers import SamplerConfig, sample_density, sample_in_region_batch, sample_unitary
from test_basis_change import _search_escape_oracle

seeds = st.integers(min_value=0, max_value=2**32 - 1)
ranks = st.sampled_from([1, 2, 3, 4])
SINGLET = qmath.bell(4)


def singlet_population(rhos):
    return np.einsum("i,...ij,j->...", SINGLET.conj(), rhos, SINGLET).real


def trace_weight(us):
    return np.abs(np.trace(us, axis1=-2, axis2=-1)) ** 2 / 4


@settings(max_examples=60, deadline=None)
@given(seed=seeds, rank=ranks)
def test_singlet_population_preserved(seed, rank):
    rng = np.random.default_rng(seed)
    rhos = sample_density(rng, rank=rank, size=16)
    v = sample_unitary(rng)
    vs = sample_unitary(rng, size=16)
    np.testing.assert_allclose(
        singlet_population(bc._transform_density_batch(rhos, v)),
        singlet_population(rhos),
        atol=1e-12,
    )
    np.testing.assert_allclose(
        singlet_population(bc._transform_density_batch(rhos[0], vs)),
        singlet_population(rhos[0]),
        atol=1e-12,
    )


@settings(max_examples=60, deadline=None)
@given(seed=seeds)
def test_trace_weight_preserved(seed):
    rng = np.random.default_rng(seed)
    us = sample_unitary(rng, size=16)
    v = sample_unitary(rng)
    vs = sample_unitary(rng, size=16)
    np.testing.assert_allclose(
        trace_weight(bc._transform_unitary_batch(us, v)), trace_weight(us), atol=1e-12
    )
    np.testing.assert_allclose(
        trace_weight(bc._transform_unitary_batch(us[0], vs)), trace_weight(us[0]), atol=1e-12
    )


def perturbed_densities(rng, rank, tol):
    """Valid densities, then one of each kind of defect, with the expected verdicts."""
    rhos = list(sample_density(rng, rank=rank, size=4))
    expected = [True] * len(rhos)
    nan = rhos[0].copy()
    nan[rng.integers(4), rng.integers(4)] = np.nan
    w, basis = np.linalg.eigh(rhos[1])
    w[-1] += w[0] + 2.0 * tol
    w[0] = -2.0 * tol
    negative = (basis * w) @ basis.conj().T
    off_trace = rhos[2] * (1.0 + 2.0 * tol)
    skew = rhos[3].copy()
    skew[0, 1] += 2.0 * tol
    infinite = rhos[0].copy()
    infinite[1, 1] = np.inf
    rhos += [nan, negative, off_trace, skew, infinite]
    expected += [False] * 5
    return np.stack(rhos), expected


def perturbed_unitaries(rng, tol):
    us = list(sample_unitary(rng, size=4))
    expected = [True] * len(us)
    nan = us[0].copy()
    nan[rng.integers(2), rng.integers(2)] = np.nan
    scaled = us[1] * (1.0 + 2.0 * tol)
    generic = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    infinite = us[2].copy()
    infinite[0, 0] = np.inf
    us += [nan, scaled, generic, infinite]
    expected += [False] * 4
    return np.stack(us), expected


@settings(max_examples=60, deadline=None)
@given(seed=seeds, rank=ranks)
def test_rotated_axes_equal_transformed_objects(seed, rank):
    rng = np.random.default_rng(seed)
    rhos = sample_density(rng, rank=rank, size=16)
    us = sample_unitary(rng, size=16)
    v = sample_unitary(rng)
    np.testing.assert_allclose(
        bc._rotated_points("CC", rhos, v),
        corr.cc_pvector_batch(bc._transform_density_batch(rhos, v)),
        rtol=0,
        atol=1e-12,
    )
    np.testing.assert_allclose(
        bc._rotated_points("DC", us, v),
        corr.dc_pvector_batch(bc._transform_unitary_batch(us, v)),
        rtol=0,
        atol=1e-12,
    )


@settings(max_examples=60, deadline=None)
@given(seed=seeds, rank=ranks)
def test_stacked_is_density_agrees_with_scalar(seed, rank):
    tol = qmath.DENSITY_TOL
    rhos, expected = perturbed_densities(np.random.default_rng(seed), rank, tol)
    stacked = qmath.is_density_batch(rhos, tol)
    assert stacked.tolist() == [qmath.is_density(m, tol) for m in rhos] == expected
    assert qmath.is_density_batch(rhos.reshape(3, 3, 4, 4), tol).ravel().tolist() == expected


@settings(max_examples=60, deadline=None)
@given(seed=seeds)
def test_stacked_is_unitary_agrees_with_scalar(seed):
    tol = qmath.UNITARY_TOL
    us, expected = perturbed_unitaries(np.random.default_rng(seed), tol)
    stacked = qmath.is_unitary_batch(us, tol)
    assert stacked.tolist() == [qmath.is_unitary(m, tol) for m in us] == expected


@settings(max_examples=20, deadline=None)
@given(seed=seeds, rank=ranks, size=st.sampled_from([2, 257, 2**16]), data=st.data())
def test_point_bits_do_not_depend_on_the_stack(seed, rank, size, data):
    rng = np.random.default_rng(seed)
    rhos = sample_density(rng, rank=rank, size=size)
    us = sample_unitary(rng, size=size)
    cc, dc = corr.cc_pvector_batch(rhos), corr.dc_pvector_batch(us)
    axis = data.draw(st.sampled_from([1, 2, 3]))
    for k in {0, size - 1, data.draw(st.integers(0, size - 1))}:
        assert corr.cc_pvector_batch(rhos[k : k + 1])[0].tobytes() == cc[k].tobytes()
        assert corr.dc_pvector_batch(us[k : k + 1])[0].tobytes() == dc[k].tobytes()
        assert corr.cc_pvector(rhos[k]).as_array().tobytes() == cc[k].tobytes()
        assert corr.dc_pvector(us[k]).as_array().tobytes() == dc[k].tobytes()
        assert corr.cc_corr_index(rhos[k], axis) == cc[k, axis - 1]
        assert corr.dc_corr_index(us[k], axis) == dc[k, axis - 1]


# -- the exact escape test ------------------------------------------------------

objects = st.sampled_from([("CC", 1), ("CC", 2), ("CC", 3), ("CC", 4), ("DC", 4)])
TOL = 1e-9


def overlap_object(seed, kind, rank):
    return sample_in_region_batch(SamplerConfig(seed=seed, density_rank=rank), kind, "O", 1)[0]


def moved_points(kind, target, vs):
    if kind == "CC":
        return corr.cc_pvector_batch(bc._transform_density_batch(target, vs))
    return corr.dc_pvector_batch(bc._transform_unitary_batch(target, vs))


@settings(max_examples=40, deadline=None)
@given(seed=seeds, obj=objects)
def test_no_oracle_rotation_passes_the_margin(seed, obj):
    kind, rank = obj
    target = overlap_object(seed, kind, rank)
    margin, _ = bc.escape_witness(kind, target)
    rng = SamplerConfig(seed=seed).rng()
    vs = np.stack([sample_unitary(rng) for _ in range(256)])
    assert np.abs(moved_points(kind, target, vs)).sum(axis=1).max() <= 1.0 + margin + 1e-12


@settings(max_examples=60, deadline=None)
@given(seed=seeds, obj=objects)
def test_witness_reaches_the_margin(seed, obj):
    kind, rank = obj
    target = overlap_object(seed, kind, rank)
    margin, v = bc.escape_witness(kind, target)
    assert (v is not None) or margin <= TOL
    if v is not None:
        assert abs(np.abs(moved_points(kind, target, v[None])).sum() - (1.0 + margin)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=seeds, obj=objects)
def test_oracle_never_escapes_below_the_margin(seed, obj):
    kind, rank = obj
    target = overlap_object(seed, kind, rank)
    if bc.escape_witness(kind, target)[0] <= -TOL:
        assert _search_escape_oracle(kind, target, 100, SamplerConfig(seed=seed)) is None


def qubit_state(rng, radius):
    r = rng.standard_normal(3)
    r *= radius / np.linalg.norm(r)
    return (np.eye(2) + sum(c * qmath.pauli(i) for i, c in enumerate(r, start=1))) / 2


@settings(max_examples=60, deadline=None)
@given(seed=seeds, radii=st.tuples(*[st.one_of(st.just(1.0), st.floats(0.0, 1.0))] * 2))
def test_product_states_never_escape(seed, radii):
    rng = np.random.default_rng(seed)
    rho = np.kron(qubit_state(rng, radii[0]), qubit_state(rng, radii[1]))
    margin, v = bc.escape_witness("CC", rho)
    assert margin <= 1e-12
    assert v is None


@settings(max_examples=60, deadline=None)
@given(seed=seeds)
def test_unitary_margin_is_twice_the_distance_to_the_cut(seed):
    u = overlap_object(seed, "DC", 4)
    w = abs(np.trace(u)) ** 2 / 4
    assert abs(bc.escape_witness("DC", u)[0] - 2.0 * abs(2.0 * w - 1.0)) <= 1e-12
