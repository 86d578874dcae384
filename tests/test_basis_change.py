import functools
import tracemalloc

import numpy as np
import pytest

import oracles
from qcausal import basis_change as bc
from qcausal import cli
from qcausal import correlation as corr
from qcausal import geometry as geo
from qcausal import qmath
from qcausal.errors import ConsistencyError, ValidationError
from qcausal.samplers import (
    SamplerConfig,
    sample_density,
    sample_in_region_batch,
    sample_region_components,
    sample_unitary,
)

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def _search_escape_oracle(kind, target, max_tries=2000, cfg=None, rng=None):
    """The random escape search, one rotation at a time through the scalar API.

    Returns the first of ``max_tries`` sampled rotations that moves the point
    out of the overlap and stays in the tetrahedron, or None, which proves
    nothing. The reference that ``bc.escape_witness`` is checked against.
    """
    if max_tries < 1:
        raise ValidationError("max_tries must be >= 1")
    if kind == "CC":
        target = qmath.require_density(target)
        base = corr.cc_pvector(target)
        pvec, tetra = corr.cc_pvector, geo.tcc()

        def transform(rho, v):
            vv = np.kron(v, v)
            out = vv.conj().T @ rho @ vv
            if not qmath.is_density(out, 1e-9):
                raise ConsistencyError("transformed operator failed the density predicate")
            return out

    else:
        target = qmath.require_unitary(target)
        base = corr.dc_pvector(target)
        pvec, tetra = corr.dc_pvector, geo.tdc()

        def transform(u, v):
            out = v.conj().T @ u @ v
            if not qmath.is_unitary(out, 1e-10):
                raise ConsistencyError("transformed matrix failed the unitarity predicate")
            return out

    if not geo.in_overlap(base.as_array(), 1e-9):
        raise ValidationError("target's correlation point is already outside the overlap")
    rng = (SamplerConfig() if cfg is None else cfg).rng() if rng is None else rng
    for _ in range(max_tries):
        v = qmath.require_unitary(sample_unitary(rng))
        moved = pvec(transform(target, v)).as_array()
        if geo.contains(tetra, moved, 1e-9) and not geo.in_overlap(moved, 1e-9):
            return v
    return None


def _first_escaping(kind, cfg, tries, search_cfg):
    """The first overlap object of ``cfg``'s stream that :func:`_search_escape_oracle`
    moves out in ``tries`` rotations from ``search_cfg``, and the object after it."""
    objs = sample_in_region_batch(cfg, kind, "O", 64)
    for k, target in enumerate(objs[:-1]):
        if _search_escape_oracle(kind, target, tries, search_cfg) is not None:
            return objs[k], objs[k + 1]
    raise AssertionError(f"no escaping {kind} object in the first 63 of seed {cfg.seed}")


@functools.cache
def _search_targets():
    """Ambiguous objects: CC at ranks 1-4 and DC, some escaping early, some
    late (the DC one nearest |tr u|^2/4 = 1/2) and some never. Each stream's
    "-0" object is its first one that the random search moves out, and "-1" the
    next one."""
    targets = {
        "cc-maximally-mixed": ("CC", np.eye(4, dtype=complex) / 4),
        "cc-separable-rank2": ("CC", np.diag([0.5, 0, 0, 0.5]).astype(complex)),
        "dc-phase-gate": ("DC", np.diag([1, 1j])),
    }
    streams = {f"cc-rank{rank}": ("CC", SamplerConfig(seed=600 + rank, density_rank=rank))
               for rank in (1, 2, 3, 4)}
    streams["dc"] = ("DC", SamplerConfig(seed=700))
    for name, (kind, cfg) in streams.items():
        for k, obj in enumerate(_first_escaping(kind, cfg, 515, SamplerConfig(seed=1))):
            targets[f"{name}-{k}"] = (kind, obj)
    us = sample_in_region_batch(SamplerConfig(seed=701), "DC", "O", 200)
    targets["dc-late"] = ("DC", us[np.argmax(np.abs(np.trace(us, axis1=1, axis2=2)))])
    return targets


_TARGET_NAMES = (
    "cc-maximally-mixed", "cc-separable-rank2", "dc-phase-gate", "dc-0", "dc-1", "dc-late",
    *(f"cc-rank{rank}-{k}" for rank in (1, 2, 3, 4) for k in (0, 1)),
)


class TestReferenceUnitaries:
    def test_all_exactly_unitary(self):
        for v in bc.ESCAPE_V_SET:
            assert qmath.is_unitary(v, 1e-12)

    def test_close_to_printed_values(self):
        printed_v1 = np.array(
            [[0.1813 - 0.5744j, 0.2656 + 0.7527j], [-0.6807 + 0.4170j, -0.2213 + 0.5602j]]
        )
        assert np.abs(bc.ESCAPE_V1 - printed_v1).max() <= 1e-3

    def test_nearest_unitary_of_unitary_is_identity_map(self):
        rng = np.random.default_rng(80)
        u = sample_unitary(rng)
        np.testing.assert_allclose(oracles.nearest_unitary(u), u, atol=1e-12)

    def test_pinned_floats_are_the_polar_projections_of_the_printed_values(self):
        for v, printed in zip(bc.ESCAPE_V_SET, oracles.PRINTED_ESCAPE_V, strict=True):
            assert np.abs(v - oracles.nearest_unitary(printed)).max() <= 1e-15
            assert np.abs(v @ v.conj().T - np.eye(2)).max() <= 1e-15
            assert not v.flags.writeable


class TestTransforms:
    def test_identity_leaves_density(self):
        rho = qmath.projector(qmath.bell(2))
        np.testing.assert_allclose(bc.transform_density(rho, qmath.pauli(0)), rho, atol=1e-14)

    def test_xx_fixes_triplet_state(self):
        rho = qmath.projector(qmath.bell(3))
        np.testing.assert_allclose(bc.transform_density(rho, qmath.pauli(1)), rho, atol=1e-14)

    def test_trace_preserved(self):
        rng = np.random.default_rng(81)
        for _ in range(50):
            rho = sample_density(rng)
            v = sample_unitary(rng)
            out = bc.transform_density(rho, v)
            assert abs(np.trace(out).real - 1.0) <= 1e-12

    def test_identity_leaves_unitary(self):
        np.testing.assert_allclose(
            bc.transform_unitary(HADAMARD, qmath.pauli(0)), HADAMARD, atol=1e-14
        )

    def test_hadamard_conjugates_z_to_x(self):
        np.testing.assert_allclose(
            bc.transform_unitary(qmath.pauli(3), HADAMARD), qmath.pauli(1), atol=1e-14
        )

    def test_determinant_modulus_preserved(self):
        rng = np.random.default_rng(82)
        for _ in range(50):
            u = sample_unitary(rng)
            v = sample_unitary(rng)
            out = bc.transform_unitary(u, v)
            assert abs(abs(np.linalg.det(out)) - abs(np.linalg.det(u))) <= 1e-12

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValidationError):
            bc.transform_density(np.eye(4, dtype=complex), HADAMARD)
        with pytest.raises(ValidationError):
            bc.transform_unitary(HADAMARD, np.diag([1.0, 2.0]))


class TestRotatedPointIdentities:
    def test_identity_rotation_cc(self):
        rho = qmath.projector(qmath.bell(1))
        np.testing.assert_allclose(
            oracles.pprime_cc_oracle(rho, qmath.pauli(0)).as_array(),
            corr.cc_pvector(rho).as_array(),
            atol=1e-14,
        )

    def test_hadamard_rotation_cc(self):
        rho = qmath.projector(qmath.bell(1))
        np.testing.assert_allclose(
            oracles.pprime_cc_oracle(rho, HADAMARD).as_array(),
            corr.cc_pvector(bc.transform_density(rho, HADAMARD)).as_array(),
            atol=1e-12,
        )

    def test_cc_identity_sweep(self):
        rng = np.random.default_rng(83)
        for _ in range(2000):
            rho = sample_density(rng)
            v = sample_unitary(rng)
            lhs = oracles.pprime_cc_oracle(rho, v).as_array()
            rhs = corr.cc_pvector(bc.transform_density(rho, v)).as_array()
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_dc_identity_sweep(self):
        rng = np.random.default_rng(84)
        for _ in range(2000):
            u = sample_unitary(rng)
            v = sample_unitary(rng)
            lhs = oracles.pprime_dc_oracle(u, v).as_array()
            rhs = corr.dc_pvector(bc.transform_unitary(u, v)).as_array()
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_range_preservation(self):
        rng = np.random.default_rng(85)
        for _ in range(500):
            rho = sample_density(rng)
            u = sample_unitary(rng)
            v = sample_unitary(rng)
            assert geo.contains(geo.tcc(), oracles.pprime_cc_oracle(rho, v).as_array(), 1e-9)
            assert geo.contains(geo.tdc(), oracles.pprime_dc_oracle(u, v).as_array(), 1e-9)

    def test_maximally_mixed_invariant(self):
        rng = np.random.default_rng(86)
        mixed = np.eye(4, dtype=complex) / 4
        for _ in range(100):
            v = sample_unitary(rng)
            moved = corr.cc_pvector(bc.transform_density(mixed, v)).as_array()
            np.testing.assert_allclose(moved, (0, 0, 0), atol=1e-12)

    def test_composition(self):
        rng = np.random.default_rng(87)
        for _ in range(200):
            rho = sample_density(rng)
            u = sample_unitary(rng)
            v1 = sample_unitary(rng)
            v2 = sample_unitary(rng)
            np.testing.assert_allclose(
                oracles.pprime_cc_oracle(bc.transform_density(rho, v1), v2).as_array(),
                oracles.pprime_cc_oracle(rho, v1 @ v2).as_array(),
                atol=1e-10,
            )
            np.testing.assert_allclose(
                oracles.pprime_dc_oracle(bc.transform_unitary(u, v1), v2).as_array(),
                oracles.pprime_dc_oracle(u, v1 @ v2).as_array(),
                atol=1e-10,
            )


class TestConjugationInvariants:
    def test_singlet_population_invariant(self):
        rng = np.random.default_rng(88)
        singlet = qmath.projector(qmath.bell(4))
        for _ in range(200):
            rho = sample_density(rng)
            v = sample_unitary(rng)
            before = np.trace(rho @ singlet).real
            after = np.trace(bc.transform_density(rho, v) @ singlet).real
            assert abs(before - after) <= 1e-12

    def test_trace_weight_invariant(self):
        rng = np.random.default_rng(89)
        for _ in range(200):
            u = sample_unitary(rng)
            v = sample_unitary(rng)
            before = abs(np.trace(u)) ** 2 / 4
            after = abs(np.trace(bc.transform_unitary(u, v))) ** 2 / 4
            assert abs(before - after) <= 1e-12


class TestEscapeExperiment:
    def test_identity_moves_nothing(self):
        res = bc.escape_experiment("CC", qmath.pauli(0), 1000, SamplerConfig(seed=90))
        assert res.escaped == 0
        assert res.proportion == 0.0

    def test_cc_reference_rotation(self):
        res = bc.escape_experiment(
            "CC", bc.ESCAPE_V1, 20_000, SamplerConfig(seed=91, density_rank=1)
        )
        assert abs(100 * res.proportion - 36.44) <= 5.0
        assert res.image_in_target

    def test_dc_reference_rotation(self):
        res = bc.escape_experiment("DC", bc.ESCAPE_V1, 20_000, SamplerConfig(seed=92))
        assert abs(100 * res.proportion - 58.91) <= 5.0
        assert res.image_in_target

    def test_counts_are_consistent(self):
        res = bc.escape_experiment("DC", bc.ESCAPE_V2, 2000, SamplerConfig(seed=93))
        assert 0 <= res.escaped <= res.n_samples
        assert res.proportion == res.escaped / res.n_samples

    def test_bad_kind_rejected(self):
        with pytest.raises(ValidationError):
            bc.escape_experiment("XX", bc.ESCAPE_V1, 10, SamplerConfig(seed=94))

    @pytest.mark.parametrize("which", ["v1", "v2", "v3", "v4", "sampled"])
    @pytest.mark.parametrize(
        "kind, rank", [("CC", 1), ("CC", 2), ("CC", 3), ("CC", 4), ("DC", 1)]
    )
    def test_rotated_axes_match_transformed_objects(self, kind, rank, which):
        # The experiment takes diag(Q^T M Q) from the components; the oracle
        # rotates the objects built from the same components.
        if which == "sampled":
            v = sample_unitary(np.random.default_rng(97))
        else:
            v = bc.ESCAPE_V_SET[int(which[1]) - 1]
        cfg = SamplerConfig(seed=98, density_rank=rank)
        components = sample_region_components(cfg, kind, "O", 3_000)
        objs = sample_in_region_batch(cfg, kind, "O", 3_000)
        if kind == "CC":
            oracle = corr.cc_pvector_batch(bc._transform_density_batch(objs, v))
            cut = geo.in_otc
        else:
            oracle = corr.dc_pvector_batch(bc._transform_unitary_batch(objs, v))
            cut = geo.in_otd
        m = corr.correlation_matrix_batch(kind, components)
        got = corr.rotated_pvector_batch(m, corr._object_matrix("DC", v))
        np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-14)
        escaped = int((cut(oracle, 1e-9) & ~geo.in_overlap(oracle, 1e-9)).sum())
        assert bc.escape_experiment(kind, v, 3_000, cfg).escaped == escaped

    @pytest.mark.parametrize("seed", [3, 11])
    def test_table2_counts_match_the_object_route(self, seed):
        # every cell's count against whole objects drawn, tested and rotated
        # through the complex kernels: one draw per kind, for all four rotations
        n = 20_000
        report = cli.run_table2(n=n, seed=seed)
        cfg = SamplerConfig(seed=seed, density_rank=1)
        for key, kind in enumerate(("CC", "DC")):
            objs = oracles.overlap_objects_oracle(kind, 1, n, cfg.worker_rng(key))
            for idx, v in enumerate(bc.ESCAPE_V_SET, start=1):
                entry = report.results[f"v{idx}"][kind.lower()]
                assert entry["escaped"] == oracles.escaped_oracle(kind, v, objs), (idx, kind)

    @pytest.mark.parametrize("kind", ["CC", "DC"])
    def test_wrapper_is_the_kernel_and_blocks_do_not_change_a_count(self, kind, monkeypatch):
        # n = 1, a draw chunk's worth plus one, a block plus one and two blocks
        # plus one: the counts of the blocked kernel against those of the whole
        # stream held at once, and the one-rotation wrapper against the kernel
        blocks = []
        matrices = bc.correlation_matrix_batch
        monkeypatch.setattr(
            bc, "correlation_matrix_batch", lambda *a: blocks.append(1) or matrices(*a)
        )
        cfg = SamplerConfig(seed=95, density_rank=1)
        for n in (1, 4097, 2**14 + 1, 2**15 + 1):
            blocks.clear()
            results = bc._escape_counts(kind, list(bc.ESCAPE_V_SET), n, cfg, cfg.worker_rng(7))
            made = len(blocks)
            components = sample_region_components(cfg, kind, "O", n, rng=cfg.worker_rng(7))
            m = matrices(kind, components)
            for v, res in zip(bc.ESCAPE_V_SET, results, strict=True):
                single = bc.escape_experiment(kind, v, n, cfg, rng=cfg.worker_rng(7))
                for field in ("kind", "n_samples", "escaped", "proportion", "image_in_target"):
                    assert getattr(single, field) == getattr(res, field), (n, field)
                assert np.array_equal(single.v, res.v) and np.array_equal(res.v, v)
                pts = corr.rotated_pvector_batch(m, corr._object_matrix("DC", v))
                cut = geo.in_otc if kind == "CC" else geo.in_otd
                assert res.escaped == int((cut(pts, 1e-9) & ~geo.in_overlap(pts, 1e-9)).sum())
        assert made >= 2  # the last n crossed a block boundary

    @pytest.mark.parametrize("kind", ["CC", "DC"])
    def test_kernel_memory_does_not_grow_with_n(self, kind):
        # a block at a time: ten times the objects, not ten times the peak
        cfg = SamplerConfig(seed=96, density_rank=1)
        peaks = []
        for n in (20_000, 200_000):
            tracemalloc.start()
            try:
                bc._escape_counts(kind, list(bc.ESCAPE_V_SET), n, cfg, cfg.worker_rng(0))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0], peaks

    def test_transfer_matrix_of_the_reference_rotations(self):
        sampled = sample_unitary(np.random.default_rng(7))
        for v in (*bc.ESCAPE_V_SET, HADAMARD, qmath.pauli(0), sampled):
            np.testing.assert_allclose(
                corr._object_matrix("DC", v), _adjoint(v), rtol=0, atol=1e-15
            )


def _adjoint(v):
    """Q_kj = tr(sigma_k v sigma_j v^dag) / 2, entry by entry."""
    return np.array([
        [np.trace(qmath.pauli(k) @ v @ qmath.pauli(j) @ v.conj().T).real / 2 for j in (1, 2, 3)]
        for k in (1, 2, 3)
    ])


def _moved_point(kind, target, v):
    if kind == "CC":
        return corr.cc_pvector(bc.transform_density(target, v)).as_array()
    return corr.dc_pvector(bc.transform_unitary(target, v)).as_array()


class TestSearchEscape:
    """The escape decision, made exactly by escape_witness."""

    def test_maximally_mixed_never_escapes(self):
        margin, v = bc.escape_witness("CC", np.eye(4, dtype=complex) / 4)
        assert margin == -1.0
        assert v is None

    def test_hadamard_escape_verified(self):
        margin, v = bc.escape_witness("DC", HADAMARD)
        assert margin == pytest.approx(2.0, abs=1e-12)
        moved = _moved_point("DC", HADAMARD, v)
        assert geo.contains(geo.tdc(), moved, 1e-9)
        assert not geo.in_overlap(moved, 1e-9)

    def test_phase_gate_stuck_at_margin_zero(self):
        assert bc.escape_witness("DC", np.diag([1, 1j])) == (0.0, None)

    def test_target_outside_overlap_rejected(self):
        with pytest.raises(ValidationError):
            bc.escape_witness("CC", qmath.projector(qmath.bell(1)))

    def test_bad_kind_rejected(self):
        with pytest.raises(ValidationError):
            bc.escape_witness("XX", HADAMARD)

    @pytest.mark.parametrize("kind", ["CC", "DC"])
    def test_validates_once(self, monkeypatch, kind):
        calls = []

        def counting(require):
            return lambda m, *args: calls.append(require) or require(m, *args)

        monkeypatch.setattr(bc, "require_density", counting(qmath.require_density))
        monkeypatch.setattr(bc, "require_unitary", counting(qmath.require_unitary))
        target = np.eye(4, dtype=complex) / 4 if kind == "CC" else HADAMARD
        bc.escape_witness(kind, target)
        assert calls == [qmath.require_density if kind == "CC" else qmath.require_unitary]

    def test_lift_inverts_the_adjoint(self):
        rng = np.random.default_rng(12)
        rotations = list(sample_unitary(rng, size=200))
        # Rotations by pi about axes and diagonals, where the quaternion's w is 0.
        for axis in ([1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [1, 0, -1], [1, -1, 1]):
            n = np.array(axis) / np.linalg.norm(axis)
            rotations.append(-1j * sum(c * qmath.pauli(i) for i, c in enumerate(n, start=1)))
        for v in rotations:
            q = _adjoint(v)
            lifted = bc._lift(q)
            assert qmath.is_unitary(lifted, 1e-12)
            np.testing.assert_allclose(_adjoint(lifted), q, atol=1e-12)


class TestSearchChecks:
    """The checks made on the witness rotation, and its image through the objects."""

    def _corrupt(self, monkeypatch, name, damage):
        kernel = getattr(bc, name)
        monkeypatch.setattr(bc, name, lambda *args: damage(kernel(*args)))

    @pytest.mark.parametrize("name", _TARGET_NAMES)
    def test_witness_moves_the_object_out(self, name):
        # the witness takes its moved point from M; the rotated object, built and
        # checked by the scalar API, must be a density or unitary with that point
        kind, target = _search_targets()[name]
        margin, v = bc.escape_witness(kind, target)
        if v is None:
            return
        if kind == "CC":
            moved, own = bc.transform_density(target, v), geo.RegionLabel.CC_ONLY
            point = oracles.cc_pvector_batch_oracle(moved[None])[0][0]
        else:
            moved, own = bc.transform_unitary(target, v), geo.RegionLabel.DC_ONLY
            point = oracles.dc_pvector_batch_oracle(moved[None])[0]
        m = corr._object_matrix(kind, target[None])
        got = corr.rotated_pvector_batch(m, corr._object_matrix("DC", v))[0]
        np.testing.assert_allclose(got, point, rtol=0, atol=1e-14)
        assert geo.classify(point, 1e-9) is own
        assert np.abs(point).sum() == pytest.approx(1.0 + margin, abs=1e-12)

    def test_non_unitary_rotation_raises(self, monkeypatch):
        self._corrupt(monkeypatch, "_lift", lambda v: 1.5 * v)
        with pytest.raises(ConsistencyError, match="predicate"):
            bc.escape_witness("DC", HADAMARD)

    @pytest.mark.parametrize("name", ["cc-rank1-0", "dc-0"])
    def test_witness_that_does_not_escape_raises(self, monkeypatch, name):
        kind, target = _search_targets()[name]
        assert bc.escape_witness(kind, target)[0] > 1e-12
        monkeypatch.setattr(bc, "_lift", lambda q: np.eye(2, dtype=complex))
        with pytest.raises(ConsistencyError, match="no escape"):
            bc.escape_witness(kind, target)


class TestSearchMatchesOracle:
    """escape_witness against the random search kept as _search_escape_oracle."""

    @pytest.mark.parametrize("tries", [4, 256])
    @pytest.mark.parametrize("name", _TARGET_NAMES)
    def test_decision_matches_oracle(self, tries, name):
        kind, target = _search_targets()[name]
        margin, v = bc.escape_witness(kind, target)
        for seed in (1, 2):
            found = _search_escape_oracle(kind, target, tries, SamplerConfig(seed=seed))
            if found is not None:
                assert v is not None, seed
                assert np.abs(_moved_point(kind, target, found)).sum() <= 1.0 + margin + 1e-12
            if margin <= -1e-9:
                assert found is None, seed

    def test_targets_escape_early_late_and_never(self):
        outcomes = {
            name: _search_escape_oracle(kind, target, 515, SamplerConfig(seed=1))
            for name, (kind, target) in _search_targets().items()
        }
        assert outcomes["cc-maximally-mixed"] is None
        assert outcomes["cc-separable-rank2"] is None
        assert outcomes["dc-phase-gate"] is None
        assert outcomes["dc-0"] is not None
        # Found, but not within the first 4 tries.
        assert outcomes["dc-late"] is not None
        assert _search_escape_oracle("DC", _search_targets()["dc-late"][1], 4,
                                     SamplerConfig(seed=1)) is None
        for name in ("cc-maximally-mixed", "cc-separable-rank2", "dc-phase-gate"):
            assert bc.escape_witness(*_search_targets()[name])[1] is None, name
        for name in ("dc-0", "dc-late"):
            assert bc.escape_witness(*_search_targets()[name])[1] is not None, name
