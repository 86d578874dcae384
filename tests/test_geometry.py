import functools

import numpy as np
import pytest

import oracles
from qcausal import correlation as corr
from qcausal import geometry as geo
from qcausal import qmath
from qcausal.errors import ValidationError

TCC_VERTICES = [(1, -1, 1), (-1, 1, 1), (1, 1, -1), (-1, -1, -1)]
TDC_VERTICES = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]


def near_face_points(seed=35, n=20_000):
    """Cube points within 1e-12 of a face plane +-c11 +-c22 +-c33 = 1 (the faces of
    both tetrahedra and both cut planes), and 1000 within 1e-12 of a cube face."""
    rng = np.random.default_rng(seed)
    signs = np.array([[a, b, c] for a in (1, -1) for b in (1, -1) for c in (1, -1)])
    face = signs[rng.integers(0, 8, size=n)]
    pts = rng.uniform(-1, 1, size=(n, 3))
    # project onto the plane face . p = 1, then step off it by at most 1e-12
    pts += ((1.0 - (face * pts).sum(axis=1)) / 3.0)[:, None] * face
    pts += rng.uniform(-1e-12, 1e-12, size=(n, 1)) * face / np.sqrt(3.0)
    pts[:1000] = rng.uniform(-1, 1, size=(1000, 3))
    pts[np.arange(1000), rng.integers(0, 3, size=1000)] = rng.choice(
        [-1.0, 1.0], size=1000
    ) + rng.uniform(-1e-12, 1e-12, size=1000)
    return pts[np.abs(pts).max(axis=1) <= 1.0 + 1e-12]


def on_face_points(bound, seed=36, n=20_000):
    """Cube points projected onto a plane +-c11 +-c22 +-c33 = bound, with no step off
    it: rounding alone decides which side of the bound their face sum lands on."""
    rng = np.random.default_rng(seed)
    signs = np.array([[a, b, c] for a in (1, -1) for b in (1, -1) for c in (1, -1)])
    face = signs[rng.integers(0, 8, size=n)]
    pts = rng.uniform(-1, 1, size=(n, 3))
    pts += ((bound - (face * pts).sum(axis=1)) / 3.0)[:, None] * face
    return pts[np.abs(pts).max(axis=1) <= 1.0]


def contains_matmul_oracle(t, pts, tol):
    """Containment as one matmul against the face table, the form ``contains`` had."""
    return np.all(pts @ t.halfspaces.T <= t.offsets + tol, axis=-1)


def overlap_formula_oracle(pts, tol):
    """The octahedron as |c11| + |c22| + |c33| <= 1, the form ``in_overlap`` had."""
    return np.abs(pts).sum(axis=-1) <= 1.0 + tol


def three_pass_codes_oracle(pts, tol):
    """Label codes by three passes, the form ``_classify_codes`` had: both
    tetrahedra, then the overlap formula over the top."""
    codes = np.full(len(pts), geo._CODE[geo.RegionLabel.MIXTURE_REQUIRED], dtype=np.uint8)
    codes[contains_matmul_oracle(geo.tcc(), pts, tol)] = geo._CODE[geo.RegionLabel.CC_ONLY]
    codes[contains_matmul_oracle(geo.tdc(), pts, tol)] = geo._CODE[geo.RegionLabel.DC_ONLY]
    codes[overlap_formula_oracle(pts, tol)] = geo._CODE[geo.RegionLabel.AMBIGUOUS]
    return codes


class TestCanonicalTetrahedra:
    def test_tcc_vertices(self):
        np.testing.assert_array_equal(geo.tcc().vertices, TCC_VERTICES)

    def test_tdc_vertices(self):
        np.testing.assert_array_equal(geo.tdc().vertices, TDC_VERTICES)

    def test_centroids_at_origin(self):
        np.testing.assert_allclose(geo.tcc().vertices.mean(axis=0), 0.0, atol=1e-15)
        np.testing.assert_allclose(geo.tdc().vertices.mean(axis=0), 0.0, atol=1e-15)

    def test_sign_table(self):
        # all eight sign vectors, tcc()'s faces first; the cut faces sit next to them
        signs = geo._SIGNS
        assert not signs.flags.writeable
        assert sorted(map(tuple, signs.tolist())) == sorted(
            (a, b, c) for a in (1.0, -1.0) for b in (1.0, -1.0) for c in (1.0, -1.0)
        )
        np.testing.assert_array_equal(signs[:4], geo.tcc().halfspaces)
        np.testing.assert_array_equal(signs[4:], geo.tdc().halfspaces)
        np.testing.assert_array_equal(signs[4], [-1.0, -1.0, -1.0])  # OTC's cut face
        np.testing.assert_array_equal(signs[3], [1.0, 1.0, 1.0])  # OTD's cut face
        rows = list(range(8))
        for kind, region in (("CC", "OTC"), ("DC", "OTD")):
            own, cut, rest = (rows[run] for run in geo._ESCAPE_RUNS[kind])
            assert sorted(own + cut + rest) == rows
            assert sorted(own + cut) == rows[geo._ROWS[region]]

    def test_halfspace_sign_structure(self):
        # preparation tetrahedron: even number of minus signs; evolution: odd
        for row in geo.tcc().halfspaces:
            assert set(np.abs(row)) == {1.0}
            assert (row < 0).sum() % 2 == 0
        for row in geo.tdc().halfspaces:
            assert (row < 0).sum() % 2 == 1
        np.testing.assert_array_equal(geo.tcc().offsets, np.ones(4))
        np.testing.assert_array_equal(geo.tdc().offsets, np.ones(4))

    def test_degenerate_rejected(self):
        flat = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
        with pytest.raises(ValidationError):
            geo.Tetrahedron(flat)

    def test_volumes(self):
        assert geo.tcc().volume() == pytest.approx(8 / 3)
        assert oracles.dug_tcc().volume() == pytest.approx(1 / 3)
        assert oracles.dug_tdc().volume() == pytest.approx(1 / 3)


class TestContains:
    def test_vertex_on_boundary(self):
        assert geo.contains(geo.tcc(), np.array([1.0, -1.0, 1.0]), tol=1e-12)

    def test_opposite_vertex_outside(self):
        assert not geo.contains(geo.tcc(), np.array([1.0, 1.0, 1.0]), tol=1e-9)

    def test_centroid_inside_tdc(self):
        assert geo.contains(geo.tdc(), np.zeros(3), tol=0.0)

    def test_broadcasts(self):
        pts = np.array([[0, 0, 0], [1, 1, 1], [1, -1, 1]], dtype=float)
        np.testing.assert_array_equal(
            geo.contains(geo.tcc(), pts, tol=1e-12), [True, False, True]
        )


class TestContainsMatchesMatmulOracle:
    @pytest.mark.parametrize("tol", [0.0, 1e-9])
    def test_near_faces_bit_for_bit(self, tol):
        pts = np.vstack([near_face_points(), on_face_points(1.0 + tol)])
        cases = [
            (functools.partial(geo.contains, t), contains_matmul_oracle(t, pts, tol))
            for t in (geo.tcc(), geo.tdc(), oracles.dug_tcc(), oracles.dug_tdc())
        ]
        for region, t, cut in ((geo.in_otc, geo.tcc(), -1.0), (geo.in_otd, geo.tdc(), 1.0)):
            cut_side = pts @ np.full(3, cut) <= 1.0 + tol
            cases.append((region, contains_matmul_oracle(t, pts, tol) & cut_side))
        cases.append((geo.in_overlap, overlap_formula_oracle(pts, tol)))
        for region, expected in cases:
            assert 0 < expected.sum() < len(pts)
            assert np.array_equal(region(pts, tol), expected)
            # one point at a time, which takes the Python-float path
            assert [region(p, tol) for p in pts[::10]] == expected[::10].tolist()

    @pytest.mark.parametrize("tol", [0.0, 1e-12, 1e-9, 0.01])
    def test_codes_match_three_pass_rule(self, tol):
        uniform = np.random.default_rng(37).uniform(-1, 1, size=(100_000, 3))
        faces = [near_face_points(), on_face_points(1.0 + tol), on_face_points(1.0)]
        pts = np.vstack([*faces, uniform])
        pts = pts[np.abs(pts).max(axis=1) <= 1.0 + tol]
        expected = three_pass_codes_oracle(pts, tol)
        assert set(expected.tolist()) == set(geo._CODE.values())
        assert np.array_equal(geo._classify_codes(pts, tol), expected)
        # one point at a time, which takes the Python-float path
        assert [geo._classify_codes(p[None], tol)[0] for p in pts[::50]] == expected[::50].tolist()


class TestOverlap:
    def test_face_center_vertex(self):
        assert geo.in_overlap(np.array([0.0, 0.0, 1.0]), tol=1e-12)

    def test_shared_boundary_point(self):
        assert geo.in_overlap(np.array([1 / 3, 1 / 3, 1 / 3]), tol=1e-12)

    def test_outside(self):
        assert not geo.in_overlap(np.array([0.9, 0.9, 0.0]))

    def test_duality_with_halfspaces(self):
        # octahedron formula == brute-force intersection of both tetrahedra
        rng = np.random.default_rng(30)
        pts = rng.uniform(-1, 1, size=(100_000, 3))
        via_formula = overlap_formula_oracle(pts, 1e-12)
        via_halfspaces = geo.contains(geo.tcc(), pts, 1e-12) & geo.contains(
            geo.tdc(), pts, 1e-12
        )
        assert np.array_equal(via_formula, via_halfspaces)

    @pytest.mark.parametrize("tol", [0.0, 1e-12, 1e-9])
    def test_one_comparison_matches_the_eight_faces(self, tol):
        # within a few ulps of every face, on the faces, with signed zeros,
        # infinities and NaN: (|x| + |y|) + |z| decides as the eight sums do
        special = [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, 0.5, -0.5]
        grid = np.array([[a, b, c] for a in special for b in special for c in special])
        pts = np.concatenate([near_face_points(), on_face_points(1.0), on_face_points(1.0 + tol),
                              grid])
        with np.errstate(invalid="ignore"):  # inf - inf in the mixed-sign faces
            (eight,) = geo._face_masks(pts, geo._SIGNS, 1.0, tol)
        assert np.array_equal(geo.in_overlap(pts, tol), eight)
        assert [geo.in_overlap(p, tol) for p in pts[::97]] == eight[::97].tolist()
        assert eight.any() and not eight.all()

    def test_negative_tolerance_rejected(self):
        # NaN fails every comparison, so it is refused with the negative tolerances
        one, stack = np.zeros(3), np.zeros((5, 3))
        tcc_contains = functools.partial(geo.contains, geo.tcc())
        calls = [(test, pts) for test in (geo.in_overlap, geo.in_otc, geo.in_otd, tcc_contains)
                 for pts in (one, stack)]
        calls += [(geo.classify, one), (geo.classify_batch, stack)]
        for tol in (-1e-9, float("nan")):
            for test, pts in calls:
                with pytest.raises(ValidationError, match="tolerance must be >= 0"):
                    test(pts, tol)


class TestCornerCutRegions:
    def test_bell_vertices_kept_in_otc(self):
        for vertex in [(1, -1, 1), (-1, 1, 1), (1, 1, -1)]:
            assert geo.in_otc(np.array(vertex, dtype=float), tol=1e-12)

    def test_singlet_vertex_excluded_from_otc(self):
        assert not geo.in_otc(np.array([-1.0, -1.0, -1.0]), tol=1e-9)

    def test_cut_plane_retained(self):
        # face centers adjacent to the dug corner stay members
        for center in [(-1, 0, 0), (0, -1, 0), (0, 0, -1)]:
            assert geo.in_otc(np.array(center, dtype=float), tol=1e-12)

    def test_identity_vertex_excluded_from_otd(self):
        assert not geo.in_otd(np.array([1.0, 1.0, 1.0]), tol=1e-9)

    def test_origin_in_otd(self):
        assert geo.in_otd(np.zeros(3), tol=0.0)

    def test_volume_additivity(self):
        # indicator arithmetic on a Monte Carlo sample: the corner-cut
        # region plus the dug corner tile the full tetrahedron exactly
        rng = np.random.default_rng(31)
        pts = rng.uniform(-1, 1, size=(100_000, 3))
        in_full = geo.contains(geo.tcc(), pts, 0.0)
        in_cut = geo.in_otc(pts, 0.0)
        beyond_plane = pts @ np.array([-1.0, -1.0, -1.0]) > 1.0
        assert np.array_equal(in_full, in_cut | (in_full & beyond_plane))
        assert not np.any(in_cut & in_full & beyond_plane)
        vol_cube = 8.0
        est_full = in_full.mean() * vol_cube
        est_parts = (in_cut.mean() + (in_full & beyond_plane).mean()) * vol_cube
        assert abs(est_full - est_parts) <= 1e-9
        # the dug corner matches its explicit tetrahedron (interior points)
        in_dug = geo.contains(oracles.dug_tcc(), pts, 0.0)
        strict = pts @ np.array([-1.0, -1.0, -1.0]) > 1.0 + 1e-12
        assert np.array_equal(in_full & strict, in_dug & strict)


class TestClassify:
    def test_cc_vertex(self):
        assert geo.classify((1, -1, 1)) is geo.RegionLabel.CC_ONLY

    def test_dc_vertex(self):
        assert geo.classify((1, 1, 1)) is geo.RegionLabel.DC_ONLY

    def test_mixture_required(self):
        assert geo.classify((0.9, 0.9, 0.0)) is geo.RegionLabel.MIXTURE_REQUIRED

    def test_deep_dc_point(self):
        # 0.9*(vertex) + 0.1*(centroid) stays inside the evolution tetrahedron
        assert geo.classify((0.9, 0.9, 0.9)) is geo.RegionLabel.DC_ONLY

    def test_ambiguous_iff_overlap(self):
        rng = np.random.default_rng(32)
        pts = rng.uniform(-1, 1, size=(20_000, 3))
        labels = geo.classify_batch(pts)
        np.testing.assert_array_equal(
            labels == geo.RegionLabel.AMBIGUOUS.value, geo.in_overlap(pts, 1e-9)
        )

    def test_total_and_exclusive(self):
        rng = np.random.default_rng(33)
        pts = rng.uniform(-1, 1, size=(20_000, 3))
        labels = geo.classify_batch(pts)
        assert set(np.unique(labels)) <= {label.value for label in geo.RegionLabel}
        for row, label in zip(pts, labels):
            assert geo.classify(row).value == label

    def test_outside_cube_rejected(self):
        with pytest.raises(ValidationError):
            geo.classify((1.5, 0.0, 0.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValidationError):
            geo.classify((bad, 0.0, 0.0))
        with pytest.raises(ValidationError):
            geo.classify_batch(np.array([[0.1, 0.2, 0.3], [0.0, bad, 0.0]]))
        with pytest.raises(ValidationError):
            corr.PPoint.from_array((0.0, 0.0, bad))


class TestBarycentric:
    def test_vertex_weight(self):
        np.testing.assert_allclose(
            geo.barycentric(geo.tdc(), np.array([1.0, 1.0, 1.0])), [1, 0, 0, 0], atol=1e-12
        )

    def test_centroid_weights(self):
        np.testing.assert_allclose(
            geo.barycentric(geo.tdc(), np.zeros(3)), [0.25] * 4, atol=1e-12
        )

    def test_face_center_weights(self):
        # (0,0,1) = (v1 + v2) / 2 in the preparation tetrahedron
        np.testing.assert_allclose(
            geo.barycentric(geo.tcc(), np.array([0.0, 0.0, 1.0])), [0.5, 0.5, 0, 0],
            atol=1e-12,
        )

    def test_outside_point_rejected(self):
        with pytest.raises(ValidationError):
            geo.barycentric(geo.tcc(), np.array([1.0, 1.0, 1.0]))

    def test_other_tetrahedron_rejected(self):
        for t in (oracles.dug_tcc(), geo.Tetrahedron(geo.tcc().vertices)):
            with pytest.raises(ValidationError, match="tcc"):
                geo.barycentric(t, np.array([-0.5, -0.5, -0.5]))

    def test_weights_recombine(self):
        rng = np.random.default_rng(34)
        for _ in range(500):
            w = rng.dirichlet(np.ones(4))
            p = w @ geo.tcc().vertices
            got = geo.barycentric(geo.tcc(), p)
            np.testing.assert_allclose(got @ geo.tcc().vertices, p, atol=1e-12)
            np.testing.assert_allclose(got, w, atol=1e-12)


class TestReconstruction:
    def test_pure_vertex_state(self):
        np.testing.assert_allclose(
            geo.state_from_weights([1, 0, 0, 0]), qmath.bell(1), atol=1e-15
        )

    def test_uniform_weights_center(self):
        state = geo.state_from_weights([0.25] * 4)
        np.testing.assert_allclose(
            corr.cc_pvector(qmath.projector(state)).as_array(), (0, 0, 0), atol=1e-10
        )

    def test_face_weights_reach_max_statistic(self):
        state = geo.state_from_weights([1 / 3, 1 / 3, 1 / 3, 0])
        point = corr.cc_pvector(qmath.projector(state))
        np.testing.assert_allclose(point.as_array(), (1 / 3, 1 / 3, 1 / 3), atol=1e-10)
        assert corr.statistic_c(point) == pytest.approx(1 / 27, abs=1e-10)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError):
            geo.state_from_weights([0.5, 0.6, -0.1, 0.0])

    def test_identity_unitary(self):
        np.testing.assert_allclose(geo.unitary_from_probs([1, 0, 0, 0]), np.eye(2))

    def test_z_type_unitary(self):
        u = geo.unitary_from_probs([0, 0, 0, 1])
        np.testing.assert_allclose(u, 1j * qmath.pauli(3), atol=1e-15)
        np.testing.assert_allclose(
            corr.dc_pvector(u).as_array(), (-1, -1, 1), atol=1e-12
        )

    def test_uniform_probs_center(self):
        u = geo.unitary_from_probs([0.25] * 4)
        np.testing.assert_allclose(corr.dc_pvector(u).as_array(), (0, 0, 0), atol=1e-10)

    def test_round_trip_cc(self):
        rng = np.random.default_rng(35)
        for _ in range(2000):
            w = rng.dirichlet(np.ones(4))
            p = w @ geo.tcc().vertices
            state = geo.state_from_weights(geo.barycentric(geo.tcc(), p))
            got = corr.cc_pvector(qmath.projector(state)).as_array()
            np.testing.assert_allclose(got, p, atol=1e-9)

    def test_round_trip_dc(self):
        rng = np.random.default_rng(36)
        for _ in range(2000):
            w = rng.dirichlet(np.ones(4))
            p = w @ geo.tdc().vertices
            u = geo.unitary_from_probs(geo.barycentric(geo.tdc(), p))
            got = corr.dc_pvector(u).as_array()
            np.testing.assert_allclose(got, p, atol=1e-9)
