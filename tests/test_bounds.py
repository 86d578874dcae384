import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import oracles
from qcausal import bounds, cli, geometry as geo, qmath
from qcausal import correlation as corr
from qcausal.errors import ValidationError
from qcausal.samplers import SamplerConfig
from test_cli import src_env

CC_MAX = 1 / 27
DC_MIN = -1 / 27


def witness_value(report):
    if report.target.startswith("CC"):
        return corr.statistic_c(corr.cc_pvector(qmath.projector(report.witness_object)))
    return corr.statistic_c(corr.dc_pvector(report.witness_object))


def simplex_grid_oracle(n):
    """Every weight vector (i, j, k, n-i-j-k)/n, masked out of the whole (n+1)^3 cube."""
    idx = np.arange(n + 1, dtype=np.int32)
    i, j, k = np.meshgrid(idx, idx, idx, indexing="ij")
    mask = (i + j + k) <= n
    i, j, k = i[mask], j[mask], k[mask]
    return np.stack([i, j, k, n - i - j - k], axis=1).astype(float) / n


class TestGrid:
    @pytest.mark.parametrize("step", [0.1, 0.05, 0.03, 0.02, 0.01])
    @pytest.mark.parametrize("target", sorted(bounds.TARGET_VALUES))
    def test_matches_cube_grid_oracle(self, step, target):
        tetra = geo.tcc() if target.startswith("CC") else geo.tdc()
        direction = target.split("_")[1]
        weights = simplex_grid_oracle(round(1 / step))
        values = (weights @ tetra.vertices).prod(axis=1)
        best = int(values.argmax() if direction == "MAX" else values.argmin())
        report = bounds._grid_extrema([target], step)[target]
        assert report.target == target
        assert np.float64(report.value).tobytes() == values[best].tobytes()
        assert report.witness.tobytes() == weights[best].tobytes()

    def test_dc_min(self):
        report = bounds._grid_extrema(["DC_MIN"], 0.01)["DC_MIN"]
        assert abs(report.value - DC_MIN) <= 1e-3
        np.testing.assert_allclose(sorted(report.witness), [0, 1 / 3, 1 / 3, 1 / 3], atol=0.02)

    def test_cc_max(self):
        report = bounds._grid_extrema(["CC_MAX"], 0.01)["CC_MAX"]
        assert abs(report.value - CC_MAX) <= 1e-3

    def test_cc_min_exact_at_vertex(self):
        report = bounds._grid_extrema(["CC_MIN"], 0.01)["CC_MIN"]
        assert report.value == -1.0
        assert sorted(report.witness) == [0, 0, 0, 1]

    def test_dc_max_exact_at_vertex(self):
        report = bounds._grid_extrema(["DC_MAX"], 0.01)["DC_MAX"]
        assert report.value == 1.0

    def test_step_validation(self):
        for step in [0.5, 0.11, 0.0009, 0.0, -0.01, math.nan, math.inf]:
            with pytest.raises(ValidationError, match=r"grid step must be in \[0.001, 0.1\]"):
                bounds._grid_extrema(["CC_MAX"], step)

    @pytest.mark.parametrize("step", ["1e-300", "0.0005", "nan"])
    def test_bad_step_exit_one(self, capfd, step):
        assert cli.main(["bounds", "--grid-step", step, "--starts", "1"]) == 1
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"validation error: grid step must be in [0.001, 0.1], got {float(step)}\n"
        )

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status"), reason="needs /proc/self/status"
    )
    def test_fine_grid_peak_memory(self, tmp_path):
        # a grid built over the whole (n+1)^3 cube peaks at about 213 MB at this step
        code = textwrap.dedent(
            """
            import sys
            from qcausal.cli import main
            status = main(["bounds", "--grid-step", "0.005", "--starts", "1",
                           "--out", sys.argv[1]])
            with open("/proc/self/status") as handle:
                kib = next(int(line.split()[1]) for line in handle if line.startswith("VmHWM:"))
            print(status, kib)
            """
        )
        out = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "r.json")],
            env=src_env(), capture_output=True, text=True, check=True,
        )
        status, kib = map(int, out.stdout.split())
        assert status == 0
        assert kib / 1024 < 100, f"peak RSS {kib / 1024:.1f} MB"

    def test_witness_object_reproduces_value(self):
        for target in ["CC_MAX", "DC_MIN"]:
            report = bounds._grid_extrema([target], 0.02)[target]
            assert abs(witness_value(report) - report.value) <= 1e-8

    @pytest.mark.parametrize("step", [0.1, 0.05, 0.01])
    def test_shared_sweep_equals_one_target_sweeps(self, step):
        shared = bounds._grid_extrema(bounds.TARGET_VALUES, step)
        weights = simplex_grid_oracle(round(1 / step))
        ties = {}
        for target, report in shared.items():
            tetra = geo.tcc() if target.startswith("CC") else geo.tdc()
            alone = bounds._grid_extrema([target], step)[target]
            assert report.target == alone.target == target
            assert np.float64(report.value).tobytes() == np.float64(alone.value).tobytes()
            assert report.witness.tobytes() == alone.witness.tobytes()
            assert report.witness_object.tobytes() == alone.witness_object.tobytes()
            # the first extremal weight vector in lexicographic (i, j, k) order wins
            values = bounds._statistic_at(tetra, weights)
            extremal = np.flatnonzero(values == report.value)
            assert report.witness.tobytes() == weights[extremal[0]].tobytes()
            ties[target] = extremal.size
        # the four vertices tie at C = -1 and at C = +1
        assert ties["CC_MIN"] >= 4 and ties["DC_MAX"] >= 4


class TestPolish:
    def test_cc_max_to_high_accuracy(self):
        report = bounds.polish_extremum(bounds._grid_extrema(["CC_MAX"], 0.01)["CC_MAX"])
        assert abs(report.value - CC_MAX) <= 1e-8
        assert report.converged

    def test_dc_min_to_high_accuracy(self):
        report = bounds.polish_extremum(bounds._grid_extrema(["DC_MIN"], 0.01)["DC_MIN"])
        assert abs(report.value - DC_MIN) <= 1e-8

    def test_vertex_start_already_extremal(self):
        report = bounds._grid_extrema(["CC_MIN"], 0.01)["CC_MIN"]
        polished = bounds.polish_extremum(report)
        assert polished.value == -1.0
        np.testing.assert_allclose(polished.witness, report.witness, atol=1e-12)

    def test_never_worsens(self):
        for target in ["CC_MAX", "CC_MIN", "DC_MAX", "DC_MIN"]:
            coarse = bounds._grid_extrema([target], 0.1)[target]
            polished = bounds.polish_extremum(coarse)
            if target.endswith("MAX"):
                assert polished.value >= coarse.value - 1e-15
            else:
                assert polished.value <= coarse.value + 1e-15

    @pytest.mark.parametrize("tol", [float("nan"), 0.0, -1e-10, float("inf")])
    def test_bad_tolerance_rejected(self, tol):
        # NaN would return the unpolished grid value, and tol <= 0 run to the cap
        report = bounds._grid_extrema(["CC_MAX"], 0.1)["CC_MAX"]
        with pytest.raises(ValidationError, match="finite and > 0"):
            bounds.polish_extremum(report, tol)


class TestCompassBatch:
    @pytest.mark.parametrize("step", [0.1, 0.05, 0.01])
    @pytest.mark.parametrize("target", sorted(bounds.TARGET_VALUES))
    def test_polish_equals_one_candidate_oracle(self, target, step):
        tetra = geo.tcc() if target.startswith("CC") else geo.tdc()
        sign = 1.0 if target.endswith("MAX") else -1.0
        grid = bounds._grid_extrema([target], step)[target]
        polished = bounds.polish_extremum(grid)
        w, value, converged = oracles.simplex_compass_oracle(tetra, sign, grid.witness, 1e-10)
        assert np.float64(polished.value).tobytes() == np.float64(value).tobytes()
        assert polished.witness.tobytes() == w.tobytes()
        assert polished.converged == converged

    def test_random_starts_equal_one_candidate_oracle(self):
        # from interior points a sweep often takes a move and goes on with the
        # moves after it; restarting the sweep there changes some end points.
        # The dyadic starts hold a weight equal to the step, which may be moved.
        dyadic = [[0.5, 0.25, 0.125, 0.125]] * 4 + [[0.75, 0.25, 0.0, 0.0]] * 4
        starts = np.vstack([dyadic, SamplerConfig(seed=90).rng().dirichlet(np.ones(4), size=96)])
        for n, w0 in enumerate(starts):
            tetra, sign = (geo.tcc(), geo.tdc())[n % 2], (1.0, -1.0)[n // 2 % 2]
            w, value, converged = bounds._simplex_compass(tetra, sign, w0, 1e-10)
            expected = oracles.simplex_compass_oracle(tetra, sign, w0, 1e-10)
            assert (w.tobytes(), value, converged) == (expected[0].tobytes(), *expected[1:])

    def test_capped_polish_equals_oracle(self, monkeypatch):
        monkeypatch.setattr(bounds, "_POLISH_MAX_ITER", 3)
        grid = bounds._grid_extrema(["CC_MAX"], 0.1)["CC_MAX"]
        polished = bounds.polish_extremum(grid)
        w, value, converged = oracles.simplex_compass_oracle(geo.tcc(), 1.0, grid.witness, 1e-10)
        assert not polished.converged and not converged
        assert (polished.value, polished.witness.tobytes()) == (value, w.tobytes())


class TestMultistartState:
    def test_max_reaches_bound(self):
        report = bounds._multistart_extrema("CC", ["MAX"], 100, SamplerConfig(seed=70))["CC_MAX"]
        assert abs(report.value - CC_MAX) <= 1e-6

    def test_min_reaches_bell_floor(self):
        report = bounds._multistart_extrema("CC", ["MIN"], 100, SamplerConfig(seed=71))["CC_MIN"]
        assert abs(report.value - (-1.0)) <= 1e-9

    def test_witness_consistency(self):
        report = bounds._multistart_extrema("CC", ["MAX"], 50, SamplerConfig(seed=72))["CC_MAX"]
        assert abs(witness_value(report) - report.value) <= 1e-10
        point = corr.cc_pvector(qmath.projector(report.witness_object)).as_array()
        assert geo.contains(geo.tcc(), point, 1e-9)

    def test_published_witness_state(self):
        # the quoted maximizer, read in the computational basis, hits the bound
        state = np.array([-2, 1, -1, 0], dtype=complex) / np.sqrt(6)
        value = corr.statistic_c(corr.cc_pvector(qmath.projector(state)))
        assert abs(value - CC_MAX) <= 1e-10
        # the entangled-basis reading does not (documented resolution)
        alt = sum(c * qmath.bell(j) for j, c in enumerate(state, start=1))
        alt_value = corr.statistic_c(corr.cc_pvector(qmath.projector(alt)))
        assert abs(alt_value - (-4 / 27)) <= 1e-10


class TestMultistartUnitary:
    def test_min_reaches_bound(self):
        report = bounds._multistart_extrema("DC", ["MIN"], 100, SamplerConfig(seed=73))["DC_MIN"]
        assert abs(report.value - DC_MIN) <= 1e-6

    def test_max_at_pauli_vertex(self):
        report = bounds._multistart_extrema("DC", ["MAX"], 100, SamplerConfig(seed=74))["DC_MAX"]
        assert abs(report.value - 1.0) <= 1e-9
        point = corr.dc_pvector(report.witness_object).as_array()
        distances = np.abs(geo.tdc().vertices - point).max(axis=1)
        assert distances.min() <= 1e-4

    def test_agrees_with_grid(self):
        grid = bounds._grid_extrema(["DC_MIN"], 0.01)["DC_MIN"]
        multi = bounds._multistart_extrema("DC", ["MIN"], 60, SamplerConfig(seed=75))["DC_MIN"]
        assert multi.value >= grid.value - 1e-3

    def test_witness_in_tetrahedron(self):
        report = bounds._multistart_extrema("DC", ["MIN"], 40, SamplerConfig(seed=76))["DC_MIN"]
        point = corr.dc_pvector(report.witness_object).as_array()
        assert geo.contains(geo.tdc(), point, 1e-9)
        assert abs(witness_value(report) - report.value) <= 1e-10


class TestOracleAgreement:
    @pytest.mark.parametrize(
        "target,reference",
        [("CC_MAX", CC_MAX), ("CC_MIN", -1.0), ("DC_MAX", 1.0), ("DC_MIN", DC_MIN)],
    )
    def test_both_routes_agree(self, target, reference):
        kind, direction = target.split("_")
        polished = bounds.polish_extremum(bounds._grid_extrema([target], 0.01)[target])
        multi = bounds._multistart_extrema(kind, [direction], 80, SamplerConfig(seed=77))[target]
        assert abs(polished.value - multi.value) <= 1e-6
        assert abs(polished.value - reference) <= 1e-6


def _state_starts(seed, starts):
    return SamplerConfig(seed=seed).rng().standard_normal((starts, 4))


def _unitary_starts(seed, starts):
    rng = SamplerConfig(seed=seed).rng()
    return np.array([
        np.concatenate([rng.standard_normal(4), rng.uniform(0, 2 * np.pi, 1)])
        for _ in range(starts)
    ])


def _signed(make_objective, sign, starts):
    """An objective whose every start has the one ``sign``."""
    return make_objective(np.full(starts, sign))


def _nelder_mead(objective, x0, block=bounds._SCALE_BLOCK, max_iter=bounds._NM_MAX_ITER):
    return bounds._nelder_mead(objective, x0, block, max_iter)


def _reference_nelder_mead(objective, x0, block, max_iter):
    """One start, one vertex at a time, in the order of the textbook loop.

    Returns (best vertex, its value, evaluations, converged) for comparison
    with the lockstep batch, which must match it bit for bit.
    """
    def f(x):
        return objective(x[None, :], np.zeros(1, dtype=int))[0]

    d = len(x0)
    sim = [x0.copy()]
    for k in range(d):
        y = x0.copy()
        y[k] = 1.05 * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    sim = np.array(sim)
    fsim = np.array([f(x) for x in sim])
    nfev, iterations = d + 1, 0
    while True:
        order = np.argsort(fsim, kind="stable")
        sim, fsim = sim[order], fsim[order]
        if block:
            centroid = sum(x[:block] for x in sim) / (d + 1)
            _, exponent = math.frexp(math.sqrt(sum(c * c for c in centroid)))
            sim[:, :block] = np.ldexp(sim[:, :block], -exponent)
        converged = (np.max(np.abs(sim[1:] - sim[0])) <= 1e-12
                     and np.max(np.abs(fsim[1:] - fsim[0])) <= 1e-14)
        if converged or iterations >= max_iter:
            return sim[0], fsim[0], nfev, converged
        iterations += 1
        xbar = sum(sim[:-1]) / d
        xr = 2.0 * xbar - 1.0 * sim[-1]
        fxr = f(xr)
        nfev += 1
        shrink = False
        if fxr < fsim[0]:
            xe = 3.0 * xbar - 2.0 * sim[-1]
            fxe = f(xe)
            nfev += 1
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-1]:
            xc = 1.5 * xbar - 0.5 * sim[-1]
            fxc = f(xc)
            nfev += 1
            if fxc <= fxr:
                sim[-1], fsim[-1] = xc, fxc
            else:
                shrink = True
        else:
            xcc = 0.5 * xbar + 0.5 * sim[-1]
            fxcc = f(xcc)
            nfev += 1
            if fxcc < fsim[-1]:
                sim[-1], fsim[-1] = xcc, fxcc
            else:
                shrink = True
        if shrink:
            for j in range(1, d + 1):
                sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                fsim[j] = f(sim[j])
            nfev += d


_OBJECTIVES = [(bounds._state_objective, _state_starts), (bounds._unitary_objective, _unitary_starts)]


class TestLockstepNelderMead:
    @pytest.mark.parametrize("make_objective,make_starts", _OBJECTIVES)
    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_batch_equals_one_at_a_time(self, make_objective, make_starts, sign):
        objective = _signed(make_objective, sign, 12)
        x0 = make_starts(81, 12)
        batch = _nelder_mead(objective, x0)
        for i in range(len(x0)):
            alone = _nelder_mead(objective, x0[i:i + 1])
            reference = _reference_nelder_mead(
                objective, x0[i], bounds._SCALE_BLOCK, bounds._NM_MAX_ITER
            )
            for run in ((alone.x[0], alone.fun[0], alone.evaluations[0], alone.converged[0]),
                        reference):
                x, fun, evaluations, converged = run
                assert np.array_equal(x, batch.x[i])
                assert fun == batch.fun[i]
                assert evaluations == batch.evaluations[i]
                assert converged == batch.converged[i]

    @pytest.mark.parametrize("sign,start", [(-1.0, 23), (1.0, 29)])
    def test_seed42_drifting_starts_converge(self, sign, start):
        # under the former scipy search these two starts drifted to |z| of
        # 1.4e15 and 7.2e12 and ran to the 10,000-iteration cap
        x0 = _state_starts(42, 50)[start:start + 1]
        res = _nelder_mead(_signed(bounds._state_objective, sign, 1), x0)
        assert res.converged[0]
        assert res.evaluations[0] < 5_000
        assert 0.5 <= np.linalg.norm(res.x[0]) < 2.0

    def test_rescaling_is_what_stops_the_drift(self):
        x0 = _state_starts(42, 50)[29:30]
        objective = _signed(bounds._state_objective, 1.0, 1)
        rescaled = _nelder_mead(objective, x0, max_iter=3_000)
        plain = _nelder_mead(objective, x0, block=0, max_iter=3_000)
        assert rescaled.converged[0]
        assert not plain.converged[0]
        assert np.linalg.norm(plain.x[0]) > 1e6

    def test_iteration_cap_honoured_and_counted(self):
        x0 = _state_starts(5, 6)
        res = _nelder_mead(_signed(bounds._state_objective, -1.0, 6), x0, max_iter=3)
        assert not res.converged.any()
        # d + 1 initial evaluations, then at most 2 + d per iteration
        assert np.all(res.evaluations >= 5 + 3)
        assert np.all(res.evaluations <= 5 + 3 * (2 + 4))

    def test_cap_reported_as_nonconverged(self, monkeypatch):
        monkeypatch.setattr(bounds, "_NM_MAX_ITER", 5)
        report = cli.run_bounds(grid_step=0.05, starts=7, seed=3)
        for entry in report.results.values():
            assert entry["multistart_nonconverged"] == 7
            # at least 5 initial vertices and one reflection per iteration
            assert entry["multistart_evaluations"] >= 7 * (5 + 5)

    def test_quadratic_minimum(self):
        center = np.array([0.3, -1.2, 2.5])
        scale = np.array([1.0, 4.0, 0.5])

        def objective(x, start):
            diff = x - center
            return (scale * diff * diff).sum(axis=1)

        x0 = np.array([[0.0, 0.0, 0.0], [5.0, 5.0, -5.0], [-2.0, 1.0, 0.0]])
        res = _nelder_mead(objective, x0, block=0)
        assert res.converged.all()
        np.testing.assert_allclose(res.x, np.tile(center, (3, 1)), atol=1e-6)
        assert np.all(res.fun <= 1e-12)


def _assert_same_starts(merged, alone, offset):
    """Start i of ``alone`` ended as start offset + i of ``merged``, bit for bit."""
    part = slice(offset, offset + len(alone.fun))
    assert merged.x[part].tobytes() == alone.x.tobytes()
    assert merged.fun[part].tobytes() == alone.fun.tobytes()
    assert np.array_equal(merged.evaluations[part], alone.evaluations)
    assert np.array_equal(merged.converged[part], alone.converged)


class TestMergedDirections:
    @pytest.mark.parametrize("seed", [3, 42, 81])
    @pytest.mark.parametrize("make_objective,make_starts", _OBJECTIVES)
    def test_two_direction_batch_equals_one_direction(self, make_objective, make_starts, seed):
        x0 = make_starts(seed, 8)
        signs = np.repeat([-1.0, 1.0], len(x0))
        merged = _nelder_mead(make_objective(signs), np.tile(x0, (2, 1)))
        for k, sign in enumerate((-1.0, 1.0)):
            alone = _nelder_mead(_signed(make_objective, sign, len(x0)), x0)
            _assert_same_starts(merged, alone, k * len(x0))

    @pytest.mark.parametrize("kind", ["CC", "DC"])
    def test_capped_batch_equals_one_direction(self, monkeypatch, kind):
        # every run of the shared kernel, one batch for both directions and
        # one per direction, stopped at 40 iterations
        runs = []

        def recording(*args):
            runs.append(real(*args))
            return runs[-1]

        real = bounds._nelder_mead
        monkeypatch.setattr(bounds, "_nelder_mead", recording)
        monkeypatch.setattr(bounds, "_NM_MAX_ITER", 40)
        cfg = SamplerConfig(seed=5)
        merged = bounds._multistart_extrema(kind, ["MAX", "MIN"], 6, cfg)
        alone = [bounds._multistart_extrema(kind, [direction], 6, cfg)[f"{kind}_{direction}"]
                 for direction in ("MAX", "MIN")]
        assert len(runs) == 3 and not runs[0].converged.all()
        for k, report in enumerate(alone):
            _assert_same_starts(runs[0], runs[k + 1], 6 * k)
            twin = merged[report.target]
            assert np.float64(twin.value).tobytes() == np.float64(report.value).tobytes()
            assert twin.witness.tobytes() == report.witness.tobytes()
            assert twin.witness_object.tobytes() == report.witness_object.tobytes()
            assert (twin.evaluations, twin.nonconverged) == (
                report.evaluations, report.nonconverged)

    @pytest.mark.parametrize("seed", [3, 42])
    def test_run_bounds_equals_one_direction_calls(self, seed):
        cfg = SamplerConfig(seed=seed)
        expected, violations = {}, []
        for target, reference in bounds.TARGET_VALUES.items():
            kind, direction = target.split("_")
            polished = bounds.polish_extremum(bounds._grid_extrema([target], 0.05)[target])
            multi = bounds._multistart_extrema(kind, [direction], 12, cfg)[target]
            expected[target] = {
                "reference": reference,
                "grid_polished": polished.value,
                "multistart": multi.value,
                "oracle_agreement": abs(polished.value - multi.value),
                "witness_weights": list(polished.witness),
                "tolerance": 1e-6,
                "polish_converged": polished.converged,
                "multistart_evaluations": multi.evaluations,
                "multistart_nonconverged": multi.nonconverged,
            }
            if max(abs(polished.value - multi.value), abs(polished.value - reference)) > 1e-6:
                violations.append({"target": target, "grid_polished": polished.value,
                                   "multistart": multi.value})
        report = cli.run_bounds(grid_step=0.05, starts=12, seed=seed)
        assert report.to_json() == cli.RunReport(
            command="bounds", seed=seed,
            parameters={"grid_step": 0.05, "starts": 12, "tol": 1e-6},
            results=expected, violations=violations,
        ).to_json()


class TestMultistartValue:
    @pytest.mark.parametrize("kind", ["CC", "DC"])
    def test_value_is_the_objective_and_the_witness_reproduces_it(self, kind):
        # the reported value is sign * f at the best end point; the witness object,
        # taken through the correlation module, gives the same C
        reports = bounds._multistart_extrema(kind, ["MAX", "MIN"], 20, SamplerConfig(seed=42))
        for target, report in reports.items():
            assert abs(witness_value(report) - report.value) <= 1e-12, target
            assert abs(report.value - bounds.TARGET_VALUES[target]) <= 1e-6, target


class TestMultistartCounts:
    def test_report_carries_counts(self):
        report = cli.run_bounds(grid_step=0.05, starts=10, seed=11)
        for entry in report.results.values():
            assert entry["polish_converged"] is True
            assert entry["multistart_nonconverged"] == 0
            assert entry["multistart_evaluations"] > 10 * 5

    def test_counts_deterministic(self):
        a = bounds._multistart_extrema("DC", ["MIN"], 15, SamplerConfig(seed=12))["DC_MIN"]
        b = bounds._multistart_extrema("DC", ["MIN"], 15, SamplerConfig(seed=12))["DC_MIN"]
        assert (a.value, a.evaluations, a.nonconverged) == (b.value, b.evaluations, b.nonconverged)


def test_import_loads_no_scipy():
    code = (
        "import sys, qcausal, qcausal.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_import_loads_no_random_or_multiprocessing():
    # numpy.random alone adds about 15 ms and 5 MB to the import
    code = (
        "import sys, qcausal, qcausal.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'"
        " or m == 'numpy.random' or m.startswith('numpy.random.')))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
