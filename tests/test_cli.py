import contextlib
import io
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcausal
from qcausal import basis_change, cli, qmath
from qcausal import correlation as corr
from qcausal import geometry as geo
from qcausal.errors import ConsistencyError, ValidationError
from qcausal.samplers import (
    SamplerConfig,
    sample_density,
    sample_in_region_batch,
    sample_unitary,
    sample_unitary_params,
)
from test_basis_change import _search_escape_oracle
from test_geometry import near_face_points


def src_env():
    """The environment for a child Python that imports this checkout's package."""
    src = str(Path(qcausal.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(doc.to_json(), encoding="utf-8")
    return str(path)


class TestDocuments:
    def test_density_round_trip(self, tmp_path):
        rho = qmath.projector(qmath.bell(4))
        doc = cli.document_from_array("density", rho)
        loaded = cli.load_document(write_doc(tmp_path, "rho.json", doc))
        np.testing.assert_allclose(loaded.payload(), rho, atol=1e-15)

    def test_unitary_round_trip(self, tmp_path):
        doc = cli.document_from_array("unitary", qmath.pauli(2))
        loaded = cli.load_document(write_doc(tmp_path, "u.json", doc))
        np.testing.assert_allclose(loaded.payload(), qmath.pauli(2), atol=1e-15)

    @pytest.mark.parametrize("values", [[5.0, 0.0, 0.0], [0.1, np.nan, 0.2], [0.1, 0.2]])
    def test_pvector_from_array_validated(self, values):
        with pytest.raises(ValidationError):
            cli.document_from_array("pvector", np.array(values))

    def test_pvector_round_trip(self, tmp_path):
        doc = cli.document_from_array("pvector", np.array([0.1, -0.2, 0.3]))
        loaded = cli.load_document(write_doc(tmp_path, "p.json", doc))
        np.testing.assert_allclose(loaded.payload(), [0.1, -0.2, 0.3])

    def test_parse_error_includes_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"kind": "density",\n  "dim": 4,', encoding="utf-8")
        with pytest.raises(ValidationError, match=r"line \d+"):
            cli.load_document(str(path))

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "missing.json"
        path.write_text('{"kind": "density", "dim": 4}', encoding="utf-8")
        with pytest.raises(ValidationError, match="entries"):
            cli.load_document(str(path))

    def test_entry_count_checked(self, tmp_path):
        path = tmp_path / "short.json"
        path.write_text(
            json.dumps({"kind": "unitary", "dim": 2, "entries": [[1, 0], [0, 0]]}),
            encoding="utf-8",
        )
        with pytest.raises(ValidationError, match="4"):
            cli.load_document(str(path))

    def test_invalid_matrix_names_predicate(self, tmp_path):
        entries = [[1.0, 0.0]] * 16
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"kind": "density", "dim": 4, "entries": entries}),
            encoding="utf-8",
        )
        with pytest.raises(ValidationError, match="density"):
            cli.load_document(str(path))

    def test_sampled_documents_always_classify(self, tmp_path):
        from qcausal.samplers import SamplerConfig, sample_density, sample_unitary

        rng = SamplerConfig(seed=100).rng()
        for idx in range(20):
            doc = cli.document_from_array("density", sample_density(rng))
            cli.run_classify(cli.load_document(write_doc(tmp_path, f"d{idx}.json", doc)))
        for idx in range(20):
            doc = cli.document_from_array("unitary", sample_unitary(rng))
            cli.run_classify(cli.load_document(write_doc(tmp_path, f"u{idx}.json", doc)))


class TestReports:
    def test_round_trip(self):
        report = cli.RunReport(
            command="demo",
            seed=7,
            parameters={"n": 3},
            results={"x": [1.0, 2.5], "flag": True},
            violations=[],
        )
        parsed = cli.parse_report(report.to_json())
        assert parsed == report

    def test_stable_key_order(self):
        report = cli.RunReport(command="demo", seed=1, parameters={"b": 1, "a": 2})
        text = report.to_json()
        assert text.index('"a"') < text.index('"b"')


class TestClassifyCommand:
    def test_bell4_density(self):
        doc = cli.document_from_array("density", qmath.projector(qmath.bell(4)))
        report = cli.run_classify(doc)
        assert report.results["label"] == "CC_ONLY"
        assert report.results["statistic"]["value"] == pytest.approx(-1.0, abs=1e-12)

    def test_sigma2_unitary(self):
        doc = cli.document_from_array("unitary", qmath.pauli(2))
        report = cli.run_classify(doc)
        assert report.results["label"] == "DC_ONLY"
        assert report.results["statistic"]["value"] == pytest.approx(1.0, abs=1e-12)

    def test_mixture_required_pvector(self):
        doc = cli.document_from_array("pvector", np.array([0.9, 0.9, 0.0]))
        report = cli.run_classify(doc)
        assert report.results["label"] == "MIXTURE_REQUIRED"

    def test_ambiguous_density_reports_escape(self):
        rho = 0.5 * qmath.projector(qmath.bell(1)) + 0.5 * qmath.projector(qmath.bell(3))
        doc = cli.document_from_array("density", rho)
        report = cli.run_classify(doc, seed=5)
        assert report.results["label"] == "AMBIGUOUS"
        assert report.results["escape"]["applicable"] is True
        # T = diag(1, 0, 0): on the overlap's face, and no rotation takes it further.
        assert report.results["escape"]["margin"] == pytest.approx(0.0, abs=1e-12)
        assert report.results["escape"]["found"] is False
        assert report.parameters == {"kind": "density", "tol": 1e-9}

    @pytest.mark.parametrize("seed", [3, 4])
    @pytest.mark.parametrize(
        "name, escapes", [("stuck-density", False), ("density", True), ("unitary", True)]
    )
    def test_escape_report_matches_oracle(self, seed, name, escapes):
        if name == "stuck-density":
            kind, target = "CC", np.eye(4, dtype=complex) / 4
        elif name == "density":
            cfg = SamplerConfig(seed=601, density_rank=1)
            kind, target = "CC", sample_in_region_batch(cfg, "CC", "O", 1)[0]
        else:
            kind, target = "DC", sample_in_region_batch(SamplerConfig(seed=700), "DC", "O", 1)[0]
        doc = cli.document_from_array("density" if kind == "CC" else "unitary", target)
        escape = cli.run_classify(doc, seed=seed).results["escape"]
        found = _search_escape_oracle(kind, target, 300, SamplerConfig(seed=seed))
        assert escape["found"] is escapes is (found is not None)
        assert (escape["margin"] > 1e-9) is escapes
        if escapes:
            v = np.array([complex(re, im) for re, im in escape["v"]]).reshape(2, 2)
            assert v.tobytes() == basis_change.escape_witness(kind, target)[1].tobytes()

    def test_classify_draws_nothing(self, monkeypatch, tmp_path):
        def refuse(*args, **kwargs):
            raise AssertionError("classify drew a random number")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        monkeypatch.setattr(SamplerConfig, "rng", refuse)
        for kind, target in (("unitary", np.diag([1, 1j])), ("unitary", qmath.pauli(0)),
                             ("density", np.eye(4) / 4)):
            path = write_doc(tmp_path, "doc.json", cli.document_from_array(kind, target))
            assert cli.main(["classify", path, "--seed", "9", "--out", str(tmp_path / "r")]) == 0

    def test_loose_tol_reaches_the_escape_test(self, tmp_path, capsys):
        # |c11|+|c22|+|c33| = 1.005: ambiguous at --tol 0.01, so the escape test
        # must judge the overlap at that tol too, and margin 2 cos(theta) stays below it.
        cos = 0.0025
        u = np.diag([1.0, complex(cos, np.sqrt(1.0 - cos**2))])
        path = write_doc(tmp_path, "u.json", cli.document_from_array("unitary", u))
        assert cli.main(["classify", path, "--tol", "0.01"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["label"] == "AMBIGUOUS"
        assert results["escape"]["found"] is False
        assert results["escape"]["margin"] == pytest.approx(2 * cos, abs=1e-12)

    def test_max_tries_flag_is_gone(self, tmp_path):
        path = write_doc(tmp_path, "u.json", cli.document_from_array("unitary", qmath.pauli(1)))
        with pytest.raises(SystemExit):
            cli.main(["classify", path, "--max-tries", "5"])

    def test_ambiguous_pvector_escape_not_applicable(self):
        doc = cli.document_from_array("pvector", np.array([0.1, 0.1, 0.1]))
        report = cli.run_classify(doc)
        assert report.results["label"] == "AMBIGUOUS"
        assert report.results["escape"]["applicable"] is False


class TestTable1Command:
    def test_all_rows_match(self):
        report = cli.run_table1()
        assert report.violations == []
        assert len(report.results) == 8
        assert all(row["match"] for row in report.results.values())
        np.testing.assert_allclose(
            report.results["unitary_sigma1"]["pattern"], [1.0, -1.0, -1.0], atol=1e-12
        )
        np.testing.assert_allclose(
            report.results["density_b3"]["pattern"], [1.0, 1.0, -1.0], atol=1e-12
        )


class TestSampleCommand:
    def test_cc_bounds_hold(self, tmp_path):
        csv_path = tmp_path / "cc.csv"
        report = cli.run_sample("CC", 5000, seed=11, out_path=str(csv_path))
        assert report.results["bound_violations"] == 0
        assert report.results["max_c"]["value"] <= 1 / 27 + 1e-9
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "c11,c22,c33,c,label"
        assert len(lines) == 5001

    def test_dc_bounds_hold(self, tmp_path):
        report = cli.run_sample("DC", 5000, seed=12, out_path=str(tmp_path / "dc.csv"))
        assert report.results["bound_violations"] == 0
        assert report.results["min_c"]["value"] >= -1 / 27 - 1e-9

    def test_same_seed_byte_identical(self, tmp_path):
        path = tmp_path / "out.csv"
        rep_a = cli.run_sample("CC", 2000, seed=13, out_path=str(path))
        first = path.read_bytes()
        rep_b = cli.run_sample("CC", 2000, seed=13, out_path=str(path))
        assert first == path.read_bytes()
        assert rep_a.to_json() == rep_b.to_json()

    def test_cli_import_leaves_multiprocessing_out(self):
        code = "import sys, qcausal.cli; print('multiprocessing' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], env=src_env(), capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"


def whole_array_csv_oracle(kind, n, seed, rank=4):
    """CSV text and c column of an unchunked sample: every row held, one f-string each."""
    rng = SamplerConfig(seed=seed, density_rank=rank).rng()
    if kind == "CC":
        pts = corr.cc_pvector_batch(sample_density(rng, rank=rank, size=n))
    else:
        pts = corr.dc_pvector_batch(sample_unitary(rng, size=n))
    cvals = pts.prod(axis=1)
    labels = geo.classify_batch(pts, tol=1e-9)
    lines = ["c11,c22,c33,c,label"]
    for row, c, label in zip(pts, cvals, labels):
        lines.append(
            f"{float(row[0])!r},{float(row[1])!r},{float(row[2])!r},{float(c)!r},{label}"
        )
    return "\n".join(lines) + "\n", cvals


class TestSampleStreaming:
    @pytest.mark.parametrize(
        "kind, n, rank",
        [
            ("DC", 1, 4),
            ("DC", 2**16 - 1, 4),
            ("DC", 2**16 + 1, 4),
            # run alone, this 16383-row tail would change rows in their last digits
            ("DC", 2**16 + 2**14 - 1, 4),
            ("DC", 2**16 + 2**15 - 1, 4),
            ("DC", 2**16 + 2**15, 4),
            ("DC", 3 * 2**16 + 7, 4),
            ("CC", 2 * 2**16 + 5, 1),
            ("CC", 2 * 2**16 + 5, 4),
        ],
    )
    def test_csv_matches_whole_array_oracle(self, tmp_path, kind, n, rank):
        path = tmp_path / "s.csv"
        report = cli.run_sample(kind, n, seed=3, out_path=str(path), rank=rank)
        text, cvals = whole_array_csv_oracle(kind, n, seed=3, rank=rank)
        assert path.read_bytes() == text.encode("utf-8")
        assert report.results["min_c"]["value"] == float(cvals.min())
        assert report.results["max_c"]["value"] == float(cvals.max())

    def test_chunk_plan(self):
        chunk, tail = cli._CHUNK_ROWS, cli._TAIL_ROWS
        assert cli._chunk_bounds(1) == [(0, 1)]
        assert cli._chunk_bounds(chunk + tail - 1) == [(0, chunk + tail - 1)]
        assert cli._chunk_bounds(chunk + tail) == [(0, chunk), (chunk, chunk + tail)]
        for n in (tail, chunk, 2 * chunk, 3 * chunk + 7, 10**6):
            bounds = cli._chunk_bounds(n)
            assert bounds[0][0] == 0 and bounds[-1][1] == n
            assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
            assert all(tail <= hi - lo < chunk + tail for lo, hi in bounds)

    @pytest.mark.parametrize("tol", [1e-9, 0.0])
    def test_codes_match_scalar_classify_random(self, tol):
        pts = np.random.default_rng(34).uniform(-1, 1, size=(5000, 3))
        names = geo._LABEL_NAMES[geo._classify_codes(pts, tol)]
        assert [geo.classify(p, tol).value for p in pts] == names.tolist()

    def test_codes_match_scalar_classify_near_faces(self):
        pts = near_face_points()
        assert len(pts) > 5000
        names = geo._LABEL_NAMES[geo._classify_codes(pts)]
        assert [geo.classify(p).value for p in pts] == names.tolist()
        assert set(names) == {label.value for label in geo.RegionLabel}

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status"), reason="needs /proc/self/status"
    )
    def test_million_rows_peak_memory(self, tmp_path):
        code = textwrap.dedent(
            """
            import resource
            import sys
            from qcausal.cli import main
            status = main(["sample", "DC", "--n", "1000000", "--seed", "1",
                           "--csv", sys.argv[1], "--out", sys.argv[2]])
            with open("/proc/self/status") as handle:
                kib = next(int(line.split()[1]) for line in handle if line.startswith("VmHWM:"))
            print(status, kib, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
            """
        )
        out = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "s.csv"), str(tmp_path / "r.json")],
            env=src_env(), capture_output=True, text=True, check=True,
        )
        status, kib, worker_kib = map(int, out.stdout.split())
        assert status == 0
        assert kib / 1024 < 150, f"peak RSS {kib / 1024:.1f} MB"
        # the largest peak of any encoding worker, so memory cannot hide in the pool
        assert worker_kib / 1024 < 150, f"worker peak RSS {worker_kib / 1024:.1f} MB"
        with open(tmp_path / "s.csv", "rb") as handle:
            assert sum(1 for _ in handle) == 10**6 + 1


def _running(pid):
    """Whether process ``pid`` exists and is not a zombie (Linux /proc)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
)
class TestSamplePool:
    @pytest.fixture(autouse=True)
    def no_worker_left(self):
        yield
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("kind, n, rank", [("DC", 3 * 2**16 + 7, 4), ("CC", 2 * 2**16 + 5, 4)])
    def test_in_process_matches_pool(self, tmp_path, monkeypatch, kind, n, rank):
        contexts = []
        get_context = multiprocessing.get_context
        monkeypatch.setattr(
            multiprocessing, "get_context", lambda m: contexts.append(m) or get_context(m)
        )
        path = tmp_path / "s.csv"
        outputs = []
        for cpus in ({0, 1}, {0}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            report = cli.run_sample(kind, n, seed=9, out_path=str(path), rank=rank)
            outputs.append((path.read_bytes(), report.to_json()))
        assert contexts == ["fork"]  # the two-CPU run pooled, the one-CPU run did not
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("cpus", [{0, 1}, {0}])
    def test_chunk_validation_error_exits_one(self, tmp_path, monkeypatch, capfd, cpus):
        n, kernel = 3 * 2**16 + 7, corr.dc_pvector_batch
        second_a1 = sample_unitary_params(SamplerConfig(seed=3).rng(), n)[0][2**16]

        def nan_in_second_chunk(us, *args):
            pts = kernel(us, *args)
            if us[0, 0, 0].real == second_a1:
                pts[7] = np.nan
            return pts

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        monkeypatch.setattr(corr, "dc_pvector_batch", nan_in_second_chunk)
        status = cli.main(["sample", "DC", "--n", str(n), "--seed", "3",
                           "--csv", str(tmp_path / "s.csv"), "--out", str(tmp_path / "r.json")])
        err = capfd.readouterr().err
        assert status == 1
        assert err.startswith("validation error: ") and err.count("\n") == 1, err
        assert not (tmp_path / "r.json").exists()

    def test_dead_worker_raises_instead_of_hanging(self, tmp_path):
        code = textwrap.dedent(
            """
            import multiprocessing, os, sys
            from concurrent.futures.process import BrokenProcessPool
            from qcausal import cli
            from qcausal import correlation as corr

            parent, kernel = os.getpid(), corr.dc_pvector_batch

            def dies_in_a_worker(us, *args):
                if os.getpid() != parent:
                    os._exit(1)
                return kernel(us, *args)

            os.sched_getaffinity = lambda pid: {0, 1}
            corr.dc_pvector_batch = dies_in_a_worker
            try:
                cli.run_sample("DC", 3 * 2**16 + 7, seed=3, out_path=sys.argv[1])
            except BrokenProcessPool:
                print("broken", len(multiprocessing.active_children()))
            """
        )
        out = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "s.csv")],
            env=src_env(), capture_output=True, text=True, timeout=120, check=True,
        )
        assert out.stdout.split() == ["broken", "0"]

    @pytest.mark.skipif(not os.path.exists(f"/proc/{os.getpid()}/task"), reason="reads /proc")
    def test_workers_exit_when_the_parent_is_killed(self, tmp_path):
        code = textwrap.dedent(
            """
            import os, sys
            from qcausal import cli
            os.sched_getaffinity = lambda pid: {0, 1}
            cli.run_sample("DC", 10**6, seed=3, out_path=sys.argv[1])
            """
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", code, str(tmp_path / "s.csv")], env=src_env()
        )
        children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
        workers = []
        try:
            deadline = time.monotonic() + 60
            while len(workers) < 2 and proc.poll() is None and time.monotonic() < deadline:
                workers = children.read_text().split()
                time.sleep(0.01)
            assert len(workers) == 2, "the pool did not start"
            proc.kill()
            proc.wait(timeout=60)
            deadline = time.monotonic() + 10
            while any(map(_running, workers)):
                assert time.monotonic() < deadline, "a worker outlived its parent"
                time.sleep(0.05)
        finally:
            proc.kill()
            for pid in workers:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(int(pid), signal.SIGKILL)


class TestTable2Command:
    def test_small_run_shape(self):
        report = cli.run_table2(n=400, seed=21)
        assert set(report.results) == {"v1", "v2", "v3", "v4"}
        for row in report.results.values():
            for column in ("cc", "dc"):
                entry = row[column]
                assert 0.0 <= entry["proportion_percent"] <= 100.0
                assert "printed_percent" in entry

    def test_custom_identity_rotation(self, tmp_path):
        doc = cli.document_from_array("unitary", qmath.pauli(0))
        path = write_doc(tmp_path, "id.json", doc)
        report = cli.run_table2(n=300, seed=22, v_docs=[path])
        entry = report.results["v1"]
        assert entry["cc"]["proportion_percent"] == 0.0
        assert entry["dc"]["proportion_percent"] == 0.0
        assert "printed_percent" not in entry["cc"]

    def test_seed_streams_do_not_collide(self, monkeypatch):
        # under additive per-cell seeds (seed + 1000 * idx + 500 * kind) seed
        # 42's v1-DC stream and seed 542's v1-CC stream coincide
        real = cli.basis_change.escape_experiment
        starts = []

        def record(kind, v, n, cfg=None, rng=None):
            stream = cfg.rng() if rng is None else rng
            starts.append(stream.bit_generator.state["state"]["state"])
            return real(kind, v, n, cfg, rng)

        monkeypatch.setattr(cli.basis_change, "escape_experiment", record)
        cli.run_table2(n=10, seed=42)
        cli.run_table2(n=10, seed=542)
        v1_dc_of_42, v1_cc_of_542 = starts[1], starts[8]
        assert v1_dc_of_42 != v1_cc_of_542
        assert len(set(starts)) == len(starts) == 16

    def test_deterministic(self):
        a = cli.run_table2(n=300, seed=23)
        b = cli.run_table2(n=300, seed=23)
        assert a.to_json() == b.to_json()


class TestMainEntry:
    def test_classify_exit_zero(self, tmp_path, capsys):
        doc = cli.document_from_array("unitary", qmath.pauli(1))
        path = write_doc(tmp_path, "x.json", doc)
        assert cli.main(["classify", path]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["results"]["label"] == "DC_ONLY"

    def test_validation_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert cli.main(["classify", str(path)]) == 1
        assert "validation error" in capsys.readouterr().err

    def test_io_exit_three(self, tmp_path, capsys):
        doc = cli.document_from_array("unitary", qmath.pauli(1))
        path = write_doc(tmp_path, "x.json", doc)
        missing_dir = str(tmp_path / "nope" / "out.csv")
        assert cli.main(["sample", "CC", "--n", "10", "--csv", missing_dir]) == 3

    def test_violations_exit_two(self, tmp_path):
        # a zero tolerance turns the float epsilon in the signature rows
        # into reported violations, exercising the consistency exit path
        out = tmp_path / "t1.json"
        assert cli.main(["table1", "--tol", "0", "--out", str(out)]) == 2
        parsed = cli.parse_report(out.read_text())
        assert parsed.violations

    def test_table1_exit_zero(self, tmp_path):
        out = tmp_path / "t1.json"
        assert cli.main(["table1", "--out", str(out)]) == 0
        parsed = cli.parse_report(out.read_text())
        assert parsed.violations == []

    def test_report_written_to_file(self, tmp_path):
        out = tmp_path / "report.json"
        csv = tmp_path / "s.csv"
        assert cli.main(
            ["sample", "DC", "--n", "50", "--seed", "3", "--csv", str(csv), "--out", str(out)]
        ) == 0
        parsed = cli.parse_report(out.read_text())
        assert parsed.command == "sample"
        assert parsed.results["csv_rows"] == 50


class TestMalformedDocuments:
    @pytest.mark.parametrize(
        "text",
        [
            '{"kind": "pvector", "dim": 3, "entries": [NaN, 0.1, 0.2]}',
            '{"kind": "pvector", "dim": 3, "entries": [0.1, -Infinity, 0.2]}',
            '{"kind": "density", "dim": 4, "entries": 5}',
            '{"kind": "density", "dim": 4, "entries": null}',
            '{"kind": "pvector", "dim": 3, "entries": 5}',
        ],
    )
    def test_exit_one_with_one_line(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        assert cli.main(["classify", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("validation error:")

    @pytest.mark.parametrize(
        "text",
        [
            '{"kind": "pvector", "dim": 3, "entries": [1%s, 0, 0]}' % ("1" * 400),
            '{"kind": "unitary", "dim": 2, "entries": [[1, 0], [0, 0], [0, 0], [1%s, 0]]}'
            % ("1" * 400),
            '{"kind": "pvector", "dim": 3, "entries": ["0.1", "0.1", "0.1"]}',
            '{"kind": "pvector", "dim": 3, "entries": [true, 0, 0]}',
            '{"kind": "unitary", "dim": 2, "entries": [[1, 0], [0, "0"], [0, 0], [1, 0]]}',
            '{"kind": "unitary", "dim": 2, "entries": [[1, 0], [0, 0], [0, 0], [true, false]]}',
            '{"kind": "unitary", "dim": true, "entries": [[1, 0], [0, 0], [0, 0], [1, 0]]}',
            json.dumps({"kind": "density", "dim": 4, "entries": [[1.7e308, -1.7e308]] * 16}),
            json.dumps({"kind": "unitary", "dim": 2, "entries": [[1.7e308, 1.7e308]] * 4}),
            "1" * 5000,
            "[" * 100_000,
        ],
        ids=["huge-int-pvector", "huge-int-unitary", "string-pvector", "bool-pvector",
             "string-pair", "bool-pair", "bool-dim", "huge-density", "huge-unitary",
             "digit-limit", "nesting-depth"],
    )
    def test_unreadable_values_exit_one(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        assert _classify_outcome(path) == (1, True)

    def test_non_utf8_exit_one(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"kind": "\xff"}')
        assert _classify_outcome(path) == (1, True)

    def test_non_finite_report_refused(self):
        report = cli.RunReport(command="x", seed=0, results={"value": float("nan")})
        with pytest.raises(ConsistencyError):
            report.to_json()


def _classify_outcome(path) -> tuple[int, bool]:
    """Exit code of ``qcausal classify path``, and whether it wrote exactly one
    ``validation error:`` line and nothing else. Warnings count as failures."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["classify", str(path), "--out", os.devnull])
    lines = err.getvalue().splitlines()
    return code, out.getvalue() == "" and len(lines) == 1 and lines[0].startswith(
        "validation error:")


_numbers = st.integers() | st.floats() | st.sampled_from([10**400, -(10**309), True, False, "0.1"])
_json = st.recursive(
    st.none() | _numbers | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(["kind", "dim", "entries", "x"]), children, max_size=4),
    max_leaves=8,
)
_documents = st.fixed_dictionaries({
    "kind": st.sampled_from(["density", "unitary", "pvector"]) | _json,
    "dim": st.sampled_from([2, 3, 4]) | _json,
    "entries": st.lists(_numbers, min_size=3, max_size=3) | _json,
})


def _one_entry_fuzzed(kind, base, entry):
    """A valid document of ``kind`` whose ``base`` entries have one replaced by ``entry``."""
    return st.tuples(st.integers(0, len(base) - 1), entry).map(lambda swap: {
        "kind": kind,
        "dim": 3 if kind == "pvector" else int(len(base) ** 0.5),
        "entries": [swap[1] if i == swap[0] else e for i, e in enumerate(base)],
    })


_pair = st.lists(_numbers, min_size=2, max_size=2) | _json
_near_valid = (
    _one_entry_fuzzed("pvector", [0.1, 0.1, 0.1], _numbers | _json)
    | _one_entry_fuzzed("unitary", [[1, 0], [0, 0], [0, 0], [1, 0]], _pair)
    | _one_entry_fuzzed("density", [[0.25 * (i % 5 == 0), 0] for i in range(16)], _pair)
)


@settings(max_examples=2000, deadline=None)
@given(value=_near_valid | _documents | _json)
def test_fuzzed_documents_fail_only_with_one_validation_line(tmp_path_factory, value):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(value), encoding="utf-8")
    try:
        cli.load_document(str(path))
    except ValidationError:
        assert _classify_outcome(path) == (1, True)
    else:
        assert _classify_outcome(path)[0] == 0
