import contextlib
import io
import json
import os
import signal
import subprocess
import sys
import textwrap
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import qcausal
from qcausal import basis_change, cli, qmath
from qcausal import correlation as corr
from qcausal import geometry as geo
from qcausal.errors import ConsistencyError, ValidationError
from qcausal.samplers import (
    SamplerConfig,
    _densities,
    sample_in_region_batch,
    sample_unitary,
    unitaries_from_params,
)
from golden.cases import INPUTS
from oracles import sample_components_oracle
from test_basis_change import _first_escaping, _search_escape_oracle
from test_geometry import near_face_points


def src_env():
    """The environment for a child Python that imports this checkout's package."""
    src = str(Path(qcausal.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


def no_child_left() -> bool:
    """True when this process has no child process, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.fixture
def forks(monkeypatch):
    """One entry per ``os.fork`` call in this process: the workers of ``_ordered_map``."""
    forked, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forked.append(1) or fork())
    return forked


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")


def document_from_array(kind: str, values: np.ndarray) -> cli.MatrixDocument:
    """Build a document from a density operator, unitary, or correlation point."""
    if kind == "pvector":
        return cli.MatrixDocument(
            kind="pvector", dim=3, entries=tuple(corr.PPoint.from_array(values))
        )
    arr = np.asarray(values, dtype=complex)
    if kind == "density":
        qmath.require_density(arr)
    elif kind == "unitary":
        qmath.require_unitary(arr)
    else:
        raise ValidationError(f"unknown document kind {kind!r}")
    entries = tuple((float(z.real), float(z.imag)) for z in arr.reshape(-1))
    return cli.MatrixDocument(kind=kind, dim=arr.shape[0], entries=entries)


def parse_report(text: str) -> cli.RunReport:
    """The report whose ``to_json`` is ``text``."""
    raw = json.loads(text)
    return cli.RunReport(**{key: raw[key] for key in (
        "command", "seed", "parameters", "results", "violations")})


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(doc.to_json(), encoding="utf-8")
    return str(path)


class TestDocuments:
    def test_density_round_trip(self, tmp_path):
        rho = qmath.projector(qmath.bell(4))
        doc = document_from_array("density", rho)
        loaded = cli.load_document(write_doc(tmp_path, "rho.json", doc))
        np.testing.assert_allclose(loaded.payload(), rho, atol=1e-15)

    def test_unitary_round_trip(self, tmp_path):
        doc = document_from_array("unitary", qmath.pauli(2))
        loaded = cli.load_document(write_doc(tmp_path, "u.json", doc))
        np.testing.assert_allclose(loaded.payload(), qmath.pauli(2), atol=1e-15)

    @pytest.mark.parametrize("values", [[5.0, 0.0, 0.0], [0.1, np.nan, 0.2], [0.1, 0.2]])
    def test_pvector_from_array_validated(self, values):
        with pytest.raises(ValidationError):
            document_from_array("pvector", np.array(values))

    def test_pvector_round_trip(self, tmp_path):
        doc = document_from_array("pvector", np.array([0.1, -0.2, 0.3]))
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
            doc = document_from_array("density", sample_density(rng))
            cli.run_classify(cli.load_document(write_doc(tmp_path, f"d{idx}.json", doc)))
        for idx in range(20):
            doc = document_from_array("unitary", sample_unitary(rng))
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
        parsed = parse_report(report.to_json())
        assert parsed == report

    def test_stable_key_order(self):
        report = cli.RunReport(command="demo", seed=1, parameters={"b": 1, "a": 2})
        text = report.to_json()
        assert text.index('"a"') < text.index('"b"')


class TestClassifyCommand:
    def test_bell4_density(self):
        doc = document_from_array("density", qmath.projector(qmath.bell(4)))
        report = cli.run_classify(doc)
        assert report.results["label"] == "CC_ONLY"
        assert report.results["statistic"]["value"] == pytest.approx(-1.0, abs=1e-12)

    def test_sigma2_unitary(self):
        doc = document_from_array("unitary", qmath.pauli(2))
        report = cli.run_classify(doc)
        assert report.results["label"] == "DC_ONLY"
        assert report.results["statistic"]["value"] == pytest.approx(1.0, abs=1e-12)

    def test_mixture_required_pvector(self):
        doc = document_from_array("pvector", np.array([0.9, 0.9, 0.0]))
        report = cli.run_classify(doc)
        assert report.results["label"] == "MIXTURE_REQUIRED"

    def test_ambiguous_density_reports_escape(self):
        rho = 0.5 * qmath.projector(qmath.bell(1)) + 0.5 * qmath.projector(qmath.bell(3))
        doc = document_from_array("density", rho)
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
        # the escaping targets: the first object of a seeded overlap stream that the
        # random search moves out
        if name == "stuck-density":
            kind, target = "CC", np.eye(4, dtype=complex) / 4
        elif name == "density":
            cfg = SamplerConfig(seed=601, density_rank=1)
            kind, target = "CC", _first_escaping("CC", cfg, 300, SamplerConfig(seed=seed))[0]
        else:
            cfg = SamplerConfig(seed=700)
            kind, target = "DC", _first_escaping("DC", cfg, 300, SamplerConfig(seed=seed))[0]
        doc = document_from_array("density" if kind == "CC" else "unitary", target)
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
            path = write_doc(tmp_path, "doc.json", document_from_array(kind, target))
            assert cli.main(["classify", path, "--seed", "9", "--out", str(tmp_path / "r")]) == 0

    def test_loose_tol_reaches_the_escape_test(self, tmp_path, capsys):
        # |c11|+|c22|+|c33| = 1.005: ambiguous at --tol 0.01, so the escape test
        # must judge the overlap at that tol too, and margin 2 cos(theta) stays below it.
        cos = 0.0025
        u = np.diag([1.0, complex(cos, np.sqrt(1.0 - cos**2))])
        path = write_doc(tmp_path, "u.json", document_from_array("unitary", u))
        assert cli.main(["classify", path, "--tol", "0.01"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["label"] == "AMBIGUOUS"
        assert results["escape"]["found"] is False
        assert results["escape"]["margin"] == pytest.approx(2 * cos, abs=1e-12)

    def test_point_on_the_overlap_face_gets_a_report(self, tmp_path, capsys):
        # |c11|+|c22|+|c33| lands on 1 + tol: the label and the escape test must read
        # the same point, or the document is labelled AMBIGUOUS and then refused.
        # (The one such p within 400 ulps of (1 + tol) / 3 for the point's kernel.)
        p = 0.33333333366666673
        rho = p * qmath.projector(qmath.bell(1)) + (1 - p) * np.eye(4) / 4
        path = write_doc(tmp_path, "rho.json", document_from_array("density", rho))
        assert cli.main(["classify", path]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["label"] == "AMBIGUOUS"
        assert results["escape"]["applicable"] is True

    @pytest.mark.parametrize("bell", [1, 2, 3, 4])
    def test_bell_diagonal_sweep_across_the_overlap_face(self, bell):
        labels = set()
        for k in range(-200, 201):
            p = (1 + 1e-9) / 3 + k * 1e-17
            rho = p * qmath.projector(qmath.bell(bell)) + (1 - p) * np.eye(4) / 4
            results = cli.run_classify(document_from_array("density", rho)).results
            assert ("escape" in results) is (results["label"] == "AMBIGUOUS")
            labels.add(results["label"])
        assert labels == {"AMBIGUOUS", "CC_ONLY"}

    def test_witness_rounded_out_of_the_cube_is_not_an_input_error(self, tmp_path, capsys):
        # An evolution's witness point lies on an edge of its tetrahedron, so on a cube
        # face; at --tol 0 rounding can put it outside the cube. The exit check allows
        # 1e-12 of rounding, so the witness escapes.
        entries = [[0.7420243887566955, 0.19626664381281084],
                   [-0.38529577378203245, 0.5122756852734791],
                   [-0.5964980434455326, 0.23466847931147297],
                   [-0.008801622110046117, 0.7674915767821328]]
        path = tmp_path / "u.json"
        path.write_text(json.dumps({"kind": "unitary", "dim": 2, "entries": entries}))
        assert cli.main(["classify", str(path), "--tol", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["escape"]["found"] is True

    def test_tol_zero_phase_gate_probe(self):
        # v diag(1, e^{i theta}) v^dag: 15 of the 56 are ambiguous at --tol 0, and each
        # witness point sits on an edge of the evolution tetrahedron, where rounding
        # alone would decide an exit check without slack.
        ambiguous = 0
        for v in basis_change.ESCAPE_V_SET:
            for theta in np.linspace(0.3, 2.8, 14):
                u = v @ np.diag([1, np.exp(1j * theta)]) @ v.conj().T
                results = cli.run_classify(document_from_array("unitary", u), tol=0.0).results
                if results["label"] == "AMBIGUOUS":
                    ambiguous += 1
                    assert results["escape"]["found"] is (results["escape"]["margin"] > 0)
        assert ambiguous == 15

    def test_max_tries_flag_is_gone(self, tmp_path):
        path = write_doc(tmp_path, "u.json", document_from_array("unitary", qmath.pauli(1)))
        with pytest.raises(SystemExit):
            cli.main(["classify", path, "--max-tries", "5"])

    def test_ambiguous_pvector_escape_not_applicable(self):
        doc = document_from_array("pvector", np.array([0.1, 0.1, 0.1]))
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

    def test_no_command_imports_multiprocessing(self, tmp_path):
        # every command forks its workers bare, on two CPUs here
        code = textwrap.dedent(
            """
            import os, sys
            from qcausal import cli
            os.sched_getaffinity = lambda pid: {0, 1}
            loaded = []
            for argv in (["table2", "--n", "300"], ["bounds", "--starts", "2", "--grid-step", "0.1"],
                         ["sample", "DC", "--n", "10", "--csv", sys.argv[1] + "/s.csv"]):
                assert cli.main([*argv, "--out", sys.argv[1] + "/r.json"]) == 0
                loaded.append([m for m in ("multiprocessing", "concurrent.futures") if m in sys.modules])
            print(loaded)
            """
        )
        out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=src_env(),
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[[], [], []]"


def repr_rows_oracle(pts: np.ndarray, cvals: np.ndarray, codes: np.ndarray) -> bytes:
    """CSV rows ``c11,c22,c33,c,label`` with one ``repr`` call per float: the
    encoder ``cli._encode_rows`` replaced, kept as the oracle for its bytes."""
    columns = [map(repr, col) for col in (*pts.T.tolist(), cvals.tolist())]
    labels = geo._LABEL_NAMES[codes].tolist()
    return ("\n".join(map(",".join, zip(*columns, labels))) + "\n").encode("ascii")


def whole_array_csv_oracle(kind, n, seed, rank=4):
    """CSV bytes and c column of an unchunked sample: every row held, one repr per float.
    Points come from the drawn components in real arithmetic, as in ``sample``."""
    components = sample_components_oracle(kind, n, seed, rank)
    pts = np.stack(corr.correlation_matrix_batch(kind, components, diagonal=True), axis=1)
    cvals = pts.prod(axis=1)
    rows = repr_rows_oracle(pts, cvals, geo._classify_codes(pts, tol=1e-9))
    return b"c11,c22,c33,c,label\n" + rows, cvals


class TestSampleStreaming:
    @pytest.mark.parametrize(
        "kind, n, rank",
        [
            ("DC", 1, 4),
            ("DC", 2**16 - 1, 4),
            ("DC", 2**16 + 1, 4),
            # tails around 2^14 and 2^15 rows, where numpy starts to reuse complex and
            # float temporaries in place (256 KiB); each tail runs as a chunk of its own
            ("DC", 2**16 + 2**14 - 1, 4),
            ("DC", 2**16 + 2**15 - 1, 4),
            ("DC", 2**16 + 2**15, 4),
            ("DC", 3 * 2**16 + 7, 4),
            ("CC", 2 * 2**16 + 5, 1),
            ("CC", 2 * 2**16 + 5, 4),
            # ranks 2 and 3 draw the Dirichlet weights as a third block
            ("CC", 2 * 2**16 + 5, 2),
            ("CC", 2 * 2**16 + 5, 3),
            ("DC", 2**15, 4),
            ("CC", 2**15, 3),
            # a 2^14-row and a 2^15-row tail after two full chunks
            ("DC", 2**17 + 2**14, 4),
            ("CC", 2**17 + 2**14, 2),
            ("DC", 2**17 + 2**15, 4),
            ("CC", 2**17 + 2**15, 3),
        ],
    )
    def test_csv_matches_whole_array_oracle(self, tmp_path, kind, n, rank):
        path = tmp_path / "s.csv"
        report = cli.run_sample(kind, n, seed=3, out_path=str(path), rank=rank)
        csv, cvals = whole_array_csv_oracle(kind, n, seed=3, rank=rank)
        assert path.read_bytes() == csv
        assert report.results["min_c"]["value"] == float(cvals.min())
        assert report.results["max_c"]["value"] == float(cvals.max())

    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_dc_points_match_complex_route(self, tmp_path, seed):
        # the CSV's closed-form points against the amplitudes of the unitaries
        # themselves, an independent route, over a full chunk and a tail
        n = 2**16 + 1000
        path = tmp_path / "s.csv"
        cli.run_sample("DC", n, seed=seed, out_path=str(path))
        rows = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0, 1, 2))
        us = unitaries_from_params(*sample_components_oracle("DC", n, seed))
        assert np.abs(rows - corr.dc_pvector_batch(us)).max() <= 1e-12

    @pytest.mark.parametrize("rank", [1, 4])
    def test_cc_points_match_complex_route(self, tmp_path, rank):
        # the CSV's real-arithmetic points against the projector traces of the
        # density operators themselves, over a full chunk and a tail
        n = 2**16 + 1000
        path = tmp_path / "s.csv"
        cli.run_sample("CC", n, seed=5, out_path=str(path), rank=rank)
        rows = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0, 1, 2))
        components = sample_components_oracle("CC", n, 5, rank)
        rhos = _densities(components)
        assert np.abs(rows - corr.cc_pvector_batch(rhos)).max() <= 1e-12

    @pytest.mark.parametrize("kind", ["DC", "CC"])
    def test_shorter_run_is_a_prefix(self, tmp_path, kind):
        # row i depends only on the seed and i: the last, shorter chunk draws
        # a full chunk and keeps its first rows
        short, long = tmp_path / "short.csv", tmp_path / "long.csv"
        cli.run_sample(kind, 70_000, seed=8, out_path=str(short))
        cli.run_sample(kind, 200_000, seed=8, out_path=str(long))
        assert long.read_bytes().startswith(short.read_bytes())

    def test_chunk_plan(self):
        chunk = cli._CHUNK_ROWS
        assert cli._chunk_bounds(1) == [(0, 1)]
        assert cli._chunk_bounds(chunk) == [(0, chunk)]
        assert cli._chunk_bounds(chunk + 1) == [(0, chunk), (chunk, chunk + 1)]
        for n in (1, 2**15, chunk - 1, chunk, 2 * chunk, 3 * chunk + 7, 70_000, 10**6):
            bounds = cli._chunk_bounds(n)
            assert bounds[0][0] == 0 and bounds[-1][1] == n
            assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
            assert all(hi - lo == chunk for lo, hi in bounds[:-1])
            assert 1 <= bounds[-1][1] - bounds[-1][0] <= chunk
        assert len(cli._chunk_bounds(10**6)) == 16

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


    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status"), reason="needs /proc/self/status"
    )
    def test_rank4_density_peak_memory(self, tmp_path):
        # a whole-n draw of 250,000 rank-4 density operators peaks at about 237 MB
        code = textwrap.dedent(
            """
            import resource
            import sys
            from qcausal.cli import main
            status = main(["sample", "CC", "--rank", "4", "--n", "250000", "--seed", "1",
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
        assert kib / 1024 < 130, f"peak RSS {kib / 1024:.1f} MB"
        assert worker_kib / 1024 < 130, f"worker peak RSS {worker_kib / 1024:.1f} MB"


def _running(pid):
    """Whether process ``pid`` exists and is not a zombie (Linux /proc)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@needs_fork
class TestOrderedMap:
    def test_exception_in_a_middle_item_leaves_no_child(self, monkeypatch, forks):
        # three workers: item 3 is the first worker's second, and its error is
        # raised where item 3 is read, after items 0-2
        def task(scale, item):
            if item == 3:
                raise ValidationError(f"item {item} failed")
            return scale * item

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        seen = []
        with pytest.raises(ValidationError, match="item 3 failed"):
            with cli._ordered_map(task, (10,), list(range(7))) as results:
                for value in results:
                    seen.append(value)
        assert seen == [0, 10, 20]
        assert len(forks) == 3
        assert no_child_left()

    def test_writes_after_the_turn_come_in_item_order(self, tmp_path, monkeypatch, forks):
        # the first worker's items cost the most and the third's nothing, so
        # without turns the third worker's items would append first
        path = tmp_path / "out.txt"

        def task(path, item):
            time.sleep((0.2, 0.1, 0.0)[item % 3])
            cli._take_turn()
            with open(path, "a") as out:
                out.write(f"{item}\n")
            return item

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        with cli._ordered_map(task, (str(path),), list(range(12))) as results:
            assert list(results) == list(range(12))
        assert path.read_text().split() == [str(item) for item in range(12)]
        assert len(forks) == 3
        assert no_child_left()

    def test_untaken_turns_never_fill_a_pipe(self, monkeypatch):
        # 70,000 items per worker, none of which takes its turn: more grants
        # than a 64 KiB pipe holds, so each must be read after its item
        def stalled(signum, frame):
            raise TimeoutError("the map stalled")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        items = list(range(140_000))
        previous = signal.signal(signal.SIGALRM, stalled)
        signal.alarm(60)
        try:
            with cli._ordered_map(abs, (), items) as results:
                assert sum(results) == sum(items)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert no_child_left()


@needs_fork
class TestSamplePool:
    @pytest.fixture(autouse=True)
    def no_worker_left(self):
        yield
        assert no_child_left()

    @pytest.mark.parametrize("kind, n, rank", [("DC", 3 * 2**16 + 7, 4), ("CC", 2 * 2**16 + 5, 4)])
    def test_in_process_matches_pool(self, tmp_path, monkeypatch, forks, kind, n, rank):
        path = tmp_path / "s.csv"
        outputs = []
        for cpus in ({0, 1}, {0}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            report = cli.run_sample(kind, n, seed=9, out_path=str(path), rank=rank)
            outputs.append((path.read_bytes(), report.to_json()))
        assert len(forks) == 2  # the two-CPU run forked two workers, the one-CPU run none
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("cpus", [{0, 1}, {0}])
    def test_chunk_validation_error_exits_one(self, tmp_path, monkeypatch, capfd, cpus):
        n, kernel = 3 * 2**16 + 7, corr.correlation_matrix_batch
        second_a1 = sample_components_oracle("DC", n, seed=3)[0][2**16]

        def nan_in_second_chunk(kind, components, diagonal=False):
            m = kernel(kind, components, diagonal)
            if components[0][0] == second_a1:
                m[0][7] = np.nan
            return m

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        monkeypatch.setattr(corr, "correlation_matrix_batch", nan_in_second_chunk)
        status = cli.main(["sample", "DC", "--n", str(n), "--seed", "3",
                           "--csv", str(tmp_path / "s.csv"), "--out", str(tmp_path / "r.json")])
        err = capfd.readouterr().err
        assert status == 1
        assert err.startswith("validation error: ") and err.count("\n") == 1, err
        assert not (tmp_path / "r.json").exists()

    def test_dead_worker_raises_instead_of_hanging(self, tmp_path):
        code = textwrap.dedent(
            """
            import os, sys
            from qcausal import cli
            from qcausal import correlation as corr

            parent, kernel = os.getpid(), corr.correlation_matrix_batch

            def dies_in_a_worker(*args, **kwargs):
                if os.getpid() != parent:
                    os._exit(1)
                return kernel(*args, **kwargs)

            os.sched_getaffinity = lambda pid: {0, 1}
            corr.correlation_matrix_batch = dies_in_a_worker
            status = cli.main(["sample", "DC", "--n", str(3 * 2**16 + 7), "--seed", "3",
                               "--csv", sys.argv[1], "--out", sys.argv[1] + ".json"])
            try:
                os.waitpid(-1, os.WNOHANG)
                print(status, "a child is left")
            except ChildProcessError:
                print(status, "no child")
            """
        )
        out = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "s.csv")],
            env=src_env(), capture_output=True, text=True, timeout=120, check=True,
        )
        assert out.stdout.split() == ["2", "no", "child"]
        assert out.stderr.startswith("consistency violation: ") and out.stderr.count("\n") == 1
        assert not (tmp_path / "s.csv.json").exists()

    def test_failed_chunk_passes_its_turn_on(self, tmp_path):
        # chunk 1 raises only once chunk 2 has its points, so chunk 2 is done and
        # waits for chunk 1's turn: the run must end with the error, not hang
        code = textwrap.dedent(
            """
            import os, sys, time
            from qcausal import cli, samplers
            from qcausal import correlation as corr
            from qcausal.errors import ValidationError

            cfg, kernel = samplers.SamplerConfig(seed=3), corr.correlation_matrix_batch
            marker = sys.argv[2]
            first_a1 = [
                samplers.kernel_components(
                    cfg.worker_rng(samplers.SAMPLE_CHUNK_KEY, k), "DC", 4, 2**16
                )[0][0]
                for k in (1, 2)
            ]

            def fails_after_chunk_two(kind, components, diagonal=False):
                if components[0][0] == first_a1[1]:
                    open(marker, "w").close()
                elif components[0][0] == first_a1[0]:
                    deadline = time.monotonic() + 30
                    while not os.path.exists(marker) and time.monotonic() < deadline:
                        time.sleep(0.01)
                    time.sleep(0.2)
                    raise ValidationError("chunk 1 failed")
                return kernel(kind, components, diagonal)

            os.sched_getaffinity = lambda pid: {0, 1}
            corr.correlation_matrix_batch = fails_after_chunk_two
            try:
                cli.run_sample("DC", 4 * 2**16, seed=3, out_path=sys.argv[1])
            except ValidationError as exc:
                try:
                    os.waitpid(-1, os.WNOHANG)
                    children = 1
                except ChildProcessError:
                    children = 0
                print(exc, "|", os.path.exists(marker), children)
            """
        )
        csv = tmp_path / "s.csv"
        out = subprocess.run(
            [sys.executable, "-c", code, str(csv), str(tmp_path / "marker")],
            env=src_env(), capture_output=True, text=True, timeout=120, check=True,
        )
        assert out.stdout.split() == ["chunk", "1", "failed", "|", "True", "0"]
        # chunk 2 did not write: the CSV is the whole run's first chunk
        written = csv.read_bytes()
        cli.run_sample("DC", 2**16, seed=3, out_path=str(csv))
        assert written == csv.read_bytes()

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
        doc = document_from_array("unitary", qmath.pauli(0))
        path = write_doc(tmp_path, "id.json", doc)
        report = cli.run_table2(n=300, seed=22, v_docs=[path])
        entry = report.results["v1"]
        assert entry["cc"]["proportion_percent"] == 0.0
        assert entry["dc"]["proportion_percent"] == 0.0
        assert "printed_percent" not in entry["cc"]

    def test_seed_streams_do_not_collide(self, monkeypatch):
        # under additive per-kind seeds (seed + 500 * kind) seed 42's DC stream
        # and seed 542's CC stream coincide. One usable CPU keeps the two kinds
        # in this process, where the recorder can see them.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        real = cli.basis_change._escape_counts
        starts = []

        def record(kind, rotations, n, cfg, rng):
            starts.append((kind, rng.bit_generator.state["state"]["state"]))
            return real(kind, rotations, n, cfg, rng)

        monkeypatch.setattr(cli.basis_change, "_escape_counts", record)
        cli.run_table2(n=10, seed=42)
        cli.run_table2(n=10, seed=542)
        assert [kind for kind, _ in starts] == ["CC", "DC", "CC", "DC"]
        dc_of_42, cc_of_542 = starts[1][1], starts[2][1]
        assert dc_of_42 != cc_of_542
        assert len({state for _, state in starts}) == 4

    def test_n_past_a_quarter_of_the_budget_refused_before_any_draw(
        self, tmp_path, monkeypatch, capfd
    ):
        monkeypatch.setattr(basis_change, "_overlap_blocks", lambda *args: pytest.fail("drew"))
        argv = ["table2", "--n", "2500001", "--out", str(tmp_path / "r.json")]
        assert cli.main(argv) == 1
        assert capfd.readouterr().err == (
            "validation error: n must be <= 2500000, a quarter of the rejection budget\n"
        )
        assert not (tmp_path / "r.json").exists()

    def test_largest_n_fits_the_dc_budget(self):
        # DC, the kind with the lower overlap acceptance, over 400 draw chunks: at its
        # measured rate the largest n spends less than 95% of the budget
        cfg = SamplerConfig(seed=1, density_rank=1)
        chunks = cli.samplers._overlap_blocks(cfg, "DC", 10**9, cfg.worker_rng(1), rows=1)
        accepted = sum(next(chunks)[0].size for _ in range(400))
        rate = accepted / (400 * cli.samplers._CHUNK)
        assert 0.26 < rate < 0.29
        assert cli._TABLE2_MAX_N / rate < 0.95 * cfg.max_rejections

    def test_deterministic(self):
        a = cli.run_table2(n=300, seed=23)
        b = cli.run_table2(n=300, seed=23)
        assert a.to_json() == b.to_json()


@needs_fork
class TestTable2Pool:
    @pytest.fixture(autouse=True)
    def no_worker_left(self):
        yield
        assert no_child_left()

    def _in_process_and_pooled(self, monkeypatch, forks, **kwargs):
        reports = []
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            reports.append(cli.run_table2(**kwargs).to_json())
        assert len(forks) == 2  # the two-CPU run forked two workers, the one-CPU run none
        return reports

    def test_in_process_matches_pool(self, monkeypatch, forks):
        in_process, pooled = self._in_process_and_pooled(monkeypatch, forks, n=4097, seed=5)
        assert in_process == pooled

    def test_custom_rotation_in_process_matches_pool(self, tmp_path, monkeypatch, forks):
        v = sample_unitary(np.random.default_rng(13))
        path = write_doc(tmp_path, "v.json", document_from_array("unitary", v))
        in_process, pooled = self._in_process_and_pooled(
            monkeypatch, forks, n=300, seed=6, v_docs=[path]
        )
        assert in_process == pooled
        assert json.loads(pooled)["parameters"]["custom_v"] is True

    @pytest.mark.parametrize("cpus", [{0, 1}, {0}])
    def test_third_cell_consistency_error_exits_two(self, tmp_path, monkeypatch, capfd, cpus):
        # the third cell is the CC kernel's second rotation, v2: its one block's
        # face pass reports a point outside the tetrahedron, and the kernel raises
        real = cli.basis_change._face_masks
        cc_passes = []

        def fails_in_the_third_cell(pts, normals, offsets, tol, runs=(slice(None),)):
            masks = real(pts, normals, offsets, tol, runs)
            if runs is geo._ESCAPE_RUNS["CC"]:
                cc_passes.append(runs)
                if len(cc_passes) == 2:
                    masks[0][0] = False
            return masks

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        monkeypatch.setattr(cli.basis_change, "_face_masks", fails_in_the_third_cell)
        status = cli.main(["table2", "--n", "300", "--out", str(tmp_path / "r.json")])
        err = capfd.readouterr().err
        assert status == 2
        assert err == "consistency violation: a rotated point left its tetrahedron\n"
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("cpus", [{0, 1}, {0}])
    def test_exhausted_budget_exits_two(self, tmp_path, monkeypatch, capfd, cpus):
        # one chunk of budget cannot fill a chunk-sized sample of the overlap
        budget = cli.samplers._CHUNK
        config = cli.samplers.SamplerConfig
        monkeypatch.setattr(
            cli.samplers, "SamplerConfig", lambda **kw: config(max_rejections=budget, **kw)
        )
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        status = cli.main(["table2", "--n", str(budget), "--out", str(tmp_path / "r.json")])
        err = capfd.readouterr().err
        assert status == 2
        assert err.startswith("consistency violation: rejection budget ")
        assert err.count("\n") == 1, err
        assert not (tmp_path / "r.json").exists()


class TestBoundsPool:
    @pytest.fixture(autouse=True)
    def no_worker_left(self):
        yield
        assert no_child_left()

    def test_in_process_matches_pool(self, monkeypatch, forks):
        reports = []
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            reports.append(cli.run_bounds(grid_step=0.05, starts=7, seed=3).to_json())
        assert len(forks) == 2  # the two-CPU run forked two workers, the one-CPU run none
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("cpus", [{0, 1}, {0}])
    def test_dc_part_consistency_error_exits_two(self, tmp_path, monkeypatch, capfd, cpus):
        real = cli.bounds._multistart_extrema

        def fails_for_dc(kind, directions, starts, cfg):
            if kind == "DC":
                raise ConsistencyError("a DC start diverged")
            return real(kind, directions, starts, cfg)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        monkeypatch.setattr(cli.bounds, "_multistart_extrema", fails_for_dc)
        argv = ["bounds", "--grid-step", "0.1", "--starts", "3", "--out", str(tmp_path / "r.json")]
        assert cli.main(argv) == 2
        assert capfd.readouterr().err == "consistency violation: a DC start diverged\n"
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("cpus", [{0, 1}, {0}])
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--grid-step", "nan"], "grid step must be in [0.001, 0.1], got nan"),
            (["--grid-step", "0.5"], "grid step must be in [0.001, 0.1], got 0.5"),
            (["--starts", "0"], "starts must be >= 1"),
            (["--starts", "-2"], "starts must be >= 1"),
        ],
    )
    def test_bad_argument_refused_before_the_pool(
        self, tmp_path, monkeypatch, capfd, forks, cpus, argv, message
    ):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        assert cli.main(["bounds", *argv, "--out", str(tmp_path / "r.json")]) == 1
        captured = capfd.readouterr()
        assert (captured.out, captured.err) == ("", f"validation error: {message}\n")
        assert forks == []
        assert not (tmp_path / "r.json").exists()


class TestMainEntry:
    def test_classify_exit_zero(self, tmp_path, capsys):
        doc = document_from_array("unitary", qmath.pauli(1))
        path = write_doc(tmp_path, "x.json", doc)
        assert cli.main(["classify", path]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["results"]["label"] == "DC_ONLY"

    def test_validation_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert cli.main(["classify", str(path)]) == 1
        assert "validation error" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("command", ["classify", "bounds", "table1"])
    def test_bad_tol_exit_one(self, tmp_path, capsys, command, tol):
        args = [command, "--tol", tol]
        if command == "classify":
            doc = document_from_array("unitary", np.diag([1, 1j]))
            args.insert(1, write_doc(tmp_path, "u.json", doc))
        assert cli.main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("validation error:")

    @pytest.mark.parametrize("command", ["classify", "bounds", "sample", "table2"])
    def test_negative_seed_exit_one(self, tmp_path, capfd, command):
        args = {
            "classify": [write_doc(tmp_path, "u.json", document_from_array(
                "unitary", qmath.pauli(1)))],
            "bounds": ["--starts", "2", "--grid-step", "0.1"],
            "sample": ["DC", "--n", "10", "--csv", str(tmp_path / "s.csv")],
            "table2": ["--n", "10"],
        }[command]
        assert cli.main([command, *args, "--seed", "-1", "--out", str(tmp_path / "r.json")]) == 1
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err == "validation error: seed must be an integer >= 0, got -1\n"
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.skipif(sys.platform != "linux", reason="needs RLIMIT_AS and sysconf memory")
    @pytest.mark.parametrize(
        "argv",
        [
            ["table2", "--n", "10000001"],
            ["bounds", "--starts", "100000000000"],
            ["sample", "DC", "--n", "99999999999999999999"],
            ["sample", "CC", "--rank", "1", "--n", "99999999999999999999"],
        ],
    )
    def test_oversized_argument_refused_up_front(self, tmp_path, argv):
        # each is refused before any draw or allocation: the child runs with a
        # 3 GiB address space, so that an attempt would fail, not eat memory
        def limit_address_space():
            import resource

            resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

        csv = ["--csv", str(tmp_path / "s.csv")] if argv[0] == "sample" else []
        child = subprocess.run(
            [sys.executable, "-m", "qcausal", *argv, *csv, "--out", str(tmp_path / "r.json")],
            env=dict(src_env(), OPENBLAS_NUM_THREADS="1"), capture_output=True, text=True,
            timeout=120, preexec_fn=limit_address_space,
        )
        assert child.returncode == 1, child.stderr
        assert child.stderr.startswith("validation error: ") and child.stderr.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command, bound", [("table2", "2,500,000"), ("bounds", "7 kB"), ("sample", "0.26 kB")]
    )
    def test_help_states_size_bound(self, capsys, command, bound):
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
        assert bound in " ".join(capsys.readouterr().out.split())

    def test_io_exit_three(self, tmp_path, capsys):
        doc = document_from_array("unitary", qmath.pauli(1))
        path = write_doc(tmp_path, "x.json", doc)
        missing_dir = str(tmp_path / "nope" / "out.csv")
        assert cli.main(["sample", "CC", "--n", "10", "--csv", missing_dir]) == 3

    def test_violations_exit_two(self, tmp_path):
        # a zero tolerance turns the float epsilon in the bound certificates
        # into reported violations, exercising the consistency exit path (the
        # signature rows of table1 are exact, so they no longer can)
        out = tmp_path / "b.json"
        argv = ["bounds", "--grid-step", "0.1", "--starts", "4", "--tol", "0", "--out", str(out)]
        assert cli.main(argv) == 2
        parsed = parse_report(out.read_text())
        assert parsed.violations

    def test_table1_exit_zero(self, tmp_path):
        out = tmp_path / "t1.json"
        assert cli.main(["table1", "--out", str(out)]) == 0
        parsed = parse_report(out.read_text())
        assert parsed.violations == []

    def test_report_written_to_file(self, tmp_path):
        out = tmp_path / "report.json"
        csv = tmp_path / "s.csv"
        assert cli.main(
            ["sample", "DC", "--n", "50", "--seed", "3", "--csv", str(csv), "--out", str(out)]
        ) == 0
        parsed = parse_report(out.read_text())
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
# diag(1/4) with entry 9 off Hermitian by 4.12e-10: inside the density
# predicate's tolerance, so a document that must end in a report
_SKEWED_DENSITY = {
    "kind": "density", "dim": 4,
    "entries": [[0.25 * (i % 5 == 0), 4.12e-10 * (i == 9)] for i in range(16)],
}
_near_valid = (
    _one_entry_fuzzed("pvector", [0.1, 0.1, 0.1], _numbers | _json)
    | _one_entry_fuzzed("unitary", [[1, 0], [0, 0], [0, 0], [1, 0]], _pair)
    | _one_entry_fuzzed("density", [[0.25 * (i % 5 == 0), 0] for i in range(16)], _pair)
)


@settings(max_examples=2000, deadline=None)
@given(value=_near_valid | _documents | _json)
@example(value=_SKEWED_DENSITY)
def test_fuzzed_documents_fail_only_with_one_validation_line(tmp_path_factory, value):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(value), encoding="utf-8")
    try:
        cli.load_document(str(path))
    except ValidationError:
        assert _classify_outcome(path) == (1, True)
    else:
        assert _classify_outcome(path)[0] == 0


def test_near_hermitian_density_ends_in_a_report(tmp_path):
    path = tmp_path / "skewed.json"
    path.write_text(json.dumps(_SKEWED_DENSITY), encoding="utf-8")
    assert _classify_outcome(path) == (0, False)
    report = cli.run_classify(cli.load_document(str(path)))
    assert report.results["label"] == "AMBIGUOUS"
    assert report.results["escape"]["found"] is False


@st.composite
def _skewed_overlap_densities(draw):
    """An overlap density document plus an anti-Hermitian part spread over all
    entries, scaled so that max |rho - rho^dag| is 0.5 to 1.5 times DENSITY_TOL."""
    seed, rank = draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 4))
    cfg = SamplerConfig(seed=seed, density_rank=rank)
    rho = sample_in_region_batch(cfg, "CC", 1)[0]
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    skew = a - a.conj().T
    rho = rho + skew * (draw(st.floats(0.5, 1.5)) * qmath.DENSITY_TOL / np.abs(2 * skew).max())
    return {"kind": "density", "dim": 4, "entries": cli._complex_entries(rho)}


@settings(max_examples=100, deadline=None)
@given(value=_skewed_overlap_densities())
@example(value=_SKEWED_DENSITY)
def test_near_hermitian_densities_end_in_a_report_or_one_line(tmp_path_factory, value):
    path = tmp_path_factory.getbasetemp() / "skewed.json"
    path.write_text(json.dumps(value), encoding="utf-8")
    code, one_line = _classify_outcome(path)
    event(f"exit {code}")
    assert code == 0 or (code, one_line) == (1, True)


def _flag(name, values):
    """No ``--name`` at all, or ``--name=value`` (the ``=`` keeps a negative value
    from reading as an option)."""
    return st.just([]) | values.map(lambda value: [f"--{name}={value!r}"])


_sizes = st.integers(-3, 2000) | st.sampled_from([2**63, 10**30])
_seed_flag = _flag("seed", st.integers(-2, 2**64))
_tol_flag = _flag("tol", st.floats() | st.sampled_from([0.0, 1e-9, 1e-6]))
_docs = st.sampled_from(
    [str(INPUTS / name) for name in sorted(os.listdir(INPUTS))] + ["missing.json", "."]
)
# grid steps below 0.01 are left out: a run at 0.001 takes over a minute
_argvs = st.one_of(
    st.tuples(st.just(["classify"]), _docs.map(lambda path: [path]), _seed_flag, _tol_flag),
    st.tuples(
        st.just(["bounds"]),
        _flag("grid-step", st.sampled_from([-0.01, 0.0, 1e-4, 0.05, 0.1, 0.5, float("nan")])),
        _flag("starts", st.integers(-2, 5) | st.just(10**12)),
        _seed_flag,
        _tol_flag,
    ),
    st.tuples(
        st.just(["sample"]),
        st.sampled_from([["CC"], ["DC"]]),
        st.sampled_from([["--csv", "s.csv"], ["--csv", "missing/s.csv"]]),
        _flag("n", _sizes),
        _flag("rank", st.integers(-1, 6)),
        _seed_flag,
    ),
    st.tuples(st.just(["table1"]), _tol_flag),
    st.tuples(
        st.just(["table2"]),
        _flag("n", _sizes),
        _seed_flag,
        st.lists(_docs, max_size=2).map(lambda paths: [f"--v-doc={p}" for p in paths]),
    ),
).map(lambda parts: [arg for part in parts for arg in part])


@settings(max_examples=40, deadline=None)
@given(argv=_argvs, out=st.sampled_from([None, "r.json", "missing/r.json"]))
def test_fuzzed_argv_ends_in_a_report_or_one_line(tmp_path_factory, argv, out):
    # exit 0 with a report, 2 with a report that lists violations, or 1 or 3
    # with one stderr line and no report; run in one process on one CPU
    workdir = tmp_path_factory.mktemp("argv")
    stdout, stderr = io.StringIO(), io.StringIO()
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                mock.patch.object(os, "sched_getaffinity", lambda pid: {0}):
            code = cli.main(argv + ([] if out is None else ["--out", out]))
    finally:
        os.chdir(previous)
    written = workdir / out if out else None
    event(f"{argv[0]} exit {code}")
    if code in (1, 3):
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1, (argv, lines)
        assert lines[0].startswith("validation error: " if code == 1 else "i/o error: ")
        assert stdout.getvalue() == "" and not (written and written.exists())
    else:
        assert code in (0, 2) and stderr.getvalue() == "", (argv, code, stderr.getvalue())
        report = json.loads(written.read_text() if written else stdout.getvalue())
        assert (code == 2) == bool(report["violations"]), argv
