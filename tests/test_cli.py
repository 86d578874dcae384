import json

import numpy as np
import pytest

from qcausal import cli, qmath
from qcausal.errors import ConsistencyError, ValidationError


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
            cli.run_classify(cli.load_document(write_doc(tmp_path, f"d{idx}.json", doc)),
                             max_tries=5)
        for idx in range(20):
            doc = cli.document_from_array("unitary", sample_unitary(rng))
            cli.run_classify(cli.load_document(write_doc(tmp_path, f"u{idx}.json", doc)),
                             max_tries=5)


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
        report = cli.run_classify(doc, seed=5, max_tries=300)
        assert report.results["label"] == "AMBIGUOUS"
        assert report.results["escape"]["applicable"] is True

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

    def test_non_finite_report_refused(self):
        report = cli.RunReport(command="x", seed=0, results={"value": float("nan")})
        with pytest.raises(ConsistencyError):
            report.to_json()
