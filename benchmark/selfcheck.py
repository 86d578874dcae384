"""Check that the benchmark's output checks accept right outputs and reject wrong ones.

Usage (from the repository root): ``python3 benchmark/selfcheck.py``

Runs the program on small inputs, asserts that each check passes on the
real output, then corrupts that output (a flipped label, a shifted bound
value, a proportion moved out of its band, ...) and asserts that the
check now reports a problem. Exits 1 if any corruption goes unnoticed.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_runs" / "selfcheck"


def qcausal(*argv: str) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "qcausal", *argv], cwd=ROOT, env=env, check=True)


def load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def main() -> int:
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir(parents=True)
    cases = []  # (name, problems on the right output, problems on the corrupted one)

    n = 4000
    qcausal("sample", "DC", "--n", str(n), "--seed", "5", "--csv", str(OUT / "s.csv"),
            "--out", str(OUT / "s.json"))
    header, values, labels = checks.read_csv(str(OUT / "s.csv"))
    clean = checks.check_sample_dc(header, values, labels, n)
    flipped = labels.copy()
    flipped[7] = "CC_ONLY" if flipped[7] != "CC_ONLY" else "DC_ONLY"
    cases.append(("sample: flipped label", clean,
                  checks.check_sample_dc(header, values, flipped, n)))
    moved = values.copy()
    moved[11, 3] += 1e-6
    cases.append(("sample: c not the product", clean,
                  checks.check_sample_dc(header, moved, labels, n)))
    outside = values.copy()
    outside[3, :3] = [1.0, 1.0, -1.0]
    outside[3, 3] = -1.0
    cases.append(("sample: point outside the tetrahedron", clean,
                  checks.check_sample_dc(header, outside, labels, n)))

    qcausal("bounds", "--starts", "20", "--seed", "5", "--out", str(OUT / "b.json"))
    report = load(OUT / "b.json")
    for key in ("grid_polished", "multistart"):
        bad = copy.deepcopy(report)
        bad["results"]["CC_MAX"][key] += 1e-4
        cases.append((f"bounds: shifted {key}", checks.check_bounds(report),
                      checks.check_bounds(bad)))
    bad = copy.deepcopy(report)
    w = bad["results"]["DC_MIN"]["witness_weights"]
    w[int(np.argmax(w))] -= 1e-3
    w[int(np.argmin(w))] += 1e-3
    cases.append(("bounds: witness does not reproduce the value", checks.check_bounds(report),
                  checks.check_bounds(bad)))

    n = 20000
    qcausal("table2", "--n", str(n), "--seed", "5", "--out", str(OUT / "t.json"))
    report = load(OUT / "t.json")
    bad = copy.deepcopy(report)
    entry = bad["results"]["v3"]["dc"]
    entry["escaped"] -= int(0.06 * n)
    p = entry["escaped"] / n
    entry["proportion_percent"] = 100.0 * p
    entry["halfwidth_percent"] = 100.0 * 1.96 * np.sqrt(p * (1 - p) / n)
    cases.append(("table2: proportion out of band", checks.check_table2(report, n),
                  checks.check_table2(bad, n)))
    bad = copy.deepcopy(report)
    bad["results"]["v1"]["cc"]["halfwidth_percent"] *= 1.01
    cases.append(("table2: wrong half-width", checks.check_table2(report, n),
                  checks.check_table2(bad, n)))

    docs = {d["name"]: d for d in workloads.make_corpus(5)}
    for name in ("unitary-decidable-00", "pure-escapable-00", "pure-stuck-00"):
        doc = docs[name]
        path = OUT / f"{name}.json"
        path.write_text(doc["text"], encoding="utf-8")
        qcausal("classify", str(path), "--seed", "5", "--out", str(OUT / f"{name}.out.json"))
        report = load(OUT / f"{name}.out.json")
        bad = copy.deepcopy(report)
        bad["results"]["label"] = "MIXTURE_REQUIRED"
        cases.append((f"classify {name}: flipped label", checks.check_classify(doc, report),
                      checks.check_classify(doc, bad)))
        if "escape" in report["results"]:
            bad = copy.deepcopy(report)
            bad["results"]["escape"]["found"] = not report["results"]["escape"]["found"]
            bad["results"]["escape"]["v"] = (
                None if report["results"]["escape"]["v"] else [[1, 0], [0, 0], [0, 0], [1, 0]])
            cases.append((f"classify {name}: flipped escape", checks.check_classify(doc, report),
                          checks.check_classify(doc, bad)))

    ok = True
    for name, clean, corrupted in cases:
        good = not clean and bool(corrupted)
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} {name}: right output {clean or 'accepted'}; "
              f"corrupted output {'rejected' if corrupted else 'ACCEPTED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
