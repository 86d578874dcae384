"""The golden CLI runs, shared by ``make_goldens.py`` and ``tests/test_golden.py``.

Each case is one ``qcausal`` command line. It runs in an empty working
directory with a relative ``--csv``, so the ``out`` path inside a ``sample``
report is the same on every machine. A case's report is kept in full as
``<case>.json``; the CSV of a ``sample`` case is kept as its SHA-256 in
``<case>.csv.sha256``. The ``classify`` inputs live in ``inputs/``.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

from qcausal import cli

GOLDEN_DIR = Path(__file__).resolve().parent
INPUTS = GOLDEN_DIR / "inputs"
CSV = "sample.csv"
REPORT = "report.json"

CASES = {
    "table1": ["table1"],
    "bounds-starts20": ["bounds", "--starts", "20"],
    "table2-n2000": ["table2", "--n", "2000"],
    "table2-n4097": ["table2", "--n", "4097", "--seed", "5"],
    "sample-cc-rank1": ["sample", "CC", "--n", "5000", "--rank", "1", "--csv", CSV],
    "sample-cc-rank4": ["sample", "CC", "--n", "5000", "--rank", "4", "--csv", CSV],
    "sample-dc": ["sample", "DC", "--n", "5000", "--csv", CSV],
    **{
        f"classify-{name}": ["classify", str(INPUTS / f"{name}.json")]
        for name in (
            "stuck-density", "escapable-density", "ambiguous-unitary", "stuck-unitary", "pvector"
        )
    },
}


def run_case(name: str, workdir: Path) -> dict[str, bytes]:
    """Run case ``name`` inside ``workdir``; return the golden files it yields."""
    argv = CASES[name]
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        code = cli.main([*argv, "--out", REPORT])
    finally:
        os.chdir(previous)
    if code != 0:
        raise RuntimeError(f"golden case {name} exited with {code}")
    files = {f"{name}.json": (workdir / REPORT).read_bytes()}
    if CSV in argv:
        digest = hashlib.sha256((workdir / CSV).read_bytes()).hexdigest()
        files[f"{name}.csv.sha256"] = f"{digest}\n".encode()
    return files
