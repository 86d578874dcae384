"""The four workloads: their inputs, the work of one round, and its checks.

A round is one workload process (see child.py). Every round of a run does
the same operations on the same inputs, which ``prepare`` makes from the
run's seed; the seed reaches the program only as those inputs and as
``--seed`` values.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import checks

SAMPLE_ROWS = 1_000_000
BOUNDS_STARTS = 50
TABLE2_N = 100_000


def _checked(check, *args) -> list[str]:
    """Run a check; an output without the fields it reads is a problem, not a crash."""
    try:
        return check(*args)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]


def _load_json(path: Path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


class Workload:
    """One workload.

    ``evaluate`` returns (attempted, failures, items, problems): the
    operations of the round, a line for each that failed, the items
    completed, and every check that a completed operation did not pass.
    """

    name = ""

    def prepare(self, seed: int, out: Path) -> None:
        self.seed = seed

    def spec(self) -> dict:
        raise NotImplementedError

    def evaluate(self, exit_code: int, timing: dict) -> tuple[int, list, int, list]:
        raise NotImplementedError

    def cleanup(self) -> None:
        pass


class _CliWorkload(Workload):
    """A single CLI call per round, with its JSON report written to a file."""

    def prepare(self, seed, out):
        super().prepare(seed, out)
        self.report = out / f"{self.name}-report.json"

    def argv(self) -> list[str]:
        raise NotImplementedError

    def spec(self):
        self.report.unlink(missing_ok=True)
        return {"mode": "cli", "argv": self.argv()}

    def check(self, report: dict) -> list[str]:
        raise NotImplementedError

    def evaluate(self, exit_code, timing):
        report = _load_json(self.report)
        if exit_code != 0 or report is None:
            return 1, [f"{self.name}: exit {exit_code}"], 0, []
        return 1, [], self.items, _checked(self.check, report)


class SampleDC(_CliWorkload):
    """``qcausal sample DC`` at 10^6 rows, written to a CSV."""

    name = "sample-dc"
    items = SAMPLE_ROWS

    def prepare(self, seed, out):
        super().prepare(seed, out)
        self.csv = out / "sample-dc.csv"
        self.digest = None

    def argv(self):
        self.csv.unlink(missing_ok=True)
        return ["sample", "DC", "--n", str(SAMPLE_ROWS), "--seed", str(self.seed),
                "--csv", str(self.csv), "--out", str(self.report)]

    def check(self, report):
        problems = checks.check_sample_report(report, SAMPLE_ROWS)
        digest = checks.file_digest(str(self.csv))
        if self.digest is None:
            self.digest = digest
            return problems + checks.check_sample_dc(*checks.read_csv(str(self.csv)), SAMPLE_ROWS)
        if digest != self.digest:
            problems.append("sample: the CSV differs from the first round with the same seed")
        return problems

    def cleanup(self):
        self.csv.unlink(missing_ok=True)


class Bounds(_CliWorkload):
    """``qcausal bounds`` at the default grid step and seed, with 50 starts per target.

    The benchmark seed is not passed on: the multistart's cost depends on the
    seed by a factor of two (a few Nelder-Mead starts stall and run to the
    iteration cap, each costing about a hundred converging ones), so runs with
    different seeds would not measure the same work. The CLI's default seed
    is used as it is, stalled starts included.
    """

    name = "bounds"
    items = 4 * BOUNDS_STARTS

    def argv(self):
        return ["bounds", "--starts", str(BOUNDS_STARTS), "--out", str(self.report)]

    def check(self, report):
        return checks.check_bounds(report)


class Table2Escape(_CliWorkload):
    """``qcausal table2`` over the four embedded rotations at n = 10^5."""

    name = "table2-escape"
    items = 8 * TABLE2_N

    def argv(self):
        return ["table2", "--n", str(TABLE2_N), "--seed", str(self.seed),
                "--out", str(self.report)]

    def check(self, report):
        return checks.check_table2(report, TABLE2_N)


# -- classify-docs --------------------------------------------------------------

# (stratum, count). Fixed counts keep the work of a round the same from seed
# to seed: a preparation whose rotation reach is <= 1 never escapes and always
# costs the full 2000 tries, one with reach >= 1.2 escapes within a few.
CORPUS = (
    ("unitary-ambiguous", 12),
    ("unitary-decidable", 12),
    ("pure-decidable", 12),
    ("pure-escapable", 12),
    ("pure-stuck", 2),
    ("mixed-escapable", 4),
    ("mixed-stuck", 4),
    ("point", 16),
)
ESCAPABLE_REACH = 1.2
STUCK_REACH = 1.0 + 1e-10
# Every label boundary is at least this far from a generated point, so the
# expected label does not depend on rounding.
BOUNDARY_MARGIN = 1e-6

# Malformed documents; each must end with exit 1 and one validation-error
# line. The first two do not today (counted as failed operations): a NaN
# passes the pvector range check, and a non-list "entries" raises TypeError.
MALFORMED = (
    ("nan-pvector", '{"kind": "pvector", "dim": 3, "entries": [NaN, 0.25, 0.25]}'),
    ("scalar-entries", '{"kind": "density", "dim": 4, "entries": 5}'),
    ("truncated-json", '{"kind": "unitary", "dim": 2, "entries": [[1.0, 0.0]'),
    ("not-an-object", "[1, 2, 3]"),
    ("missing-entries", '{"kind": "unitary", "dim": 2}'),
    ("unknown-kind", '{"kind": "matrix", "dim": 2, "entries": []}'),
    ("entry-count", '{"kind": "unitary", "dim": 2, "entries": [[1, 0], [0, 0], [0, 0]]}'),
    ("not-unitary",
     '{"kind": "unitary", "dim": 2, "entries": [[1, 0], [1, 0], [0, 0], [1, 0]]}'),
    ("negative-density", json.dumps({
        "kind": "density", "dim": 4,
        "entries": [[1.5 if i == 0 else -0.5 if i == 5 else 0.0, 0.0] for i in range(16)]})),
    ("pvector-range", '{"kind": "pvector", "dim": 3, "entries": [1.5, 0.0, 0.0]}'),
)


def _haar_unitary(rng) -> np.ndarray:
    z = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _density(rng, rank: int) -> np.ndarray:
    states = rng.standard_normal((rank, 4)) + 1j * rng.standard_normal((rank, 4))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    weights = np.ones(1) if rank == 1 else rng.dirichlet(np.ones(rank))
    return sum(w * np.outer(s, s.conj()) for w, s in zip(weights, states))


def _candidate(stratum: str, rng, k: int) -> dict | None:
    """One random object, or None when it does not belong to ``stratum``."""
    if stratum == "point":
        point = rng.uniform(-1.0, 1.0, 3)
        if checks.boundary_distance(point)[0] < BOUNDARY_MARGIN:
            return None
        return {"kind": "pvector", "point": point}
    if stratum.startswith("unitary"):
        u = _haar_unitary(rng)
        point, matrix, kind, reach = checks.unitary_point(u), u, "unitary", None
    else:
        if stratum.startswith("pure"):
            rank = 1
        else:
            rank = 2 if stratum == "mixed-escapable" else 2 + k % 3
        rho = _density(rng, rank)
        point, matrix, kind = checks.prep_point(rho), rho, "density"
        reach = checks.rotation_reach(rho)
    if checks.boundary_distance(point)[0] < BOUNDARY_MARGIN:
        return None
    ambiguous = checks.labels_of(point)[0] == "AMBIGUOUS"
    if ambiguous != (not stratum.endswith("decidable")):
        return None
    escapable = None
    if stratum.endswith("escapable"):
        if reach < ESCAPABLE_REACH:
            return None
        escapable = True
    elif stratum.endswith("stuck"):
        if reach > STUCK_REACH:
            return None
        escapable = False
    return {"kind": kind, "matrix": matrix, "escapable": escapable}


def make_corpus(seed: int) -> list[dict]:
    """The generated documents of one run, each with what it should produce."""
    rng = np.random.default_rng(seed)
    docs = []
    for stratum, count in CORPUS:
        for k in range(count):
            doc = None
            while doc is None:
                doc = _candidate(stratum, rng, k)
            doc["name"] = f"{stratum}-{k:02d}"
            if doc["kind"] == "pvector":
                entries = [float(x) for x in doc["point"]]
            else:
                flat = doc["matrix"].reshape(-1)
                entries = [[float(z.real), float(z.imag)] for z in flat]
            dim = 3 if doc["kind"] == "pvector" else len(doc["matrix"])
            doc["text"] = json.dumps({"kind": doc["kind"], "dim": dim, "entries": entries})
            doc["valid"] = True
            docs.append(doc)
    for name, text in MALFORMED:
        docs.append({"name": f"malformed-{name}", "kind": None, "text": text, "valid": False})
    return docs


class ClassifyDocs(Workload):
    """``qcausal classify`` over a generated corpus, in one process."""

    name = "classify-docs"

    def prepare(self, seed, out):
        super().prepare(seed, out)
        self.docs = make_corpus(seed)
        corpus = out / "corpus"
        corpus.mkdir()
        for doc in self.docs:
            doc["path"] = corpus / f"{doc['name']}.json"
            doc["out"] = corpus / f"{doc['name']}.report.json"
            doc["path"].write_text(doc["text"], encoding="utf-8")

    def spec(self):
        for doc in self.docs:
            doc["out"].unlink(missing_ok=True)
        return {
            "mode": "docs",
            "docs": [[str(d["path"]), str(d["out"])] for d in self.docs],
            "extra": ["--seed", str(self.seed)],
        }

    def evaluate(self, exit_code, timing):
        outcomes = timing.get("docs", [])
        if exit_code != 0 or len(outcomes) != len(self.docs):
            return len(self.docs), [f"classify-docs: exit {exit_code}"] * len(self.docs), 0, []
        failed, problems = [], []
        for doc, outcome in zip(self.docs, outcomes):
            report = _load_json(doc["out"])
            if doc["valid"]:
                if outcome["exit"] != 0 or report is None:
                    failed.append(f"{doc['name']}: exit {outcome['exit']} {outcome['crash']}")
                else:
                    problems += _checked(checks.check_classify, doc, report)
                continue
            lines = outcome["stderr"].splitlines()
            if (outcome["exit"] != 1 or len(lines) != 1
                    or not lines[0].startswith("validation error:") or report is not None):
                failed.append(f"{doc['name']}: exit {outcome['exit']}, crash {outcome['crash']}")
        return len(self.docs), failed, len(self.docs) - len(failed), problems


WORKLOADS = {w.name: w for w in (SampleDC, Bounds, Table2Escape, ClassifyDocs)}

