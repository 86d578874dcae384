"""Command-line front end.

Subcommands: ``classify``, ``bounds``, ``sample``, ``table1``, ``table2``.
Reports are JSON with sorted keys (stable for golden-file diffing) and
deterministic under a fixed seed; ``sample`` additionally writes a CSV
with header ``c11,c22,c33,c,label``.

Matrix exchange format is a JSON document with explicit [re, im] pairs in
row-major order so fixtures are diffable and language-neutral::

    {"kind": "density", "dim": 4, "entries": [[re, im], ... 16 pairs]}
    {"kind": "unitary", "dim": 2, "entries": [[re, im], ... 4 pairs]}
    {"kind": "pvector", "dim": 3, "entries": [c11, c22, c33]}

Exit codes: 0 success, 1 validation error, 2 internal-consistency
violation (e.g. a bound violated by a sample), 3 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import basis_change, bounds, correlation, geometry, samplers
from .errors import ConsistencyError, ValidationError
from .qmath import bell, pauli, projector, require_density, require_unitary

__all__ = [
    "MatrixDocument",
    "RunReport",
    "load_document",
    "document_from_array",
    "parse_report",
    "run_classify",
    "run_bounds",
    "run_sample",
    "run_table1",
    "run_table2",
    "main",
]

BOUND_SLACK = 1e-9

_DOCUMENT_KINDS = ("density", "unitary", "pvector")


@dataclass(frozen=True)
class MatrixDocument:
    """Validated matrix/point exchange document."""

    kind: str
    dim: int
    entries: tuple

    def payload(self) -> np.ndarray:
        """Decode to the quantum object or correlation point it houses."""
        if self.kind == "pvector":
            return np.asarray(self.entries, dtype=float)
        values = np.array([complex(re, im) for re, im in self.entries])
        return values.reshape(self.dim, self.dim)

    def to_json(self) -> str:
        doc = {"kind": self.kind, "dim": self.dim, "entries": _listify_tree(self.entries)}
        try:
            return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
        except ValueError as exc:
            raise ValidationError(f"{self.kind} document has a non-finite entry") from exc


def document_from_array(kind: str, values: np.ndarray) -> MatrixDocument:
    """Build a document from a density operator, unitary, or correlation point."""
    if kind == "pvector":
        return MatrixDocument(
            kind="pvector", dim=3, entries=tuple(correlation.PPoint.from_array(values))
        )
    arr = np.asarray(values, dtype=complex)
    if kind == "density":
        require_density(arr)
    elif kind == "unitary":
        require_unitary(arr)
    else:
        raise ValidationError(f"unknown document kind {kind!r}")
    entries = tuple((float(z.real), float(z.imag)) for z in arr.reshape(-1))
    return MatrixDocument(kind=kind, dim=arr.shape[0], entries=entries)


def _real(value, what: str) -> float:
    """A JSON number as a float; strings, booleans and integers past float range are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{what} must be a number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ValidationError(f"{what} is too large for a float") from exc


def _parse_document(raw: dict, source: str) -> MatrixDocument:
    for fieldname in ("kind", "dim", "entries"):
        if fieldname not in raw:
            raise ValidationError(f"{source}: missing field {fieldname!r}")
    kind, dim, entries = raw["kind"], raw["dim"], raw["entries"]
    if kind not in _DOCUMENT_KINDS:
        raise ValidationError(f"{source}: kind must be one of {_DOCUMENT_KINDS}, got {kind!r}")
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise ValidationError(f"{source}: dim must be an integer, got {dim!r}")
    if not isinstance(entries, list):
        raise ValidationError(f"{source}: entries must be a list, got {entries!r}")
    if kind == "pvector":
        if dim != 3 or len(entries) != 3:
            raise ValidationError(f"{source}: pvector documents need dim=3 and 3 entries")
        values = tuple(_real(x, f"{source}: pvector entry {pos}") for pos, x in enumerate(entries))
        correlation.PPoint.from_array(values)  # range check
        return MatrixDocument(kind=kind, dim=3, entries=values)
    if dim not in (2, 4) or (kind == "density" and dim != 4) or (kind == "unitary" and dim != 2):
        raise ValidationError(f"{source}: kind {kind!r} is incompatible with dim {dim}")
    if len(entries) != dim * dim:
        raise ValidationError(
            f"{source}: expected {dim * dim} [re, im] entries, got {len(entries)}"
        )
    pairs = []
    for pos, item in enumerate(entries):
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise ValidationError(f"{source}: entry {pos} is not a [re, im] pair")
        pairs.append(tuple(_real(x, f"{source}: entry {pos}") for x in item))
    doc = MatrixDocument(kind=kind, dim=dim, entries=tuple(pairs))
    if kind == "density":
        require_density(doc.payload())
    else:
        require_unitary(doc.payload())
    return doc


def load_document(path: str) -> MatrixDocument:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            raw = json.loads(handle.read())
        except json.JSONDecodeError as exc:
            raise ValidationError(
                f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
        except (ValueError, RecursionError) as exc:  # not UTF-8, integer digit limit, nesting
            raise ValidationError(f"{path}: unreadable JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ValidationError(f"{path}: document must be a JSON object")
    return _parse_document(raw, path)


@dataclass
class RunReport:
    """Structured, diffable command report."""

    command: str
    seed: int
    parameters: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)

    def to_json(self) -> str:
        doc = {
            "command": self.command,
            "seed": self.seed,
            "parameters": _listify_tree(self.parameters),
            "results": _listify_tree(self.results),
            "violations": _listify_tree(self.violations),
        }
        try:
            return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
        except ValueError as exc:
            raise ConsistencyError(f"{self.command} report holds a non-finite number") from exc


def _listify_tree(obj):
    if isinstance(obj, dict):
        return {str(k): _listify_tree(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_listify_tree(x) for x in obj]
    if isinstance(obj, np.ndarray):
        return [_listify_tree(x) for x in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def parse_report(text: str) -> RunReport:
    raw = json.loads(text)
    return RunReport(
        command=raw["command"],
        seed=raw["seed"],
        parameters=raw["parameters"],
        results=raw["results"],
        violations=raw["violations"],
    )


def _complex_entries(matrix: np.ndarray):
    return [[float(z.real), float(z.imag)] for z in np.asarray(matrix).reshape(-1)]


# -- commands ----------------------------------------------------------------


def run_classify(doc: MatrixDocument, seed: int = 42, tol: float = 1e-9) -> RunReport:
    """Classify one document and decide an ambiguous object's escape (``seed`` is only recorded)."""
    if doc.kind == "density":
        point = correlation.cc_pvector(doc.payload())
    elif doc.kind == "unitary":
        point = correlation.dc_pvector(doc.payload())
    else:
        point = correlation.PPoint.from_array(doc.payload())
    label = geometry.classify(point.as_array(), tol)
    results = {
        "pvector": list(point),
        "statistic": {"value": correlation.statistic_c(point), "tolerance": tol},
        "label": label.value,
    }
    if label is geometry.RegionLabel.AMBIGUOUS:
        if doc.kind == "pvector":
            results["escape"] = {
                "applicable": False,
                "reason": "a bare correlation point has no underlying object to rotate",
            }
        else:
            kind = "CC" if doc.kind == "density" else "DC"
            margin, v = basis_change.escape_witness(kind, doc.payload(), tol=tol)
            results["escape"] = {
                "applicable": True,
                "found": v is not None,
                "margin": margin,
                "v": None if v is None else _complex_entries(v),
            }
    return RunReport(
        command="classify", seed=seed, parameters={"kind": doc.kind, "tol": tol}, results=results
    )


def run_bounds(
    grid_step: float = 0.01, starts: int = 200, seed: int = 42, tol: float = 1e-6
) -> RunReport:
    """Certify the four extrema with both oracles and report their agreement."""
    cfg = samplers.SamplerConfig(seed=seed)
    results = {}
    violations = []
    for target, reference in bounds.TARGET_VALUES.items():
        tetra = geometry.tcc() if target.startswith("CC") else geometry.tdc()
        direction = target.split("_")[1]
        polished = bounds.polish_extremum(bounds.grid_extremum(tetra, direction, grid_step))
        if target.startswith("CC"):
            multi = bounds.multistart_state_extremum(direction, starts, cfg)
        else:
            multi = bounds.multistart_unitary_extremum(direction, starts, cfg)
        agreement = abs(polished.value - multi.value)
        results[target] = {
            "reference": reference,
            "grid_polished": polished.value,
            "multistart": multi.value,
            "oracle_agreement": agreement,
            "witness_weights": list(polished.witness),
            "tolerance": tol,
            "polish_converged": polished.converged,
            "multistart_evaluations": multi.evaluations,
            "multistart_nonconverged": multi.nonconverged,
        }
        if agreement > tol or abs(polished.value - reference) > tol:
            violations.append(
                {"target": target, "grid_polished": polished.value, "multistart": multi.value}
            )
    return RunReport(
        command="bounds",
        seed=seed,
        parameters={"grid_step": grid_step, "starts": starts, "tol": tol},
        results=results,
        violations=violations,
    )


_CSV_HEADER = "c11,c22,c33,c,label"


_CHUNK_ROWS = 1 << 16
# A shorter tail joins the chunk before it: numpy elides temporaries only from 256 KiB
# (2^15 float64 rows) on, and elision changes the bits of unitaries_from_params.
_TAIL_ROWS = 1 << 15


def _chunk_bounds(n: int) -> list[tuple[int, int]]:
    starts = list(range(0, n, _CHUNK_ROWS))
    if len(starts) > 1 and n - starts[-1] < _TAIL_ROWS:
        starts.pop()
    return list(zip(starts, starts[1:] + [n]))


def _encode_rows(pts: np.ndarray, cvals: np.ndarray, codes: np.ndarray) -> str:
    """CSV rows ``c11,c22,c33,c,label``, floats as their shortest round-trip repr."""
    columns = [map(repr, col) for col in (*pts.T.tolist(), cvals.tolist())]
    labels = geometry._LABEL_NAMES[codes].tolist()
    return "\n".join(map(",".join, zip(*columns, labels)))


def _sample_chunk(kind: str, draw, span: tuple[int, int]) -> tuple[int, float, float, str]:
    """Bound violations, min and max of C, and the encoded CSV rows of rows
    ``lo:hi`` of the draw: density operators (CC) or unitary parameter columns (DC)."""
    lo, hi = span
    if kind == "CC":
        pts = correlation.cc_pvector_batch(draw[lo:hi])
    else:
        pts = correlation.dc_pvector_batch(
            samplers.unitaries_from_params(*(p[lo:hi] for p in draw))
        )
    cvals = pts.prod(axis=1)
    if kind == "CC":
        violations = int((cvals > bounds.TARGET_VALUES["CC_MAX"] + BOUND_SLACK).sum())
    else:
        violations = int((cvals < bounds.TARGET_VALUES["DC_MIN"] - BOUND_SLACK).sum())
    codes = geometry._classify_codes(pts, tol=1e-9)
    return violations, cvals.min(), cvals.max(), _encode_rows(pts, cvals, codes) + "\n"


# A pool worker's (kind, draw), set by _init_worker. A forked worker receives the
# initializer's arguments as the parent's own arrays: nothing is pickled or copied.
_WORKER_DRAW: tuple = ()


def _init_worker(kind: str, draw, parent: int) -> None:
    import threading

    global _WORKER_DRAW
    _WORKER_DRAW = (kind, draw)
    threading.Thread(target=_exit_with_parent, args=(parent,), daemon=True).start()


def _exit_with_parent(parent: int) -> None:
    """End this worker once ``parent`` is gone (killed, say). Left alone, it would
    block for good on a pipe that no process reads."""
    import time

    while os.getppid() == parent:
        time.sleep(0.2)
    os._exit(1)


def _worker_chunk(span: tuple[int, int]) -> tuple[int, float, float, str]:
    return _sample_chunk(*_WORKER_DRAW, span)


@contextlib.contextmanager
def _sampled_chunks(kind: str, draw, spans: list[tuple[int, int]]):
    """``_sample_chunk`` over ``spans``, in order: computed by a fork pool of
    ``min(usable CPUs, len(spans))`` workers, or in this process when that is one
    worker or the platform has no fork.

    A worker's exception, and ``BrokenProcessPool`` if a worker dies, is raised
    where its chunk is read. Leaving the block cancels the chunks not yet
    started and waits for the workers to exit. Forking is safe here: the pool
    forks every worker before it starts a thread, and the CLI starts none.
    """
    import multiprocessing  # here, not at the top: it adds about 20 ms to importing the CLI

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(spans))
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        yield map(functools.partial(_sample_chunk, kind, draw), spans)
        return
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker,
        initargs=(kind, draw, os.getpid()),
    )
    try:
        yield pool.map(_worker_chunk, spans)
    finally:
        pool.shutdown(cancel_futures=True)


def run_sample(
    kind: str, n: int, seed: int, out_path: str, rank: int = 4
) -> RunReport:
    """Write a CSV scatter of sampled correlation points and check the bounds.

    The random draw covers all ``n`` rows at once, so it alone fixes the
    stream. Points, labels and CSV rows then follow in chunks of
    ``_CHUNK_ROWS`` rows; a tail shorter than ``_TAIL_ROWS`` joins the chunk
    before it, so every chunk computes the same bits as the whole array
    would, and the CSV does not depend on the chunking. The chunks are
    computed on every usable CPU (see ``_sampled_chunks``), and this process
    writes each one, in order, as soon as it arrives.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    if kind not in ("CC", "DC"):
        raise ValidationError(f"kind must be 'CC' or 'DC', got {kind!r}")
    rng = samplers.SamplerConfig(seed=seed, density_rank=rank).rng()
    if kind == "CC":
        draw = samplers.sample_density(rng, rank=rank, size=n)
    else:
        draw = samplers.sample_unitary_params(rng, n)

    n_violations = 0
    min_c, max_c = np.inf, -np.inf
    with open(out_path, "w", encoding="utf-8", newline="\n") as handle, _sampled_chunks(
        kind, draw, _chunk_bounds(n)
    ) as chunks:
        handle.write(_CSV_HEADER + "\n")
        for violations, lo_c, hi_c, rows in chunks:
            n_violations += violations
            min_c, max_c = min(min_c, lo_c), max(max_c, hi_c)
            handle.write(rows)
    violations = []
    if n_violations:
        violations.append({"bound_violations": n_violations, "kind": kind})
    return RunReport(
        command="sample",
        seed=seed,
        parameters={"kind": kind, "n": n, "rank": rank, "out": out_path},
        results={
            "min_c": {"value": float(min_c), "tolerance": BOUND_SLACK},
            "max_c": {"value": float(max_c), "tolerance": BOUND_SLACK},
            "bound_violations": n_violations,
            "csv_rows": n,
        },
        violations=violations,
    )


# Published sign patterns: four causal evolutions then four joint preparations.
_TABLE1_ROWS = (
    ("unitary", 0, (1, 1, 1), 1),
    ("unitary", 1, (1, -1, -1), 1),
    ("unitary", 2, (-1, 1, -1), 1),
    ("unitary", 3, (-1, -1, 1), 1),
    ("density", 1, (1, -1, 1), -1),
    ("density", 2, (-1, 1, 1), -1),
    ("density", 3, (1, 1, -1), -1),
    ("density", 4, (-1, -1, -1), -1),
)


def run_table1(tol: float = 1e-12) -> RunReport:
    """Recompute the eight signature rows and assert the exact sign patterns."""
    results = {}
    violations = []
    for kind, index, expected_pattern, expected_c in _TABLE1_ROWS:
        if kind == "unitary":
            point = correlation.dc_pvector(pauli(index))
            name = f"unitary_sigma{index}"
        else:
            point = correlation.cc_pvector(projector(bell(index)))
            name = f"density_b{index}"
        cval = correlation.statistic_c(point)
        ok = (
            max(abs(p - e) for p, e in zip(point, expected_pattern)) <= tol
            and abs(cval - expected_c) <= tol
        )
        results[name] = {
            "pattern": list(point),
            "expected": list(expected_pattern),
            "c": cval,
            "expected_c": expected_c,
            "match": ok,
            "tolerance": tol,
        }
        if not ok:
            violations.append({"row": name, "pattern": list(point)})
    return RunReport(
        command="table1",
        seed=0,
        parameters={"tol": tol},
        results=results,
        violations=violations,
    )


def run_table2(
    n: int = 20000, seed: int = 42, v_docs: list[str] | None = None
) -> RunReport:
    """Escape proportions for the embedded (or user-supplied) rotations.

    Measured proportions are compared against the published references
    with a +-5 percentage-point band; out-of-band rows are flagged in the
    results (``in_band`` false), not treated as violations, because the
    published figures depend on the sampling distribution. Rotation ``idx``
    (from 1) draws its CC cell from ``worker_rng(2 * (idx - 1))`` and its DC
    cell from ``worker_rng(2 * (idx - 1) + 1)`` of ``SamplerConfig(seed)``.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    if v_docs:
        v_set = [load_document(path) for path in v_docs]
        for doc in v_set:
            if doc.kind != "unitary":
                raise ValidationError("table2 rotation documents must have kind 'unitary'")
        rotations = [doc.payload() for doc in v_set]
        references = [None] * len(rotations)
    else:
        rotations = list(basis_change.ESCAPE_V_SET)
        references = list(basis_change.REFERENCE_PROPORTIONS)
    results = {}
    for idx, (v, ref) in enumerate(zip(rotations, references), start=1):
        row = {}
        for column, kind in (("cc", "CC"), ("dc", "DC")):
            cfg = samplers.SamplerConfig(seed=seed, density_rank=1)
            stream = 2 * (idx - 1) + (0 if kind == "CC" else 1)
            res = basis_change.escape_experiment(kind, v, n, cfg, rng=cfg.worker_rng(stream))
            percent = 100.0 * res.proportion
            halfwidth = 100.0 * 1.96 * np.sqrt(
                max(res.proportion * (1 - res.proportion), 0.0) / n
            )
            entry = {
                "proportion_percent": percent,
                "halfwidth_percent": halfwidth,
                "escaped": res.escaped,
                "n": n,
                "image_in_target": res.image_in_target,
            }
            if ref is not None:
                printed = ref[0 if kind == "CC" else 1]
                entry["printed_percent"] = printed
                entry["in_band"] = bool(abs(percent - printed) <= 5.0)
            row[column] = entry
        results[f"v{idx}"] = row
    return RunReport(
        command="table2",
        seed=seed,
        parameters={"n": n, "custom_v": bool(v_docs), "band_percent": 5.0},
        results=results,
    )


# -- argument parsing --------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcausal",
        description="Discriminate two-qubit causal structures from correlation statistics.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None)
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=42)

    p_classify = sub.add_parser("classify", parents=[seed, out], help="classify a matrix document")
    p_classify.add_argument("document", help="path to a matrix document (JSON)")
    p_classify.add_argument("--tol", type=float, default=1e-9)

    p_bounds = sub.add_parser("bounds", parents=[seed, out], help="certify the statistic's extrema")
    p_bounds.add_argument("--grid-step", type=float, default=0.01)
    p_bounds.add_argument("--starts", type=int, default=200)
    p_bounds.add_argument("--tol", type=float, default=1e-6)

    p_sample = sub.add_parser(
        "sample", parents=[seed, out], help="Monte Carlo scatter of correlation points"
    )
    p_sample.add_argument("kind", choices=["CC", "DC"])
    p_sample.add_argument("--n", type=int, default=20000)
    p_sample.add_argument("--rank", type=int, default=4)
    p_sample.add_argument("--csv", required=True, help="output CSV path")

    p_t1 = sub.add_parser("table1", parents=[out], help="recompute the eight signature rows")
    p_t1.add_argument("--tol", type=float, default=1e-12)

    p_t2 = sub.add_parser(
        "table2", parents=[seed, out], help="escape proportions for the reference rotations"
    )
    p_t2.add_argument("--n", type=int, default=20000)
    p_t2.add_argument("--v-doc", action="append", default=None,
                      help="path to a unitary document (repeatable; replaces embedded set)")

    return parser


# Built once: parse_args keeps no state between calls.
_PARSER = _build_parser()


def _emit(report: RunReport, out_path: str | None) -> None:
    text = report.to_json()
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if args.subcommand == "classify":
            report = run_classify(load_document(args.document), seed=args.seed, tol=args.tol)
        elif args.subcommand == "bounds":
            report = run_bounds(
                grid_step=args.grid_step, starts=args.starts, seed=args.seed, tol=args.tol
            )
        elif args.subcommand == "sample":
            report = run_sample(
                args.kind, n=args.n, seed=args.seed, out_path=args.csv, rank=args.rank
            )
        elif args.subcommand == "table1":
            report = run_table1(tol=args.tol)
        else:
            report = run_table2(n=args.n, seed=args.seed, v_docs=args.v_doc)
        _emit(report, args.out)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except ConsistencyError as exc:
        print(f"consistency violation: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    return 2 if report.violations else 0


if __name__ == "__main__":
    raise SystemExit(main())
