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
import pickle
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from . import basis_change, bounds, correlation, geometry, samplers
from .errors import ConsistencyError, ValidationError
from .qmath import bell, pauli, projector, require_density, require_unitary

__all__ = [
    "MatrixDocument",
    "RunReport",
    "load_document",
    "run_classify",
    "run_bounds",
    "run_sample",
    "run_table1",
    "run_table2",
    "main",
]

BOUND_SLACK = 1e-9
_TABLE2_MAX_N = samplers.SamplerConfig.max_rejections // 4  # DC accepts 27% of its draws

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


def _complex_entries(matrix: np.ndarray):
    return [[float(z.real), float(z.imag)] for z in np.asarray(matrix).reshape(-1)]


# -- commands ----------------------------------------------------------------


def _check_tol(tol: float) -> None:
    if not 0.0 <= tol < float("inf"):  # NaN fails both comparisons
        raise ValidationError(f"tol must be a finite number >= 0, got {tol!r}")


def _check_memory(count: int, each: int, what: str) -> None:
    """Refuse ``count`` items of about ``each`` bytes (measured) beyond this machine's memory."""
    sysconf = getattr(os, "sysconf", lambda name: 0)
    memory = sysconf("SC_PAGE_SIZE") * sysconf("SC_PHYS_PAGES")
    if memory and count * each > memory:
        raise ValidationError(f"{what} needs about {count * each:.3g} bytes of {memory:.3g} here")


def run_classify(doc: MatrixDocument, seed: int = 42, tol: float = 1e-9) -> RunReport:
    """Classify one document and decide an ambiguous object's escape (``seed`` is only recorded)."""
    _check_tol(tol)
    samplers.SamplerConfig(seed=seed)  # refuses a seed that no other command would take
    payload = doc.payload()
    if doc.kind == "density":  # the kernels read only its Hermitian part
        point = correlation.cc_pvector(payload)
    elif doc.kind == "unitary":
        point = correlation.dc_pvector(payload)
    else:
        point = correlation.PPoint.from_array(payload)
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
            margin, v = basis_change.escape_witness(kind, payload, tol=tol)
            results["escape"] = {
                "applicable": True,
                "found": v is not None,
                "margin": margin,
                "v": None if v is None else _complex_entries(v),
            }
    return RunReport(
        command="classify", seed=seed, parameters={"kind": doc.kind, "tol": tol}, results=results
    )


def _bounds_part(grid_step: float, starts: int, cfg, part: str) -> dict[str, bounds.BoundReport]:
    """The "CC" or "DC" multistart batch of ``bounds``, or its "grid" sweep, polished."""
    if part != "grid":
        return bounds._multistart_extrema(part, ["MAX", "MIN"], starts, cfg)
    grid = bounds._grid_extrema(bounds.TARGET_VALUES, grid_step)
    return {target: bounds.polish_extremum(report) for target, report in grid.items()}


def run_bounds(
    grid_step: float = 0.01, starts: int = 200, seed: int = 42, tol: float = 1e-6
) -> RunReport:
    """Certify the four extrema with both oracles and report their agreement.

    The three parts run on every usable CPU (``_ordered_map``), with the same
    report bytes at any CPU count; the arguments are checked before they start.
    """
    _check_tol(tol)
    if not 0.001 <= grid_step <= 0.1:  # NaN fails both comparisons
        raise ValidationError(f"grid step must be in [0.001, 0.1], got {grid_step}")
    if starts < 1:
        raise ValidationError("starts must be >= 1")
    _check_memory(starts, 7000, f"--starts {starts}")  # both batches live
    cfg = samplers.SamplerConfig(seed=seed)
    # on two workers, the DC batch and the grid share one and the CC batch has the other
    with _ordered_map(_bounds_part, (grid_step, starts, cfg), ["DC", "CC", "grid"]) as parts:
        dc, cc, grid = parts
    multistart = {**cc, **dc}
    results = {}
    violations = []
    for target, reference in bounds.TARGET_VALUES.items():
        polished, multi = grid[target], multistart[target]
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


def _chunk_bounds(n: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + _CHUNK_ROWS, n)) for lo in range(0, n, _CHUNK_ROWS)]


# Each label name and a newline, one per code of geometry._classify_codes.
_LABEL_LINES = [f"{name}\n".encode("ascii") for name in geometry._LABEL_NAMES]
_LABEL_LENGTHS = np.array([len(line) for line in _LABEL_LINES])


def _encode_rows(rows: np.ndarray, codes: np.ndarray) -> bytes:
    """ASCII CSV rows ``c11,c22,c33,c,label`` from the (n, 4) floats ``rows`` and
    the label ``codes``, each row ended by a newline, each float as Python's
    ``repr`` writes it, the shortest round-trip form.

    ``_reprfloat.repr_fields`` writes each float into a 25-byte field that ends
    with its repr and a comma, NULs in front. A cumulative sum of the reprs'
    lengths places the fields, and one indexed assignment, which numpy makes in
    index order, copies them there last first, so that each one's NULs land on
    bytes written after it; the labels go last. 4,096 rows go at a time."""
    from . import _reprfloat  # here, not at the top: its tables take about 5 ms to build

    def windows(buf, width):  # item i is buf[i:i + width]: writing one writes its neighbours
        return np.ndarray((buf.size - width + 1,), dtype=f"V{width}", buffer=buf, strides=(1,))

    step, width = _reprfloat._BLOCK // 4, 25
    fields = np.empty((4 * step, _reprfloat.FIELD), dtype=np.uint8)
    items = np.ndarray((4 * step,), dtype=f"V{width}", buffer=fields, strides=(_reprfloat.FIELD,))
    text = []
    for lo in range(0, len(rows), step):
        block, block_codes = rows[lo : lo + step], codes[lo : lo + step]
        size = _reprfloat.repr_fields(block, fields[: block.size]) + 1
        labels = _LABEL_LENGTHS[block_codes]
        size[3::4] += labels
        stop = size.cumsum()
        stop[3::4] -= labels  # where each row's fourth field ends and its label starts
        out = np.empty(width - 1 + stop[-1] + labels[-1], dtype=np.uint8)  # room for NULs in front
        windows(out, width)[stop[::-1] - 1] = items[: block.size][::-1]
        for code, line in enumerate(_LABEL_LINES):
            at = np.compress(block_codes == code, stop[3::4]) + width - 1
            windows(out, len(line))[at] = np.void(line)
        text.append(out[width - 1 :])
    return b"".join(text)


def _sample_chunk(
    kind: str, cfg: samplers.SamplerConfig, fd: int, item: tuple[int, tuple]
) -> tuple[int, float, float]:
    """Bound violations and the min and max of C of chunk k of ``sample``, whose
    CSV rows ``lo:hi`` it writes to ``fd`` on its turn; ``item`` is (k, (lo, hi)).

    The chunk draws a full ``_CHUNK_ROWS`` rows, in the kernel's layout, from
    ``cfg.worker_rng(samplers.SAMPLE_CHUNK_KEY, k)`` and keeps the first hi - lo,
    so a row depends only on the seed and its index. The points take them in
    real arithmetic, whose bits do not depend on numpy's SIMD loops."""
    k, (lo, hi) = item
    rng = cfg.worker_rng(samplers.SAMPLE_CHUNK_KEY, k)
    drawn = samplers.kernel_components(rng, kind, cfg.density_rank, _CHUNK_ROWS)
    diagonal = correlation.correlation_matrix_batch(
        kind, tuple(column[..., : hi - lo] for column in drawn), diagonal=True
    )
    rows = np.empty((hi - lo, 4))
    pts, cvals = rows[:, :3], rows[:, 3]
    np.stack(diagonal, axis=1, out=pts)
    cvals[:] = correlation.statistic_c_batch(pts)
    if kind == "CC":
        violations = int((cvals > bounds.TARGET_VALUES["CC_MAX"] + BOUND_SLACK).sum())
    else:
        violations = int((cvals < bounds.TARGET_VALUES["DC_MIN"] - BOUND_SLACK).sum())
    encoded = _encode_rows(rows, geometry._classify_codes(pts, tol=1e-9))
    _take_turn()
    with open(fd, "wb", closefd=False) as out:
        out.write(encoded)
    return violations, cvals.min(), cvals.max()


def _exit_with_parent(parent: int) -> None:
    """End this worker once ``parent`` is gone, rather than block for good on an unread pipe."""
    while os.getppid() == parent:
        time.sleep(0.2)
    os._exit(1)


# In a worker of ``_ordered_map``: its turn pipe's read end while the item's turn is due.
_turn_due = None


def _take_turn() -> None:
    """Wait for the current item's turn (see ``_ordered_map``); at most once per item."""
    global _turn_due
    if _turn_due is not None:
        os.read(_turn_due, 1)
        _turn_due = None


def _work(call, items: list, out, turn: int, parent: int) -> None:
    """Pickle ``(True, call(item))`` or ``(False, exception)`` per item to ``out``
    and take the item's turn from ``turn`` if the call did not, then exit."""
    global _turn_due
    try:
        threading.Thread(target=_exit_with_parent, args=(parent,), daemon=True).start()
        for item in items:
            _turn_due = turn
            try:
                pickle.dump((True, call(item)), out)
            except Exception as exc:
                pickle.dump((False, exc), out)
            out.flush()
            _take_turn()
    finally:
        os._exit(0)


def _receive(pipe, turn: int, index: int):
    os.write(turn, b"\0")  # item index's turn
    try:
        ok, value = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        raise ConsistencyError(f"a worker process died before returning item {index}") from None
    if not ok:
        raise value
    return value


@contextlib.contextmanager
def _ordered_map(task, shared: tuple, items: list):
    """``task(*shared, item)`` for each of ``items``, in order, computed by W =
    ``min(usable CPUs, len(items))`` forked workers (here when W is one or the
    platform has no fork). Worker w computes items w, w + W, ... in turn, so
    callers order their items to balance that split; ``task`` and ``shared``
    reach it through fork. It pickles each result to its own pipe, and item i is
    read from pipe i mod W: a worker's exception is raised there, and a dead
    worker is a ``ConsistencyError``. Leaving the block kills and reaps every
    worker. Forking is safe here: the CLI starts no thread.

    A task writes what must come out in item order after ``_take_turn()``. Item
    i's turn comes when this process starts to read item i, so after every
    earlier item has returned: one byte on worker i mod W's turn pipe, whose two
    ends this process holds open. A worker takes the turn of an item whose task
    did not, after sending its result, so the grants never fill a pipe. No item
    after a failed one gets its turn. Here ``_take_turn`` returns at once.
    """
    call = functools.partial(task, *shared)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(items))
    if workers < 2 or not hasattr(os, "fork"):
        yield map(call, items)
        return
    parent, pids, pipes, turns = os.getpid(), [], [], []
    try:
        for w in range(workers):
            read, write = os.pipe()
            pipes.append(open(read, "rb"))
            turns.append(os.pipe())
            with open(write, "wb") as out:  # this process's copy closes once forked
                pid = os.fork()
                if pid == 0:
                    _work(call, items[w::workers], out, turns[w][0], parent)
            pids.append(pid)
        yield (_receive(pipes[i % workers], turns[i % workers][1], i) for i in range(len(items)))
    finally:
        for pid in pids:
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()
        for fd in sum(turns, ()):
            os.close(fd)


def run_sample(
    kind: str, n: int, seed: int, out_path: str, rank: int = 4
) -> RunReport:
    """Write a CSV scatter of sampled correlation points and check the bounds.

    The rows come in chunks of ``_CHUNK_ROWS``, the last one shorter. Each chunk
    draws from its own generator, so row i depends only on the seed and i, and
    computes, encodes and writes its own rows (``_sample_chunk``), with no
    density operator or unitary built and each float as ``repr`` writes it
    (``_encode_rows``). The chunks run on every usable CPU and write on their
    turn (``_ordered_map``) to the CSV's file descriptor, which the workers
    inherit. This process writes the header first; it draws nothing, and of
    each chunk it receives only the bound violations and the min and max of C.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    if kind not in ("CC", "DC"):
        raise ValidationError(f"kind must be 'CC' or 'DC', got {kind!r}")
    cfg = samplers.SamplerConfig(seed=seed, density_rank=rank)
    # each chunk's item: here, and copied on write in each worker that reads it
    _check_memory(-(-n // _CHUNK_ROWS), 260 + 170 * (os.cpu_count() or 1), f"--n {n}")
    n_violations = 0
    min_c, max_c = np.inf, -np.inf
    with open(out_path, "wb") as handle:
        handle.write(_CSV_HEADER.encode("ascii") + b"\n")
        handle.flush()
        shared = (kind, cfg, handle.fileno())
        with _ordered_map(_sample_chunk, shared, list(enumerate(_chunk_bounds(n)))) as results:
            for violations, lo_c, hi_c in results:
                n_violations += violations
                min_c, max_c = min(min_c, lo_c), max(max_c, hi_c)
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
    _check_tol(tol)
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
    published figures depend on the sampling distribution. Every rotation's CC
    cell counts the same ``n`` objects, drawn from ``worker_rng(0)`` of
    ``SamplerConfig(seed)``, and every DC cell the ``n`` objects of
    ``worker_rng(1)``. The two kinds are independent, so they run as two items
    on every usable CPU (see ``_ordered_map``); the report is assembled from
    them in rotation order.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    cfg = samplers.SamplerConfig(seed=seed, density_rank=1)
    if n > _TABLE2_MAX_N:
        raise ValidationError(f"n must be <= {_TABLE2_MAX_N}, a quarter of the rejection budget")
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

    def kind_cells(key: int) -> list:  # CC objects from worker_rng(0), DC from worker_rng(1)
        return basis_change._escape_counts(("CC", "DC")[key], rotations, n, cfg, cfg.worker_rng(key))

    with _ordered_map(kind_cells, (), [0, 1]) as kinds:
        kinds = list(kinds)
    results = {}
    for idx, ref in enumerate(references, start=1):
        row = {}
        for k, column in enumerate(("cc", "dc")):
            res = kinds[k][idx - 1]
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
                printed = ref[k]
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
    p_bounds.add_argument("--grid-step", type=float, default=0.01, help="spacing in [0.001, 0.1]")
    p_bounds.add_argument("--starts", type=int, default=200,
                          help="starts per target, refused past this machine's memory "
                               "at 7 kB each")
    p_bounds.add_argument("--tol", type=float, default=1e-6)

    p_sample = sub.add_parser(
        "sample", parents=[seed, out], help="Monte Carlo scatter of correlation points"
    )
    p_sample.add_argument("kind", choices=["CC", "DC"])
    p_sample.add_argument("--n", type=int, default=20000,
                          help="rows, refused past this machine's memory at "
                               "0.26 kB per 65,536, plus 0.17 kB per CPU")
    p_sample.add_argument("--rank", type=int, default=4)
    p_sample.add_argument("--csv", required=True, help="output CSV path")

    p_t1 = sub.add_parser("table1", parents=[out], help="recompute the eight signature rows")
    p_t1.add_argument("--tol", type=float, default=1e-12)

    p_t2 = sub.add_parser(
        "table2", parents=[seed, out], help="escape proportions for the reference rotations"
    )
    p_t2.add_argument("--n", type=int, default=20000, help="objects per cell, at most 2,500,000")
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
