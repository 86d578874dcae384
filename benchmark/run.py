"""Run one workload of the qcausal benchmark and print its metrics.

Usage (from the repository root):

    python3 benchmark/run.py --workload sample-dc --seed 1 --seconds 20 --trace 0

Each round spawns one workload process (benchmark/child.py) against the
package in ``src/``, waits for it with ``wait4`` and checks its outputs.
Each round is followed by a set-up probe, a process that only imports,
and the pairs repeat until ``--seconds`` of their wall time have been
measured. With ``--trace 1`` the run makes an untraced, a traced and another
untraced round and reports the per-layer metrics of the traced one
instead; the tracing overhead is its wall time minus the untraced mean.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The full record of the run
(machine, every round, median and quartiles of each metric, every failed
operation and check) is written to .bench_runs/<workload>-seed<n>-trace<t>/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
PACKAGE = ROOT / "src" / "qcausal"
RUNS = ROOT / ".bench_runs"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
ROUND_TIMEOUT_S = 150
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def steal_ticks() -> int | None:
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def machine() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_VARS},
    }


def summary(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


class Runner:
    def __init__(self, out: Path):
        self.out = out
        self.env = dict(os.environ)
        path = os.environ.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + path if path else "")
        self.count = 0

    def spawn(self, spec: dict, trace: bool) -> dict:
        """Run one workload process; its wall time, exit code, peak RSS and timings."""
        k = self.count = self.count + 1
        spec = {**spec, "trace": trace, "package_dir": str(PACKAGE),
                "timing_out": str(self.out / f"timing-{k}.json"),
                "spans_out": str(self.out / f"spans-{k}.json")}
        spec_path = self.out / f"spec-{k}.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        cmd = [sys.executable, *(["-X", "importtime"] if trace else []), str(CHILD), str(spec_path)]
        stderr_path = self.out / f"stderr-{k}.txt"
        with open(self.out / f"stdout-{k}.txt", "wb") as so, open(stderr_path, "wb") as se:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=so, stderr=se)
            watchdog = threading.Timer(ROUND_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        try:
            timing = json.loads((self.out / f"timing-{k}.json").read_text(encoding="utf-8"))
        except (OSError, ValueError):
            timing = {}  # the round did not complete
        # The peak RSS is the child's own VmHWM (see spans.vm_hwm_kb); wait4's
        # ru_maxrss is recorded but not used, as it also holds this process's peak.
        return {"wall_s": wall, "exit": proc.returncode,
                "wait4_maxrss_mb": usage.ru_maxrss / 1024.0,
                "cpu_s": usage.ru_utime + usage.ru_stime, "timing": timing,
                "stderr_path": stderr_path, "spans_path": spec["spans_out"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"benchmark: no qcausal package at {PACKAGE}", file=sys.stderr)
        return 2

    out = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(), "load_avg_start": os.getloadavg()}
    steal0 = steal_ticks()

    workload = workloads.WORKLOADS[args.workload]()
    workload.prepare(args.seed, out)
    runner = Runner(out)
    runner.spawn({"mode": "probe"}, False)  # warm the page and bytecode caches, untimed

    rounds, problems, failures, setups = [], [], [], []
    attempted = 0

    def one_round(trace: bool) -> float:
        nonlocal attempted
        r = runner.spawn(workload.spec(), trace)
        r["trace"] = trace
        n_ops, failed, items, bad = workload.evaluate(r["exit"], r["timing"])
        attempted += n_ops
        failures.extend(failed)
        problems.extend(bad)
        if r["timing"]:
            r["setup_s"] = r["timing"]["setup_s"]
            r["items_per_s"] = items / r["timing"]["work_s"]
            r["peak_rss_mb"] = r["timing"]["vm_hwm_kb"] / 1024.0
            if not trace:
                setups.append(r["setup_s"])
        rounds.append(r)
        return r["wall_s"]

    def probe() -> float:
        p = runner.spawn({"mode": "probe"}, False)
        if p["timing"]:
            setups.append(p["timing"]["setup_s"])
        return p["wall_s"]

    if args.trace:
        for trace in (False, True, False):
            one_round(trace)
    else:
        measured = 0.0
        while measured < args.seconds:
            measured += one_round(False) + probe()
    workload.cleanup()

    untraced = [r for r in rounds if not r["trace"] and "setup_s" in r]

    record.update(load_avg_end=os.getloadavg(), attempted=attempted, failures=failures,
                  problems=problems)
    steal1 = steal_ticks()
    record["steal_ticks"] = None if steal0 is None or steal1 is None else steal1 - steal0
    record["rounds"] = [{k: v for k, v in r.items() if k not in ("stderr_path", "spans_path")}
                        for r in rounds]
    traced = next((r for r in rounds if r["trace"] and "setup_s" in r), None)
    if not untraced or (args.trace and traced is None):
        print("benchmark: a round did not complete", file=sys.stderr)
        (out / "result.json").write_text(json.dumps(record, indent=1, default=str))
        return 3

    stats = {
        "wall_s": summary([r["wall_s"] for r in untraced]),
        "setup_s": summary(setups),
        "items_per_s": summary([r["items_per_s"] for r in untraced]),
        "peak_rss_mb": summary([r["peak_rss_mb"] for r in untraced]),
    }
    record["stats"] = stats
    if args.trace:
        overhead = traced["wall_s"] - statistics.mean(r["wall_s"] for r in untraced)
        values = layers.layer_metrics(
            layers.Spans(traced["spans_path"]),
            Path(traced["stderr_path"]).read_text(encoding="utf-8", errors="replace"),
            traced["timing"]["work_s"], overhead)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in BENCHMARK["per_layer"]}
    else:
        metrics = {m["name"]: {"value": stats[m["name"]]["median"], "unit": m["unit"]}
                   for m in BENCHMARK["end_to_end"]}
    record["metrics"] = metrics
    (out / "result.json").write_text(json.dumps(record, indent=1, default=str))

    for name, s in stats.items():
        print(f"{args.workload} {name}: median {s['median']:.6g} "
              f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}] over {s['n']}")
    if args.trace:
        print(f"{args.workload} traced work {values['trace.work_s']:.4g} s, "
              f"sum of self times {values['trace.self_sum_s']:.4g} s")
    for line in failures + problems:
        print(f"{args.workload} {line}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
