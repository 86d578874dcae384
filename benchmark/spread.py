"""Run workloads over several seeds and report each end-to-end metric's spread.

Usage (from the repository root):

    python3 benchmark/spread.py [--workload bounds,sample-dc] [--seeds 1-10]

Runs ``benchmark/run.py --trace 0`` once per workload and seed, one after
another, with the run length from BENCHMARK.json; by default every
workload of BENCHMARK.json. For each workload and metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median, next to the metric's bound; it also
prints the share of failed operations. Each workload's summary is written
to .bench_runs/spread-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import run


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(workload: str, seeds: list[int]) -> None:
    runs = []
    for seed in seeds:
        cmd = [sys.executable, str(run.ROOT / "benchmark" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(run.BENCHMARK["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"{workload} seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}", flush=True)
    summary = {"workload": workload, "seeds": seeds, "runs": runs, "metrics": {}}
    for metric in run.BENCHMARK["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [r["metrics"][name]["value"] for r in runs]
        s = run.summary(values)
        share = (s["q3"] - s["q1"]) / s["median"]
        summary["metrics"][name] = {**s, "iqr_share": share, "bound": bound, "values": values}
        print(f"{workload} {name}: median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
              f"spread {100 * share:.2f}% (bound {bound})")
    shares = sorted({r["failed"] / r["attempted"] for r in runs})
    summary["failed_shares"] = shares
    print(f"{workload} failed share(s): {shares}; all correct: {all(r['correct'] for r in runs)}")
    out = run.RUNS / f"spread-{workload}.json"
    out.write_text(json.dumps(summary, indent=1), encoding="utf-8")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default=None, help="comma-separated; default: all")
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()
    names = (args.workload.split(",") if args.workload
             else [w["name"] for w in run.BENCHMARK["workloads"]])
    for name in names:
        spread(name, seed_list(args.seeds))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
