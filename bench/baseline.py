"""Record a baseline: every workload at several seeds, plus one traced run.

    python3 bench/baseline.py --out bench/BENCH_0.json

Runs `run.py` for every workload in BENCHMARK.json, once per seed in
SEEDS and one run at a time, for BENCHMARK.json's `run_seconds`, then once
more per workload with `--trace 1` at the first seed.  For each end-to-end
metric it stores every value, the median, the quartiles and the spread
(quartile distance over median), and it stores each run's `result_digest`,
so a later commit can show byte-identical simulated results at the same
seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# Fixed, so that every BENCH_<n>.json has result digests at the same seeds.
SEEDS = tuple(range(1, 11))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("result_digest "):
            result["result_digest"] = line.split()[1]
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--out", required=True, type=Path)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    report = {"host": {"python": platform.python_version(),
                       "machine": platform.machine(),
                       "cpus": len(os.sched_getaffinity(0))},
              "seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            res = run_once(workload, seed, seconds, 0)
            runs.append(res)
            print(workload, seed, json.dumps(res), flush=True)
        names = runs[0]["metrics"]
        entry = {
            "correct": all(r["correct"] for r in runs),
            "fail_ratio": [r["failed"] / r["attempted"] for r in runs],
            "result_digest": {s: r["result_digest"]
                              for s, r in zip(SEEDS, runs)},
            "metrics": {n: {"unit": names[n]["unit"], **summarize(
                [r["metrics"][n]["value"] for r in runs])} for n in names},
        }
        traced = run_once(workload, SEEDS[0], seconds, 1)
        print(workload, "traced", json.dumps(traced), flush=True)
        entry["traced"] = {"seed": SEEDS[0],
                           "correct": traced["correct"],
                           "result_digest": traced["result_digest"],
                           "metrics": {k: v["value"] for k, v
                                       in traced["metrics"].items()}}
        report["workloads"][workload] = entry
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
