"""Traced benchmark pairs: how often two checkouts fail the coverage gate.

For each seed, starts `bench/run.py --trace 1` in a parent and a change
checkout at once, each pinned to its own CPU where the host has two, so
that both runs see the same host speed. From each run it reads the JSON
result line and the span dump `bench/out/spans-<workload>-seed<seed>.jsonl`,
and prints one line: side, seed, `correct`, the minimum
`bench.span_coverage`, and the unit that set it, with its section (a
`cli_mixed` unit's index in its round, in `cli_mixed.conf`'s section order)
or its P (an `acked_jitter` unit), its length and the time its child spans
leave uncovered. It ends with how many runs of each side were not
`correct`. Writes nothing itself; `bench/run.py` writes the span dumps.

    python3 tools/gate_pairs.py --parent PARENT --change CHANGE \\
        --workload cli_mixed --seeds 101-112 --seconds 50
"""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
# `bench/bench_core.py`'s `AckedJitter.PES`: run k of a round has P = PES[k % 3]
ACKED_PES = (2, 4, 8)


def _seeds(text: str) -> list[int]:
    """`A-B` (inclusive) or a comma-separated list."""
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def _start(checkout: Path, workload: str, seed: int, seconds: float,
           cpu: int | None) -> subprocess.Popen:
    def pin():
        os.sched_setaffinity(0, {cpu})

    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "1"]
    return subprocess.Popen(cmd, cwd=checkout, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, preexec_fn=None if cpu is None else pin)


def _unit_names(checkout: Path, workload: str):
    """Map a unit's index in its round to the name of what it ran."""
    if workload == "cli_mixed":
        conf = (checkout / "bench" / "cli_mixed.conf").read_text()
        sections = re.findall(r"^\[measurement\.([^\]]+)\]", conf, re.M)
        return lambda i: sections[i]
    return lambda i: f"P={ACKED_PES[i % len(ACKED_PES)]}"


def _lowest_unit(spans_path: Path, name_of):
    """(name, length s, gap s) of the least covered unit."""
    spans = [json.loads(line) for line in spans_path.open()]
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            covered[s["parent"]] += s["end"] - s["start"]
    in_round: dict[int, int] = {}
    worst = None
    for i, s in enumerate(spans):
        if s["name"] != "bench.unit":
            continue
        index = in_round.get(s["parent"], 0)
        in_round[s["parent"]] = index + 1
        length = s["end"] - s["start"]
        cov = covered[i] / length if length > 0 else 1.0
        if worst is None or cov < worst[0]:
            worst = (cov, name_of(index), length, length - covered[i])
    return worst[1:]


def _report(side: str, seed: int, proc: subprocess.Popen, checkout: Path,
            workload: str) -> bool:
    """Wait for one run, print its line and return its `correct`."""
    out, err = proc.communicate()
    try:
        result = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        print(f"{side:<6} {seed:>5}  no result (exit {proc.returncode}): "
              f"{err.strip()[-200:]}", flush=True)
        return False
    spans = checkout / "bench" / "out" / f"spans-{workload}-seed{seed}.jsonl"
    name, length, gap = _lowest_unit(spans, _unit_names(checkout, workload))
    cov = result["metrics"]["bench.span_coverage"]["value"]
    print(f"{side:<6} {seed:>5}  {str(result['correct']):<7}  {cov:7.3f}  "
          f"{name:<20} {length * 1e3:8.3f} {gap * 1e6:7.1f}", flush=True)
    return result["correct"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--workload", required=True,
                   choices=("cli_mixed", "acked_jitter"))
    p.add_argument("--seeds", type=_seeds, required=True,
                   help="A-B or a comma-separated list")
    p.add_argument("--seconds", type=float, default=50.0)
    args = p.parse_args(argv)

    checkouts = dict(zip(SIDES, (args.parent.resolve(),
                                 args.change.resolve())))
    cpus = sorted(os.sched_getaffinity(0))
    pins = dict(zip(SIDES, cpus)) if len(cpus) >= 2 else {}
    failed = dict.fromkeys(SIDES, 0)
    print("side   seed  correct  min_cov  section               unit_ms  "
          "gap_us", flush=True)
    for seed in args.seeds:
        procs = {side: _start(checkouts[side], args.workload, seed,
                              args.seconds, pins.get(side))
                 for side in SIDES}
        try:
            for side, proc in procs.items():
                failed[side] += not _report(side, seed, proc,
                                            checkouts[side], args.workload)
        finally:  # an interrupted pair leaves no run behind
            for proc in procs.values():
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
    n = len(args.seeds)
    print(f"parent failed {failed['parent']} of {n}, "
          f"change failed {failed['change']} of {n}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
