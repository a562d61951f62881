"""Self-tests of the benchmark: tiny runs of each workload, traced and not.

Run with `python -m pytest bench/test_bench.py` from the repository root.
"""

import dataclasses
import functools
import json
import os
import shutil
import subprocess
import sys

import pytest

import bench_core
from bench_core import AckedJitter, CliMixed

SPEC = json.loads((bench_core.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

TINY = {
    "cli_mixed": functools.partial(
        CliMixed, max_reps=2,
        sections=("get_sweep", "nbi_put_quiet", "bcast_barrier_linear",
                  "bcast_sk_2mib", "lock_test_held")),
    "acked_jitter": functools.partial(AckedJitter, runs_per_chunk=3,
                                      chunks=2),
}


@pytest.fixture(scope="module", autouse=True)
def package():
    bench_core.load_package()


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(
        bench_core.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_prints_every_metric(name, trace):
    lines, result, phases = bench_core.benchmark(
        TINY[name], name, seed=5, seconds=0, trace=trace, probes=1)
    assert result["correct"], lines
    expected = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = {line.split()[0]: line.split()[2] for line in lines
               if len(line.split()) >= 3}
    for key, unit in {**expected, "units_per_s": "1/s",
                      "fail_ratio": "ratio"}.items():
        assert printed.get(key) == unit, key
    assert any(line.startswith("result_digest sha256:") for line in lines)
    if trace:
        # the traced run reproduces the untraced run's simulated results
        assert phases[0].digest == phases[1].digest


def test_cli_mixed_counts_only_the_known_deadlock():
    _, result, _ = bench_core.benchmark(TINY["cli_mixed"], "cli_mixed",
                                        seed=5, seconds=0, trace=False,
                                        probes=1)
    # five sections, seven rows; the 2 MiB bcast_sk row deadlocks
    assert (result["attempted"], result["failed"]) == (7, 1)
    assert result["correct"]


def test_traced_run_sees_calls_made_by_the_harness():
    _, result, _ = bench_core.benchmark(TINY["cli_mixed"], "cli_mixed",
                                        seed=5, seconds=0, trace=True)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    # runner.py binds measure_* by name; these calls only show when the
    # tracer re-binds those names too
    assert m["p2pbench.calls"] > 0 and m["lockbench.calls"] > 0
    assert m["harness.worlds_per_row"] > 0
    assert m["pgas.deadlocks"] == 1
    assert m["bench.span_coverage"] >= bench_core.MIN_COVERAGE


def test_per_section_calls_equal_one_whole_config_call():
    from shmembench.harness import emit_results, run_config
    w = CliMixed(seed=9, max_reps=2)
    w.setup()
    cfg = dataclasses.replace(w.cfg, measurements=[
        s for s in w.cfg.measurements if s.name not in CliMixed.KNOWN_DEFECTS])
    whole = run_config(cfg, seed=9)
    each = [row for spec in cfg.measurements
            for row in run_config(dataclasses.replace(cfg, measurements=[spec]),
                                  seed=9)]
    assert emit_results(each) == emit_results(whole)


def test_fails_without_package_sources(tmp_path):
    shutil.copytree(bench_core.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(bench_core.ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "acked_jitter",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
