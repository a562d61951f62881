"""Measurement orchestration, repetition control, and result emission."""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from dataclasses import dataclass

from .. import collbench, lockbench, p2pbench, syncschemes
from ..collbench import (ground_truth_bcast_span, measure_bcast_barrier,
                         measure_bcast_naive, measure_bcast_rounds,
                         measure_bcast_sk, measure_bcast_sync)
from ..lockbench import LockScenario, measure_lock
from ..netmodel import ClockModel
from ..p2pbench import (DST_OFFSET, SRC_OFFSET, TimingStrategy,
                        measure_blocking, measure_nonblocking, measure_quiet)
from ..pgas import (BARRIER_DISSEMINATION, BARRIER_REDUCE_BCAST,
                    BCAST_BINOMIAL, BCAST_LINEAR, DEFAULT_HEAP_SIZE,
                    PgasWorld, idle)
from ..syncschemes import measure_barrier_time
from ..trace import LOCAL_COMPLETE, POST
from .config import BenchConfig, MeasurementSpec

CSV_FIELDS = ("name", "nbytes", "algo", "mean", "stddev", "samples",
              "ground_truth", "relative_error")
EPSILON = 1e-15

_STRATEGY = {"global_loop": TimingStrategy.GLOBAL_LOOP,
             "per_iteration": TimingStrategy.PER_ITERATION}
_TOPOLOGY = {"binomial": BCAST_BINOMIAL, "linear": BCAST_LINEAR}
_BARRIER = {"dissemination": BARRIER_DISSEMINATION,
            "reduce_bcast": BARRIER_REDUCE_BCAST}
# Heap bytes per PE that a measurement type and its ground-truth run
# address, as a function of nbytes; each module owns its own layout.
_HEAP_FOOTPRINT = {
    **dict.fromkeys(("blocking_get", "blocking_put", "quiet",
                     "nbi_put_full", "nbi_put_post", "nbi_put_quiet",
                     "nbi_put_overlap", "nbi_get_full", "nbi_get_post",
                     "nbi_get_quiet", "nbi_get_overlap"),
                    p2pbench.heap_footprint),
    **dict.fromkeys(("bcast_naive", "bcast_barrier", "bcast_sync",
                     "bcast_rounds"), collbench.heap_footprint),
    "bcast_sk": collbench.sk_heap_footprint,
    "barrier_time": syncschemes.heap_footprint,
    **dict.fromkeys(("lock_uncontended", "lock_contended", "lock_test_held",
                     "lock_test_free"), lockbench.heap_footprint),
}


@dataclass
class ResultRow:
    name: str
    nbytes: int
    algo: str
    mean: float
    stddev: float
    samples: int
    ground_truth: float
    relative_error: float
    expect: str = "exact"  # report policy; not part of the emitted schema


def run_until_stable(thunk, sigma_threshold: float = 0.05,
                     max_reps: int = 32) -> tuple[float, float, int]:
    """Repeat `thunk()` until the sample spread is small enough.

    Stops once sigma/mean <= sigma_threshold (absolute sigma when the mean
    is zero) or max_reps is reached; at least two samples are always taken.
    Returns (mean, unbiased sigma, repetitions).
    """
    if max_reps < 2:
        raise ValueError("max_reps must be >= 2")
    values: list[float] = []
    while len(values) < max_reps:
        values.append(thunk())
        if len(values) < 2:
            continue
        mean = statistics.fmean(values)
        sigma = statistics.stdev(values)
        spread = sigma if mean == 0 else sigma / abs(mean)
        if spread <= sigma_threshold:
            break
    return statistics.fmean(values), statistics.stdev(values), len(values)


def _derived_seed(seed: int, name: str, nbytes: int, rep: int) -> int:
    digest = hashlib.sha256(f"{seed}|{name}|{nbytes}|{rep}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _build_world(cfg: BenchConfig, spec: MeasurementSpec, nbytes: int,
                 jitter_seed: int) -> PgasWorld:
    """A world whose heap holds exactly what the measurement addresses.

    Capped at the default size, so a measurement that would address past
    the default heap faults or deadlocks exactly as it would on it."""
    npes = spec.npes if spec.npes is not None else cfg.npes
    clock = ClockModel(npes, drift_rate=cfg.drift, initial_offset=cfg.offset,
                       timer_overhead=cfg.timer_overhead,
                       jitter_seed=jitter_seed)
    heap_size = min(_HEAP_FOOTPRINT[spec.type](nbytes), DEFAULT_HEAP_SIZE)
    return PgasWorld(npes, cfg.networks[spec.network], clock,
                     heap_size=heap_size,
                     bcast_topology=_TOPOLOGY[spec.algo],
                     barrier_algo=_BARRIER[spec.barrier],
                     barrier_root=spec.barrier_root)


def _measure_once(world: PgasWorld, spec: MeasurementSpec, nbytes: int) -> float:
    kind = spec.type
    strategy = _STRATEGY[spec.strategy]
    if kind == "blocking_get":
        return measure_blocking(world, "get", nbytes, spec.iters, strategy).mean
    if kind == "blocking_put":
        return measure_blocking(world, "put", nbytes, spec.iters, strategy).mean
    if kind == "quiet":
        return measure_quiet(world, spec.iters, strategy).mean
    if kind.startswith("nbi_"):
        _, op, variant = kind.split("_")
        return measure_nonblocking(world, op, variant, nbytes,
                                   spec.iters, strategy).mean
    if kind == "bcast_naive":
        return measure_bcast_naive(world, nbytes, spec.iters).result
    if kind == "bcast_barrier":
        return measure_bcast_barrier(world, nbytes, spec.iters).result
    if kind == "bcast_sync":
        return measure_bcast_sync(world, nbytes, spec.iters,
                                  window_len=spec.window_len).result
    if kind == "bcast_rounds":
        return measure_bcast_rounds(world, nbytes,
                                    window_len=spec.window_len).result
    if kind == "bcast_sk":
        return measure_bcast_sk(world, nbytes, M=spec.M).result
    if kind == "barrier_time":
        return measure_barrier_time(world, spec.iters)
    if kind.startswith("lock_"):
        mode = {"lock_uncontended": "uncontended_set_clear",
                "lock_contended": "contended_set",
                "lock_test_held": "test_held",
                "lock_test_free": "test_free"}[kind]
        holders = [] if mode != "test_held" else [spec.home_pe]
        scenario = LockScenario(mode, home_pe=spec.home_pe,
                                requester_pe=spec.requester_pe, holders=holders)
        return measure_lock(world, scenario, spec.iters).mean
    raise ValueError(f"unknown measurement type {kind!r}")


def _ground_truth(world: PgasWorld, spec: MeasurementSpec, nbytes: int) -> float:
    """Reference value from an isolated, fully traced instance of the op."""
    kind = spec.type
    if kind.startswith("bcast_"):
        return ground_truth_bcast_span(world, nbytes)
    if kind == "barrier_time":
        w = world.fresh()

        def prog(pe):
            yield from pe.barrier()

        return w.run([prog] * w.npes).barrier_span(0)
    if kind in ("blocking_get", "blocking_put"):
        w = world.fresh()
        op = "get" if kind == "blocking_get" else "put"
        box = {}

        def prog(pe):
            if pe.rank == 0:
                box["op"] = yield from (
                    pe.get(1, SRC_OFFSET, nbytes, dst_offset=DST_OFFSET)
                    if op == "get" else
                    pe.put(1, DST_OFFSET, nbytes, src_offset=SRC_OFFSET))
                yield from pe.quiet()

        trace = w.run([prog] + [idle] * (w.npes - 1))
        return trace.op_elapsed(box["op"])
    if kind in ("quiet", "nbi_put_full", "nbi_get_full",
                "nbi_put_post", "nbi_get_post",
                "nbi_put_quiet", "nbi_get_quiet"):
        w = world.fresh()
        n = 1 if kind == "quiet" else nbytes
        box = {}

        def prog(pe):
            if pe.rank == 0:
                box["op"] = yield from (
                    pe.get_nbi(1, SRC_OFFSET, n, dst_offset=DST_OFFSET)
                    if kind.startswith("nbi_get") else
                    pe.put_nbi(1, DST_OFFSET, n, src_offset=SRC_OFFSET))
                yield from pe.quiet()

        trace = w.run([prog] + [idle] * (w.npes - 1))
        ev = trace.op_events[box["op"]]
        if kind.endswith("_post"):
            return ev[LOCAL_COMPLETE] - ev[POST]
        full = trace.quiet_spans[_quiet_id(trace)][1] - ev[POST]
        if kind.endswith("_quiet"):
            return full - (ev[LOCAL_COMPLETE] - ev[POST])
        return full
    if kind == "lock_uncontended":
        net = world.net
        return 4 * (net.o_s + net.L + net.o_r)  # two home round trips
    if kind in ("lock_test_held", "lock_test_free"):
        net = world.net
        return 2 * (net.o_s + net.L + net.o_r)  # one home round trip
    return math.nan  # overlap and contention have no single true duration


def _quiet_id(trace) -> str:
    for op_id in trace.quiet_spans:
        return op_id
    raise KeyError("no quiet in ground-truth run")


def run_config(cfg: BenchConfig, seed: int | None = None) -> list[ResultRow]:
    base_seed = cfg.seed if seed is None else seed
    rows: list[ResultRow] = []
    for spec in cfg.measurements:
        sweep = spec.nbytes if _sweeps_bytes(spec.type) else [0]
        for nbytes in sweep:
            reps = {"n": 0}

            def thunk():
                jitter_seed = _derived_seed(base_seed, spec.name, nbytes,
                                            reps["n"])
                reps["n"] += 1
                world = _build_world(cfg, spec, nbytes, jitter_seed)
                return _measure_once(world, spec, nbytes)

            mean, sigma, samples = run_until_stable(
                thunk, cfg.sigma_threshold, cfg.max_reps)
            truth_world = _build_world(cfg, spec, nbytes,
                                       _derived_seed(base_seed, spec.name,
                                                     nbytes, -1))
            truth = _ground_truth(truth_world, spec, nbytes)
            rel = (abs(mean - truth) / max(truth, EPSILON)
                   if not math.isnan(truth) else math.nan)
            rows.append(ResultRow(spec.name, nbytes, spec.algo, mean, sigma,
                                  samples, truth, rel, expect=spec.expect))
    return rows


def _sweeps_bytes(kind: str) -> bool:
    return not (kind == "quiet" or kind == "barrier_time"
                or kind.startswith("lock_"))


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def emit_results(rows: list[ResultRow], format: str = "csv") -> str:
    if not rows:
        raise ValueError("no rows to emit")
    if format == "csv":
        lines = [",".join(CSV_FIELDS)]
        for r in rows:
            lines.append(",".join([
                r.name, str(r.nbytes), r.algo, _fmt(r.mean), _fmt(r.stddev),
                str(r.samples), _fmt(r.ground_truth), _fmt(r.relative_error)]))
        return "\n".join(lines) + "\n"
    if format == "jsonl":
        lines = []
        for r in rows:
            obj = {"name": r.name, "nbytes": r.nbytes, "algo": r.algo,
                   "mean": float(_fmt(r.mean)),
                   "stddev": float(_fmt(r.stddev)),
                   "samples": r.samples,
                   "ground_truth": float(_fmt(r.ground_truth)),
                   "relative_error": float(_fmt(r.relative_error))}
            lines.append(json.dumps(obj))
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {format!r}")


def ground_truth_report(rows: list[ResultRow],
                        tolerance: float = 0.02) -> tuple[str, int]:
    """Per-row PASS/FAIL text against the trace oracle; returns failures."""
    lines = []
    passed = failed = skipped = 0
    for r in rows:
        label = f"{r.name}[nbytes={r.nbytes},algo={r.algo}]"
        if math.isnan(r.ground_truth):
            skipped += 1
            lines.append(f"SKIP {label} mean={_fmt(r.mean)} (no reference)")
            continue
        if r.expect == "biased_low":
            ok = r.mean < r.ground_truth
            why = "below reference as expected" if ok else "not below reference"
        else:
            ok = r.relative_error <= tolerance
            why = f"rel={_fmt(r.relative_error)} tol={_fmt(tolerance)}"
        passed += ok
        failed += not ok
        lines.append(f"{'PASS' if ok else 'FAIL'} {label} "
                     f"mean={_fmt(r.mean)} truth={_fmt(r.ground_truth)} {why}")
    lines.append(f"{passed} passed, {failed} failed, {skipped} skipped")
    return "\n".join(lines) + "\n", failed
