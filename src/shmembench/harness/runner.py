"""Measurement orchestration, repetition control, and result emission."""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .. import collbench, lockbench, p2pbench, syncschemes
from ..collbench import (ground_truth_bcast_span, measure_bcast_barrier,
                         measure_bcast_naive, measure_bcast_rounds,
                         measure_bcast_sk, measure_bcast_sync)
from ..lockbench import LockScenario, measure_lock
from ..netmodel import ClockModel, NetworkModel
from ..p2pbench import measure_blocking, measure_nonblocking, measure_quiet
from ..pgas import Measurement, PgasWorld, idle
from ..syncschemes import measure_barrier_time
from ..trace import LOCAL_COMPLETE, POST

if TYPE_CHECKING:
    from .config import BenchConfig, MeasurementSpec

CSV_FIELDS = ("name", "nbytes", "algo", "mean", "stddev", "samples",
              "ground_truth", "relative_error")
FORMATS = ("csv", "jsonl")
EPSILON = 1e-15


def _runs_anywhere(spec, npes):
    return None


@dataclass(frozen=True)
class MeasurementType:
    """How the harness runs, sizes and checks one measurement type.

    `run(world, spec, nbytes)` measures once. `truth(net, new_world, spec,
    nbytes)` is the reference from an isolated traced run on a world from
    `new_world()`, a closed form over the network `net`, or NaN; a reference
    that runs no simulation builds no world. Both must reach measurement
    functions through module names at call time, so a tracer that rebinds
    those names sees every call. `footprint(nbytes)` is the heap bytes per
    PE they address, and `reference_footprint(nbytes)`, if set, those of
    the reference world alone; both are stored as is, since sizing a heap
    is not a measurement call. `keys` are the `TYPE_KEYS` it reads; a type
    that does not read `nbytes` runs once, at nbytes 0. `check(spec,
    npes)` says why the spec cannot run in `npes` PEs, if so.
    """
    run: Callable[[PgasWorld, MeasurementSpec, int], Measurement]
    truth: Callable[[NetworkModel, Callable[[], PgasWorld], MeasurementSpec,
                     int], float]
    footprint: Callable[[int], int]
    keys: frozenset[str]
    min_npes: int = 1
    check: Callable[[MeasurementSpec, int], str | None] = _runs_anywhere
    reference_footprint: Callable[[int], int] | None = None


def _no_truth(net, new_world, spec, nbytes):
    return math.nan  # overlap and contention have no single true duration


def _p2p_span(new_world, op, nbytes, part):
    """True time of one `op` from PE 0 to PE 1, then a quiet, in a new
    world: from post to delivery (elapsed), to the quiet's return (full) or
    to local completion (post), or what the quiet adds to that (quiet)."""
    w = new_world()

    def prog(pe):
        op_id = yield from p2pbench.issue(pe, op, nbytes)
        return op_id, (yield from pe.quiet())

    trace = w.run([prog] + [idle] * (w.npes - 1))
    op_id, quiet_id = w.returned[0]
    if part == "elapsed":
        return trace.op_elapsed(op_id)
    ev = trace.op_events[op_id]
    full = trace.quiet_spans[quiet_id][1] - ev[POST]
    post = ev[LOCAL_COMPLETE] - ev[POST]
    return {"full": full, "post": post, "quiet": full - post}[part]


def _p2p(measure, truth, keys=frozenset({"nbytes", "iters", "strategy"})):
    return MeasurementType(measure, truth, p2pbench.heap_footprint, keys,
                           min_npes=2)


def _nbi(op, variant):
    truth = (_no_truth if variant == "overlap" else
             lambda net, new, s, n: _p2p_span(new, op + "_nbi", n, variant))
    return _p2p(lambda w, s, n: measure_nonblocking(
        w, op, variant, n, s.iters, s.strategy), truth)


def _bcast(measure, *keys, footprint=collbench.heap_footprint,
           check=_runs_anywhere):
    # the reference is a plain broadcast, whatever the measured world holds
    return MeasurementType(
        measure, lambda net, new, s, n: ground_truth_bcast_span(new(), n),
        footprint, frozenset({"nbytes", *keys}), check=check,
        reference_footprint=collbench.heap_footprint)


def _check_window(spec, npes):
    if spec.window_len is not None and not spec.window_len > 0:
        return f"window_len must be > 0, got {spec.window_len:g} s"
    return None


def _check_M(spec, npes):
    return f"M must be >= 1, got {spec.M}" if spec.M < 1 else None


def _barrier_span(net, new_world, spec, nbytes):
    w = new_world()

    def prog(pe):
        yield from pe.barrier()

    return w.run([prog] * w.npes).barrier_span(0)


def _lock(mode, round_trips=None):
    """A lock scenario whose reference, if any, is `round_trips` round
    trips to the home PE."""
    def run(world, spec, nbytes):
        scenario = LockScenario(mode, home_pe=spec.home_pe,
                                requester_pe=spec.requester_pe)
        return measure_lock(world, scenario, spec.iters)

    def check(spec, npes):
        for key in ("home_pe", "requester_pe"):
            rank = getattr(spec, key)
            if not 0 <= rank < npes:
                return f"{key} = {rank} is not a PE of npes = {npes}"
        # the home PE holds the lock; held by the requester, it tests free
        if mode == "test_held" and spec.home_pe == spec.requester_pe:
            return ("lock_test_held needs home_pe != requester_pe, "
                    f"got {spec.home_pe} for both")
        return None

    truth = (_no_truth if round_trips is None else lambda net, new, s, n:
             round_trips * (net.o_s + net.L + net.o_r))
    return MeasurementType(run, truth, lockbench.heap_footprint,
                           frozenset({"iters", "home_pe", "requester_pe"}),
                           check=check)


MEASUREMENT_TYPES: dict[str, MeasurementType] = {
    "blocking_get": _p2p(
        lambda w, s, n: measure_blocking(w, "get", n, s.iters, s.strategy),
        lambda net, new, s, n: _p2p_span(new, "get", n, "elapsed")),
    "blocking_put": _p2p(
        lambda w, s, n: measure_blocking(w, "put", n, s.iters, s.strategy),
        lambda net, new, s, n: _p2p_span(new, "put", n, "elapsed")),
    "quiet": _p2p(lambda w, s, n: measure_quiet(w, s.iters, s.strategy),
                  lambda net, new, s, n: _p2p_span(new, "put_nbi", 1, "full"),
                  frozenset({"iters", "strategy"})),
    "nbi_put_full": _nbi("put", "full"),
    "nbi_put_post": _nbi("put", "post"),
    "nbi_put_quiet": _nbi("put", "quiet"),
    "nbi_put_overlap": _nbi("put", "overlap"),
    "nbi_get_full": _nbi("get", "full"),
    "nbi_get_post": _nbi("get", "post"),
    "nbi_get_quiet": _nbi("get", "quiet"),
    "nbi_get_overlap": _nbi("get", "overlap"),
    "bcast_naive": _bcast(lambda w, s, n: measure_bcast_naive(w, n, s.iters),
                          "iters"),
    "bcast_barrier": _bcast(
        lambda w, s, n: measure_bcast_barrier(w, n, s.iters), "iters"),
    "bcast_sync": _bcast(lambda w, s, n: measure_bcast_sync(
        w, n, s.iters, window_len=s.window_len), "iters", "window_len",
        check=_check_window),
    "bcast_rounds": _bcast(lambda w, s, n: measure_bcast_rounds(
        w, n, window_len=s.window_len), "window_len", check=_check_window),
    "bcast_sk": _bcast(lambda w, s, n: measure_bcast_sk(w, n, M=s.M), "M",
                       footprint=collbench.sk_heap_footprint, check=_check_M),
    "barrier_time": MeasurementType(
        lambda w, s, n: measure_barrier_time(w, s.iters), _barrier_span,
        syncschemes.heap_footprint, frozenset({"iters"})),
    "lock_uncontended": _lock("uncontended_set_clear", 4),
    "lock_contended": _lock("contended_set"),
    "lock_test_held": _lock("test_held", 2),
    "lock_test_free": _lock("test_free", 2),
}
# Measurement keys that some types do not read; every type reads the rest.
TYPE_KEYS = frozenset().union(*(t.keys for t in MEASUREMENT_TYPES.values()))


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
                 jitter_seed: int, reference: bool = False) -> PgasWorld:
    """A world whose heap holds exactly what the measurement, or with
    `reference` its reference run, addresses (`parse_config` rejects a
    footprint above the default heap size)."""
    mtype = MEASUREMENT_TYPES[spec.type]
    footprint = ((reference and mtype.reference_footprint)
                 or mtype.footprint)
    npes = spec.npes if spec.npes is not None else cfg.npes
    clock = ClockModel(npes, drift_rate=cfg.drift, initial_offset=cfg.offset,
                       timer_overhead=cfg.timer_overhead,
                       jitter_seed=jitter_seed)
    return PgasWorld(npes, cfg.networks[spec.network], clock,
                     heap_size=footprint(nbytes),
                     bcast_topology=spec.algo,
                     barrier_algo=spec.barrier,
                     barrier_root=spec.barrier_root)


def run_config(cfg: BenchConfig, seed: int | None = None) -> list[ResultRow]:
    base_seed = cfg.seed if seed is None else seed
    rows: list[ResultRow] = []
    for spec in cfg.measurements:
        mtype = MEASUREMENT_TYPES[spec.type]
        sweep = spec.nbytes if "nbytes" in mtype.keys else [0]
        net = cfg.networks[spec.network]
        for nbytes in sweep:
            values: list[float] = []

            def thunk():
                # Repetitions differ only in their jitter seed, and a
                # jitter-free world draws no random numbers: replay the first.
                if values and net.jitter_half_width == 0:
                    return values[0]
                jitter_seed = _derived_seed(base_seed, spec.name, nbytes,
                                            len(values))
                world = _build_world(cfg, spec, nbytes, jitter_seed)
                values.append(mtype.run(world, spec, nbytes).result)
                return values[-1]

            mean, sigma, samples = run_until_stable(
                thunk, cfg.sigma_threshold, cfg.max_reps)
            truth = mtype.truth(
                net, lambda: _build_world(cfg, spec, nbytes, _derived_seed(
                    base_seed, spec.name, nbytes, -1), reference=True),
                spec, nbytes)
            rel = (abs(mean - truth) / max(truth, EPSILON)
                   if not math.isnan(truth) else math.nan)
            rows.append(ResultRow(spec.name, nbytes, spec.algo, mean, sigma,
                                  samples, truth, rel, expect=spec.expect))
    return rows


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def emit_results(rows: list[ResultRow], format: str = "csv") -> str:
    """CSV with a header line, or one JSON object per row; floats have 12
    significant digits in both. A NaN (a row with no reference) is `nan`
    in CSV and `null` in JSON, which has no NaN."""
    if not rows:
        raise ValueError("no rows to emit")
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}")
    lines = [",".join(CSV_FIELDS)] if format == "csv" else []
    for r in rows:
        values = [getattr(r, f) for f in CSV_FIELDS]
        if format == "csv":
            lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v)
                                  for v in values))
        else:
            lines.append(json.dumps({
                f: (None if math.isnan(v) else float(_fmt(v)))
                if isinstance(v, float) else v
                for f, v in zip(CSV_FIELDS, values)}))
    return "\n".join(lines) + "\n"


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
