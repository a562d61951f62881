"""Point-to-point measurement functions with selectable timing strategy.

Two timing strategies cover the usual trade-off: a single timer pair
around the whole loop, and a timer pair per iteration. Routines that can
only run in the context of another call (quiet after a posted non-blocking
operation) are measured by the subtraction method.
"""

from __future__ import annotations

import statistics
from enum import Enum

from .pgas import Measurement, PgasWorld, check_iters, run_fresh

UNSTABLE_REL_SIGMA = 0.05
DEFAULT_INNER_REPS = 64
SRC_OFFSET = 0
DST_OFFSET = 1 << 16


def heap_footprint(nbytes: int) -> int:
    """Heap bytes a P2P measurement of `nbytes` addresses on each PE.

    The 1-byte floor covers the near-empty put that calibrates quiet."""
    return DST_OFFSET + max(nbytes, 1)


class TimingStrategy(Enum):
    GLOBAL_LOOP = "global_loop"      # one timer pair outside the loop
    PER_ITERATION = "per_iteration"  # timer pair inside every iteration


def _timed_loop(pe, body, iters, strategy):
    """Run `body(i)` iters times; returns mean per-iteration local time."""
    if strategy is TimingStrategy.PER_ITERATION:
        total = 0.0
        for i in range(iters):
            t1 = yield from pe.stamp_begin()
            yield from body(i)
            t2 = yield from pe.stamp_end()
            total += t2 - t1
        return total / iters
    t1 = yield from pe.stamp_begin()
    for i in range(iters):
        yield from body(i)
    t2 = yield from pe.stamp_end()
    return (t2 - t1) / iters


def _run_on_pe0(world: PgasWorld, frag):
    """Run `frag` on PE 0 of a fresh world, idle elsewhere; returns its value."""
    return run_fresh(world, frag, ranks=(0,)).returned[0]


def measure_blocking(world: PgasWorld, kind: str, nbytes: int,
                     iters: int = DEFAULT_INNER_REPS,
                     strategy: TimingStrategy = TimingStrategy.GLOBAL_LOOP) -> Measurement:
    """Blocking get: call-to-return time.  Blocking put: time of (put; quiet)
    minus the separately calibrated near-empty quiet cost."""
    if kind not in ("get", "put"):
        raise ValueError(f"kind must be get or put, not {kind!r}")
    check_iters(iters)

    if kind == "get":
        def frag(pe):
            def body(i):
                yield from pe.get(1, SRC_OFFSET, nbytes, dst_offset=DST_OFFSET)
            return (yield from _timed_loop(pe, body, iters, strategy))

        return Measurement(_run_on_pe0(world, frag), iters)

    # the calibration is a pilot; always time it with the accurate strategy
    quiet_cal = measure_quiet(world, iters, TimingStrategy.GLOBAL_LOOP)

    def frag(pe):
        def body(i):
            yield from pe.put(1, DST_OFFSET, nbytes, src_offset=SRC_OFFSET)
            yield from pe.quiet()
        return (yield from _timed_loop(pe, body, iters, strategy))

    raw = _run_on_pe0(world, frag)
    mean = raw - quiet_cal.result
    flags = []
    if mean < 0:
        mean = 0.0
        flags.append("unstable")
    return Measurement(mean, iters, flags,
                       {"raw": raw, "quiet": quiet_cal.result})


def measure_quiet(world: PgasWorld, iters: int = DEFAULT_INNER_REPS,
                  strategy: TimingStrategy = TimingStrategy.GLOBAL_LOOP) -> Measurement:
    """Cost of a near-empty quiet: a 1-byte posted put then quiet."""
    return measure_nonblocking(world, "put", "full", 1, iters, strategy)


def _post(pe, kind, nbytes):
    if kind == "put":
        return pe.put_nbi(1, DST_OFFSET, nbytes, src_offset=SRC_OFFSET)
    return pe.get_nbi(1, SRC_OFFSET, nbytes, dst_offset=DST_OFFSET)


def measure_nonblocking(world: PgasWorld, kind: str, variant: str,
                        nbytes: int, iters: int = DEFAULT_INNER_REPS,
                        strategy: TimingStrategy = TimingStrategy.GLOBAL_LOOP) -> Measurement:
    """The four non-blocking measurement shapes.

    Full: post immediately followed by quiet.
    Post: the posting call alone.
    Quiet: the quiet after a post, via the subtraction method.
    Overlap: post and quiet separated by a busy-wait of twice the pilot
        full time; reports the active (non-overlapped) time.
    """
    if kind not in ("get", "put"):
        raise ValueError(f"kind must be get or put, not {kind!r}")
    if variant not in ("full", "post", "quiet", "overlap"):
        raise ValueError(f"unknown variant {variant!r}")
    check_iters(iters)
    flags: list[str] = []

    if variant == "full":
        def frag(pe):
            def body(i):
                yield from _post(pe, kind, nbytes)
                yield from pe.quiet()
            return (yield from _timed_loop(pe, body, iters, strategy))

        return Measurement(_run_on_pe0(world, frag), iters)

    if variant == "post":
        def frag(pe):
            def body(i):
                yield from _post(pe, kind, nbytes)
            m = yield from _timed_loop(pe, body, iters, strategy)
            yield from pe.quiet()  # drain outside the timed region
            return m

        return Measurement(_run_on_pe0(world, frag), iters)

    if variant == "quiet":
        # subtraction method: full loop time minus the pilot post cost
        post = measure_nonblocking(world, kind, "post", nbytes, iters, strategy)
        full = measure_nonblocking(world, kind, "full", nbytes, iters,
                                   TimingStrategy.GLOBAL_LOOP)
        mean = full.result - post.result
        if mean < 0:
            mean = 0.0
            flags.append("unstable")
        return Measurement(mean, iters, flags,
                           {"full": full.result, "post": post.result})

    # overlap
    pilot = _pilot_full(world, kind, nbytes, iters)
    if pilot["rel_sigma"] > UNSTABLE_REL_SIGMA:
        flags.append("unstable_pilot")
    full_mean = pilot["mean"]
    waited = []

    def frag(pe):
        def body(i):
            yield from _post(pe, kind, nbytes)
            waited.append((yield from pe.busy_wait(2.0 * full_mean)))
            yield from pe.quiet()
        return (yield from _timed_loop(pe, body, iters, strategy))

    loop_mean = _run_on_pe0(world, frag)
    wait_mean = sum(waited) / iters
    active = loop_mean - wait_mean
    if active < 0:
        active = 0.0
        flags.append("unstable")
    return Measurement(active, iters, flags,
                       {"full": full_mean, "loop": loop_mean,
                        "busy_wait": wait_mean, "overlap_active": active})


def _pilot_full(world: PgasWorld, kind: str, nbytes: int, iters: int,
                reps: int = 4) -> dict:
    vals = [measure_nonblocking(world, kind, "full", nbytes, iters,
                                TimingStrategy.GLOBAL_LOOP).result
            for _ in range(reps)]
    mean = statistics.fmean(vals)
    sigma = statistics.stdev(vals) if len(vals) > 1 else 0.0
    return {"mean": mean, "rel_sigma": sigma / mean if mean > 0 else 0.0}


def calibrate_busy_wait(world: PgasWorld, units: int = 1_000_000) -> float:
    """Measured busy-wait throughput in work units per second."""

    def frag(pe):
        t1 = yield from pe.stamp_begin()
        yield from pe.busy_wait(units * pe.world.busy_wait_unit)
        t2 = yield from pe.stamp_end()
        return units / (t2 - t1)

    return _run_on_pe0(world, frag)
