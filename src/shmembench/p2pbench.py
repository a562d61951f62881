"""Point-to-point measurement functions with selectable timing strategy.

Each function times a loop of calls on PE 0 with `pgas.timed_loop`: one
timer pair around the whole loop, or a timer pair per iteration. Routines
that can only run in the context of another call (quiet after a posted
non-blocking operation) are measured by the subtraction method, whose
difference `pgas.Measurement.clamped` reports. Every transfer is issued by
`issue`, the one place that knows this module's buffer layout.
"""

from __future__ import annotations

from .pgas import (Measurement, PgasWorld, TimingStrategy, check_iters,
                   run_fresh, timed_loop)

DEFAULT_INNER_REPS = 64
SRC_OFFSET = 0
DST_OFFSET = 1 << 16


def heap_footprint(nbytes: int) -> int:
    """Heap bytes a P2P measurement of `nbytes` addresses on each PE.

    The 1-byte floor covers the near-empty put that calibrates quiet."""
    return DST_OFFSET + max(nbytes, 1)


def issue(pe, op: str, nbytes: int):
    """Issue one `op` (get, put, get_nbi or put_nbi) of `nbytes` between
    PE 0 and PE 1: a get reads PE 1's source buffer into PE 0's
    destination buffer, a put writes the other way. Returns the op id."""
    call = getattr(pe, op)
    if op.startswith("get"):
        return (yield from call(1, SRC_OFFSET, nbytes, dst_offset=DST_OFFSET))
    return (yield from call(1, DST_OFFSET, nbytes, src_offset=SRC_OFFSET))


def _run_on_pe0(world: PgasWorld, frag):
    """Run `frag` on PE 0 of a fresh world, idle elsewhere; returns its value."""
    return run_fresh(world, frag, ranks=(0,)).returned[0]


def _time_with_quiet(world: PgasWorld, op: str, nbytes: int, iters: int,
                     strategy: TimingStrategy) -> float:
    """Mean time of `op` immediately followed by a quiet."""

    def frag(pe):
        def body(i):
            yield from issue(pe, op, nbytes)
            yield from pe.quiet()
        return (yield from timed_loop(pe, body, iters, strategy))

    return _run_on_pe0(world, frag)


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
            return (yield from timed_loop(
                pe, lambda i: issue(pe, "get", nbytes), iters, strategy))

        return Measurement(_run_on_pe0(world, frag), iters)

    # the calibration is a pilot; always time it with the accurate strategy
    quiet = measure_quiet(world, iters, TimingStrategy.GLOBAL_LOOP).result
    raw = _time_with_quiet(world, "put", nbytes, iters, strategy)
    return Measurement.clamped(raw - quiet, iters,
                               components={"raw": raw, "quiet": quiet})


def measure_quiet(world: PgasWorld, iters: int = DEFAULT_INNER_REPS,
                  strategy: TimingStrategy = TimingStrategy.GLOBAL_LOOP) -> Measurement:
    """Cost of a near-empty quiet: a 1-byte posted put then quiet."""
    return measure_nonblocking(world, "put", "full", 1, iters, strategy)


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
    op = kind + "_nbi"

    if variant == "full":
        return Measurement(_time_with_quiet(world, op, nbytes, iters,
                                            strategy), iters)

    if variant == "post":
        def frag(pe):
            m = yield from timed_loop(pe, lambda i: issue(pe, op, nbytes),
                                      iters, strategy)
            yield from pe.quiet()  # drain outside the timed region
            return m

        return Measurement(_run_on_pe0(world, frag), iters)

    if variant == "quiet":
        # subtraction method: full loop time minus the pilot post cost
        post = measure_nonblocking(world, kind, "post", nbytes, iters, strategy)
        full = measure_nonblocking(world, kind, "full", nbytes, iters,
                                   TimingStrategy.GLOBAL_LOOP)
        return Measurement.clamped(full.result - post.result, iters,
                                   components={"full": full.result,
                                               "post": post.result})

    # overlap: a world replays its jitter stream, so one pilot run suffices
    full_mean = measure_nonblocking(world, kind, "full", nbytes, iters,
                                    TimingStrategy.GLOBAL_LOOP).result
    waited = []

    def frag(pe):
        def body(i):
            yield from issue(pe, op, nbytes)
            waited.append((yield from pe.busy_wait(2.0 * full_mean)))
            yield from pe.quiet()
        return (yield from timed_loop(pe, body, iters, strategy))

    loop_mean = _run_on_pe0(world, frag)
    wait_mean = sum(waited) / iters
    return Measurement.clamped(loop_mean - wait_mean, iters,
                               components={"full": full_mean,
                                           "loop": loop_mean,
                                           "busy_wait": wait_mean})

