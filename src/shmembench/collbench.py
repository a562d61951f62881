"""Broadcast measurement algorithms.

Five strategies: the naive timed loop (kept as the pipelining-prone
baseline), barrier-separated with barrier-cost subtraction, window
synchronization around each call, rotating roots in one window, and the
one-sided acknowledgment protocol in which each non-root PE in turn
acknowledges its part of the broadcast to the root through an atomic
fetch-and-increment consumed by a wait-until.
"""

from __future__ import annotations

from .pgas import (INT_SIZE, Measurement, PgasWorld, TimingStrategy,
                   check_iters, run_fresh, timed_loop)
from .syncschemes import (SyncState, measure_barrier_time,
                          offset_probe_fragment, start_synchronization,
                          stop_synchronization)

BUF_OFFSET = 0
ACK_OFFSET = 1 << 20


def heap_footprint(nbytes: int) -> int:
    """Heap bytes a plain broadcast measurement of `nbytes` addresses."""
    return nbytes


def sk_heap_footprint(nbytes: int) -> int:
    """Heap bytes `measure_bcast_sk` addresses: the payload and the ack cell."""
    return max(nbytes, ACK_OFFSET + INT_SIZE)


def ground_truth_bcast_span(world: PgasWorld, nbytes: int) -> float:
    """True span of one isolated PE-0 broadcast with simultaneous entry."""

    def prog(pe):
        yield from pe.broadcast(0, BUF_OFFSET, nbytes)

    return run_fresh(world, prog).trace.bcast_span(0)


def measure_bcast_naive(world: PgasWorld, nbytes: int,
                        iters: int = 32) -> Measurement:
    """Global timer on the root around a loop of broadcasts; biased low when
    the topology lets consecutive calls pipeline."""
    check_iters(iters)

    def prog(pe):
        yield from pe.barrier()
        return (yield from timed_loop(
            pe, lambda i: pe.broadcast(0, BUF_OFFSET, nbytes), iters,
            timed=pe.rank == 0))

    return Measurement(run_fresh(world, prog).returned[0], iters)


def measure_bcast_barrier(world: PgasWorld, nbytes: int,
                          iters: int = 32) -> Measurement:
    """Separate consecutive broadcasts with a barrier and subtract the
    barrier cost, calibrated over 100 barriers."""
    check_iters(iters)
    t_barrier = measure_barrier_time(world, 100).result

    def prog(pe):
        def body(i):
            yield from pe.broadcast(0, BUF_OFFSET, nbytes)
            yield from pe.barrier()

        yield from pe.barrier()
        return (yield from timed_loop(pe, body, iters,
                                      TimingStrategy.PER_ITERATION,
                                      timed=pe.rank == 0))

    return Measurement.clamped(run_fresh(world, prog).returned[0] - t_barrier,
                               iters)


def _pilot_window(world: PgasWorld, nbytes: int) -> float:
    pilot = measure_bcast_naive(world, nbytes, iters=8)
    return 10.0 * max(pilot.result, 1e-9)


def _aligned_start(pe, state: SyncState, probe_reps: int):
    """Estimate clock offsets, let PE 0 schedule the first slot comfortably
    after the alignment barrier, then align all PEs in that barrier."""
    yield from offset_probe_fragment(pe, state, probe_reps)
    if pe.rank == 0:
        now_local = yield from pe.stamp_begin()
        state.slot0 = now_local + state.window_len + 1e-3
    yield from pe.barrier()


def measure_bcast_sync(world: PgasWorld, nbytes: int, iters: int = 32,
                       window_len: float | None = None,
                       probe_reps: int = 16) -> Measurement:
    """Each iteration bracketed by window start/stop synchronization."""
    check_iters(iters)
    check_iters(probe_reps, "probe_reps")
    if window_len is None:
        window_len = _pilot_window(world, nbytes)
    state = SyncState(offsets=[0.0] * world.npes, window_len=window_len)

    def prog(pe):
        yield from _aligned_start(pe, state, probe_reps)
        windows = []
        for i in range(iters):
            t1, over = yield from start_synchronization(pe, state, i)
            yield from pe.broadcast(0, BUF_OFFSET, nbytes)
            t2 = yield from stop_synchronization(pe)
            windows.append((t2 - t1, over))
        return windows

    spans, discarded = [], 0
    for window in zip(*run_fresh(world, prog).returned):
        if any(over for _, over in window):
            discarded += 1
            continue
        spans.append(max(span for span, _ in window))
    flags = []
    if discarded > iters // 2:
        flags.append("invalid")
    result = sum(spans) / len(spans) if spans else 0.0
    return Measurement(result, iters, flags, discarded=discarded)


def measure_bcast_rounds(world: PgasWorld, nbytes: int,
                         window_len: float | None = None,
                         probe_reps: int = 16) -> Measurement:
    """One synchronized window around a loop of broadcasts with rotating
    root; the window span divided by the PE count."""
    check_iters(probe_reps, "probe_reps")
    if window_len is None:
        window_len = _pilot_window(world, nbytes) * world.npes
    state = SyncState(offsets=[0.0] * world.npes, window_len=window_len)

    def prog(pe):
        yield from _aligned_start(pe, state, probe_reps)
        t1, _ = yield from start_synchronization(pe, state, 0)
        for root in range(pe.world.npes):
            yield from pe.broadcast(root, BUF_OFFSET, nbytes)
        t2 = yield from stop_synchronization(pe)
        return t2 - t1

    spans = run_fresh(world, prog).returned
    return Measurement(max(spans) / world.npes, world.npes)


def _ack_round_trip(pe, root: int, task: int):
    """One acknowledgment round trip: root bumps task's ack cell, task bumps
    root's back, and each clears its own; other PEs take no part."""
    if pe.rank == root:
        yield from pe.fetch_inc(task, ACK_OFFSET)
        yield from pe.wait_until(ACK_OFFSET, "eq", 1)
        pe.store_int(ACK_OFFSET, 0)
    elif pe.rank == task:
        yield from pe.wait_until(ACK_OFFSET, "eq", 1)
        pe.store_int(ACK_OFFSET, 0)
        yield from pe.fetch_inc(root, ACK_OFFSET)


def _acked_bcast(pe, root: int, task: int, nbytes: int):
    """One broadcast that task acknowledges to root; root clears its cell."""
    yield from pe.broadcast(root, BUF_OFFSET, nbytes)
    if pe.rank == root:
        yield from pe.wait_until(ACK_OFFSET, "eq", 1)
        pe.store_int(ACK_OFFSET, 0)
    elif pe.rank == task:
        yield from pe.fetch_inc(root, ACK_OFFSET)


def measure_bcast_sk(world: PgasWorld, nbytes: int, M: int = 16) -> Measurement:
    """Acknowledged broadcast measurement.

    For each non-root task: calibrate the acknowledgment round trip, run a
    warm-up acknowledged broadcast, then time M iterations of broadcast
    plus acknowledgment; the task's broadcast estimate is the per-iteration
    loop time minus the calibrated acknowledgment time.  The reported value
    is the maximum over tasks.
    """
    check_iters(M, "M")
    root = 0

    def prog(pe):
        rank, estimate = pe.rank, None
        yield from pe.barrier()
        for task in range(1, pe.world.npes):
            # measure the ack round trip between root and task
            if rank in (root, task):
                rt1 = yield from timed_loop(
                    pe, lambda i: _ack_round_trip(pe, root, task), M)
            # warm-up: one acknowledged broadcast
            yield from pe.broadcast(root, BUF_OFFSET, nbytes)
            yield from _ack_round_trip(pe, root, task)
            # measure M acknowledged broadcasts, timed on every PE
            loop = yield from timed_loop(
                pe, lambda i: _acked_bcast(pe, root, task, nbytes), M)
            if rank == task:
                estimate = loop - rt1
        return estimate

    w = run_fresh(world, prog)
    per_task = dict(enumerate(w.returned[1:], start=1))  # {} when P == 1
    return Measurement.clamped(max(per_task.values(), default=0.0), M,
                               per_task=per_task, world=w)
