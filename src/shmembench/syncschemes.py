"""Measurement-infrastructure synchronization.

Clock-offset estimation via round-trip midpoints, window-based start/stop
synchronization built on the estimated offsets, and barrier-cost
calibration.  All of these are PE program fragments over the simulator and
observe the machine only through timers and communication, never through
the true clock parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

from .pgas import Measurement, PgasWorld, check_iters, run_fresh, timed_loop

OFFSET_PROBE_REPS = 16


@dataclass
class SyncState:
    """Driver-owned window-synchronization state.

    offsets[k] estimates PE k's clock minus PE 0's clock; slot i starts at
    reference (PE 0 clock) time slot0 + i * window_len.
    """

    offsets: list[float]
    window_len: float = 0.0
    slot0: float = 0.0

    def __post_init__(self):
        if self.offsets and self.offsets[0] != 0.0:
            raise ValueError("offsets are relative to PE 0")

    def slot_start(self, i: int) -> float:
        return self.slot0 + i * self.window_len


def offset_probe_fragment(pe, state: SyncState, reps: int = OFFSET_PROBE_REPS):
    """PE 0 ping-pongs each peer; midpoint estimate at minimum RTT wins."""
    if pe.rank != 0:
        return
    for target in range(1, pe.world.npes):
        best_rtt = None
        best_est = 0.0
        for _ in range(reps):
            t1 = yield from pe.stamp_begin()
            remote = yield from pe.fetch_remote_clock(target)
            t2 = yield from pe.stamp_end()
            rtt = t2 - t1
            if best_rtt is None or rtt < best_rtt:
                best_rtt = rtt
                best_est = remote - (t1 + t2) / 2.0
        state.offsets[target] = best_est


def estimate_offsets(world: PgasWorld, reps: int = OFFSET_PROBE_REPS) -> SyncState:
    """Run the offset-estimation protocol in a fresh world."""
    check_iters(reps, "reps")
    state = SyncState(offsets=[0.0] * world.npes)
    run_fresh(world, lambda pe: offset_probe_fragment(pe, state, reps))
    return state


def start_synchronization(pe, state: SyncState, i: int):
    """Spin until this PE's slot-i start; returns (local stamp, overrun)."""
    target_local = state.slot_start(i) + state.offsets[pe.rank]
    overrun = yield from pe.advance_to_local_time(target_local)
    t1 = yield from pe.stamp_begin()
    return t1, overrun


def stop_synchronization(pe):
    """Post-operation stamp; the next measurement uses the next slot."""
    return (yield from pe.stamp_end())


def heap_footprint(nbytes: int) -> int:
    """Heap bytes a barrier measurement addresses: none, since no scheme
    here touches the symmetric heap."""
    return 0


def measure_barrier_time(world: PgasWorld, iters: int = 100) -> Measurement:
    """Mean cost of a barrier among already-synchronized PEs.

    Times `iters` back-to-back barriers with one global timer pair on PE 0
    after an alignment barrier.
    """
    check_iters(iters)

    def prog(pe):
        yield from pe.barrier()
        return (yield from timed_loop(pe, lambda i: pe.barrier(), iters,
                                      timed=pe.rank == 0))

    return Measurement(run_fresh(world, prog).returned[0], iters)
