"""Distributed lock benchmarks.

Four scenarios: an uncontended set/clear pair, lock acquisition under
contention, and testing a lock that is held or free.  Each returns the
requester's mean per-operation time measured with its own timer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .pgas import (INT_SIZE, Measurement, PgasWorld, check_iters, run_fresh,
                   timed_loop)

LOCK_OFFSET = 0
FLAG_OFFSET = 1 << 12


def heap_footprint(nbytes: int) -> int:
    """Heap bytes a lock measurement addresses on each PE; the lock and
    flag cells do not depend on `nbytes`."""
    return FLAG_OFFSET + INT_SIZE


@dataclass
class LockScenario:
    mode: str  # uncontended_set_clear | contended_set | test_held | test_free
    home_pe: int = 0
    requester_pe: int = 1
    holders: list[int] = field(default_factory=list)

    def check(self, npes: int) -> str | None:
        """Why the scenario cannot run on `npes` PEs, if it cannot."""
        for key, rank in [("home_pe", self.home_pe),
                          ("requester_pe", self.requester_pe),
                          *(("holders", rank) for rank in self.holders)]:
            if not 0 <= rank < npes:
                return f"{key} = {rank} is not a PE of npes = {npes}"
        # held by the requester, the lock would test free
        key, holder = (("holders[0]", self.holders[0]) if self.holders
                       else ("home_pe", self.home_pe))
        if self.mode == "test_held" and holder == self.requester_pe:
            return (f"lock_test_held needs {key} != requester_pe, "
                    f"got {holder} for both")
        return None


def measure_lock(world: PgasWorld, scenario: LockScenario,
                 iters: int = 16) -> Measurement:
    check_iters(iters)
    problem = scenario.check(world.npes)
    if problem:
        raise ValueError(problem)
    mode = scenario.mode
    if mode == "uncontended_set_clear":
        return _uncontended(world, scenario, iters)
    if mode == "contended_set":
        return _contended(world, scenario, iters)
    if mode in ("test_held", "test_free"):
        return _test(world, scenario, iters, held=(mode == "test_held"))
    raise ValueError(f"unknown lock scenario {mode!r}")


def _uncontended(world, scenario, iters):
    req, home = scenario.requester_pe, scenario.home_pe

    def prog(pe):
        def body(i):
            yield from pe.lock_set(LOCK_OFFSET, home)
            yield from pe.lock_clear(LOCK_OFFSET, home)

        yield from pe.barrier()
        if pe.rank == req:
            return (yield from timed_loop(pe, body, iters))

    return Measurement(run_fresh(world, prog).returned[req], iters)


def _contended(world, scenario, iters):
    """Every contender loops set/clear; report the requester's mean time
    spent inside lock_set."""
    req, home = scenario.requester_pe, scenario.home_pe
    contenders = scenario.holders or [pe for pe in range(world.npes)
                                      if pe != req]

    def prog(pe):
        yield from pe.barrier()
        if pe.rank == req:
            total = 0.0
            for _ in range(iters):
                t1 = yield from pe.stamp_begin()
                yield from pe.lock_set(LOCK_OFFSET, home)
                t2 = yield from pe.stamp_end()
                total += t2 - t1
                yield from pe.lock_clear(LOCK_OFFSET, home)
            return total / iters
        elif pe.rank in contenders:
            for _ in range(iters):
                yield from pe.lock_set(LOCK_OFFSET, home)
                yield from pe.lock_clear(LOCK_OFFSET, home)

    return Measurement(run_fresh(world, prog).returned[req], iters)


def _test(world, scenario, iters, held):
    """Time lock_test on a lock that a designated holder keeps held (or on
    a free lock); the holder releases only after the requester signals it
    is done, so every probe observes the same state.  `acquired` counts the
    probes that took the lock."""
    req, home = scenario.requester_pe, scenario.home_pe
    holder = scenario.holders[0] if scenario.holders else home

    def prog(pe):
        yield from pe.barrier()
        if held and pe.rank == holder:
            yield from pe.lock_set(LOCK_OFFSET, home)
            yield from pe.fetch_inc(req, FLAG_OFFSET)  # signal: lock is held
            yield from pe.wait_until(FLAG_OFFSET, "eq", 1)  # requester done
            yield from pe.lock_clear(LOCK_OFFSET, home)
        if pe.rank == req:
            if held:
                yield from pe.wait_until(FLAG_OFFSET, "eq", 1)
            total, acquired = 0.0, 0
            for _ in range(iters):
                t1 = yield from pe.stamp_begin()
                got = yield from pe.lock_test(LOCK_OFFSET, home)
                t2 = yield from pe.stamp_end()
                total += t2 - t1
                if got:  # release outside the timed region
                    acquired += 1
                    yield from pe.lock_clear(LOCK_OFFSET, home)
            if held:
                yield from pe.fetch_inc(holder, FLAG_OFFSET)
            return total / iters, acquired

    mean, acquired = run_fresh(world, prog).returned[req]
    return Measurement(mean, iters, components={"acquired": acquired})
