"""Host cost of the event kernel as the PE count grows.

Runs three rows at P = 8, 32 and 128 on a jittered wire (o_s = o_r = 0.5 us,
L = 1 us, g = 0.2 us, G = 1 ns/B, latency jitter +-0.1 us, jitter seed 1)
with a binomial broadcast tree and the dissemination barrier:

- `bcast_sk`: `measure_bcast_sk` with M = 2 and a 64-byte payload;
- `barrier`: `measure_barrier_time` over 100 timed barriers;
- `lock`: `measure_lock` on the `contended_set` scenario with 16 set/clear
  pairs per PE, every PE but the requester contending for one lock.

For each row it prints the median process CPU seconds of five calls, the
trace entries of one call, host microseconds per entry, and the measured
result, which a change to the kernel's speed must leave as it is. Each
measurement runs the world it is given once, so after a call that world's
trace holds the call's entries. Uses public functions only:

    PYTHONPATH=src python tools/kernel_scale.py
"""

import statistics
import time

from shmembench import (BARRIER_DISSEMINATION, LockScenario, NetworkModel,
                        PgasWorld, measure_barrier_time, measure_bcast_sk,
                        measure_lock)

PES = (8, 32, 128)
CALLS = 5
NBYTES, M = 64, 2
BARRIERS = 100
LOCKS = 16
CONTENDED = LockScenario("contended_set")
WIRE = NetworkModel(o_s=5e-7, o_r=5e-7, L=1e-6, g=2e-7, G=1e-9,
                    jitter_half_width=1e-7)


def _rows(world):
    """Yield (row name, one call) per row."""
    yield "bcast_sk", lambda: measure_bcast_sk(world, NBYTES, M=M).result
    yield "barrier", lambda: measure_barrier_time(world, BARRIERS).result
    yield "lock", lambda: measure_lock(world, CONTENDED, LOCKS).result


def main() -> None:
    print(f"{'P':>4} {'row':<8} {'cpu_s':>9} {'entries':>8} {'us/entry':>9}"
          "  result")
    for npes in PES:
        world = PgasWorld(npes, WIRE, barrier_algo=BARRIER_DISSEMINATION,
                          jitter_seed=1)
        for name, call in _rows(world):
            times = []
            for _ in range(CALLS):
                t0 = time.process_time()
                result = call()
                times.append(time.process_time() - t0)
            cpu = statistics.median(times)
            entries = len(world.trace.entries)
            print(f"{npes:>4} {name:<8} {cpu:>9.4f} {entries:>8} "
                  f"{cpu / entries * 1e6:>9.3f}  {result!r}", flush=True)


if __name__ == "__main__":
    main()
