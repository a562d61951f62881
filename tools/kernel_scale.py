"""Host cost of the event kernel as the PE count grows.

Runs `measure_bcast_sk` (M = 2, 64-byte payload) on a jittered binomial
wire (o_s = o_r = 0.5 us, L = 1 us, g = 0.2 us, G = 1 ns/B, latency
jitter +-0.1 us, jitter seed 1) at P = 8, 32 and 128. For each P it prints
the median process CPU seconds of five calls, the trace entries of one
call, host microseconds per entry, and the measured result, which a change
to the kernel's speed must leave as it is. Uses public functions only:

    PYTHONPATH=src python tools/kernel_scale.py
"""

import statistics
import time

from shmembench import ClockModel, NetworkModel, PgasWorld, measure_bcast_sk

PES = (8, 32, 128)
CALLS = 5
NBYTES, M = 64, 2
WIRE = NetworkModel(o_s=5e-7, o_r=5e-7, L=1e-6, g=2e-7, G=1e-9,
                    jitter_half_width=1e-7)


def main() -> None:
    print(f"{'P':>4} {'cpu_s':>9} {'entries':>8} {'us/entry':>9}  result")
    for npes in PES:
        world = PgasWorld(npes, WIRE, ClockModel.ideal(npes, jitter_seed=1))
        times = []
        for _ in range(CALLS):
            t0 = time.process_time()
            m = measure_bcast_sk(world, NBYTES, M=M)
            times.append(time.process_time() - t0)
        cpu = statistics.median(times)
        entries = len(m.world.trace.entries)
        print(f"{npes:>4} {cpu:>9.4f} {entries:>8} "
              f"{cpu / entries * 1e6:>9.3f}  {m.result!r}", flush=True)


if __name__ == "__main__":
    main()
