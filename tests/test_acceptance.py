"""Acceptance suite: one test per criterion, each ending in a verdict line.

Run with `pytest tests/test_acceptance.py -v` for per-criterion pass/fail
lines, or add `-s` to also see the printed verdicts with measured numbers.
"""

import math

import pytest

from helpers import assert_lock_alternation, assert_sk_protocol
from shmembench import (ClockModel, LockScenario, NetworkModel, PgasWorld,
                        ProgressMode, TimingStrategy, ground_truth_bcast_span,
                        measure_bcast_barrier, measure_bcast_naive,
                        measure_bcast_rounds, measure_bcast_sk,
                        measure_bcast_sync, measure_blocking, measure_lock,
                        measure_nonblocking)
from shmembench.pgas import BARRIER_REDUCE_BCAST
from shmembench.harness import parse_config, run_config, emit_results


def _verdict(n, text):
    print(f"\nCRITERION {n}: PASS — {text}")


PRESETS = {
    "balanced": NetworkModel(o_s=1e-7, o_r=1e-7, L=1e-6, g=0.0, G=1e-9),
    "slow_wire": NetworkModel(o_s=5e-7, o_r=2e-7, L=5e-6, g=1e-7, G=2e-9),
    "fast_nic": NetworkModel(o_s=1e-8, o_r=1e-8, L=1e-7, g=0.0, G=1e-10),
    "fat_overhead": NetworkModel(o_s=1e-6, o_r=1e-6, L=1e-5, g=1e-6, G=5e-9),
    "asymmetric": NetworkModel(o_s=2e-7, o_r=3e-7, L=2e-6, g=2e-8, G=1e-9),
}
SIZES = (1, 8, 1024, 65536, 1 << 20)


def _true_get_elapsed(world, nbytes):
    w = world.fresh()
    box = {}

    def prog(pe):
        if pe.rank == 0:
            box["op"] = yield from pe.get(1, 0, nbytes, dst_offset=1 << 16)

    def idle(pe):
        return iter(())

    return w.run([prog, idle]).op_elapsed(box["op"])


def test_criterion_1_oracle_fidelity_blocking_get():
    worst = 0.0
    for net in PRESETS.values():
        world = PgasWorld(2, net)
        for nbytes in SIZES:
            measured = measure_blocking(world, "get", nbytes, iters=8).result
            truth = _true_get_elapsed(world, nbytes)
            worst = max(worst, abs(measured - truth) / truth)
    assert worst < 1e-12
    _verdict(1, f"blocking get matches the trace oracle on "
                f"{len(PRESETS)} presets x {len(SIZES)} sizes; "
                f"worst relative error {worst:.2e} < 1e-12")


def test_criterion_2_timing_granularity_bias():
    oh = 1e-7
    net = NetworkModel(o_s=1e-7, o_r=1e-7, L=1e-6, G=1e-9)
    world = PgasWorld(2, net, ClockModel(2, timer_overhead=oh))
    iters = 64
    small_gap = (
        measure_blocking(world, "put", 1, iters, TimingStrategy.PER_ITERATION).result
        - measure_blocking(world, "put", 1, iters, TimingStrategy.GLOBAL_LOOP).result)
    assert small_gap == pytest.approx(2 * oh, rel=0.10)
    per = measure_blocking(world, "put", 1 << 20, 8,
                           TimingStrategy.PER_ITERATION).result
    glob = measure_blocking(world, "put", 1 << 20, 8,
                            TimingStrategy.GLOBAL_LOOP).result
    large_rel = (per - glob) / per
    assert large_rel < 0.01
    _verdict(2, f"per-iteration timing pays {small_gap:.3e} s/iter extra "
                f"(2*overhead={2 * oh:.1e} +-10%) on 1-byte puts; the gap is "
                f"{large_rel:.2%} of the total at 1 MiB")


def test_criterion_3_overlap_discrimination():
    sizes = SIZES
    bg = PgasWorld(2, NetworkModel(o_s=1e-7, o_r=1e-7, L=1e-6, G=1e-9,
                                   progress_mode=ProgressMode.BACKGROUND))
    actives = [measure_nonblocking(bg, "put", "overlap", n, iters=8).result
               for n in sizes]
    bg_spread = (max(actives) - min(actives)) / max(actives)
    assert bg_spread < 0.10

    oq = PgasWorld(2, NetworkModel(o_s=1e-7, o_r=1e-7, L=1e-6, G=1e-9,
                                   progress_mode=ProgressMode.ON_QUIET))
    worst = 0.0
    for n in sizes:
        full = measure_nonblocking(oq, "put", "full", n, iters=8).result
        active = measure_nonblocking(oq, "put", "overlap", n, iters=8).result
        worst = max(worst, abs(active - full) / full)
    assert worst < 0.05
    _verdict(3, f"background overlap active time constant within "
                f"{bg_spread:.2%} across sizes; on-quiet active time within "
                f"{worst:.2%} of full at every size")


def test_criterion_4_broadcast_algorithm_ordering():
    # binomial tree, P=16, NIC gap = L/10; the naive loop's pipelining bias
    # shows at small payloads, the acknowledged method's one-leg error is
    # only visible there too and vanishes once the payload dominates
    net = NetworkModel(o_s=1e-7, o_r=1e-7, L=1e-6, g=1e-7, G=1e-9)
    world = PgasWorld(16, net)
    small, large = 64, 1 << 20

    gt_small = ground_truth_bcast_span(world, small)
    naive = measure_bcast_naive(world, small, iters=16).result
    assert naive <= 0.9 * gt_small

    gt_large = ground_truth_bcast_span(world, large)
    sk = measure_bcast_sk(world, large, M=4).result
    rounds = measure_bcast_rounds(world, large).result
    sync = measure_bcast_sync(world, large, iters=8).result
    assert rounds <= sk
    sk_rel = abs(sk - gt_large) / gt_large
    sync_rel = abs(sync - gt_large) / gt_large
    assert sk_rel < 0.02
    assert sync_rel < 0.02
    _verdict(4, f"naive loop {naive / gt_small:.2f}x truth (<=0.9); "
                f"rounds<=acknowledged; acknowledged within {sk_rel:.2%}; "
                f"window-synchronized within {sync_rel:.2%}")


def test_criterion_5_barrier_bias_reproduction():
    net = NetworkModel(o_s=1e-7, o_r=1e-7, L=1e-6, G=1e-9)
    nbytes = 65536
    dis = PgasWorld(8, net)
    red = PgasWorld(8, net, barrier_algo=BARRIER_REDUCE_BCAST)
    gt = ground_truth_bcast_span(dis, nbytes)

    m_red = measure_bcast_barrier(red, nbytes, iters=12).result
    red_bias = (gt - m_red) / gt
    assert red_bias > 0.01

    m_dis = measure_bcast_barrier(dis, nbytes, iters=12).result
    dis_rel = abs(m_dis - gt) / gt
    assert dis_rel < 0.02
    _verdict(5, f"reduce-broadcast barrier underestimates by {red_bias:.2%} "
                f"(>1%); dissemination barrier within {dis_rel:.2%} (<2%)")


def test_criterion_6_acknowledged_broadcast_property_suite():
    M, nbytes, runs = 2, 64, 0
    net = NetworkModel(o_s=1e-7, o_r=1e-7, L=1e-6, G=1e-9,
                       jitter_half_width=2e-7)
    worlds = {p: PgasWorld(p, net) for p in (2, 4, 8)}
    for seed in range(334):
        for npes, world in worlds.items():
            if runs == 1000:
                break
            m = measure_bcast_sk(world.fresh(jitter_seed=seed), nbytes, M=M)
            assert_sk_protocol(m.world, npes, M)
            runs += 1
    assert runs == 1000
    _verdict(6, "1000 seeded jittered acknowledged-broadcast runs at "
                "P in {2,4,8}: all ack values in {0,1}, no interleaving")


def test_criterion_7_determinism(tmp_path):
    config = """
[network.jittery]
o_s = 100ns
o_r = 100ns
L = 1us
G = 1ns
jitter = 200ns

[run]
npes = 4
seed = 12345

[measurement.get]
type = blocking_get
nbytes = 8, 1024
iters = 8

[measurement.acked]
type = bcast_sk
nbytes = 256
M = 2
"""
    cfg = parse_config(config)
    first = emit_results(run_config(cfg), "csv")
    second = emit_results(run_config(cfg), "csv")
    assert first.encode() == second.encode()
    _verdict(7, "same seed, same config: byte-identical CSV output")


def test_criterion_8_lock_invariants():
    npes, iters = 4, 6
    net = NetworkModel(o_s=1e-7, o_r=1e-7, L=1e-6, G=1e-9,
                       jitter_half_width=2e-7)
    base = PgasWorld(npes, net)
    for seed in range(200):
        w = base.fresh(jitter_seed=seed)

        def contend(pe):
            yield from pe.barrier()
            for _ in range(iters):
                yield from pe.lock_set(0)
                yield from pe.lock_clear(0)

        trace = w.run([contend] * npes)
        assert_lock_alternation(trace, {p: iters for p in range(npes)})

        # staggered arrivals far beyond the jitter width: grants are FIFO
        w = base.fresh(jitter_seed=seed)

        def staggered(pe):
            yield from pe.advance(pe.rank * 1e-5)
            yield from pe.lock_set(0)
            yield from pe.advance(1e-4)
            yield from pe.lock_clear(0)

        trace = w.run([staggered] * npes)
        order = [e.pe for e in trace.entries if e.kind == "lock_acquired"]
        assert order == list(range(npes))

        held = measure_lock(base.fresh(jitter_seed=seed),
                            LockScenario("test_held", holders=[2]), iters=4)
        free = measure_lock(base.fresh(jitter_seed=seed),
                            LockScenario("test_free"), iters=4)
        assert held.components["acquired"] == 0
        assert free.components["acquired"] == 4
    _verdict(8, "200 seeded contended runs: strict acquire/release "
                "alternation, FIFO grants, correct test values")


def test_criterion_9_clock_sync_degradation():
    # affine clocks: a PE with drift d reaches its window slot at true time
    # t/(1+d) instead of t, so window i opens early by ~d*(slot_i - t_cal)
    # and the mean measured-span error accumulates to d * mean(slot_i)
    drift, npes, nbytes, wl, iters = 1e-5, 8, 64, 2e-5, 10000
    net = NetworkModel(o_s=1e-7, o_r=1e-7, L=1e-6, G=1e-9)
    w0 = PgasWorld(npes, net, ClockModel(npes))
    wd = PgasWorld(npes, net,
                   ClockModel(npes, drift_rate=[0.0] + [drift] * (npes - 1)))
    m0 = measure_bcast_sync(w0, nbytes, iters=iters, window_len=wl)
    md = measure_bcast_sync(wd, nbytes, iters=iters, window_len=wl)
    assert md.discarded == 0 and m0.discarded == 0

    mean_slot = wl + 1e-3 + (iters - 1) / 2 * wl  # startup margin + sweep
    predicted = drift * mean_slot
    observed = abs(md.result - m0.result)
    assert predicted / 2 <= observed <= 2 * predicted
    _verdict(9, f"drift {drift:g} over {iters} windows adds "
                f"{observed:.3e} s error vs predicted {predicted:.3e} s "
                f"(ratio {observed / predicted:.2f}, within factor 2)")
