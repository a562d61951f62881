"""Broadcast measurement algorithms against the trace oracle."""

import pytest

from shmembench import (NetworkModel, PgasWorld, ground_truth_bcast_span,
                        measure_bcast_barrier, measure_bcast_naive,
                        measure_bcast_rounds, measure_bcast_sk,
                        measure_bcast_sync)

O_S, O_R, L_WIRE, G = 1e-7, 1e-7, 1e-6, 1e-9
LEG = O_S + L_WIRE + O_R


def _world(npes=8, G_=G, L=L_WIRE, jitter=0.0, **kw):
    net = NetworkModel(o_s=O_S, o_r=O_R, L=L, G=G_, jitter_half_width=jitter)
    return PgasWorld(npes, net, **kw)


class TestGroundTruth:
    @pytest.mark.parametrize("nbytes", [1, 1024, 65536])
    def test_binomial_span_is_depth_times_hop(self, nbytes):
        # 8 PEs: three tree levels, each hop one leg plus payload
        gt = ground_truth_bcast_span(_world(), nbytes)
        assert gt == pytest.approx(3 * (LEG + G * nbytes), rel=1e-12)

    def test_single_pe_broadcast_free(self):
        assert ground_truth_bcast_span(_world(npes=1), 1024) == 0.0


class TestAlgorithms:
    def test_sync_matches_truth_up_to_probe_bias(self):
        # offset estimates run 4*G low (half the 8-byte clock reply), so
        # every non-root opens its window that much early and the measured
        # span lands exactly at truth + 4*G
        w = _world()
        gt = ground_truth_bcast_span(w, 1024)
        m = measure_bcast_sync(w, 1024, iters=8)
        assert m.discarded == 0 and not m.flags
        assert m.result == pytest.approx(gt + 4 * G, rel=1e-9)

    def test_naive_loop_hides_cost_through_pipelining(self):
        w = _world()
        gt = ground_truth_bcast_span(w, 1024)
        m = measure_bcast_naive(w, 1024)
        assert m.result < 0.9 * gt

    def test_barrier_method_between_naive_and_truth(self):
        w = _world()
        gt = ground_truth_bcast_span(w, 1024)
        naive = measure_bcast_naive(w, 1024).result
        m = measure_bcast_barrier(w, 1024)
        assert naive < m.result < gt

    def test_rounds_underestimates_like_other_pipelined_loops(self):
        w = _world()
        sync = measure_bcast_sync(w, 1024, iters=8)
        m = measure_bcast_rounds(w, 1024)
        assert 0 < m.result < sync.result

    def test_sync_discards_overrun_windows(self):
        # a window shorter than the operation forces every slot overrun
        w = _world()
        m = measure_bcast_sync(w, 1024, iters=8, window_len=1e-9)
        # the first slot sits behind a startup margin and survives
        assert m.discarded == 7
        assert "invalid" in m.flags


class TestSk:
    def test_latency_regime_loses_one_ack_leg(self):
        # steady-state analysis: each task sees the loop period as its own
        # delivery time plus one ack leg, and the round-trip calibration
        # subtracts two legs, so the estimate runs one leg low
        w = _world()
        gt = ground_truth_bcast_span(w, 1024)
        m = measure_bcast_sk(w, 1024, M=8)
        assert set(m.per_task) == set(range(1, 8))
        assert m.result < gt
        assert m.result == max(m.per_task.values())

    def test_payload_regime_matches_truth(self):
        # once per-byte cost dominates the wire latency the one-leg error
        # disappears into the payload term
        n = 1 << 20
        w = _world()
        gt = ground_truth_bcast_span(w, n)
        m = measure_bcast_sk(w, n, M=4)
        assert m.result == pytest.approx(gt, rel=0.02)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("npes", [2, 4, 8])
    def test_protocol_safety_under_jitter(self, seed, npes):
        from helpers import assert_sk_protocol

        w = _world(npes=npes, jitter=2e-7).fresh(jitter_seed=seed)
        M = 4
        m = measure_bcast_sk(w, 64, M=M)
        assert_sk_protocol(m.world, npes, M)
