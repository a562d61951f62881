"""Clock-offset estimation, window synchronization, barrier calibration."""

import math

import pytest

from shmembench import (ClockModel, NetworkModel, PgasWorld, SyncState,
                        estimate_offsets, measure_barrier_time,
                        start_synchronization, stop_synchronization)

O_S, O_R, L_WIRE = 1e-7, 1e-7, 1e-6
LEG = O_S + L_WIRE + O_R


def _world(npes=4, G=0.0, offsets=None, drift=0.0, overhead=0.0):
    net = NetworkModel(o_s=O_S, o_r=O_R, L=L_WIRE, G=G)
    clock = ClockModel(npes, drift_rate=drift, timer_overhead=overhead,
                       initial_offset=offsets or 0.0)
    return PgasWorld(npes, net, clock)


class TestOffsetEstimation:
    def test_exact_with_symmetric_legs(self):
        # zero per-byte cost makes request and response legs identical, so
        # the round-trip midpoint recovers the clock offsets exactly
        true = [0.0, 5e-4, -3e-4, 1e-3]
        state = estimate_offsets(_world(offsets=true))
        for k in range(4):
            assert state.offsets[k] == pytest.approx(true[k], abs=1e-15)

    def test_exact_despite_timer_overhead(self):
        # overhead delays both endpoint stamps equally: midpoint unaffected
        true = [0.0, -2e-4, 7e-4, 4e-4]
        state = estimate_offsets(_world(offsets=true, overhead=2e-8))
        for k in range(4):
            assert state.offsets[k] == pytest.approx(true[k], abs=1e-15)

    def test_bias_is_half_the_response_serialization(self):
        # the clock reply carries 8 bytes the request does not, so the
        # midpoint is late by 8*G/2 and the estimate low by exactly that
        G = 1e-9
        state = estimate_offsets(_world(G=G))
        for k in range(1, 4):
            assert state.offsets[k] == pytest.approx(-4.0 * G, abs=1e-15)

    def test_drifting_clocks_estimated_to_first_order(self):
        true = [0.0, 1e-3, -5e-4, 2e-3]
        state = estimate_offsets(_world(offsets=true, drift=[0.0, 1e-5, -1e-5, 2e-5]))
        # probes finish within ~1e-4 s, so drift shifts the truth by < 1e-8
        for k in range(4):
            assert state.offsets[k] == pytest.approx(true[k], abs=1e-7)

    def test_offsets_relative_to_pe0(self):
        with pytest.raises(ValueError):
            SyncState(offsets=[1.0, 0.0])


class TestWindows:
    def test_slot_start_arithmetic(self):
        state = SyncState(offsets=[0.0], window_len=2.5e-5, slot0=1e-3)
        assert state.slot_start(0) == 1e-3
        assert state.slot_start(7) == pytest.approx(1e-3 + 7 * 2.5e-5)

    def test_simultaneous_start_when_offsets_known(self):
        # with perfect offsets every PE reaches its slot at the same true
        # instant; spans of a barrier measured this way equal the true span
        true = [0.0, 3e-4, -1e-4, 6e-4]
        w = _world(offsets=true)
        state = SyncState(offsets=list(true), window_len=1e-4, slot0=5e-3)
        stamps = {}

        def prog(pe):
            t1, over = yield from start_synchronization(pe, state, 0)
            assert not over
            t2 = yield from stop_synchronization(pe)
            stamps[pe.rank] = (t1, t2)

        w.run([prog] * 4)
        starts = {w.clock.global_time(k, stamps[k][0]) for k in range(4)}
        assert max(starts) - min(starts) == pytest.approx(0.0, abs=1e-15)

    def test_overrun_flag_when_slot_already_past(self):
        w = _world()
        state = SyncState(offsets=[0.0] * 4, window_len=1e-9, slot0=0.0)
        overruns = {}

        def prog(pe):
            yield from pe.advance(1e-3)
            _, over = yield from start_synchronization(pe, state, 0)
            overruns[pe.rank] = over

        w.run([prog] * 4)
        assert all(overruns.values())


class TestBarrierCalibration:
    def test_matches_isolated_dissemination_span(self):
        w = _world()
        # dissemination with P=4 is two fully symmetric rounds; back-to-back
        # barriers cannot pipeline into each other, so the steady-state
        # period equals the isolated span of 2 legs
        t = measure_barrier_time(w, iters=50).result
        assert t == pytest.approx(2 * LEG, rel=1e-9)

    def test_single_pe_barrier_is_free(self):
        t = measure_barrier_time(_world(npes=1), iters=10).result
        assert t == 0.0
