"""Point-to-point measurements against hand-derived model costs."""

import pytest

from shmembench import (ClockModel, NetworkModel, PgasWorld, ProgressMode,
                        TimingStrategy, measure_blocking,
                        measure_nonblocking, measure_quiet)

O_S, O_R, L_WIRE, G = 1e-7, 1e-7, 1e-6, 1e-9
LEG = O_S + L_WIRE + O_R
Q0 = 2 * O_S  # default quiet base cost


def _world(npes=2, overhead=0.0, progress=ProgressMode.BACKGROUND):
    net = NetworkModel(o_s=O_S, o_r=O_R, L=L_WIRE, G=G, progress_mode=progress)
    clock = ClockModel(npes, timer_overhead=overhead)
    return PgasWorld(npes, net, clock)


class TestBlocking:
    @pytest.mark.parametrize("nbytes", [1, 8, 1024, 65536])
    def test_get_is_request_plus_response(self, nbytes):
        r = measure_blocking(_world(), "get", nbytes, iters=16)
        assert r.result == pytest.approx(2 * LEG + G * nbytes, rel=1e-12)

    def test_put_subtracts_quiet_calibration(self):
        # (put; quiet) costs leg + G*n + q0; the 1-byte calibration costs
        # leg + G + q0; the reported put time is their difference
        n = 4096
        r = measure_blocking(_world(), "put", n, iters=16)
        assert r.result == pytest.approx(G * (n - 1), rel=1e-9)
        assert r.components["quiet"] == pytest.approx(LEG + G + Q0, rel=1e-12)
        assert not r.flags

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            measure_blocking(_world(), "swap", 8)


class TestTimerStrategies:
    def test_per_iteration_pays_two_overheads(self):
        oh, iters, n = 5e-8, 64, 1024
        w = _world(overhead=oh)
        g = measure_blocking(w, "get", n, iters, TimingStrategy.GLOBAL_LOOP)
        p = measure_blocking(w, "get", n, iters, TimingStrategy.PER_ITERATION)
        # the global pair amortizes its two reads over the loop
        expected = 2 * oh * (1 - 1.0 / iters)
        assert p.result - g.result == pytest.approx(expected, rel=1e-9)

    def test_overhead_gap_vanishes_for_large_payloads(self):
        oh, n = 5e-8, 1 << 20
        w = _world(overhead=oh)
        g = measure_blocking(w, "get", n, 8, TimingStrategy.GLOBAL_LOOP)
        p = measure_blocking(w, "get", n, 8, TimingStrategy.PER_ITERATION)
        assert (p.result - g.result) / p.result < 1e-3


class TestNonBlocking:
    @pytest.mark.parametrize("nbytes", [1, 1024, 1 << 20])
    def test_post_cost_is_send_overhead_only(self, nbytes):
        r = measure_nonblocking(_world(), "put", "post", nbytes, iters=16)
        assert r.result == pytest.approx(O_S, rel=1e-12)

    def test_quiet_variant_is_full_minus_post(self):
        r = measure_nonblocking(_world(), "put", "quiet", 4096, iters=16)
        assert r.result == pytest.approx(
            r.components["full"] - r.components["post"], rel=1e-12)
        assert r.result > 0

    def test_full_put_nbi_quiet_cycle(self):
        n = 4096
        r = measure_nonblocking(_world(), "put", "full", n, iters=16)
        assert r.result == pytest.approx(O_S + L_WIRE + G * n + O_R + Q0, rel=1e-12)

    def test_bad_variant_rejected(self):
        with pytest.raises(ValueError):
            measure_nonblocking(_world(), "put", "overlapped", 8)


class TestOverlap:
    @pytest.mark.parametrize("kind", ["put", "get"])
    def test_background_active_time_constant_in_size(self, kind):
        w = _world()
        actives = []
        for n in (8, 65536, 1 << 20):
            r = measure_nonblocking(w, kind, "overlap", n, iters=8)
            actives.append(r.result)
        lo, hi = min(actives), max(actives)
        assert (hi - lo) / hi < 0.10

    def test_background_active_far_below_full_for_large_payloads(self):
        n = 1 << 20
        w = _world()
        full = measure_nonblocking(w, "put", "full", n, iters=8)
        over = measure_nonblocking(w, "put", "overlap", n, iters=8)
        assert over.result < 0.05 * full.result

    def test_one_pilot_run(self, monkeypatch):
        # the overlap loop and its pilot full loop: one world run each
        runs = []
        run = PgasWorld.run

        def counting_run(world, programs):
            runs.append(world)
            return run(world, programs)

        monkeypatch.setattr(PgasWorld, "run", counting_run)
        measure_nonblocking(_world(), "put", "overlap", 1024, iters=8)
        assert len(runs) == 2

    @pytest.mark.parametrize("kind", ["put", "get"])
    def test_pilot_is_the_full_measurement_on_a_jittered_wire(self, kind):
        # every run of one template replays the same jitter stream, so a
        # repeated pilot would only repeat this value
        net = NetworkModel(o_s=O_S, o_r=O_R, L=L_WIRE, G=G,
                           jitter_half_width=2e-7)
        w = PgasWorld(2, net, ClockModel(2, jitter_seed=7))
        over = measure_nonblocking(w, kind, "overlap", 4096, iters=8)
        full = measure_nonblocking(w, kind, "full", 4096, iters=8)
        assert over.components["full"] == full.result
        assert over.flags == []

    def test_on_quiet_cannot_overlap(self):
        # deferred transfers launch inside quiet, after the busy wait, so
        # the active time stays equal to the full time
        n = 1 << 20
        w = _world(progress=ProgressMode.ON_QUIET)
        full = measure_nonblocking(w, "put", "full", n, iters=8)
        over = measure_nonblocking(w, "put", "overlap", n, iters=8)
        assert over.result == pytest.approx(full.result, rel=0.05)


class TestQuietAndCalibration:
    def test_quiet_measurement(self):
        r = measure_quiet(_world(), iters=16)
        assert r.result == pytest.approx(LEG + G + Q0, rel=1e-12)
