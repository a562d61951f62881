import math

import pytest
from hypothesis import given, strategies as st

from shmembench import ClockModel, NetworkModel, PgasWorld


def test_transfer_duration_zero_cost():
    m = NetworkModel()
    assert m.transfer_duration(8) == 0.0


def test_transfer_duration_hand_sum():
    # o_s + L + G*n + o_r = 1e-7 + 1e-6 + 1e-9*1000 + 1e-7
    m = NetworkModel(o_s=1e-7, o_r=1e-7, L=1e-6, G=1e-9)
    assert m.transfer_duration(1000) == pytest.approx(2.2e-6, rel=1e-12)


def test_transfer_duration_zero_payload():
    m = NetworkModel(o_s=3e-7, o_r=2e-7, L=5e-6, G=1e-9)
    assert m.transfer_duration(0) == pytest.approx(3e-7 + 5e-6 + 2e-7)


def test_transfer_duration_rejects_negative_nbytes():
    with pytest.raises(ValueError):
        NetworkModel().transfer_duration(-1)


def test_model_rejects_negative_durations():
    with pytest.raises(ValueError):
        NetworkModel(L=-1e-9)
    with pytest.raises(ValueError):
        NetworkModel(G=-1.0)


@given(a=st.integers(min_value=0, max_value=1 << 24),
       b=st.integers(min_value=0, max_value=1 << 24))
def test_transfer_duration_monotone_in_nbytes(a, b):
    m = NetworkModel(o_s=1e-7, o_r=2e-7, L=1e-6, G=3e-10)
    lo, hi = min(a, b), max(a, b)
    assert m.transfer_duration(lo) <= m.transfer_duration(hi)


def test_q0_defaults_to_twice_send_overhead():
    assert NetworkModel(o_s=1e-7).q0 == pytest.approx(2e-7)
    assert NetworkModel(o_s=1e-7, quiet_base=5e-8).q0 == 5e-8


class TestClockModel:
    def test_identity_clock(self):
        c = ClockModel.ideal(2)
        assert c.local_time(0, 5.0) == 5.0

    def test_drift_affine_map(self):
        c = ClockModel(npes=2, drift_rate=[0.0, 1e-6])
        assert c.local_time(1, 1.0) == pytest.approx(1.000001, rel=1e-12)

    def test_offset_only(self):
        c = ClockModel(npes=3, initial_offset=[0.0, 0.0, 3e-4])
        assert c.local_time(2, 0.0) == pytest.approx(3e-4)

    def test_unknown_pe_rejected(self):
        c = ClockModel.ideal(2)
        with pytest.raises(ValueError):
            c.local_time(2, 0.0)

    def test_global_time_inverts_local_time(self):
        c = ClockModel(npes=2, drift_rate=[0.0, 2e-5],
                       initial_offset=[0.0, -1e-3])
        for t in (0.0, 1.0, 123.456):
            assert c.global_time(1, c.local_time(1, t)) == pytest.approx(t, abs=1e-12)

    def test_rejects_divergent_drift(self):
        with pytest.raises(ValueError):
            ClockModel(npes=1, drift_rate=[-1.0])

    @given(t1=st.floats(min_value=0, max_value=1e6),
           dt=st.floats(min_value=1e-9, max_value=1e3))
    def test_local_time_monotone(self, t1, dt):
        c = ClockModel(npes=1, drift_rate=[-0.5], initial_offset=[7.0])
        assert c.local_time(0, t1 + dt) > c.local_time(0, t1)


class TestReadTimer:
    def _times(self, overhead):
        world = PgasWorld(1, NetworkModel(),
                          ClockModel(npes=1, timer_overhead=overhead))
        out = {}

        def prog(pe):
            out["a"] = yield from pe.stamp_begin()
            out["b"] = yield from pe.stamp_begin()

        world.run([prog])
        return out["a"], out["b"]

    def test_zero_overhead_reads_equal(self):
        a, b = self._times(0.0)
        assert a == b

    def test_back_to_back_reads_differ_by_overhead(self):
        a, b = self._times(1e-7)
        assert b - a == pytest.approx(1e-7, rel=1e-12)

    def test_per_iteration_reads_accumulate_overhead(self):
        # N iterations with 2 reads each cost >= 2N*overhead more wall time
        # than a loop timed with 2 reads total.
        oh = 1e-7
        n = 10

        def end_time(nreads):
            world = PgasWorld(1, NetworkModel(),
                              ClockModel(npes=1, timer_overhead=oh))

            def prog(pe):
                for _ in range(nreads):
                    yield from pe.stamp_begin()

            world.run([prog])
            return world.now

        assert end_time(2 * n) - end_time(2) >= 2 * n * oh - 2 * oh - 1e-15
