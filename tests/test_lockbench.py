"""Lock benchmark scenarios against hand-derived round-trip costs."""

import pytest

from shmembench import LockScenario, NetworkModel, PgasWorld, measure_lock

O_S, O_R, L_WIRE = 1e-7, 1e-7, 1e-6
LEG = O_S + L_WIRE + O_R
RT = 2 * LEG  # request leg to the lock's home PE plus the reply leg


def _world(npes=4):
    net = NetworkModel(o_s=O_S, o_r=O_R, L=L_WIRE, G=1e-9)
    return PgasWorld(npes, net)


class TestUncontended:
    def test_set_clear_pair_is_two_round_trips(self):
        r = measure_lock(_world(), LockScenario("uncontended_set_clear"))
        assert r.result == pytest.approx(2 * RT, rel=1e-12)

    def test_home_resident_requester_pays_the_same(self):
        # lock traffic goes through the NIC even when the requester owns
        # the home cell
        sc = LockScenario("uncontended_set_clear", home_pe=0, requester_pe=0)
        r = measure_lock(_world(), sc)
        assert r.result == pytest.approx(2 * RT, rel=1e-12)


class TestContended:
    def test_acquisition_slower_than_uncontended(self):
        r = measure_lock(_world(), LockScenario("contended_set"), iters=16)
        assert r.result > RT

    def test_single_contender_pair(self):
        sc = LockScenario("contended_set", requester_pe=1, holders=[2])
        r = measure_lock(_world(), sc, iters=16)
        assert r.result > RT


class TestTest:
    def test_held_lock_reports_false_at_round_trip_cost(self):
        sc = LockScenario("test_held", holders=[2])
        r = measure_lock(_world(), sc, iters=8)
        assert r.components["acquired"] == 0
        assert r.result == pytest.approx(RT, rel=1e-12)

    def test_free_lock_reports_true_at_round_trip_cost(self):
        r = measure_lock(_world(), LockScenario("test_free"), iters=8)
        assert r.components["acquired"] == 8
        assert r.result == pytest.approx(RT, rel=1e-12)


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError):
        measure_lock(_world(), LockScenario("spin"))
