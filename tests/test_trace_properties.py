"""Trace invariants over random P2P, broadcast and lock measurements.

Every world a measurement runs is captured, and its ground-truth trace must
keep simulated time monotone, deliver each posted op exactly once, and
nest each PE's broadcast and barrier instances in call order; every
collective message must be claimed, so each run ends with every mailbox
empty, and every `wait_until` woken, so no PE is left with a cell wait.
Each example either lends every non-empty payload or copies every one, and
runs either barrier algorithm at any P from 2 to 9, so dissemination
rounds at a P that is not a power of two are drawn too.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from shmembench import (BARRIER_DISSEMINATION, BARRIER_REDUCE_BCAST,
                        ClockModel, LockScenario, NetworkModel, PgasWorld,
                        ProgressMode, PutReturnPolicy, measure_bcast_barrier,
                        measure_bcast_naive, measure_bcast_rounds,
                        measure_bcast_sk, measure_bcast_sync,
                        measure_blocking, measure_lock, measure_nonblocking,
                        measure_quiet)
from shmembench import pgas
from shmembench.trace import (BARRIER_ENTER, BARRIER_EXIT, BCAST_ENTER,
                              BCAST_EXIT, POST, REMOTE_DELIVERED)

from helpers import LEND_NONE

ITERS = 3

MEASUREMENTS = {
    "get": lambda w, n: measure_blocking(w, "get", n, ITERS),
    "put": lambda w, n: measure_blocking(w, "put", n, ITERS),
    "quiet": lambda w, n: measure_quiet(w, ITERS),
    **{f"nbi_{kind}_{variant}":
       (lambda w, n, k=kind, v=variant:
        measure_nonblocking(w, k, v, n, ITERS))
       for kind in ("put", "get")
       for variant in ("full", "post", "quiet", "overlap")},
    "bcast_naive": lambda w, n: measure_bcast_naive(w, n, ITERS),
    "bcast_barrier": lambda w, n: measure_bcast_barrier(w, n, ITERS),
    "bcast_sync": lambda w, n: measure_bcast_sync(w, n, ITERS, probe_reps=2),
    "bcast_rounds": lambda w, n: measure_bcast_rounds(w, n, probe_reps=2),
    "bcast_sk": lambda w, n: measure_bcast_sk(w, n, M=2),
    **{f"lock_{mode}":
       (lambda w, n, m=mode: measure_lock(w, LockScenario(
           m, holders=[0] if m == "test_held" else []), ITERS))
       for mode in ("uncontended_set_clear", "contended_set",
                    "test_held", "test_free")},
}


def _captured_runs(monkeypatch_ctx):
    worlds = []
    run = PgasWorld.run

    def capture(self, programs):
        worlds.append(self)
        return run(self, programs)

    monkeypatch_ctx.setattr(PgasWorld, "run", capture)
    return worlds


MEASURED_WORLDS = dict(
    kind=st.sampled_from(sorted(MEASUREMENTS)),
    npes=st.integers(2, 9),
    barrier_algo=st.sampled_from([BARRIER_DISSEMINATION,
                                  BARRIER_REDUCE_BCAST]),
    nbytes=st.integers(0, 4096),
    seed=st.integers(0, 2**32 - 1),
    jitter=st.sampled_from([0.0, 3e-7]),
    progress=st.sampled_from(list(ProgressMode)),
    put_return=st.sampled_from(list(PutReturnPolicy)),
    lend_min=st.sampled_from([1, LEND_NONE]))


def _measured_worlds(kind, npes, barrier_algo, nbytes, seed, jitter,
                     progress, put_return, lend_min):
    """Every world one measurement of `kind` runs, with `LEND_MIN` set to
    `lend_min`."""
    net = NetworkModel(o_s=1e-7, o_r=1e-7, L=1e-6, g=1e-7, G=1e-9,
                       jitter_half_width=jitter, progress_mode=progress,
                       put_return_policy=put_return)
    world = PgasWorld(npes, net, ClockModel.ideal(npes, jitter_seed=seed),
                      barrier_algo=barrier_algo)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pgas, "LEND_MIN", lend_min)
        worlds = _captured_runs(mp)
        MEASUREMENTS[kind](world, nbytes)
    assert worlds
    return worlds


@settings(max_examples=60, deadline=None)
@given(**MEASURED_WORLDS)
def test_trace_time_monotone_and_each_post_delivered_once(**params):
    for w in _measured_worlds(**params):
        times = [e.t_global for e in w.trace.entries]
        assert times == sorted(times)
        delivered = Counter(e.op_id for e in w.trace.entries
                            if e.kind == REMOTE_DELIVERED)
        posted = [e.op_id for e in w.trace.entries if e.kind == POST]
        assert len(posted) == len(set(posted))
        for op_id in posted:
            assert delivered[op_id] == 1, op_id


_COLLECTIVE = {BCAST_ENTER: ("bcast", "enter"), BCAST_EXIT: ("bcast", "exit"),
               BARRIER_ENTER: ("barrier", "enter"),
               BARRIER_EXIT: ("barrier", "exit")}


@settings(max_examples=60, deadline=None)
@given(**MEASURED_WORLDS)
def test_collective_instances_nest(**params):
    """On each PE, collective instance k is entered, then exited, and only
    then is instance k + 1 entered; no instance is left open."""
    for w in _measured_worlds(**params):
        steps = {pe: [] for pe in range(w.npes)}
        for e in w.trace.entries:
            if e.kind in _COLLECTIVE:
                kind, step = _COLLECTIVE[e.kind]
                assert e.op_id.startswith(kind)
                steps[e.pe].append((int(e.op_id[len(kind):]), kind, step,
                                    e.t_global))
        for seq in steps.values():
            assert len(seq) % 2 == 0
            for k, (instance, kind, step, _) in enumerate(seq):
                assert (instance, step) == (k // 2, ("enter", "exit")[k % 2])
                assert kind == seq[k - k % 2][1]
            times = [t for *_, t in seq]
            assert times == sorted(times)


@settings(max_examples=60, deadline=None)
@given(**MEASURED_WORLDS)
def test_every_run_leaves_every_mailbox_empty(**params):
    for w in _measured_worlds(**params):
        assert w._mail == [{} for _ in range(w.npes)]
        assert w._cell_wait == [None] * w.npes
