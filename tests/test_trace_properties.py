"""Trace invariants over random P2P, broadcast and lock measurements.

Every world a measurement runs is captured, and its ground-truth trace must
keep simulated time monotone and deliver each posted op exactly once.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from shmembench import (ClockModel, LockScenario, NetworkModel, PgasWorld,
                        ProgressMode, PutReturnPolicy, measure_bcast_barrier,
                        measure_bcast_naive, measure_bcast_rounds,
                        measure_bcast_sk, measure_bcast_sync,
                        measure_blocking, measure_lock, measure_nonblocking,
                        measure_quiet)
from shmembench.trace import POST, REMOTE_DELIVERED

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


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(MEASUREMENTS)),
       npes=st.integers(2, 6),
       nbytes=st.integers(0, 4096),
       seed=st.integers(0, 2**32 - 1),
       jitter=st.sampled_from([0.0, 3e-7]),
       progress=st.sampled_from(list(ProgressMode)),
       put_return=st.sampled_from(list(PutReturnPolicy)))
def test_trace_time_monotone_and_each_post_delivered_once(
        kind, npes, nbytes, seed, jitter, progress, put_return):
    net = NetworkModel(o_s=1e-7, o_r=1e-7, L=1e-6, g=1e-7, G=1e-9,
                       jitter_half_width=jitter, progress_mode=progress,
                       put_return_policy=put_return)
    world = PgasWorld(npes, net, ClockModel.ideal(npes, jitter_seed=seed))
    with pytest.MonkeyPatch.context() as mp:
        worlds = _captured_runs(mp)
        MEASUREMENTS[kind](world, nbytes)
    assert worlds
    for w in worlds:
        times = [e.t_global for e in w.trace.entries]
        assert times == sorted(times)
        delivered = Counter(e.op_id for e in w.trace.entries
                            if e.kind == REMOTE_DELIVERED)
        posted = [e.op_id for e in w.trace.entries if e.kind == POST]
        assert len(posted) == len(set(posted))
        for op_id in posted:
            assert delivered[op_id] == 1, op_id
