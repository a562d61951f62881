"""Shared trace-property checkers and run comparisons used by several test
modules."""

from shmembench import DeadlockError, pgas
from shmembench.trace import LOCK_ACQUIRED, LOCK_RELEASED

LEND_NONE = 1 << 62  # a `LEND_MIN` above every payload: none is lent


def assert_sk_protocol(world, npes, M):
    """Acknowledgment values never exceed 1 and broadcasts never interleave
    between the root and the task it is currently measuring."""
    tr = world.trace
    assert tr.ack_values, "no acknowledgments traced"
    for _, _, value in tr.ack_values:
        assert value == 1
    insts = sorted(tr.bcast_instances)
    assert len(insts) == (npes - 1) * (M + 1)
    for block, task in enumerate(range(1, npes)):
        ids = insts[block * (M + 1):(block + 1) * (M + 1)]  # warm-up + M
        for prev_id, cur_id in zip(ids, ids[1:]):
            prev = tr.bcast_instances[prev_id]
            cur = tr.bcast_instances[cur_id]
            assert cur["enter"][0] >= prev["exit"][task]


def assert_lock_alternation(trace, expected_acquisitions):
    """The lock's event stream is ACQUIRED/RELEASED pairs by the same PE,
    and each PE acquired exactly its expected number of times."""
    events = [e for e in trace.entries
              if e.kind in (LOCK_ACQUIRED, LOCK_RELEASED)]
    assert len(events) == 2 * sum(expected_acquisitions.values())
    counts = dict.fromkeys(expected_acquisitions, 0)
    for acq, rel in zip(events[0::2], events[1::2]):
        assert acq.kind == LOCK_ACQUIRED
        assert rel.kind == LOCK_RELEASED
        assert acq.pe == rel.pe
        counts[acq.pe] += 1
    assert counts == expected_acquisitions


def run_outcome(world, programs):
    """Everything a run shows: its trace text, each program's return value,
    the end time, the deadlock message if any, and every heap it
    allocated."""
    try:
        world.run(programs)
        end = None
    except DeadlockError as e:
        end = str(e)
    return (world.trace.export_text(), world.returned, world.now, end,
            dict(world.heap))


def lent_and_copied(build, monkeypatch):
    """`run_outcome(*build()[:2])` with every non-empty payload lent, then
    with every payload copied; checks that the first run lent each payload
    that the second copied."""
    take, lent = pgas.PgasWorld._take, []

    def spy(self, pe, offset, nbytes):
        data = take(self, pe, offset, nbytes)
        if nbytes:
            lent.append(type(data) is pgas._Loan)
        return data

    monkeypatch.setattr(pgas.PgasWorld, "_take", spy)
    outcomes, taken = [], []
    for lend_min in (1, LEND_NONE):
        monkeypatch.setattr(pgas, "LEND_MIN", lend_min)
        outcomes.append(run_outcome(*build()[:2]))
        taken.append(lent[:])
        lent.clear()
    assert taken[0] == [True] * len(taken[1]) and not any(taken[1])
    return outcomes
