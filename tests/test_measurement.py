"""The contract every measurement function shares: argument checks before
any run, one `Measurement` record, no copy of the world it is given, one
timed loop and one clamp."""

import ast
from pathlib import Path

import pytest

import shmembench
from shmembench import (ClockModel, LockScenario, Measurement, NetworkModel,
                        PgasWorld, ProgressMode, PutReturnPolicy,
                        TimingStrategy, estimate_offsets,
                        measure_barrier_time, measure_bcast_barrier,
                        measure_bcast_naive, measure_bcast_rounds,
                        measure_bcast_sk, measure_bcast_sync,
                        measure_blocking, measure_lock,
                        measure_nonblocking, measure_quiet, timed_loop)
from shmembench.pgas import BARRIER_REDUCE_BCAST, BCAST_LINEAR

SRC = Path(shmembench.__file__).parent
MEASUREMENT_MODULES = ("p2pbench", "collbench", "lockbench", "syncschemes")
# dataclasses a measurement module may define: its inputs and protocol
# state; results are `Measurement`s
INPUT_DATACLASSES = {"LockScenario", "SyncState"}

WITH_ITERS = {
    "measure_blocking": lambda w, n: measure_blocking(w, "get", 8, n),
    "measure_quiet": lambda w, n: measure_quiet(w, n),
    "measure_nonblocking": lambda w, n: measure_nonblocking(
        w, "put", "overlap", 8, n),
    "measure_bcast_naive": lambda w, n: measure_bcast_naive(w, 8, n),
    "measure_bcast_barrier": lambda w, n: measure_bcast_barrier(w, 8, n),
    "measure_bcast_sync": lambda w, n: measure_bcast_sync(w, 8, n),
    "measure_lock": lambda w, n: measure_lock(
        w, LockScenario("uncontended_set_clear"), n),
    "measure_barrier_time": lambda w, n: measure_barrier_time(w, n),
}


# offset-probe counts: (argument name, call)
WITH_PROBE_REPS = {
    "estimate_offsets": ("reps", lambda w, n: estimate_offsets(w, reps=n)),
    "measure_bcast_sync": ("probe_reps", lambda w, n: measure_bcast_sync(
        w, 8, 4, probe_reps=n)),
    "measure_bcast_rounds": ("probe_reps", lambda w, n: measure_bcast_rounds(
        w, 8, probe_reps=n)),
}


# lock scenarios that a 2-PE world cannot run: (scenario, error)
BAD_LOCK_SCENARIOS = {
    "requester_not_a_pe": (LockScenario("test_free", requester_pe=5),
                           "requester_pe = 5 is not a PE of npes = 2"),
    "negative_requester": (LockScenario("uncontended_set_clear",
                                        requester_pe=-1),
                           "requester_pe = -1 is not a PE of npes = 2"),
    "home_not_a_pe": (LockScenario("contended_set", home_pe=2),
                      "home_pe = 2 is not a PE of npes = 2"),
    "holder_not_a_pe": (LockScenario("contended_set", holders=[0, 3]),
                        "holders = 3 is not a PE of npes = 2"),
    "requester_holds": (LockScenario("test_held", home_pe=1),
                        "lock_test_held needs home_pe != requester_pe, "
                        "got 1 for both"),
    "requester_is_holder": (LockScenario("test_held", holders=[1]),
                            "lock_test_held needs holders[0] != "
                            "requester_pe, got 1 for both"),
}


def _world_that_never_runs(monkeypatch):
    def no_run(self, programs):
        raise AssertionError("a world ran before the argument check")

    world = PgasWorld(2, NetworkModel(o_s=1e-7, o_r=1e-7, L=1e-6))
    monkeypatch.setattr(PgasWorld, "run", no_run)
    return world


@pytest.mark.parametrize("iters", [0, -1])
@pytest.mark.parametrize("name", sorted(WITH_ITERS))
def test_iters_below_one_rejected_before_any_world(monkeypatch, name, iters):
    world = _world_that_never_runs(monkeypatch)
    with pytest.raises(ValueError, match=r"^iters must be >= 1$"):
        WITH_ITERS[name](world, iters)


@pytest.mark.parametrize("reps", [0, -1])
@pytest.mark.parametrize("name", sorted(WITH_PROBE_REPS))
def test_probe_reps_below_one_rejected_before_any_world(monkeypatch, name,
                                                        reps):
    world = _world_that_never_runs(monkeypatch)
    argument, call = WITH_PROBE_REPS[name]
    with pytest.raises(ValueError, match=rf"^{argument} must be >= 1$"):
        call(world, reps)


@pytest.mark.parametrize("M", [0, -1])
def test_bcast_sk_M_below_one_rejected_before_any_run(monkeypatch, M):
    world = _world_that_never_runs(monkeypatch)
    with pytest.raises(ValueError, match=r"^M must be >= 1$"):
        measure_bcast_sk(world, 8, M=M)


@pytest.mark.parametrize("case", sorted(BAD_LOCK_SCENARIOS))
def test_bad_lock_scenario_rejected_before_any_run(monkeypatch, case):
    world = _world_that_never_runs(monkeypatch)
    scenario, error = BAD_LOCK_SCENARIOS[case]
    assert scenario.check(world.npes) == error
    with pytest.raises(ValueError) as raised:
        measure_lock(world, scenario, 4)
    assert str(raised.value) == error


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


class _FreshCallers(ast.NodeVisitor):
    def __init__(self):
        self.scope, self.callers = ["<module>"], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Call(self, node):
        if isinstance(node.func, ast.Attribute) and node.func.attr == "fresh":
            self.callers.append(self.scope[-1])
        self.generic_visit(node)


def test_no_src_function_copies_a_world():
    """Measurement functions run the world they are given; `fresh` is left
    to callers that want a copy."""
    callers = []
    for name, tree in _modules():
        visitor = _FreshCallers()
        visitor.visit(tree)
        callers += [(name, caller) for caller in visitor.callers]
    assert callers == []


def _is_dataclass(node):
    return any(ast.unparse(d).split("(")[0] in ("dataclass",
                                                "dataclasses.dataclass")
               for d in node.decorator_list)


@pytest.mark.parametrize("module", MEASUREMENT_MODULES)
def test_measurement_modules_return_one_record(module):
    tree = dict(_modules())[f"{module}.py"]
    dataclasses = {node.name for node in tree.body
                   if isinstance(node, ast.ClassDef) and _is_dataclass(node)}
    assert dataclasses <= INPUT_DATACLASSES
    measures = [node for node in tree.body
                if isinstance(node, ast.FunctionDef)
                and node.name.startswith("measure_")]
    assert measures
    for fn in measures:
        assert fn.returns and ast.unparse(fn.returns) == "Measurement", \
            fn.name


# -- one timed loop --------------------------------------------------------

OVERHEAD = 1e-8
STEP = 1e-6


def _timed(strategy, timed=True, iters=4):
    """PE 0's timed_loop value and the time it finished, over a body that
    advances STEP per iteration, with OVERHEAD per timer read."""
    world = PgasWorld(1, NetworkModel(), ClockModel(1, timer_overhead=OVERHEAD))

    def prog(pe):
        value = yield from timed_loop(pe, lambda i: pe.advance(STEP), iters,
                                      strategy, timed)
        return value, pe.world.now

    world.run([prog])
    return world.returned[0]


def test_global_loop_amortizes_one_timer_pair():
    value, end = _timed(TimingStrategy.GLOBAL_LOOP)
    assert value == pytest.approx(STEP + 2 * OVERHEAD / 4, rel=1e-12)
    assert end == pytest.approx(4 * STEP + 2 * OVERHEAD, rel=1e-12)


def test_per_iteration_pays_a_timer_pair_each_time():
    value, end = _timed(TimingStrategy.PER_ITERATION)
    assert value == pytest.approx(STEP + 2 * OVERHEAD, rel=1e-12)
    assert end == pytest.approx(4 * (STEP + 2 * OVERHEAD), rel=1e-12)


@pytest.mark.parametrize("strategy", list(TimingStrategy))
def test_untimed_pe_reads_no_timer(strategy):
    value, end = _timed(strategy, timed=False)
    assert value is None
    assert end == pytest.approx(4 * STEP, rel=1e-12)


# -- one clamp -------------------------------------------------------------

def test_clamped_keeps_a_non_negative_difference():
    m = Measurement.clamped(2e-7, 8, components={"raw": 3e-7})
    assert (m.result, m.iterations, m.flags) == (2e-7, 8, [])
    assert m.components == {"raw": 3e-7}


@pytest.mark.parametrize("difference", [-1e-12, -5.0])
def test_clamped_reports_a_negative_difference_as_unstable_zero(difference):
    m = Measurement.clamped(difference, 8, per_task={1: difference})
    assert (m.result, m.flags) == (0.0, ["unstable"])
    assert m.per_task == {1: difference}


def _clamp_net(**kw):
    return NetworkModel(o_s=1e-7, o_r=1e-7, L=1e-6, G=1e-9, **kw)


def test_bcast_barrier_below_its_barrier_cost_is_unstable():
    world = PgasWorld(4, _clamp_net(g=0.0), bcast_topology=BCAST_LINEAR,
                      barrier_algo=BARRIER_REDUCE_BCAST)
    m = measure_bcast_barrier(world, 8, 8)
    assert m.result == 0.0
    assert m.flags == ["unstable"]


def test_blocking_put_below_its_quiet_calibration_is_unstable():
    net = _clamp_net(g=1e-7, progress_mode=ProgressMode.BACKGROUND,
                     put_return_policy=PutReturnPolicy.LOCAL_COMPLETION)
    m = measure_blocking(PgasWorld(2, net), "put", 1, 8)
    assert m.result == 0.0
    assert m.flags == ["unstable"]
    raw, quiet = m.components["raw"], m.components["quiet"]
    assert 0 < raw < quiet


# -- no hand-written loop or clamp in a measurement module -----------------

# functions that may read the timer themselves: the lock loops run an
# untimed lock_clear between timed calls, and window synchronization and
# the offset probe need the stamps themselves
OWN_STAMPS = {"_contended", "_test", "_aligned_start",
              "offset_probe_fragment", "start_synchronization",
              "stop_synchronization"}


def _reads_timer(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("stamp_begin", "stamp_end"))


def _below_zero(node):
    return (isinstance(node, ast.Compare)
            and any(isinstance(op, ast.Lt) for op in node.ops)
            and any(isinstance(c, ast.Constant) and c.value == 0
                    for c in node.comparators))


@pytest.mark.parametrize("module", MEASUREMENT_MODULES)
def test_measurement_modules_time_and_clamp_through_pgas(module):
    stamps, clamps = set(), set()
    for fn in dict(_modules())[f"{module}.py"].body:
        for node in ast.walk(fn):
            if _reads_timer(node):
                stamps.add(getattr(fn, "name", "<module>"))
            if _below_zero(node):
                clamps.add(getattr(fn, "name", "<module>"))
    assert stamps <= OWN_STAMPS
    assert not clamps
