"""The contract every measurement function shares: argument checks before
any simulation, one `Measurement` record, and one place that copies a
template world."""

import ast
from pathlib import Path

import pytest

import shmembench
from shmembench import (LockScenario, NetworkModel, PgasWorld,
                        estimate_offsets, measure_barrier_time,
                        measure_bcast_barrier, measure_bcast_naive,
                        measure_bcast_rounds, measure_bcast_sync,
                        measure_blocking, measure_lock, measure_nonblocking,
                        measure_quiet)

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


def _template_that_never_copies(monkeypatch):
    def no_world(self, jitter_seed=None):
        raise AssertionError("a world was built before the argument check")

    world = PgasWorld(2, NetworkModel(o_s=1e-7, o_r=1e-7, L=1e-6))
    monkeypatch.setattr(PgasWorld, "fresh", no_world)
    return world


@pytest.mark.parametrize("iters", [0, -1])
@pytest.mark.parametrize("name", sorted(WITH_ITERS))
def test_iters_below_one_rejected_before_any_world(monkeypatch, name, iters):
    world = _template_that_never_copies(monkeypatch)
    with pytest.raises(ValueError, match=r"^iters must be >= 1$"):
        WITH_ITERS[name](world, iters)


@pytest.mark.parametrize("reps", [0, -1])
@pytest.mark.parametrize("name", sorted(WITH_PROBE_REPS))
def test_probe_reps_below_one_rejected_before_any_world(monkeypatch, name,
                                                        reps):
    world = _template_that_never_copies(monkeypatch)
    argument, call = WITH_PROBE_REPS[name]
    with pytest.raises(ValueError, match=rf"^{argument} must be >= 1$"):
        call(world, reps)


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


def test_only_run_fresh_copies_a_template_world():
    callers = []
    for name, tree in _modules():
        visitor = _FreshCallers()
        visitor.visit(tree)
        callers += [(name, caller) for caller in visitor.callers]
    assert callers == [("pgas.py", "run_fresh")]


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
