"""In-memory span tracing around shmembench's public callables.

`Tracer.install()` wraps the package's public entry points in place, so
every call records one span (name, start, end, parent, info).  Functions
are re-bound under every name that refers to them in any `shmembench`
module: `harness.runner` imports `measure_*` by name, and patching only the
defining module would miss those calls.  `PgasWorld` and `GroundTruthTrace`
methods are wrapped on the class, which covers every binding of the class.
`uninstall()` restores the originals.

A span's layer is its name up to the first dot.  Span times are process
CPU time, like the benchmark's chunk times.  Self time is a span's duration
minus the time covered by its direct children.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import sys
import time
from dataclasses import dataclass

MEASUREMENT_LAYERS = ("p2pbench", "collbench", "lockbench", "syncschemes")
HARNESS_CALLABLES = (("config", "parse_config"), ("runner", "run_config"),
                     ("runner", "emit_results"),
                     ("runner", "ground_truth_report"))
TRACE_QUERIES = ("op_elapsed", "bcast_span", "barrier_span", "quiet_elapsed",
                 "events_of_kind", "export_text")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into Tracer.spans, -1 for a root span
    info: dict | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class NullTracer:
    """Tracing off: `span` costs one call and records nothing."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def install(self) -> None:
        pass

    def uninstall(self) -> None:
        pass


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, start: float, info) -> None:
        end = time.process_time()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = Span(name, start, end, parent, info)

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open()
        start = time.process_time()
        try:
            yield
        finally:
            self._close(idx, name, start, None)

    def _wrap(self, name: str, fn, describe=None):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open()
            start = time.process_time()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                info = describe(args, result, exc) if describe else None
                tracer._close(idx, name, start, info)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- installing wrappers ---------------------------------------------------

    def _rebind_everywhere(self, name: str, fn, describe=None) -> None:
        wrapper = self._wrap(name, fn, describe)
        for modname, module in list(sys.modules.items()):
            if module is None or not modname.startswith("shmembench"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, fn))

    def _wrap_method(self, cls, attr: str, name: str, describe=None) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrap(name, original, describe))
        self._patches.append((cls, attr, original))

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        from shmembench import (collbench, lockbench, p2pbench, pgas,
                                syncschemes, trace)
        from shmembench.harness import config, runner

        modules = {"collbench": collbench, "lockbench": lockbench,
                   "p2pbench": p2pbench, "syncschemes": syncschemes,
                   "config": config, "runner": runner}
        for layer in MEASUREMENT_LAYERS:
            module = modules[layer]
            for attr, fn in list(vars(module).items()):
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == module.__name__
                        and not inspect.isgeneratorfunction(fn)):
                    describe = (_describe_sync if attr == "measure_bcast_sync"
                                else None)
                    self._rebind_everywhere(f"{layer}.{attr}", fn, describe)
        for modkey, attr in HARNESS_CALLABLES:
            describe = _describe_rows if attr == "run_config" else None
            self._rebind_everywhere(f"harness.{attr}",
                                    getattr(modules[modkey], attr), describe)
        deadlock = pgas.DeadlockError
        self._wrap_method(pgas.PgasWorld, "__init__", "pgas.world_init")
        self._wrap_method(pgas.PgasWorld, "run", "pgas.run",
                          lambda args, result, exc: {
                              "entries": len(args[0].trace.entries),
                              "sim_s": args[0].now,
                              "deadlock": isinstance(exc, deadlock)})
        for attr in TRACE_QUERIES:
            self._wrap_method(trace.GroundTruthTrace, attr, f"trace.{attr}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- export ------------------------------------------------------------

    def dump(self, path) -> None:
        """Write one JSON object per span; times are CPU seconds from the first."""
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "start": s.start - origin,
                    "end": s.end - origin, "parent": s.parent,
                    "info": s.info}) + "\n")


def _describe_sync(args, result, exc):
    if result is None:
        return None
    return {"discarded": result.discarded, "windows": result.iterations}


def _describe_rows(args, result, exc):
    if result is None:
        return None
    return {"rows": len(result), "samples": sum(r.samples for r in result)}


# -- per-layer metrics ---------------------------------------------------------

def coverage(spans: list[Span]) -> list[float]:
    """Share of each `bench.unit` span's time covered by its child spans."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.duration
    return [covered[i] / s.duration if s.duration > 0 else 1.0
            for i, s in enumerate(spans) if s.name == "bench.unit"]


def layer_metrics(spans: list[Span], rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one traced phase of `rounds` whole rounds.

    Counts and times are per round, taken over spans inside `bench.round`
    spans; `harness.parse_s` is the mean duration of one config parse,
    wherever it ran.
    """
    n = len(spans)
    child_time = [0.0] * n
    in_round = [False] * n
    for i, s in enumerate(spans):
        if s.parent >= 0:
            child_time[s.parent] += s.duration
            in_round[i] = in_round[s.parent]
        else:
            in_round[i] = s.name == "bench.round"
    self_time = [s.duration - child_time[i] for i, s in enumerate(spans)]

    def ancestors(i):
        p = spans[i].parent
        while p >= 0:
            yield p
            p = spans[p].parent

    per_round = 1.0 / rounds
    layer_self: dict[str, float] = {}
    entries: dict[str, int] = {}
    worlds_under: dict[str, int] = {}
    worlds = deadlocks = runs = entries_total = entries_max = 0
    init_s = free_s = run_s = sim_s = query_s = 0.0
    rows = samples = 0
    discarded = windows = 0
    parse = [s.duration for s in spans if s.name == "harness.parse_config"]
    for i, s in enumerate(spans):
        if not in_round[i]:
            continue
        layer = s.layer
        layer_self[layer] = layer_self.get(layer, 0.0) + self_time[i]
        if s.parent < 0 or spans[s.parent].layer != layer:
            entries[layer] = entries.get(layer, 0) + 1
        info = s.info or {}
        if s.name == "pgas.world_init":
            worlds += 1
            init_s += s.duration
            for layer_above in {spans[a].layer for a in ancestors(i)}:
                worlds_under[layer_above] = worlds_under.get(layer_above, 0) + 1
        elif s.name == "pgas.run":
            runs += 1
            run_s += s.duration
            sim_s += info.get("sim_s", 0.0)
            entries_total += info.get("entries", 0)
            entries_max = max(entries_max, info.get("entries", 0))
            deadlocks += bool(info.get("deadlock"))
        elif s.name == "pgas.world_free":
            free_s += s.duration
        elif layer == "trace":
            query_s += s.duration
        elif s.name == "harness.run_config":
            rows += info.get("rows", 0)
            samples += info.get("samples", 0)
        elif s.name == "collbench.measure_bcast_sync":
            discarded += info.get("discarded", 0)
            windows += info.get("windows", 0)

    m: dict[str, tuple[float, str]] = {
        "harness.parse_s": (sum(parse) / len(parse) if parse else 0.0, "s"),
        "harness.self_s": (layer_self.get("harness", 0.0) * per_round, "s"),
        "harness.reps_per_row": (samples / rows if rows else 0.0, "count"),
        "harness.worlds_per_row": (worlds_under.get("harness", 0) / rows
                                   if rows else 0.0, "count"),
    }
    for layer in MEASUREMENT_LAYERS:
        calls = entries.get(layer, 0)
        m[f"{layer}.calls"] = (calls * per_round, "count")
        m[f"{layer}.self_s"] = (layer_self.get(layer, 0.0) * per_round, "s")
        m[f"{layer}.worlds_per_call"] = (worlds_under.get(layer, 0) / calls
                                         if calls else 0.0, "count")
    m["collbench.windows_discarded_ratio"] = (
        discarded / windows if windows else 0.0, "ratio")
    m.update({
        "pgas.worlds": (worlds * per_round, "count"),
        "pgas.world_init_s": (init_s * per_round, "s"),
        "pgas.world_free_s": (free_s * per_round, "s"),
        "pgas.runs": (runs * per_round, "count"),
        "pgas.run_s": (run_s * per_round, "s"),
        "pgas.host_us_per_entry": (run_s / entries_total * 1e6
                                   if entries_total else 0.0, "us"),
        "pgas.sim_s": (sim_s * per_round, "s"),
        "pgas.deadlocks": (deadlocks * per_round, "count"),
        "trace.entries": (entries_total * per_round, "count"),
        "trace.entries_max": (float(entries_max), "count"),
        "trace.query_s": (query_s * per_round, "s"),
    })
    return m
