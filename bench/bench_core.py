"""Layered host-time benchmark of shmembench: workloads, timing, report.

Each workload repeats one fixed *round* of work, split into timed chunks.
A round's simulated results are identical every time it runs, so the first
round's results give the run's `result_digest` and every later round must
reproduce them.  Host timings are process CPU time, medians over a run's
rounds.  Entry point: run.py.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench_spans import NullTracer, Tracer, coverage, layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CLI_MIXED_CONF = BENCH_DIR / "cli_mixed.conf"
SPANS_DIR = BENCH_DIR / "out"

SETUP_PROBES = 7
MIN_COVERAGE = 0.9   # a unit's child spans must cover most of its time


class SetupError(RuntimeError):
    pass


def load_package() -> None:
    """Import shmembench from this checkout's src/, never from elsewhere."""
    init = SRC / "shmembench" / "__init__.py"
    if not init.is_file():
        raise SetupError(f"shmembench sources not found: {init}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import shmembench
    if Path(shmembench.__file__).resolve() != init.resolve():
        raise SetupError(f"imported shmembench from {shmembench.__file__}, "
                         f"expected {init}")


def derived_seed(*parts) -> int:
    digest = hashlib.sha256("|".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclasses.dataclass
class Chunk:
    units: int
    failed: int
    results: bytes                 # canonical bytes of the simulated results
    errors: list[str] = dataclasses.field(default_factory=list)


# -- workloads --------------------------------------------------------------------
#
# Every workload takes the seed, builds its base state in setup() (timed as
# setup_s), and returns from round() the list of chunk callables that make up
# one round.  Its `tracer` attribute is set for each round.  Calls into
# shmembench go through module attributes, so the tracer's wrappers see them.


class CliMixed:
    """The harness path over every measurement type, one section per call."""

    name = "cli_mixed"
    unit = "row"
    # Sections that fail at the seed commit, with the exception they raise.
    KNOWN_DEFECTS = {"bcast_sk_2mib": "DeadlockError"}

    def __init__(self, seed: int, max_reps: int | None = None,
                 sections: tuple[str, ...] | None = None):
        self.seed = seed
        self.tracer = NullTracer()
        self.max_reps = max_reps
        self.sections = sections

    def setup(self) -> None:
        from shmembench.harness import config, runner
        self.runner = runner
        cfg = config.parse_config(CLI_MIXED_CONF.read_text(encoding="utf-8"))
        if self.sections is not None:
            cfg.measurements = [s for s in cfg.measurements
                                if s.name in self.sections]
        if self.max_reps is not None:
            cfg.max_reps = self.max_reps
        self.cfg = cfg

    def round(self):
        return [lambda spec=spec: self.run_section(spec)
                for spec in self.cfg.measurements]

    @staticmethod
    def expected_rows(spec) -> int:
        sweeps = not (spec.type in ("quiet", "barrier_time")
                      or spec.type.startswith("lock_"))
        return len(spec.nbytes) if sweeps else 1

    def run_section(self, spec) -> Chunk:
        with self.tracer.span("bench.unit"):
            return self._run_section(spec)

    def _run_section(self, spec) -> Chunk:
        cfg = dataclasses.replace(self.cfg, measurements=[spec])
        want = self.expected_rows(spec)
        try:
            rows = self.runner.run_config(cfg, seed=self.seed)
            text = self.runner.emit_results(rows, cfg.out_format)
            report, _ = self.runner.ground_truth_report(rows, cfg.tolerance)
        except Exception as e:  # a failing section fails all of its rows
            kind = type(e).__name__
            errors = ([] if self.KNOWN_DEFECTS.get(spec.name) == kind
                      else [f"{spec.name}: {kind}: {e}"])
            return Chunk(want, want, f"{spec.name} raised {kind}\n".encode(),
                         errors)
        bad = [r for r in rows if not math.isfinite(r.mean)
               or not 2 <= r.samples <= cfg.max_reps]
        results = (text + report).encode()
        if len(rows) != want or bad:
            return Chunk(want, want, results,
                         [f"{spec.name}: {len(rows)} rows, {len(bad)} invalid"])
        return Chunk(want, 0, results)


class AckedJitter:
    """Criterion-6 shape: many short acknowledged broadcasts with jitter."""

    name = "acked_jitter"
    unit = "run"
    PES, M, NBYTES = (2, 4, 8), 2, 64

    def __init__(self, seed: int, runs_per_chunk: int = 30, chunks: int = 5):
        self.seed = seed
        self.tracer = NullTracer()
        self.runs_per_chunk = runs_per_chunk
        self.chunks = chunks
        self.previous = None

    def setup(self) -> None:
        from shmembench import collbench, netmodel, pgas
        self.collbench = collbench
        net = netmodel.NetworkModel(o_s=1e-7, o_r=1e-7, L=1e-6, G=1e-9,
                                    jitter_half_width=2e-7)
        self.base = {p: pgas.PgasWorld(p, net) for p in self.PES}

    def round(self):
        return [lambda c=c: self.run_chunk(c) for c in range(self.chunks)]

    def run_chunk(self, c: int) -> Chunk:
        out = Chunk(0, 0, b"")
        for k in range(c * self.runs_per_chunk, (c + 1) * self.runs_per_chunk):
            npes = self.PES[k % len(self.PES)]
            jitter_seed = derived_seed(self.seed, k)
            out.units += 1
            with self.tracer.span("bench.unit"):
                world = self.base[npes].fresh(jitter_seed=jitter_seed)
                try:
                    m = self.collbench.measure_bcast_sk(world, self.NBYTES,
                                                        M=self.M)
                except Exception as e:
                    out.failed += 1
                    out.errors.append(f"run {k}: {type(e).__name__}: {e}")
                    continue
                with self.tracer.span("trace.sk_protocol_check"):
                    error = sk_protocol_error(m.world.trace, npes, self.M)
                tasks = ",".join(m.per_task[t].hex()
                                 for t in sorted(m.per_task))
                out.results += f"{npes} {m.result.hex()} {tasks}\n".encode()
                # Unmapping heaps is a large cost, so release them inside a
                # span, in the order a plain `m = measure(...)` loop would:
                # this run's unused argument world, then the previous run.
                with self.tracer.span("pgas.world_free"):
                    del world
                    self.previous = m
            if error:
                out.failed += 1
                out.errors.append(f"run {k} (P={npes}): {error}")
        return out


def sk_protocol_error(trace, npes: int, M: int) -> str | None:
    """Acknowledgment values stay in {0, 1} and no broadcast of the root
    starts before the measured task left the previous one."""
    if not trace.ack_values:
        return "no acknowledgments traced"
    if any(v not in (0, 1) for _, _, v in trace.ack_values):
        return "acknowledgment cell exceeded 1"
    insts = sorted(trace.bcast_instances)
    if len(insts) != (npes - 1) * (M + 1):
        return f"{len(insts)} broadcasts, expected {(npes - 1) * (M + 1)}"
    for block, task in enumerate(range(1, npes)):
        ids = insts[block * (M + 1):(block + 1) * (M + 1)]  # warm-up + M
        for prev_id, cur_id in zip(ids, ids[1:]):
            prev = trace.bcast_instances[prev_id]
            cur = trace.bcast_instances[cur_id]
            if cur["enter"][0] < prev["exit"][task]:
                return f"broadcasts {prev_id} and {cur_id} interleave"
    return None


WORKLOADS = {w.name: w for w in (CliMixed, AckedJitter)}


# -- timing -----------------------------------------------------------------------

@dataclasses.dataclass
class Phase:
    """The rounds a run made under one tracer."""
    cpu: list[list[float]] = dataclasses.field(default_factory=list)
    units: int = 0                 # units that succeed in one round
    attempted: int = 0
    failed: int = 0
    first: list[bytes] = dataclasses.field(default_factory=list)
    errors: list[str] = dataclasses.field(default_factory=list)

    @property
    def rounds(self) -> int:
        return len(self.cpu)

    @property
    def digest(self) -> str:
        return hashlib.sha256(b"".join(self.first)).hexdigest()

    def units_per_s(self) -> float:
        """One round's succeeded units over the sum, across the round's
        chunks, of each chunk's median CPU time over the rounds."""
        return self.units / sum(statistics.median(t) for t in zip(*self.cpu))


def run_round(workload, chunks, tracer, phase: Phase) -> None:
    """Run one round under `tracer`, timing each chunk in process CPU time
    (user + system).  On a virtual machine that time excludes the time the
    hypervisor gave the CPU to other guests, which made wall-clock rates of
    identical runs differ by up to a third."""
    times = []
    workload.tracer = tracer
    tracer.install()
    try:
        with tracer.span("bench.round"):
            for i, chunk in enumerate(chunks):
                gc.collect()
                t0 = time.process_time()
                res = chunk()
                times.append(time.process_time() - t0)
                phase.attempted += res.units
                phase.failed += res.failed
                phase.errors += res.errors
                if not phase.cpu:
                    phase.first.append(res.results)
                    phase.units += res.units - res.failed
                elif res.results != phase.first[i]:
                    phase.errors.append(
                        f"round {phase.rounds + 1} chunk {i}: results "
                        "differ from the first round")
    finally:
        tracer.uninstall()
        workload.tracer = NullTracer()
    phase.cpu.append(times)


def run_phase(workload, seconds: float, tracers) -> list[Phase]:
    """Run cycles for about `seconds` wall seconds (at least one), where a
    cycle is one whole round under each of `tracers` in turn, so that a
    drift of the host's speed affects each tracer's rounds alike.  Returns
    one Phase per tracer."""
    chunks = workload.round()
    phases = [Phase() for _ in tracers]
    start = time.perf_counter()
    last_cycle = 0.0
    while (not phases[0].cpu
           or time.perf_counter() - start + last_cycle <= seconds):
        c0 = time.perf_counter()
        for tracer, phase in zip(tracers, phases):
            run_round(workload, chunks, tracer, phase)
        last_cycle = time.perf_counter() - c0
    return phases


def measure_setup(workload: str, seed: int, probes: int) -> list[float]:
    """CPU seconds a fresh process spends from its start until it has
    imported the package and built the workload's base state, `probes`
    times."""
    samples = []
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(probes):
        with subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, text=True) as proc:
            try:
                out, _ = proc.communicate(timeout=120)
            except BaseException:
                proc.kill()
                raise
        words = out.split()
        if proc.returncode != 0 or len(words) != 2 or words[0] != "ready":
            raise SetupError(f"setup probe failed (exit {proc.returncode})")
        samples.append(float(words[1]))
    return samples


# -- report ------------------------------------------------------------------------

def benchmark(make, name: str, seed: int, seconds: float, trace: bool,
              probes: int = SETUP_PROBES, spans_path: Path | None = None):
    """Run one workload; returns (report lines, result object, phases).

    Untraced, it measures set-up in `probes` fresh processes and runs for
    `seconds`.  Traced, it sets up under the tracer and then, for `seconds`,
    alternates untraced and traced rounds."""
    lines = [f"workload {name} seed {seed} seconds {seconds:g} "
             f"trace {int(trace)}"]
    setup = [] if trace else measure_setup(name, seed, probes)
    workload = make(seed)
    unit = workload.unit
    if not trace:
        workload.setup()
        phases = run_phase(workload, seconds, [NullTracer()])
    else:
        tracer = Tracer()
        tracer.install()
        try:
            with tracer.span("bench.setup"):
                workload.setup()
        finally:
            tracer.uninstall()
        phases = run_phase(workload, seconds, [NullTracer(), tracer])
        spans = tracer.spans
        if spans_path is not None:
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            tracer.dump(spans_path)

    errors = [e for p in phases for e in p.errors]
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    if len({p.digest for p in phases}) != 1:
        errors.append("traced and untraced runs differ in result_digest")
    units = phases[0].units_per_s()
    lines.append(f"units_per_s {units:.6g} 1/s (unit = one {unit}; CPU time; "
                 f"{phases[0].rounds} rounds)")
    metrics: dict[str, tuple[float, str]] = {}
    if not trace:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup_s = statistics.median(setup)
        metrics = {"units_per_s": (units, "1/s"),
                   "peak_rss_mb": (rss_mb, "MB"),
                   "setup_s": (setup_s, "s")}
        lines.append(f"peak_rss_mb {rss_mb:.6g} MB")
        lines.append(f"setup_s {setup_s:.6g} s (CPU time, median of "
                     f"{len(setup)} process starts)")
    else:
        traced = phases[1]
        lines.append(f"traced units_per_s {traced.units_per_s():.6g} 1/s "
                     f"({traced.rounds} rounds)")
        metrics = layer_metrics(spans, traced.rounds)
        metrics["bench.tracing_overhead"] = (units / traced.units_per_s(),
                                             "ratio")
        cov = coverage(spans)
        low = min(cov) if cov else 1.0
        metrics["bench.span_coverage"] = (low, "ratio")
        if low < MIN_COVERAGE:
            errors.append(f"a unit's spans cover only {low:.1%} of its time")
        for key, (value, u) in metrics.items():
            lines.append(f"{key} {value:.6g} {u}")
    lines.append(f"fail_ratio {failed / attempted:.6g} ratio "
                 f"({failed} of {attempted} units failed)")
    lines.append(f"result_digest sha256:{phases[0].digest}")
    lines += [f"error: {e}" for e in errors[:20]]
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    return lines, result, phases


def _parse_args(argv):
    p = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        load_package()
    except (SetupError, ImportError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    make = WORKLOADS[args.workload]
    if args.setup_probe:
        make(args.seed).setup()
        print("ready", time.process_time())
        return 0
    spans_path = (SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
                  if args.trace else None)
    lines, result, _ = benchmark(make, args.workload, args.seed, args.seconds,
                                 bool(args.trace), spans_path=spans_path)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0
