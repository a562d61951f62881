"""Config parsing, repetition control, emission, report, and CLI."""

import dataclasses
import fnmatch
import json
import math
import re
from pathlib import Path

import pytest

from shmembench.harness import (MEASUREMENT_TYPES, ConfigError, ResultRow,
                                emit_results, ground_truth_report,
                                parse_config, parse_duration, run_config,
                                run_until_stable)
from shmembench import PgasWorld, p2pbench
from shmembench.harness import runner
from shmembench.harness.runner import TYPE_KEYS
from shmembench.harness.cli import main as cli_main
from shmembench.harness.config import (SECTION_KEYS, BenchConfig,
                                       MeasurementSpec)
from shmembench.netmodel import NetworkModel, ProgressMode, PutReturnPolicy
from shmembench.pgas import (BARRIER_REDUCE_BCAST, DEFAULT_HEAP_SIZE,
                             PER_PE_HEAP_MIN, Measurement, TimingStrategy)

ROOT = Path(__file__).parent.parent
EXAMPLES = ROOT / "examples.conf"

BASE_CONFIG = """
[network.intra]
o_s = 100ns
o_r = 100ns
L = 1us
g = 100ns
G = 1ns

[run]
npes = 4
seed = 7

[measurement.get_sweep]
type = blocking_get
nbytes = 8, 1024
iters = 16
"""


class TestParseDuration:
    @pytest.mark.parametrize("text,value", [
        ("1us", 1e-6), ("100ns", 1e-7), ("2ms", 2e-3), ("1.5s", 1.5),
        ("3e-7", 3e-7), ("0", 0.0),
    ])
    def test_unit_table(self, text, value):
        assert parse_duration(text) == pytest.approx(value, rel=1e-15)

    def test_garbage_rejected(self):
        with pytest.raises(ConfigError):
            parse_duration("fast")

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "infus", "1e999"])
    def test_non_finite_rejected(self, text):
        with pytest.raises(ConfigError, match="bad duration"):
            parse_duration(text)


# (section, key) -> (value text, attribute, parsed value); every value
# differs from the attribute's default.
KEY_CASES = {
    ("network", "o_s"): ("3us", "o_s", pytest.approx(3e-6, rel=1e-12)),
    ("network", "o_r"): ("4us", "o_r", pytest.approx(4e-6, rel=1e-12)),
    ("network", "L"): ("5us", "L", pytest.approx(5e-6, rel=1e-12)),
    ("network", "g"): ("6us", "g", pytest.approx(6e-6, rel=1e-12)),
    ("network", "G"): ("7ns", "G", pytest.approx(7e-9, rel=1e-12)),
    ("network", "quiet_base"): ("8us", "quiet_base",
                                pytest.approx(8e-6, rel=1e-12)),
    ("network", "jitter"): ("9ns", "jitter_half_width",
                            pytest.approx(9e-9, rel=1e-12)),
    ("network", "progress"): ("on_quiet", "progress_mode",
                              ProgressMode.ON_QUIET),
    ("network", "put_return"): ("remote", "put_return_policy",
                                PutReturnPolicy.REMOTE_COMPLETION),
    ("clock", "drift"): ("0, 1e-6", "drift", [0.0, 1e-6]),
    ("clock", "offset"): ("2us", "offset", pytest.approx(2e-6, rel=1e-12)),
    ("clock", "timer_overhead"): ("20ns", "timer_overhead",
                                  pytest.approx(2e-8, rel=1e-12)),
    ("run", "npes"): ("3", "npes", 3),
    ("run", "seed"): ("0x10", "seed", 16),
    ("run", "sigma_threshold"): ("0.1", "sigma_threshold", 0.1),
    ("run", "max_reps"): ("5", "max_reps", 5),
    ("run", "tolerance"): ("0.5", "tolerance", 0.5),
    ("run", "format"): ("jsonl", "out_format", "jsonl"),
    ("measurement", "type"): ("bcast_rounds", "type", "bcast_rounds"),
    ("measurement", "network"): ("wide", "network", "wide"),
    ("measurement", "nbytes"): ("8, 64", "nbytes", [8, 64]),
    ("measurement", "iters"): ("5", "iters", 5),
    ("measurement", "strategy"): ("per_iteration", "strategy",
                                  TimingStrategy.PER_ITERATION),
    ("measurement", "algo"): ("linear", "algo", "linear"),
    ("measurement", "barrier"): ("reduce_bcast", "barrier",
                                 BARRIER_REDUCE_BCAST),
    ("measurement", "barrier_root"): ("1", "barrier_root", 1),
    ("measurement", "M"): ("3", "M", 3),
    ("measurement", "window_len"): ("2us", "window_len",
                                    pytest.approx(2e-6, rel=1e-12)),
    ("measurement", "expect"): ("biased_low", "expect", "biased_low"),
    ("measurement", "npes"): ("3", "npes", 3),
    ("measurement", "home_pe"): ("1", "home_pe", 1),
    ("measurement", "requester_pe"): ("0", "requester_pe", 0),
}


def _reader(key):
    """The first type that reads `key`; `bcast_sync` if every type does."""
    return next((kind for kind, mtype in MEASUREMENT_TYPES.items()
                 if key in mtype.keys), "bcast_sync")


def _keys_read(kind, **values):
    """`key = value` lines for the keys in `values` that `kind` reads."""
    return "".join(f"{key} = {value}\n" for key, value in values.items()
                   if key in MEASUREMENT_TYPES[kind].keys)


def _config_with(section, key, text):
    """A two-PE config with one measurement on network `n`, of a type that
    reads `key`, plus `key = text` in `section`, in place of a line that
    sets `key`."""
    sections = {"network": "[network.n]\nL = 1us\n",
                "clock": "[clock]\n", "run": "[run]\n",
                "measurement": f"[measurement.m]\ntype = {_reader(key)}\n"
                               "network = n\n"}
    body = re.sub(rf"^{key} = .*\n", "", sections[section], flags=re.M)
    sections[section] = body + f"{key} = {text}\n"
    return "[network.wide]\nL = 2us\n" + "".join(sections.values())


class TestParseConfig:
    def test_round_trip_of_semantic_content(self):
        cfg = parse_config(BASE_CONFIG)
        assert cfg.npes == 4 and cfg.seed == 7
        net = cfg.networks["intra"]
        assert net.o_s == pytest.approx(1e-7, rel=1e-15)
        assert net.L == 1e-6 and net.G == 1e-9
        (spec,) = cfg.measurements
        assert spec.type == "blocking_get"
        assert spec.nbytes == [8, 1024]
        assert spec.network == "intra"

    def test_empty_text_is_an_error(self):
        with pytest.raises(ConfigError, match="no measurements"):
            parse_config("")

    def test_duplicate_section_named(self):
        text = BASE_CONFIG + "\n[network.intra]\nL = 2us\n"
        with pytest.raises(ConfigError, match=r"duplicate section \[network.intra\]"):
            parse_config(text)

    def test_unknown_key_reports_line_number(self):
        text = "[network.n]\nbandwidth = 1us\n[measurement.m]\ntype = quiet\n"
        with pytest.raises(ConfigError, match="line 2.*bandwidth"):
            parse_config(text)

    def test_invalid_enum_value(self):
        text = BASE_CONFIG.replace("type = blocking_get", "type = warp_speed")
        with pytest.raises(ConfigError, match="warp_speed"):
            parse_config(text)

    def test_descending_nbytes_rejected(self):
        text = BASE_CONFIG.replace("nbytes = 8, 1024", "nbytes = 1024, 8")
        with pytest.raises(ConfigError, match="ascending"):
            parse_config(text)

    def test_measurement_requires_network_when_ambiguous(self):
        text = BASE_CONFIG + "\n[network.inter]\nL = 10us\n"
        with pytest.raises(ConfigError, match="network preset required"):
            parse_config(text)

    def test_pe_ranks_checked_against_measurement_npes(self):
        lock = "\n[measurement.lk]\ntype = lock_uncontended\nhome_pe = 3\n"
        parse_config(BASE_CONFIG + lock)  # run npes = 4
        with pytest.raises(ConfigError, match="home_pe = 3 is not a PE"):
            parse_config(BASE_CONFIG + lock + "npes = 2\n")

    def test_peer_check_uses_measurement_npes(self):
        text = BASE_CONFIG.replace("npes = 4", "npes = 1")
        with pytest.raises(ConfigError, match="needs npes >= 2"):
            parse_config(text)
        parse_config(text + "npes = 2\n")  # per-measurement override

    @pytest.mark.parametrize("section,key", KEY_CASES,
                             ids=[f"{s}.{k}" for s, k in KEY_CASES])
    def test_every_key_reaches_its_attribute(self, section, key):
        text, attribute, value = KEY_CASES[section, key]
        cfg = parse_config(_config_with(section, key, text))
        target, default = {
            "network": (cfg.networks["n"], NetworkModel()),
            "clock": (cfg, BenchConfig({}, [])),
            "run": (cfg, BenchConfig({}, [])),
            "measurement": (cfg.measurements[0],
                            MeasurementSpec("m", "bcast_sync")),
        }[section]
        assert getattr(default, attribute) != value
        assert getattr(target, attribute) == value

    def test_every_key_has_a_case(self):
        assert sorted(KEY_CASES) == sorted(
            (section, key) for section, table in SECTION_KEYS.items()
            for key in table)

    def test_keys_parse_in_table_order_before_unknown_keys(self):
        text = ("[network.n]\nL = 1us\n[measurement.m]\ntype = quiet\n"
                "bogus = 1\niters = 0\n")
        with pytest.raises(ConfigError,
                           match=r"^line 6: iters must be >= 1, got 0$"):
            parse_config(text)

    @pytest.mark.parametrize("choice", [0, 1])
    def test_examples_parse_with_every_commented_key(self, choice):
        """Each `# key = value` line of examples.conf, uncommented; `a | b`
        values are the choices, taken in turn."""
        def uncomment(match):
            key, value = match.group(1), match.group(2).split("#")[0]
            options = [option.strip() for option in value.split("|")]
            return f"{key} = {options[min(choice, len(options) - 1)]}"

        text, count = re.subn(r"^# (\w+) = (.*)$", uncomment,
                              EXAMPLES.read_text(), flags=re.M)
        assert count == 6
        net = parse_config(text).networks["intra"]
        assert net.progress_mode == [ProgressMode.BACKGROUND,
                                     ProgressMode.ON_QUIET][choice]
        assert net.put_return_policy == [
            PutReturnPolicy.LOCAL_COMPLETION,
            PutReturnPolicy.REMOTE_COMPLETION][choice]

    @pytest.mark.parametrize("kind", sorted(MEASUREMENT_TYPES))
    def test_type_reads_no_key_outside_its_keys(self, kind):
        """Keys the type does not declare, set to values that no
        measurement accepts, change nothing it runs, references or checks."""
        mtype = MEASUREMENT_TYPES[kind]
        cfg = parse_config(BASE_CONFIG)  # 4 PEs
        unreadable = {"nbytes": [-1], "iters": 0, "strategy": None, "M": 0,
                      "window_len": -1.0, "home_pe": -1, "requester_pe": -1}
        assert set(unreadable) == TYPE_KEYS
        spec = MeasurementSpec("m", kind, network="intra", iters=2, M=1)
        junk = dataclasses.replace(spec, **{
            key: value for key, value in unreadable.items()
            if key not in mtype.keys})
        nbytes = 8 if "nbytes" in mtype.keys else 0
        net = cfg.networks["intra"]
        seen = [(mtype.check(s, 4),
                 mtype.run(runner._build_world(cfg, s, nbytes, 3), s,
                           nbytes).result,
                 mtype.truth(net, lambda: runner._build_world(
                     cfg, s, nbytes, 4), s, nbytes))
                for s in (spec, junk)]
        assert repr(seen[0]) == repr(seen[1])

    def test_readme_types_column_names_the_readers_of_each_key(self):
        """A measurement key's Types cell is `all`, `all but` a list, or a
        list; list items are type names or `*` patterns."""
        cells, section = {}, None
        for line in (ROOT / "README.md").read_text().splitlines():
            match = re.match(r"\| *(?:`\[(\w+)[^`]*\]`)? *\| *`(\w+)` *\|"
                             r".*\| *([^|]*?) *\|$", line)
            if match:
                section = match.group(1) or section
                if section == "measurement":
                    cells[match.group(2)] = match.group(3)
        for key in SECTION_KEYS["measurement"]:
            cell = cells[key]
            names = set()
            for pattern in re.findall(r"`([\w*]+)`", cell):
                found = fnmatch.filter(MEASUREMENT_TYPES, pattern)
                assert found, pattern
                names.update(found)
            if cell == "all":
                names = set(MEASUREMENT_TYPES)
            elif cell.startswith("all but "):
                names = set(MEASUREMENT_TYPES) - names
            assert names == {kind for kind, mtype in MEASUREMENT_TYPES.items()
                             if key not in TYPE_KEYS or key in mtype.keys}, key

    def test_readme_key_table_lists_exactly_the_parsed_keys(self):
        """Each README key-table row names a key; the section cell is
        filled on a section's first row only."""
        rows, section = [], None
        for line in (ROOT / "README.md").read_text().splitlines():
            match = re.match(r"\| *(?:`\[(\w+)[^`]*\]`)? *\| *`(\w+)` *\|",
                             line)
            if match:
                section = match.group(1) or section
                rows.append((section, match.group(2)))
        assert sorted(rows) == sorted(
            (section, key) for section, table in SECTION_KEYS.items()
            for key in table)


class TestRunUntilStable:
    def test_deterministic_thunk_stops_at_two(self):
        mean, sigma, reps = run_until_stable(lambda: 1.5, 0.05, 32)
        assert (mean, sigma, reps) == (1.5, 0.0, 2)

    def test_alternating_thunk_exhausts_reps(self):
        values = iter([1.0, 2.0] * 50)
        mean, sigma, reps = run_until_stable(lambda: next(values), 0.01, 8)
        assert reps == 8
        assert mean == pytest.approx(1.5)
        # unbiased sigma of the 1/2 alternation
        assert sigma == pytest.approx(math.sqrt(2.0 / 7.0))

    def test_infinite_threshold_stops_at_two(self):
        values = iter([1.0, 100.0, 1.0])
        _, _, reps = run_until_stable(lambda: next(values), math.inf, 32)
        assert reps == 2

    def test_zero_mean_uses_absolute_sigma(self):
        values = iter([-1.0, 1.0] * 50)
        _, sigma, reps = run_until_stable(lambda: next(values), 0.05, 6)
        assert reps == 6 and sigma > 0
        _, sigma, reps = run_until_stable(lambda: 0.0, 0.05, 6)
        assert reps == 2 and sigma == 0.0

    def test_max_reps_floor(self):
        with pytest.raises(ValueError):
            run_until_stable(lambda: 1.0, 0.05, 1)


def _rows():
    return [ResultRow("m", 8, "binomial", 1.25e-6, 0.0, 2, 1.25e-6, 0.0)]


class TestEmission:
    def test_csv_header_and_field_order(self):
        text = emit_results(_rows(), "csv")
        lines = text.splitlines()
        assert lines[0] == ("name,nbytes,algo,mean,stddev,samples,"
                            "ground_truth,relative_error")
        assert lines[1].startswith("m,8,binomial,1.25e-06,0,2,")
        assert len(lines) == 2

    def test_jsonl_round_trip(self):
        row = ResultRow("m", 8, "binomial", 1.0 / 3.0, 1e-9, 3,
                        0.333333333333, 1e-12)
        obj = json.loads(emit_results([row], "jsonl"))
        assert obj["mean"] == float(f"{row.mean:.12g}")
        assert obj["samples"] == 3 and obj["name"] == "m"

    def test_no_rows_rejected(self):
        with pytest.raises(ValueError):
            emit_results([], "csv")


class TestReport:
    def test_all_exact_all_pass(self):
        text, failures = ground_truth_report(_rows(), tolerance=0.02)
        assert failures == 0
        assert text.count("PASS") == 1 and "1 passed, 0 failed" in text

    def test_biased_low_passes_only_below_reference(self):
        low = ResultRow("m", 8, "x", 0.5, 0.0, 2, 1.0, 0.5, expect="biased_low")
        high = ResultRow("m", 8, "x", 1.5, 0.0, 2, 1.0, 0.5, expect="biased_low")
        assert ground_truth_report([low])[1] == 0
        assert ground_truth_report([high])[1] == 1

    def test_out_of_tolerance_fails(self):
        bad = ResultRow("m", 8, "x", 1.1, 0.0, 2, 1.0, 0.1)
        text, failures = ground_truth_report([bad], tolerance=0.02)
        assert failures == 1 and "FAIL" in text

    def test_missing_reference_skipped(self):
        row = ResultRow("m", 8, "x", 1.0, 0.0, 2, math.nan, math.nan)
        text, failures = ground_truth_report([row])
        assert failures == 0 and "SKIP" in text


class TestRunner:
    def test_rows_follow_config_order_and_sweep(self):
        cfg = parse_config(BASE_CONFIG)
        rows = run_config(cfg)
        assert [(r.name, r.nbytes) for r in rows] == [
            ("get_sweep", 8), ("get_sweep", 1024)]
        for r in rows:
            assert r.relative_error < 1e-12


PARITY_SIZES = (8, 65536, 1 << 20)
# Every measurement type at 4 PEs on a jittered wire, so repetitions differ;
# each section sets only the keys its type reads.
PARITY_CONFIG = """
[network.jittered]
o_s = 100ns
o_r = 100ns
L = 1us
g = 100ns
G = 1ns
jitter = 200ns

[run]
npes = 4
seed = 11
max_reps = 2
""" + "".join(f"""
[measurement.{kind}]
type = {kind}
{_keys_read(kind, nbytes=", ".join(map(str, PARITY_SIZES)), iters=4, M=2)}\
""" for kind in sorted(MEASUREMENT_TYPES))


class TestHeapSizing:
    def test_sized_heaps_give_byte_identical_results(self, monkeypatch):
        cfg = parse_config(PARITY_CONFIG)
        for spec in cfg.measurements:
            for n in spec.nbytes:
                # below the cap, so the sized heap really is smaller
                footprint = runner.MEASUREMENT_TYPES[spec.type].footprint
                assert footprint(n) <= DEFAULT_HEAP_SIZE
        sized = run_config(cfg)
        monkeypatch.setattr(runner, "MEASUREMENT_TYPES", {
            kind: dataclasses.replace(
                mtype, footprint=lambda nbytes: DEFAULT_HEAP_SIZE)
            for kind, mtype in runner.MEASUREMENT_TYPES.items()})
        full = run_config(cfg)
        assert emit_results(sized) == emit_results(full)
        assert ground_truth_report(sized) == ground_truth_report(full)

    def test_p2p_types_allocate_large_heaps_on_pes_0_and_1_only(
            self, monkeypatch):
        """Every world of a P2P row at npes = 8, its reference runs
        included, holds heaps for the two PEs that exchange data only once
        its heap reaches PER_PE_HEAP_MIN; a smaller heap comes for all 8."""
        p2p = sorted(kind for kind, mtype in MEASUREMENT_TYPES.items()
                     if mtype.footprint is p2pbench.heap_footprint)
        assert len(p2p) == 11
        cfg = parse_config(BASE_CONFIG.split("[measurement")[0].replace(
            "npes = 4", "npes = 8\nmax_reps = 2") + "".join(f"""
[measurement.{kind}]
type = {kind}
{_keys_read(kind, nbytes="8, 262144", iters=2)}""" for kind in p2p))
        worlds, run = [], PgasWorld.run

        def capture(self, programs):
            worlds.append(self)
            return run(self, programs)

        monkeypatch.setattr(PgasWorld, "run", capture)
        run_config(cfg)
        assert {w.npes for w in worlds} == {8}
        assert {(w.heap_size >= PER_PE_HEAP_MIN, frozenset(w.heap))
                for w in worlds} == {(True, frozenset({0, 1})),
                                     (False, frozenset(range(8)))}

    def test_small_get_world_is_far_below_default_heap(self):
        cfg = parse_config(BASE_CONFIG)
        (spec,) = cfg.measurements
        world = runner._build_world(cfg, spec, 8, jitter_seed=0)
        assert world.heap_size * 16 <= DEFAULT_HEAP_SIZE


# Every measurement type on a jitter-free wire; drift, offsets and timer
# cost are on, so only the jitter seed differs between repetitions.
JITTER_FREE_CONFIG = """
[network.exact]
o_s = 100ns
o_r = 100ns
L = 1us
g = 100ns
G = 1ns

[network.jittered]
o_s = 100ns
o_r = 100ns
L = 1us
g = 100ns
G = 1ns
jitter = 200ns

[clock]
drift = 0, 1e-5, -2e-5, 3e-5
offset = 0, 1us, 2us, -1us
timer_overhead = 20ns

[run]
npes = 4
seed = 5
""" + "".join(f"""
[measurement.{kind}]
network = exact
type = {kind}
{_keys_read(kind, nbytes=1024, iters=4, M=2)}\
""" for kind in sorted(MEASUREMENT_TYPES))

# Their references are NaN or a closed form over the network.
NO_SIMULATED_REFERENCE = {"nbi_put_overlap", "nbi_get_overlap",
                          "lock_uncontended", "lock_contended",
                          "lock_test_held", "lock_test_free"}


def _counting_runs(monkeypatch):
    """Count each type's `run` calls in `run_config`."""
    calls = dict.fromkeys(runner.MEASUREMENT_TYPES, 0)

    def counted(kind, run):
        def wrapper(*args):
            calls[kind] += 1
            return run(*args)
        return wrapper

    monkeypatch.setattr(runner, "MEASUREMENT_TYPES", {
        kind: dataclasses.replace(mtype, run=counted(kind, mtype.run))
        for kind, mtype in runner.MEASUREMENT_TYPES.items()})
    return calls


class TestReplay:
    """A jitter-free row is simulated once and replayed for every later
    repetition; `samples` still counts repetitions."""

    @pytest.mark.parametrize("kind", sorted(MEASUREMENT_TYPES))
    def test_jitter_free_run_ignores_the_jitter_seed(self, kind):
        cfg = parse_config(JITTER_FREE_CONFIG)
        (spec,) = [s for s in cfg.measurements if s.type == kind]
        run = MEASUREMENT_TYPES[kind].run
        # the whole record, flags and all, not only the value the harness
        # replays; the run world itself differs by identity
        records = [dataclasses.replace(run(runner._build_world(
            cfg, spec, 1024, seed), spec, 1024), world=None)
            for seed in (1, 2 ** 63 + 12345)]
        assert isinstance(records[0], Measurement)
        assert records[0] == records[1]

    @pytest.mark.parametrize("network,runs", [("exact", 1), ("jittered", 3)])
    def test_row_calls_run_once_per_simulated_repetition(
            self, monkeypatch, network, runs):
        text = (JITTER_FREE_CONFIG.replace("network = exact",
                                           f"network = {network}")
                .replace("seed = 5", "seed = 5\nsigma_threshold = -1\n"
                                     "max_reps = 3"))
        cfg = parse_config(text)
        calls = _counting_runs(monkeypatch)
        rows = run_config(cfg)
        assert calls == dict.fromkeys(MEASUREMENT_TYPES, runs)
        for row in rows:
            assert row.samples == 3
            if network == "exact":
                assert row.stddev == 0.0

    def test_replayed_rows_equal_simulated_rows(self):
        cfg = parse_config(JITTER_FREE_CONFIG.replace(
            "seed = 5", "seed = 5\nsigma_threshold = -1\nmax_reps = 3"))
        replayed = run_config(cfg)
        # the same rows with a jitter width too small to move any time
        for name, net in list(cfg.networks.items()):
            cfg.networks[name] = dataclasses.replace(
                net, jitter_half_width=net.jitter_half_width or 1e-300)
        assert emit_results(run_config(cfg)) == emit_results(replayed)

    @pytest.mark.parametrize("kind", sorted(MEASUREMENT_TYPES))
    def test_reference_world_built_only_when_simulated(self, monkeypatch,
                                                       kind):
        cfg = parse_config(JITTER_FREE_CONFIG)
        cfg.measurements = [s for s in cfg.measurements if s.type == kind]
        (spec,) = cfg.measurements
        seeds = []
        build = runner._build_world

        def recording(cfg, spec, nbytes, jitter_seed):
            seeds.append(jitter_seed)
            return build(cfg, spec, nbytes, jitter_seed)

        monkeypatch.setattr(runner, "_build_world", recording)
        (row,) = run_config(cfg)
        nbytes = row.nbytes
        reference = runner._derived_seed(cfg.seed, spec.name, nbytes, -1)
        first = runner._derived_seed(cfg.seed, spec.name, nbytes, 0)
        if kind in NO_SIMULATED_REFERENCE:
            assert seeds == [first]
        else:
            assert seeds == [first, reference]


DATA = Path(__file__).parent / "data"


class TestGoldenOutput:
    """Simulated results stay byte-identical to the recorded outputs.

    A change that alters any simulated number or report line fails here.
    Rewrite the files under tests/data only in a change meant to alter
    results, and say so in its notes.
    """

    def test_examples_report(self, capsys):
        examples = Path(__file__).parent.parent / "examples.conf"
        assert cli_main(["--config", str(examples), "--report"]) == 0
        out = capsys.readouterr().out
        assert out == (DATA / "examples_report.txt").read_text()

    def test_parity_config_csv_and_report(self):
        cfg = parse_config(PARITY_CONFIG)
        rows = run_config(cfg)
        assert emit_results(rows) == (DATA / "parity.csv").read_text()
        report, _ = ground_truth_report(rows, cfg.tolerance)
        assert report == (DATA / "parity_report.txt").read_text()


class TestCli:
    @pytest.fixture()
    def config_path(self, tmp_path):
        path = tmp_path / "bench.conf"
        path.write_text(BASE_CONFIG)
        return path

    def test_same_seed_byte_identical_output(self, config_path, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli_main(["--config", str(config_path), "--seed", "3",
                         "--output", str(out1)]) == 0
        assert cli_main(["--config", str(config_path), "--seed", "3",
                         "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_report_failure_exit_code(self, tmp_path, capsys):
        # naive broadcast timing without the biased_low marker must FAIL
        text = BASE_CONFIG + "\n[measurement.naive]\ntype = bcast_naive\nnbytes = 1024\nnpes = 8\n"
        path = tmp_path / "bad.conf"
        path.write_text(text)
        assert cli_main(["--config", str(path), "--report"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "broken.conf"
        path.write_text("[run]\nnpes = maybe\n")
        assert cli_main(["--config", str(path)]) == 2

    @pytest.mark.parametrize("npes,section,message", [
        (2, "type = bcast_naive\nnbytes = -8\n",
         "line 9: nbytes must be >= 0, got -8"),
        (2, "type = lock_uncontended\nrequester_pe = 5\n",
         "measurement.m: requester_pe = 5 is not a PE of npes = 2"),
        (1, "type = blocking_get\n",
         "measurement.m: blocking_get needs npes >= 2, got 1"),
        (2, "type = bcast_naive\niters = 0\n",
         "line 9: iters must be >= 1, got 0"),
        (2, "type = bcast_sync\niters = 0\n",
         "line 9: iters must be >= 1, got 0"),
        (2, "type = lock_uncontended\niters = -3\n",
         "line 9: iters must be >= 1, got -3"),
        (2, "type = barrier_time\niters = 0\n",
         "line 9: iters must be >= 1, got 0"),
        (2, "type = nbi_put_overlap\niters = 0\n",
         "line 9: iters must be >= 1, got 0"),
        (2, "type = lock_test_held\nhome_pe = 1\n",
         "measurement.m: lock_test_held needs home_pe != requester_pe, "
         "got 1 for both"),
        (4, "type = bcast_sync\nwindow_len = 0\n",
         "measurement.m: window_len must be > 0, got 0 s"),
        (4, "type = bcast_sync\nwindow_len = -1us\n",
         "measurement.m: window_len must be > 0, got -1e-06 s"),
        (4, "type = bcast_rounds\nwindow_len = 0\n",
         "measurement.m: window_len must be > 0, got 0 s"),
        (2, "type = bcast_sk\nM = 0\n",
         "measurement.m: M must be >= 1, got 0"),
        (2, "type = barrier_time\nbarrier_root = 2\n",
         "measurement.m: barrier_root = 2 is not a PE of npes = 2"),
        (8, "type = bcast_naive\nbarrier_root = 3\nnpes = 2\n",
         "measurement.m: barrier_root = 3 is not a PE of npes = 2"),
        (3, "type = lock_uncontended\n\n[clock]\ndrift = 0, 1e-6\n",
         "measurement.m: [clock] drift has 2 entries, not one per PE of "
         "npes = 3"),
        (2, "type = quiet\nnpes = 3\n\n[clock]\noffset = 0, 1us\n",
         "measurement.m: [clock] offset has 2 entries, not one per PE of "
         "npes = 3"),
        (2, "type = quiet\n\n[clock]\ndrift = 0, -1\n",
         "line 11: drift must be > -1 and finite on every PE"),
        (2, "type = quiet\n\n[clock]\ndrift = fast\n",
         "line 11: bad number 'fast'"),
        (2, "type = quiet\n\n[clock]\ntimer_overhead = -1ns\n",
         "line 11: timer_overhead must be >= 0"),
        (2, "type = blocking_get\nnbytes = 8, 2097152\n",
         "measurement.m: nbytes = 2097152 addresses 2162688 heap bytes per "
         "PE, more than the 2097152 a PE has"),
        (2, "type = quiet\n\n[clock]\ndrift = 0, inf\n",
         "line 11: drift must be > -1 and finite on every PE"),
        (2, "type = quiet\n\n[network.m]\nL = nan\n",
         "line 11: bad duration 'nan'"),
        (2, "type = quiet\n\n[clock]\noffset = 0, -infus\n",
         "line 11: bad duration '-infus'"),
        # further [run] keys follow `npes = ` on lines 6 on
        ("2\nsigma_threshold = nan", "type = quiet\n",
         "line 6: bad number 'nan'"),
        ("2\nsigma_threshold = inf", "type = quiet\n",
         "line 6: bad number 'inf'"),
        ("2\ntolerance = nan", "type = quiet\n",
         "line 6: bad number 'nan'"),
        ("2\ntolerance = -inf", "type = quiet\n",
         "line 6: bad number '-inf'"),
        ("2\nseed = -1", "type = quiet\n",
         "line 6: seed must fit in 64 bits"),
        ("2\nseed = 18446744073709551616", "type = quiet\n",
         "line 6: seed must fit in 64 bits"),
        # the first key in table order that the type does not read
        (4, "type = bcast_naive\nhome_pe = 3\nM = 0\nwindow_len = 1ns\n"
            "strategy = per_iteration\n",
         "line 12: strategy does not apply to bcast_naive"),
        (2, "type = bcast_sk\niters = 0\n",
         "line 9: iters does not apply to bcast_sk"),
        (2, "type = quiet\nnbytes = 8\n",
         "line 9: nbytes does not apply to quiet"),
        (2, "type = lock_contended\nM = 2\n",
         "line 9: M does not apply to lock_contended"),
    ], ids=["negative_nbytes", "requester_pe_past_npes", "get_without_peer",
            "bcast_naive_zero_iters", "bcast_sync_zero_iters",
            "lock_negative_iters", "barrier_zero_iters",
            "overlap_zero_iters", "test_held_by_requester",
            "bcast_sync_zero_window", "bcast_sync_negative_window",
            "bcast_rounds_zero_window", "bcast_sk_zero_M",
            "barrier_root_past_npes", "barrier_root_past_measurement_npes",
            "drift_list_length", "offset_list_length_per_measurement",
            "drift_not_monotone", "drift_not_a_number",
            "negative_timer_overhead", "get_past_heap", "infinite_drift",
            "nan_latency", "infinite_offset", "nan_sigma_threshold",
            "infinite_sigma_threshold", "nan_tolerance", "infinite_tolerance",
            "negative_seed", "seed_past_64_bits", "keys_bcast_naive_ignores",
            "iters_on_bcast_sk", "nbytes_on_quiet", "M_on_lock"])
    def test_unrunnable_config_is_one_line_exit_2(self, tmp_path, capsys,
                                                   npes, section, message):
        path = tmp_path / "unrunnable.conf"
        path.write_text("[network.n]\nL = 1us\n\n[run]\n"
                        f"npes = {npes}\n\n[measurement.m]\n" + section)
        assert cli_main(["--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
    def test_seed_flag_outside_64_bits_is_one_line_exit_2(
            self, config_path, capsys, seed):
        assert cli_main(["--config", str(config_path), "--seed", seed]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: --seed must fit in 64 bits\n"

    def test_deadlock_is_one_line_exit_3(self, tmp_path, capsys):
        # a 2 MiB acknowledged broadcast fits the heap but overwrites its
        # own acknowledgment cell at 1 MiB
        path = tmp_path / "deadlock.conf"
        path.write_text("[network.n]\nL = 1us\n\n[run]\nnpes = 4\n\n"
                        "[measurement.m]\ntype = bcast_sk\nnbytes = 2097152\n"
                        "M = 1\n")
        assert cli_main(["--config", str(path)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: simulation deadlock: ")
        assert err.count("\n") == 1

    def test_undecodable_config_is_one_line_exit_2(self, tmp_path, capsys):
        path = tmp_path / "binary.conf"
        path.write_bytes(b"\xff\xfe[run]\n")
        assert cli_main(["--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")
        assert err.count("\n") == 1

    def test_missing_config_exit_code(self, capsys):
        assert cli_main([]) == 2
        assert cli_main(["--config", "/nonexistent/x.conf"]) == 2

    def test_list_measurements(self, capsys):
        assert cli_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "blocking_get" in out and "bcast_sk" in out
