"""Random configs through the CLI: each one runs or fails with one line.

A config that parses must emit its rows (exit 0, or 1 for report
failures); one that cannot run must exit 2 (config error) or 3 (deadlock)
with exactly one line on stderr. `main()` never raises. A config sets only
keys its measurement type reads, except where the drawn fault is a key the
type does not read, which must exit 2.
"""

import contextlib
import io

import pytest
from hypothesis import event, given, settings, strategies as st

from shmembench.harness import MEASUREMENT_TYPES
from shmembench.harness.cli import main as cli_main
from shmembench.harness.runner import TYPE_KEYS

SIZES = (0, 1, 8, 1000, 65536, 1 << 21)   # 2 MiB fills a PE's heap
# The fields a config may get wrong; at most one is wrong per example, so
# that about half the examples also reach the simulator.
FAULTS = ("npes", "iters", "nbytes", "M", "window_len", "barrier_root",
          "lock_pe", "drift", "offset", "foreign")
# A fault in a key that only some types read goes to such a type.
READERS = {fault: sorted(t for t, m in MEASUREMENT_TYPES.items()
                         if key in m.keys)
           for fault, key in (("iters", "iters"), ("nbytes", "nbytes"),
                              ("M", "M"), ("window_len", "window_len"),
                              ("lock_pe", "home_pe"))}
# A valid value of each key that only some types read
FOREIGN = {"nbytes": "8", "iters": "2", "strategy": "per_iteration",
           "M": "2", "window_len": "50us", "home_pe": "0",
           "requester_pe": "1"}


@st.composite
def configs(draw):
    """A one-measurement config and whether it sets a key its type does
    not read; optional keys are left out at random."""
    fault = draw(st.sampled_from(FAULTS + (None,) * len(FAULTS)))
    kind = draw(st.sampled_from(READERS.get(fault, sorted(MEASUREMENT_TYPES))))
    reads = MEASUREMENT_TYPES[kind].keys

    def value(field, valid, bad):
        return draw(st.sampled_from(bad) if fault == field else valid)

    def line(key, field, valid, bad):
        if key in TYPE_KEYS and key not in reads:
            return ""
        if draw(st.booleans()) and fault != field:
            return ""
        return f"{key} = {value(field, valid, bad)}\n"

    npes = value("npes", st.integers(2, 9), [0, 1])
    override = draw(st.one_of(st.none(), st.integers(1, 9)))
    pes = npes if override is None else override
    valid_rank = st.integers(0, max(pes - 1, 0))

    def per_pe(key, values, bad):
        """One value for all PEs or one per PE; wrong: one too many, or a
        bad value."""
        if draw(st.booleans()) and fault != key:
            return ""
        count = pes + 1 if fault == key and draw(st.booleans()) else pes
        items = [draw(st.sampled_from(values)) for _ in range(count)]
        if fault == key and count == pes:
            items[0] = bad
        return f"{key} = {', '.join(items)}\n"

    sizes = st.lists(st.sampled_from(SIZES), min_size=1, max_size=2,
                     unique=True)
    foreign = ""
    if fault == "foreign":
        key = draw(st.sampled_from(sorted(TYPE_KEYS - reads)))
        foreign = f"{key} = {FOREIGN[key]}\n"
    return "".join([
        "[network.n]\nL = 1us\no_s = 100ns\nG = 1ns\n",
        draw(st.sampled_from(["", "jitter = 200ns\n"])),
        "\n[clock]\n",
        per_pe("drift", ["0", "1e-6", "-2e-5"], "-1"),
        per_pe("offset", ["0", "1us", "-2us"], "soon"),
        f"\n[run]\nmax_reps = 2\nnpes = {npes}\n",
        "\n[measurement.m]\n",
        f"type = {kind}\n",
        f"npes = {override}\n" if override is not None else "",
        line("iters", "iters", st.integers(1, 4), [0, -1]),
        line("nbytes", "nbytes", sizes.map(
            lambda ns: ", ".join(map(str, sorted(ns)))), ["-8", "-1, 8"]),
        line("M", "M", st.integers(1, 4), [0, -1]),
        line("window_len", "window_len", st.sampled_from(["1ns", "50us"]),
             ["0", "-1us"]),
        line("barrier_root", "barrier_root", valid_rank, [-1, pes]),
        line("home_pe", "lock_pe", valid_rank, [-1, pes]),
        line("requester_pe", "lock_pe", valid_rank, [-1, pes]),
        foreign,
    ]), fault == "foreign"


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "fuzz.conf"


@settings(max_examples=300, deadline=None)
@given(config=configs(), report=st.booleans())
def test_every_config_runs_or_fails_with_one_line(config_path, config,
                                                 report):
    text, foreign = config
    config_path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    argv = ["--config", str(config_path)] + (["--report"] if report else [])
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    event(f"exit {code}")
    if code in (0, 1):
        assert err.getvalue() == ""
        lines = out.getvalue().splitlines()
        assert lines[0].startswith("name,nbytes,")
        assert len(lines) >= 2
        assert code == 0 or report
    else:
        assert code in (2, 3)
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
    if foreign:
        assert code == 2 and " does not apply to " in err.getvalue()
