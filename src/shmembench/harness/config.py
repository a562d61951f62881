"""Line-oriented `key = value` configuration with [section] headers.

Sections: `[network.<name>]` (one per model preset), `[clock]`, `[run]`,
and `[measurement.<name>]` (one per measurement; at least one required).
`SECTION_KEYS` holds one table per section, `key -> (attribute, parser)`;
a section's keys are parsed in table order. Duration values accept
s/ms/us/ns suffixes; bare numbers are seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..netmodel import NetworkModel, ProgressMode, PutReturnPolicy
from ..pgas import (BARRIER_DISSEMINATION, BARRIER_REDUCE_BCAST,
                    BCAST_BINOMIAL, BCAST_LINEAR, DEFAULT_HEAP_SIZE,
                    TimingStrategy)
from .runner import FORMATS, MEASUREMENT_TYPES, TYPE_KEYS


class ConfigError(ValueError):
    def __init__(self, msg: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {msg}" if line is not None else msg)


_DURATION_SUFFIXES = (("ns", 1e-9), ("us", 1e-6), ("ms", 1e-3), ("s", 1.0))


def parse_duration(text: str, line: int | None = None) -> float:
    text = text.strip()
    body, scale = text, 1.0
    for suffix, suffix_scale in _DURATION_SUFFIXES:
        if text.endswith(suffix):
            body, scale = text[:-len(suffix)].strip(), suffix_scale
            break
    try:
        value = float(body) * scale
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(f"bad duration {text!r}", line)
    return value


@dataclass
class MeasurementSpec:
    name: str
    type: str
    network: str = ""
    nbytes: list[int] = field(default_factory=lambda: [8])
    iters: int = 64
    strategy: TimingStrategy = TimingStrategy.GLOBAL_LOOP
    algo: str = BCAST_BINOMIAL            # broadcast topology
    barrier: str = BARRIER_DISSEMINATION  # barrier algorithm
    barrier_root: int = 0
    M: int = 16                      # acknowledged-broadcast inner length
    window_len: float | None = None
    expect: str = "exact"
    npes: int | None = None          # per-measurement override
    home_pe: int = 0
    requester_pe: int = 1


@dataclass
class BenchConfig:
    networks: dict[str, NetworkModel]
    measurements: list[MeasurementSpec]
    npes: int = 2
    seed: int = 0
    sigma_threshold: float = 0.05
    max_reps: int = 32
    tolerance: float = 0.02
    out_format: str = "csv"
    drift: list[float] | float = 0.0
    offset: list[float] | float = 0.0
    timer_overhead: float = 0.0


def _int(text: str, line: int) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise ConfigError(f"bad integer {text!r}", line) from None


def check_seed(seed: int, key: str = "seed", line: int | None = None) -> int:
    """The one range check of a base seed, from `[run]` or `--seed`."""
    if not 0 <= seed < 1 << 64:
        raise ConfigError(f"{key} must fit in 64 bits", line)
    return seed


def _float(text: str, line: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"bad number {text!r}", line) from None


def _finite(text: str, line: int) -> float:
    value = _float(text, line)
    if not math.isfinite(value):
        raise ConfigError(f"bad number {text!r}", line)
    return value


def _choice(choices):
    """A parser of one of `choices`: names, or an Enum whose values are the
    names; it returns the name, or the Enum member."""
    by_name = {getattr(c, "value", c): c for c in choices}

    def parse(text, line):
        if text not in by_name:
            raise ConfigError(
                f"{text!r} not one of {', '.join(sorted(by_name))}", line)
        return by_name[text]
    return parse


def _at_least(parse, key: str, low: int):
    def parse_at_least(text, line):
        value = parse(text, line)
        if value < low:
            raise ConfigError(f"{key} must be >= {low}, got {value}", line)
        return value
    return parse_at_least


def _per_pe(parse):
    """A parser of one value for every PE, or of a comma-separated list
    with one value per PE."""
    def parse_per_pe(text, line):
        items = [parse(part.strip(), line) for part in text.split(",")]
        return items[0] if len(items) == 1 else items
    return parse_per_pe


def _sweep(text: str, line: int) -> list[int]:
    sweep = [_int(part.strip(), line) for part in text.split(",")]
    if sorted(sweep) != sweep or len(set(sweep)) != len(sweep):
        raise ConfigError("nbytes sweep must be ascending", line)
    if sweep[0] < 0:
        raise ConfigError(f"nbytes must be >= 0, got {sweep[0]}", line)
    return sweep


def _drift(text: str, line: int) -> list[float] | float:
    drift = _per_pe(_float)(text, line)
    if not all(-1 < d < math.inf
               for d in (drift if isinstance(drift, list) else [drift])):
        raise ConfigError("drift must be > -1 and finite on every PE", line)
    return drift


def _timer_overhead(text: str, line: int) -> float:
    value = parse_duration(text, line)
    if value < 0:
        raise ConfigError("timer_overhead must be >= 0", line)
    return value


# Per section, in parse order: config key -> (attribute, parser). Network
# attributes are `NetworkModel` fields, clock and run ones `BenchConfig`
# fields, measurement ones `MeasurementSpec` fields.
SECTION_KEYS = {
    "network": {
        "o_s": ("o_s", parse_duration),
        "o_r": ("o_r", parse_duration),
        "L": ("L", parse_duration),
        "g": ("g", parse_duration),
        "G": ("G", parse_duration),
        "quiet_base": ("quiet_base", parse_duration),
        "jitter": ("jitter_half_width", parse_duration),
        "progress": ("progress_mode", _choice(ProgressMode)),
        "put_return": ("put_return_policy", _choice(PutReturnPolicy)),
    },
    "clock": {
        "drift": ("drift", _drift),
        "offset": ("offset", _per_pe(parse_duration)),
        "timer_overhead": ("timer_overhead", _timer_overhead),
    },
    "run": {
        "npes": ("npes", _int),
        "seed": ("seed", lambda text, line: check_seed(_int(text, line),
                                                       line=line)),
        "sigma_threshold": ("sigma_threshold", _finite),
        "max_reps": ("max_reps", _at_least(_int, "max_reps", 2)),
        "tolerance": ("tolerance", _finite),
        "format": ("out_format", _choice(FORMATS)),
    },
    "measurement": {
        "type": ("type", _choice(MEASUREMENT_TYPES)),
        "network": ("network", lambda text, line: text),
        "nbytes": ("nbytes", _sweep),
        "iters": ("iters", _at_least(_int, "iters", 1)),
        "strategy": ("strategy", _choice(TimingStrategy)),
        "algo": ("algo", _choice((BCAST_BINOMIAL, BCAST_LINEAR))),
        "barrier": ("barrier", _choice((BARRIER_DISSEMINATION,
                                        BARRIER_REDUCE_BCAST))),
        "barrier_root": ("barrier_root", _int),
        "M": ("M", _int),
        "window_len": ("window_len", parse_duration),
        "expect": ("expect", _choice(("exact", "biased_low"))),
        "npes": ("npes", _int),
        "home_pe": ("home_pe", _int),
        "requester_pe": ("requester_pe", _int),
    },
}


def _apply(keys: dict[str, tuple[int, str]], section: str) -> dict:
    """Parse the keys present, in the order of their section's table, into
    `{attribute: value}`, rejecting a measurement key its type (parsed
    first) does not read; then reject any key the table does not name."""
    values = {}
    for key, (attribute, parse) in SECTION_KEYS[section.split(".")[0]].items():
        if key in keys:
            lineno, text = keys.pop(key)
            if (key in TYPE_KEYS
                    and key not in MEASUREMENT_TYPES[values["type"]].keys):
                raise ConfigError(
                    f"{key} does not apply to {values['type']}", lineno)
            values[attribute] = parse(text, lineno)
    for key, (lineno, _) in keys.items():
        raise ConfigError(f"unknown key {key!r} in [{section}]", lineno)
    return values


def parse_config(text: str) -> BenchConfig:
    sections: dict[str, tuple[int, dict[str, tuple[int, str]]]] = {}
    current: dict[str, tuple[int, str]] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError("unterminated section header", lineno)
            name = line[1:-1].strip()
            if not name:
                raise ConfigError("empty section name", lineno)
            if name in sections:
                raise ConfigError(f"duplicate section [{name}]", lineno)
            sections[name] = (lineno, {})
            current = sections[name][1]
            continue
        if "=" not in line:
            raise ConfigError("expected `key = value`", lineno)
        if current is None:
            raise ConfigError("key outside any [section]", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError("empty key", lineno)
        if key in current:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        current[key] = (lineno, value)

    networks: dict[str, NetworkModel] = {}
    measurements: list[MeasurementSpec] = []
    settings = {}
    for section, (header_line, keys) in sections.items():
        if section.startswith("network."):
            params = _apply(keys, section)
            try:
                networks[section[len("network."):]] = NetworkModel(**params)
            except ValueError as e:
                raise ConfigError(str(e)) from None
        elif section in ("clock", "run"):
            settings.update(_apply(keys, section))
        elif section.startswith("measurement."):
            name = section[len("measurement."):]
            if "type" not in keys:
                raise ConfigError(f"measurement.{name}: missing `type`")
            measurements.append(MeasurementSpec(name, **_apply(keys, section)))
        else:
            raise ConfigError(f"unknown section [{section}]", header_line)
    cfg = BenchConfig(networks, measurements, **settings)

    if not measurements:
        raise ConfigError("no measurements")
    if not networks:
        raise ConfigError("no network presets")
    for spec in measurements:
        if not spec.network:
            if len(networks) == 1:
                spec.network = next(iter(networks))
            else:
                raise ConfigError(
                    f"measurement.{spec.name}: network preset required "
                    "when several are defined")
        if spec.network not in networks:
            raise ConfigError(
                f"measurement.{spec.name}: unknown network {spec.network!r}")
        _check_spec(cfg, spec)
    return cfg


def _check_spec(cfg: BenchConfig, spec: MeasurementSpec) -> None:
    """Reject a spec that cannot run in its effective number of PEs, with
    its heap footprint or with the `[clock]` per-PE lists."""
    npes = spec.npes if spec.npes is not None else cfg.npes
    where = f"measurement.{spec.name}"
    mtype = MEASUREMENT_TYPES[spec.type]
    if npes < mtype.min_npes:
        raise ConfigError(
            f"{where}: {spec.type} needs npes >= {mtype.min_npes}, got {npes}")
    for nbytes in spec.nbytes if "nbytes" in mtype.keys else [0]:
        footprint = mtype.footprint(nbytes)
        if footprint > DEFAULT_HEAP_SIZE:
            raise ConfigError(
                f"{where}: nbytes = {nbytes} addresses {footprint} heap "
                f"bytes per PE, more than the {DEFAULT_HEAP_SIZE} a PE has")
    if not 0 <= spec.barrier_root < npes:
        raise ConfigError(f"{where}: barrier_root = {spec.barrier_root} "
                          f"is not a PE of npes = {npes}")
    for key in ("drift", "offset"):
        per_pe = getattr(cfg, key)
        if isinstance(per_pe, list) and len(per_pe) != npes:
            raise ConfigError(f"{where}: [clock] {key} has {len(per_pe)} "
                              f"entries, not one per PE of npes = {npes}")
    problem = mtype.check(spec, npes)
    if problem:
        raise ConfigError(f"{where}: {problem}")
