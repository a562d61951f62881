"""Line-oriented `key = value` configuration with [section] headers.

Sections: `[network.<name>]` (one per model preset), `[clock]`, `[run]`,
and `[measurement.<name>]` (one per measurement; at least one required).
Duration values accept s/ms/us/ns suffixes; bare numbers are seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..netmodel import NetworkModel, ProgressMode, PutReturnPolicy
from ..pgas import DEFAULT_HEAP_SIZE
from .runner import MEASUREMENT_TYPES


class ConfigError(ValueError):
    def __init__(self, msg: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {msg}" if line is not None else msg)


_DURATION_SUFFIXES = (("ns", 1e-9), ("us", 1e-6), ("ms", 1e-3), ("s", 1.0))

_PROGRESS = {"background": ProgressMode.BACKGROUND,
             "on_quiet": ProgressMode.ON_QUIET}
_PUT_RETURN = {"local": PutReturnPolicy.LOCAL_COMPLETION,
               "remote": PutReturnPolicy.REMOTE_COMPLETION}

_STRATEGIES = ("global_loop", "per_iteration")
_TOPOLOGIES = ("binomial", "linear")
_BARRIERS = ("dissemination", "reduce_bcast")
_EXPECTS = ("exact", "biased_low")
_FORMATS = ("csv", "jsonl")


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
    strategy: str = "global_loop"
    algo: str = "binomial"           # broadcast topology
    barrier: str = "dissemination"   # barrier algorithm
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


def _scalar_or_list(value: str, conv):
    parts = [p.strip() for p in value.split(",")]
    items = [conv(p) for p in parts]
    return items[0] if len(items) == 1 else items


def _int(value: str, line: int) -> int:
    try:
        return int(value, 0)
    except ValueError:
        raise ConfigError(f"bad integer {value!r}", line) from None


def _float(value: str, line: int) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"bad number {value!r}", line) from None


def _enum(value: str, allowed, line: int) -> str:
    if value not in allowed:
        raise ConfigError(f"{value!r} not one of {', '.join(sorted(allowed))}", line)
    return value


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
    cfg = BenchConfig(networks=networks, measurements=measurements)

    for section, (header_line, keys) in sections.items():
        if section.startswith("network."):
            networks[section[len("network."):]] = _parse_network(keys)
        elif section == "clock":
            _parse_clock(cfg, keys)
        elif section == "run":
            _parse_run(cfg, keys)
        elif section.startswith("measurement."):
            measurements.append(
                _parse_measurement(section[len("measurement."):], keys))
        else:
            raise ConfigError(f"unknown section [{section}]", header_line)

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
    for nbytes in spec.nbytes if mtype.sweeps_bytes else [0]:
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


def _pop(keys, name, default=None):
    return keys.pop(name, (None, default))


def _reject_unknown(keys, where):
    for key, (lineno, _) in keys.items():
        raise ConfigError(f"unknown key {key!r} in [{where}]", lineno)


def _parse_network(keys) -> NetworkModel:
    params = {}
    for field_name in ("o_s", "o_r", "L", "g", "G", "quiet_base", "jitter"):
        lineno, value = _pop(keys, field_name)
        if value is not None:
            target = "jitter_half_width" if field_name == "jitter" else field_name
            params[target] = parse_duration(value, lineno)
    lineno, value = _pop(keys, "progress")
    if value is not None:
        params["progress_mode"] = _PROGRESS[_enum(value, _PROGRESS, lineno)]
    lineno, value = _pop(keys, "put_return")
    if value is not None:
        params["put_return_policy"] = _PUT_RETURN[_enum(value, _PUT_RETURN, lineno)]
    _reject_unknown(keys, "network")
    try:
        return NetworkModel(**params)
    except ValueError as e:
        raise ConfigError(str(e)) from None


def _parse_clock(cfg: BenchConfig, keys) -> None:
    lineno, value = _pop(keys, "drift")
    if value is not None:
        cfg.drift = _scalar_or_list(value, lambda v: _float(v, lineno))
        drifts = cfg.drift if isinstance(cfg.drift, list) else [cfg.drift]
        if not all(-1 < d < math.inf for d in drifts):
            raise ConfigError("drift must be > -1 and finite on every PE",
                              lineno)
    lineno, value = _pop(keys, "offset")
    if value is not None:
        cfg.offset = _scalar_or_list(value,
                                    lambda v: parse_duration(v, lineno))
    lineno, value = _pop(keys, "timer_overhead")
    if value is not None:
        cfg.timer_overhead = parse_duration(value, lineno)
        if cfg.timer_overhead < 0:
            raise ConfigError("timer_overhead must be >= 0", lineno)
    _reject_unknown(keys, "clock")


def _parse_run(cfg: BenchConfig, keys) -> None:
    lineno, value = _pop(keys, "npes")
    if value is not None:
        cfg.npes = _int(value, lineno)
    lineno, value = _pop(keys, "seed")
    if value is not None:
        cfg.seed = _int(value, lineno)
    lineno, value = _pop(keys, "sigma_threshold")
    if value is not None:
        cfg.sigma_threshold = _float(value, lineno)
    lineno, value = _pop(keys, "max_reps")
    if value is not None:
        cfg.max_reps = _int(value, lineno)
        if cfg.max_reps < 2:
            raise ConfigError("max_reps must be >= 2", lineno)
    lineno, value = _pop(keys, "tolerance")
    if value is not None:
        cfg.tolerance = _float(value, lineno)
    lineno, value = _pop(keys, "format")
    if value is not None:
        cfg.out_format = _enum(value, _FORMATS, lineno)
    _reject_unknown(keys, "run")


def _parse_measurement(name: str, keys) -> MeasurementSpec:
    lineno, value = _pop(keys, "type")
    if value is None:
        raise ConfigError(f"measurement.{name}: missing `type`")
    spec = MeasurementSpec(name=name,
                           type=_enum(value, MEASUREMENT_TYPES, lineno))
    lineno, value = _pop(keys, "network")
    if value is not None:
        spec.network = value
    lineno, value = _pop(keys, "nbytes")
    if value is not None:
        sweep = [_int(p.strip(), lineno) for p in value.split(",")]
        if not sweep or sorted(sweep) != sweep or len(set(sweep)) != len(sweep):
            raise ConfigError("nbytes sweep must be ascending", lineno)
        if sweep[0] < 0:
            raise ConfigError(f"nbytes must be >= 0, got {sweep[0]}", lineno)
        spec.nbytes = sweep
    lineno, value = _pop(keys, "iters")
    if value is not None:
        spec.iters = _int(value, lineno)
        if spec.iters < 1:
            raise ConfigError(f"iters must be >= 1, got {spec.iters}", lineno)
    lineno, value = _pop(keys, "strategy")
    if value is not None:
        spec.strategy = _enum(value, _STRATEGIES, lineno)
    lineno, value = _pop(keys, "algo")
    if value is not None:
        spec.algo = _enum(value, _TOPOLOGIES, lineno)
    lineno, value = _pop(keys, "barrier")
    if value is not None:
        spec.barrier = _enum(value, _BARRIERS, lineno)
    lineno, value = _pop(keys, "barrier_root")
    if value is not None:
        spec.barrier_root = _int(value, lineno)
    lineno, value = _pop(keys, "M")
    if value is not None:
        spec.M = _int(value, lineno)
    lineno, value = _pop(keys, "window_len")
    if value is not None:
        spec.window_len = parse_duration(value, lineno)
    lineno, value = _pop(keys, "expect")
    if value is not None:
        spec.expect = _enum(value, _EXPECTS, lineno)
    lineno, value = _pop(keys, "npes")
    if value is not None:
        spec.npes = _int(value, lineno)
    lineno, value = _pop(keys, "home_pe")
    if value is not None:
        spec.home_pe = _int(value, lineno)
    lineno, value = _pop(keys, "requester_pe")
    if value is not None:
        spec.requester_pe = _int(value, lineno)
    _reject_unknown(keys, f"measurement.{name}")
    return spec
