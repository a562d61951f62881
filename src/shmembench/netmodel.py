"""Cost model for simulated one-sided communication and per-PE clocks.

The network side is a LogP-style parametrization extended with a per-byte
serialization cost, so message cost = o_s + L + G*nbytes + o_r.  The clock
side is an affine per-PE clock (offset + drift) plus a fixed cost charged
for every timer read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence


class ProgressMode(Enum):
    """Whether posted non-blocking operations progress asynchronously."""

    BACKGROUND = "background"
    ON_QUIET = "on_quiet"


class PutReturnPolicy(Enum):
    """When a blocking put returns to the caller."""

    LOCAL_COMPLETION = "local"
    REMOTE_COMPLETION = "remote"


@dataclass(frozen=True)
class NetworkModel:
    """Parametric cost model; the single source of simulated truth.

    o_s, o_r: send/receive overheads (s)
    L: wire latency (s)
    g: minimum gap between consecutive injections from one PE's NIC (s)
    G: serialization cost per byte (s/byte)
    quiet_base: fixed cost of a quiet call even with nothing pending;
        defaults to 2*o_s when not given.
    jitter_half_width: bounded uniform jitter added to each message's wire
        latency, in [-w, +w]; 0 disables it.
    """

    o_s: float = 0.0
    o_r: float = 0.0
    L: float = 0.0
    g: float = 0.0
    G: float = 0.0
    progress_mode: ProgressMode = ProgressMode.BACKGROUND
    put_return_policy: PutReturnPolicy = PutReturnPolicy.LOCAL_COMPLETION
    quiet_base: float | None = None
    jitter_half_width: float = 0.0

    def __post_init__(self):
        for name in ("o_s", "o_r", "L", "g", "G", "jitter_half_width"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.quiet_base is not None and self.quiet_base < 0:
            raise ValueError("quiet_base must be >= 0")

    @property
    def q0(self) -> float:
        """Fixed base cost of an empty quiet."""
        return 2.0 * self.o_s if self.quiet_base is None else self.quiet_base

    def transfer_duration(self, nbytes: int) -> float:
        """One-way delivery cost of a single message of `nbytes` bytes."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        return self.o_s + self.L + self.G * nbytes + self.o_r


def _per_pe(value: float | Sequence[float], npes: int, name: str) -> tuple[float, ...]:
    if isinstance(value, (int, float)):
        return (float(value),) * npes
    vals = tuple(float(v) for v in value)
    if len(vals) != npes:
        raise ValueError(f"{name} must have one entry per PE ({npes}), got {len(vals)}")
    return vals


@dataclass(frozen=True)
class ClockModel:
    """Affine per-PE clock: local = initial_offset + (1 + drift_rate) * t."""

    npes: int
    drift_rate: tuple[float, ...] = field(default=())
    initial_offset: tuple[float, ...] = field(default=())
    timer_overhead: float = 0.0

    def __post_init__(self):
        if self.npes < 1:
            raise ValueError("npes must be >= 1")
        object.__setattr__(self, "drift_rate",
                           _per_pe(self.drift_rate or 0.0, self.npes, "drift_rate"))
        object.__setattr__(self, "initial_offset",
                           _per_pe(self.initial_offset or 0.0, self.npes, "initial_offset"))
        if self.timer_overhead < 0:
            raise ValueError("timer_overhead must be >= 0")
        for d in self.drift_rate:
            if d <= -1.0:
                raise ValueError("drift_rate must be > -1 for a monotone clock")

    def local_time(self, pe: int, t_global: float) -> float:
        """Observed local timestamp on `pe` at global instant `t_global`."""
        if not 0 <= pe < self.npes:
            raise ValueError(f"unknown pe {pe}")
        return self.initial_offset[pe] + (1.0 + self.drift_rate[pe]) * t_global

    def global_time(self, pe: int, t_local: float) -> float:
        """Inverse of local_time."""
        if not 0 <= pe < self.npes:
            raise ValueError(f"unknown pe {pe}")
        return (t_local - self.initial_offset[pe]) / (1.0 + self.drift_rate[pe])


def ceil_log2(n: int) -> int:
    if n < 1:
        raise ValueError("n must be >= 1")
    return max(0, math.ceil(math.log2(n)))
