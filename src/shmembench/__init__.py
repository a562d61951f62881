"""Benchmarking laboratory for one-sided (OpenSHMEM-style) communication.

A deterministic discrete-event PGAS runtime simulator with ground-truth
tracing, plus the measurement algorithms (point-to-point, broadcast, lock,
window-synchronized) whose accuracy the traces let us verify.
"""

from .netmodel import (ClockModel, NetworkModel, ProgressMode,
                       PutReturnPolicy)
from .pgas import (BARRIER_DISSEMINATION, BARRIER_REDUCE_BCAST,
                   BCAST_BINOMIAL, BCAST_LINEAR, CollectiveMismatchError,
                   DeadlockError, HeapFault, LockError, Measurement, Pe,
                   PgasWorld, TimingStrategy, run_fresh, timed_loop)
from .trace import GroundTruthTrace, TraceEvent
from .syncschemes import (SyncState, estimate_offsets, measure_barrier_time,
                          offset_probe_fragment, start_synchronization,
                          stop_synchronization)
from .p2pbench import measure_blocking, measure_nonblocking, measure_quiet
from .collbench import (ground_truth_bcast_span, measure_bcast_barrier,
                        measure_bcast_naive, measure_bcast_rounds,
                        measure_bcast_sk, measure_bcast_sync)
from .lockbench import LockScenario, measure_lock

__all__ = [
    "ClockModel", "NetworkModel", "ProgressMode", "PutReturnPolicy",
    "PgasWorld", "Pe", "run_fresh", "timed_loop", "Measurement",
    "GroundTruthTrace", "TraceEvent",
    "DeadlockError", "HeapFault", "CollectiveMismatchError", "LockError",
    "BCAST_LINEAR", "BCAST_BINOMIAL",
    "BARRIER_DISSEMINATION", "BARRIER_REDUCE_BCAST",
    "SyncState", "estimate_offsets", "measure_barrier_time",
    "offset_probe_fragment", "start_synchronization", "stop_synchronization",
    "TimingStrategy", "measure_blocking", "measure_nonblocking",
    "measure_quiet", "ground_truth_bcast_span",
    "measure_bcast_naive", "measure_bcast_barrier", "measure_bcast_sync",
    "measure_bcast_rounds", "measure_bcast_sk",
    "LockScenario", "measure_lock",
]

__version__ = "0.1.0"
