"""Ground-truth event trace: the verification oracle for every measurement."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple


POST = "post"
LOCAL_COMPLETE = "local_complete"
REMOTE_DELIVERED = "remote_delivered"
QUIET_DONE = "quiet_done"
BARRIER_ENTER = "barrier_enter"
BARRIER_EXIT = "barrier_exit"
BCAST_ENTER = "bcast_enter"
BCAST_EXIT = "bcast_exit"
LOCK_ACQUIRED = "lock_acquired"
LOCK_RELEASED = "lock_released"
ACK_INC = "ack_inc"

EVENT_KINDS = frozenset({
    POST, LOCAL_COMPLETE, REMOTE_DELIVERED, QUIET_DONE,
    BARRIER_ENTER, BARRIER_EXIT, BCAST_ENTER, BCAST_EXIT,
    LOCK_ACQUIRED, LOCK_RELEASED, ACK_INC,
})


class TraceEvent(NamedTuple):
    """One traced event. It is a tuple, so it also compares equal to the
    plain tuple `(t_global, pe, kind, op_id)`."""

    t_global: float
    pe: int
    kind: str
    op_id: str


_new_event = tuple.__new__  # TraceEvent(...) without its Python-level __new__


class MissingInstanceError(KeyError):
    """A queried op/collective instance does not appear in the trace."""


@dataclass
class GroundTruthTrace:
    """Ordered record of true event times, plus side tables for span queries.

    `entries` is the canonical event log; it is only ever appended to.  The
    side tables index the same information for O(1) span queries:
    per-collective enter/exit maps, quiet spans, and the post-increment
    values observed on acknowledgment cells (used by the protocol-safety
    property checks).  The per-op table, `op_events`, is built on the first
    query, so a run whose trace nobody queries never builds it.
    """

    entries: list[TraceEvent] = field(default_factory=list)
    bcast_instances: dict[int, dict] = field(default_factory=dict)
    barrier_instances: dict[int, dict] = field(default_factory=dict)
    quiet_spans: dict[str, tuple[float, float]] = field(default_factory=dict)
    ack_values: list[tuple[float, int, int]] = field(default_factory=list)
    _op_index: dict[str, dict[str, float]] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _indexed: int = field(default=0, init=False, repr=False, compare=False)

    def record(self, t: float, pe: int, kind: str, op_id: str) -> None:
        assert kind in EVENT_KINDS, kind
        self.entries.append(_new_event(TraceEvent, (t, pe, kind, op_id)))

    @property
    def op_events(self) -> dict[str, dict[str, float]]:
        """op_id -> {kind: time of its last event of that kind}.

        Each access first indexes the entries recorded since the last one.
        """
        index = self._op_index
        for t, _, kind, op_id in self.entries[self._indexed:]:
            index.setdefault(op_id, {})[kind] = t
        self._indexed = len(self.entries)
        return index

    # -- oracle queries ----------------------------------------------------

    def op_elapsed(self, op_id: str) -> float:
        """True elapsed time of one RMA op: post to remote delivery."""
        try:
            ev = self.op_events[op_id]
            return ev[REMOTE_DELIVERED] - ev[POST]
        except KeyError as e:
            raise MissingInstanceError(f"op {op_id!r} incomplete or unknown") from e

    def bcast_span(self, instance: int) -> float:
        """Max over PEs of exit time minus the root's enter time."""
        try:
            inst = self.bcast_instances[instance]
            return max(inst["exit"].values()) - inst["enter"][inst["root"]]
        except KeyError as e:
            raise MissingInstanceError(f"broadcast instance {instance}") from e

    def barrier_span(self, instance: int) -> float:
        """Max exit minus max enter for one barrier instance."""
        try:
            inst = self.barrier_instances[instance]
            return max(inst["exit"].values()) - max(inst["enter"].values())
        except KeyError as e:
            raise MissingInstanceError(f"barrier instance {instance}") from e

    def quiet_elapsed(self, op_id: str) -> float:
        try:
            t0, t1 = self.quiet_spans[op_id]
            return t1 - t0
        except KeyError as e:
            raise MissingInstanceError(f"quiet instance {op_id!r}") from e

    def events_of_kind(self, kind: str) -> list[TraceEvent]:
        return [e for e in self.entries if e.kind == kind]

    # -- export ------------------------------------------------------------

    def export_text(self) -> str:
        """One event per line: t<TAB>pe<TAB>kind<TAB>op_id (>= 12 sig digits)."""
        lines = [f"{e.t_global:.12e}\t{e.pe}\t{e.kind}\t{e.op_id}" for e in self.entries]
        return "\n".join(lines) + ("\n" if lines else "")
