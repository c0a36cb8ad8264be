"""Event records and the deterministic event queue.

The paper's model is fully asynchronous: node actions are triggered either
by message receipt (Algorithm 2) or by the local hardware clock reaching a
target value (Algorithms 1 and 4).  The simulation therefore needs exactly
three event kinds — node wake-up, message delivery, and hardware alarm —
plus two *fault* transitions (node crash and node recovery) for the
robustness extension of :mod:`repro.faults`, and two *topology*
transitions (node leave and node join) for the dynamic-graph extension
of :mod:`repro.topology.dynamic`.

Determinism matters for reproducibility of adversarial executions:
simultaneous events are ordered by a monotone sequence number, so a given
execution (graph + schedules + seeds) always replays identically.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Hashable, List, Optional

from repro.errors import SimulationError

__all__ = [
    "Event",
    "WakeEvent",
    "DeliveryEvent",
    "AlarmEvent",
    "CrashEvent",
    "RecoverEvent",
    "LeaveEvent",
    "JoinEvent",
    "EventQueue",
]

NodeId = Hashable


@dataclass(frozen=True)
class Event:
    """Base event: something that happens at a real time at a node."""

    time: float
    node: NodeId


@dataclass(frozen=True)
class WakeEvent(Event):
    """A node initializes spontaneously (an initiator node)."""


@dataclass(frozen=True)
class DeliveryEvent(Event):
    """A message arrives at ``node`` from neighbor ``sender``."""

    sender: NodeId = None
    payload: Any = None
    send_time: float = 0.0
    size_bits: int = 0


@dataclass(frozen=True)
class AlarmEvent(Event):
    """A named hardware-time alarm fires at ``node``.

    ``generation`` implements cancellation: re-arming an alarm bumps the
    node's generation counter for that name, and stale queue entries are
    dropped when popped.
    """

    name: str = ""
    generation: int = 0
    hardware_value: float = 0.0


@dataclass(frozen=True)
class CrashEvent(Event):
    """``node`` crashes: it stops processing events until it recovers.

    Derived from a :class:`~repro.faults.schedule.FaultSchedule`; pushed
    at engine construction so a crash at time ``t`` is processed before
    any same-time wake, delivery, or alarm pushed later.
    """


@dataclass(frozen=True)
class RecoverEvent(Event):
    """``node`` recovers from a crash and resumes processing (stale state)."""


@dataclass(frozen=True)
class LeaveEvent(Event):
    """``node`` leaves the network (dynamic topology): processes no events.

    Derived from a :class:`~repro.topology.dynamic.TopologySchedule`;
    pushed at engine construction so a leave at time ``t`` is processed
    before any same-time crash, wake, delivery, or alarm pushed later.
    """


@dataclass(frozen=True)
class JoinEvent(Event):
    """``node`` (re-)enters the network; integration is message-driven."""


@dataclass(order=True)
class _QueueEntry:
    time: float
    seq: int
    event: Event = field(compare=False)


class EventQueue:
    """A time-ordered queue with deterministic FIFO tie-breaking."""

    def __init__(self) -> None:
        self._heap: List[_QueueEntry] = []
        self._counter = itertools.count()
        self._last_popped_time: Optional[float] = None

    def push(self, event: Event) -> None:
        if self._last_popped_time is not None and event.time < self._last_popped_time:
            raise SimulationError(
                f"event at time {event.time} scheduled in the past "
                f"(current time {self._last_popped_time}): {event}"
            )
        heapq.heappush(self._heap, _QueueEntry(event.time, next(self._counter), event))

    def pop(self) -> Event:
        if not self._heap:
            raise SimulationError("pop from empty event queue")
        entry = heapq.heappop(self._heap)
        self._last_popped_time = entry.time
        return entry.event

    def peek_time(self) -> Optional[float]:
        """Time of the next event, or ``None`` if the queue is empty."""
        return self._heap[0].time if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
