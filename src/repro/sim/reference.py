"""The reference engine: the shared execution rules over a naive queue.

:class:`ReferenceSimulationEngine` is a :class:`~repro.sim.engine.SimulationEngine`
that replaces only the two queue seams:

* **enqueue** — each event tuple becomes an :class:`~repro.sim.events.Event`
  dataclass in an :class:`~repro.sim.events.EventQueue`, which breaks
  ties with its own FIFO counter and refuses events scheduled in the
  past;
* **loop driver** — a plain ``while queue: pop → set now → dispatch →
  monitors → counters`` loop, converting each popped event back into
  the engine's tuple layout for the shared dispatch.

Every rule (message fate, edge absence, corruption, crash/leave,
deferral, alarm generations, downtime, trace building) is inherited, so
``tests/test_engine_parity.py`` checks exactly what differs by design:
queue ordering and tie-breaks, and the tuple layout round trip.  It
always records a full trace.  Do not optimize this module — its value
is being the simple, obviously-correct loop.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Hashable, Iterable, Optional, Sequence

from repro.core.interfaces import Algorithm
from repro.faults.schedule import FaultSchedule
from repro.sim.delays import DelayModel
from repro.sim.drift import DriftModel
from repro.sim.engine import DEFAULT_MAX_EVENTS, SimulationEngine
from repro.sim.events import (
    AlarmEvent,
    CrashEvent,
    DeliveryEvent,
    Event,
    EventQueue,
    JoinEvent,
    LeaveEvent,
    RecoverEvent,
    WakeEvent,
)
from repro.topology.dynamic import TopologySchedule
from repro.topology.generators import Topology

__all__ = ["ReferenceSimulationEngine"]

NodeId = Hashable

#: Event class per engine kind code (the tuple's third field).
_EVENT_CLASSES = (
    CrashEvent, RecoverEvent, WakeEvent, DeliveryEvent, AlarmEvent, LeaveEvent, JoinEvent,
)
_KINDS = {cls: kind for kind, cls in enumerate(_EVENT_CLASSES)}


def _as_entry(event: Event) -> tuple:
    """The engine tuple for ``event``; the reference keeps no ``seq``."""
    fields = [getattr(event, f.name) for f in dataclasses.fields(event)]
    return (fields[0], None, _KINDS[type(event)], *fields[1:])


class ReferenceSimulationEngine(SimulationEngine):
    """:class:`~repro.sim.engine.SimulationEngine` over an
    :class:`~repro.sim.events.EventQueue`; always records a trace.

    Takes the fast engine's parameters except ``record_trace`` and
    ``trace_node_cap``.
    """

    def __init__(
        self,
        topology: Topology,
        algorithm: Algorithm,
        drift_model: DriftModel,
        delay_model: DelayModel,
        horizon: float,
        initiators: Optional[Iterable[NodeId]] = None,
        record_messages: bool = False,
        monitors: Sequence[Any] = (),
        max_events: int = DEFAULT_MAX_EVENTS,
        faults: Optional[FaultSchedule] = None,
        topology_schedule: Optional[TopologySchedule] = None,
        collect_metrics: bool = False,
        record_events: bool = False,
    ):
        self._queue = EventQueue()
        super().__init__(
            topology, algorithm, drift_model, delay_model, horizon,
            initiators=initiators, record_messages=record_messages,
            monitors=monitors, max_events=max_events, faults=faults,
            topology_schedule=topology_schedule,
            collect_metrics=collect_metrics, record_events=record_events,
        )

    def _push(self, entry: tuple) -> None:
        self._queue.push(_EVENT_CLASSES[entry[2]](entry[0], entry[3], *entry[4:]))

    def _drain(self) -> None:
        queue = self._queue
        while queue:
            if queue.peek_time() > self.horizon:
                break
            event = queue.pop()
            self.now = event.time
            entry = _as_entry(event)
            if self._dispatch(entry):
                for monitor in self.monitors:
                    monitor.check(self, event.node, self.now)
            self._events_processed += 1
            if self._metrics is not None:
                self._count_event(entry[2], len(queue))
            if self._events_processed > self.max_events:
                raise self._event_cap_error()
