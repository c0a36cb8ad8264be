"""Span tracer for the benchmark's traced run.

The traced run wraps the public entry points of each layer of the
``repro`` package at class (or module) level, from outside the program:
nothing under ``src/`` knows it is being measured, and every wrapper
returns exactly what the wrapped call returned, so spec digests and
execution summaries stay byte-identical to an untraced run.

Two kinds of record come out of a traced pass:

* **Spans** ``(name, start, end, parent)`` for the coarse boundaries —
  one sweep batch, one ``run_summary``, engine set-up and run, the skew
  folds, cache and digest calls, certificate checks.  Spans of one
  execution share its spec digest as their id.  They are kept in memory
  and written out when the benchmark ends.
* **Aggregates** ``(calls, total, self)`` per entry point for the
  high-frequency boundaries — algorithm callbacks, ``NodeContext``
  calls, clock evaluations, delay/drift draws, monitor checks, the
  streaming tracker, fault queries.  A sweep pass makes millions of
  these calls; keeping each as a span would cost gigabytes, so their
  spans live only on the call stack and are folded into per-name sums
  as they close.

A span's *self time* is its duration minus the union of its children's
intervals (:func:`union_length`).  Calls that re-enter the layer they
are already in (``record.value`` calling ``hardware.value``) are
counted but not timed separately: their time is already inside the
enclosing span of the same layer.
"""

from __future__ import annotations

import dataclasses
import inspect
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Tracer",
    "union_length",
    "self_times",
    "install",
    "uninstall",
    "layer_metrics",
]

# Frame layout on the tracer's call stack (lists, for speed):
_LAYER, _START, _COVERED, _LAST_END = 0, 1, 2, 3


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by the union of ``(start, end)`` intervals."""
    covered = 0.0
    last_end = float("-inf")
    for start, end in sorted(intervals):
        low = start if start > last_end else last_end
        if end > low:
            covered += end - low
        if end > last_end:
            last_end = end
    return covered


def self_times(spans: Sequence[dict]) -> List[float]:
    """Self time of every span: duration minus the union of its children.

    ``spans`` are mappings with ``start``, ``end`` and ``parent`` (the
    index of the parent span in the same sequence, or ``None``).
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    return [
        (span["end"] - span["start"]) - union_length(children.get(i, ()))
        for i, span in enumerate(spans)
    ]


class Tracer:
    """Call stack, kept spans and per-entry-point aggregates of one pass."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[dict] = []
        #: name -> [calls, total seconds, self seconds]
        self.aggregates: Dict[str, List[float]] = {}
        #: name -> [count]
        self.counters: Dict[str, List[int]] = {}
        #: Engine ``RunMetrics`` counters summed over executions.
        self.engine: Dict[str, int] = {}
        self._stack: List[list] = []
        self._open_kept: List[int] = []
        #: Cell of the counter that record evaluations are attributed
        #: to while inside a skew fold (``[None]`` outside one).
        self._zone: List[Optional[List[int]]] = [None]
        self._installed: List[Tuple[object, str, object]] = []
        self._forced_metrics: set = set()

    def aggregate(self, name: str) -> List[float]:
        return self.aggregates.setdefault(name, [0, 0.0, 0.0])

    def counter(self, name: str) -> List[int]:
        return self.counters.setdefault(name, [0])

    def count(self, name: str) -> int:
        return self.counters.get(name, [0])[0]

    # -- span bookkeeping ----------------------------------------------------

    def _close(self, frame: list, end: float, agg: List[float]) -> None:
        """Fold a finished frame into its aggregate and its parent."""
        start = frame[_START]
        duration = end - start
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - frame[_COVERED]
        stack = self._stack
        if stack:
            parent = stack[-1]
            last_end = parent[_LAST_END]
            low = start if start > last_end else last_end
            if end > low:
                parent[_COVERED] += end - low
            if end > last_end:
                parent[_LAST_END] = end

    def open_span(self, name: str, layer: str) -> list:
        """Open a kept span by hand (the benchmark's own pass boundary)."""
        frame = [layer, self.clock(), 0.0, float("-inf")]
        frame.append(self._keep(name, frame[_START]))
        self._stack.append(frame)
        return frame

    def close_span(self, name: str, frame: list) -> None:
        end = self.clock()
        if self._stack.pop() is not frame:
            raise RuntimeError(f"span {name!r} closed out of order")
        self._finish_kept(frame[4], end)
        self._close(frame, end, self.aggregate(name))

    def _keep(self, name: str, start: float) -> int:
        index = len(self.spans)
        self.spans.append(
            {
                "name": name,
                "start": start,
                "end": None,
                "parent": self._open_kept[-1] if self._open_kept else None,
                "id": None,
            }
        )
        self._open_kept.append(index)
        return index

    def _finish_kept(self, index: int, end: float) -> None:
        self._open_kept.pop()
        self.spans[index]["end"] = end

    def tag_spans(self, first: int, span_id: str) -> None:
        """Give spans ``first..`` that have no id yet the id ``span_id``."""
        for span in self.spans[first:]:
            if span["id"] is None:
                span["id"] = span_id

    # -- wrapper factories ---------------------------------------------------

    def span_wrapper(
        self,
        fn: Callable,
        name: str,
        layer: str,
        keep: bool = False,
        zone: Optional[str] = None,
    ) -> Callable:
        """Time every call of ``fn`` as a span named ``name``."""
        stack = self._stack
        clock = self.clock
        agg = self.aggregate(name)
        close = self._close
        zone_ref = self._zone
        zone_cell = self.counter(zone) if zone is not None else None
        keep_span = self._keep
        finish_kept = self._finish_kept

        def wrapper(*args, **kwargs):
            if stack and stack[-1][_LAYER] == layer and not keep:
                agg[0] += 1
                return fn(*args, **kwargs)
            frame = [layer, clock(), 0.0, float("-inf")]
            kept = keep_span(name, frame[_START]) if keep else -1
            stack.append(frame)
            previous_zone = zone_ref[0]
            if zone_cell is not None:
                zone_ref[0] = zone_cell
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                zone_ref[0] = previous_zone
                stack.pop()
                if kept >= 0:
                    finish_kept(kept, end)
                close(frame, end, agg)

        wrapper.__wrapped__ = fn
        return wrapper

    def eval_wrapper(
        self,
        fn: Callable,
        name: str,
        record: int = 0,
        hardware: int = 0,
        rate: int = 0,
        points: Optional[int] = None,
    ) -> Callable:
        """Count clock evaluations of ``fn``; time only calls from outside.

        Each call adds ``record``/``hardware``/``rate`` evaluations per
        point: one point for a scalar call, ``len(args[points])`` for a
        batched one.  Record evaluations made inside a skew fold are
        also credited to that fold's counter.
        """
        layer = "sim.clock"
        stack = self._stack
        clock = self.clock
        agg = self.aggregate(name)
        close = self._close
        zone_ref = self._zone
        record_cell = self.counter("sim.clock.record_evals")
        hardware_cell = self.counter("sim.clock.hw_evals")
        rate_cell = self.counter("sim.clock.rate_evals")

        def wrapper(*args, **kwargs):
            n = 1 if points is None else len(args[points])
            if record:
                record_cell[0] += record * n
                zone = zone_ref[0]
                if zone is not None:
                    zone[0] += record * n
            if hardware:
                hardware_cell[0] += hardware * n
            if rate:
                rate_cell[0] += rate * n
            if stack and stack[-1][_LAYER] == layer:
                agg[0] += 1
                return fn(*args, **kwargs)
            frame = [layer, clock(), 0.0, float("-inf")]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                close(frame, end, agg)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------------

    def patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        """Replace ``owner.attr`` (an attribute of its own) by ``wrapper``."""
        original = vars(owner)[attr]
        self._installed.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    @property
    def installed(self) -> List[Tuple[object, str, object]]:
        return list(self._installed)


# -- the layers' entry points ----------------------------------------------


def _subclasses(root: type) -> List[type]:
    seen, todo = [], [root]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return sorted(seen, key=lambda c: (c.__module__, c.__qualname__))


def _own_methods(cls: type, names: Iterable[str]) -> List[str]:
    """Names in ``names`` that ``cls`` itself defines as concrete functions."""
    own = vars(cls)
    return [
        name
        for name in names
        if inspect.isfunction(own.get(name))
        and not getattr(own[name], "__isabstractmethod__", False)
    ]


_CALLBACKS = ("on_start", "on_message", "on_alarm", "on_recover")
_CONTEXT_CALLS = (
    "hardware", "logical", "rate_multiplier", "set_rate_multiplier",
    "jump_logical", "send_to", "send_all", "set_alarm", "cancel_alarm",
    "probe",
)
_TRACKER_CALLS = ("note_start", "note_checkpoint", "advance", "finalize")


def _engine_hooks(tracer: Tracer, init: Callable, run: Callable,
                  run_streaming: Callable):
    """Engine wrappers that collect ``RunMetrics`` without leaking them.

    The traced run needs the engine's own counters (sends, superseded
    alarms, queue high-water mark).  Set-up turns metrics collection on
    for engines whose caller did not ask for it; the run hooks add the
    counters to the tracer and hand the caller the result it would have
    got without metrics, so summaries stay byte-identical.
    """
    signature = inspect.signature(init)
    forced = tracer._forced_metrics

    def forced_init(self, *args, **kwargs):
        bound = signature.bind(self, *args, **kwargs)
        force = not bound.arguments.get("collect_metrics", False)
        if force:
            bound.arguments["collect_metrics"] = True
        init(*bound.args, **bound.kwargs)
        if force:
            forced.add(id(self))

    def harvest(engine, result):
        metrics = result.metrics
        if metrics is not None:
            totals = tracer.engine
            for key, value in (
                ("events", metrics.events_processed),
                ("sends", metrics.sends),
                ("alarms_set", metrics.alarms_set),
                ("alarms_fired", metrics.alarms_fired),
                ("alarms_superseded", metrics.alarms_superseded),
                ("checkpoints", metrics.total_checkpoints),
                ("breakpoints", metrics.total_breakpoints),
            ):
                totals[key] = totals.get(key, 0) + value
            totals["queue_depth_hwm"] = max(
                totals.get("queue_depth_hwm", 0), metrics.queue_depth_hwm
            )
        if id(engine) in forced:
            forced.discard(id(engine))
            if dataclasses.is_dataclass(result) and result.__dataclass_params__.frozen:
                return dataclasses.replace(result, metrics=None)
            result.metrics = None
        return result

    def traced_run(self, *args, **kwargs):
        return harvest(self, run(self, *args, **kwargs))

    def traced_run_streaming(self, *args, **kwargs):
        return harvest(self, run_streaming(self, *args, **kwargs))

    return forced_init, traced_run, traced_run_streaming


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry points; :func:`uninstall` restores them.

    Call after the workload's modules are imported: algorithm, monitor
    and certificate classes are found by walking the subclasses loaded
    at that moment.
    """
    import repro.cert.runner as cert_runner
    import repro.exec.summary as exec_summary
    import repro.sim.trace as sim_trace
    from repro.cert.certificates import Certificate
    from repro.cert.scenario import CertScenario
    from repro.core.interfaces import AlgorithmNode, NodeContext
    from repro.exec.cache import ResultCache
    from repro.exec.pool import SweepExecutor
    from repro.exec.spec import ExecutionSpec
    from repro.faults.injector import FaultInjector
    from repro.sim.clock import HardwareClock
    from repro.sim.delays import DelayModel
    from repro.sim.drift import DriftModel
    from repro.sim.engine import SimulationEngine
    from repro.sim.monitors import BaseMonitor, StreamingSkewTracker
    from repro.sim.rates import PiecewiseConstantRate
    from repro.sim.trace import ExecutionTrace, LogicalClockRecord

    if tracer.installed:
        raise RuntimeError("tracer is already installed")
    span, patch = tracer.span_wrapper, tracer.patch

    def wrap(owner, attr, name, layer, **options):
        patch(owner, attr, span(vars(owner)[attr], name, layer, **options))

    for cls in _subclasses(AlgorithmNode):
        for attr in _own_methods(cls, _CALLBACKS):
            wrap(cls, attr, f"core.{attr}", "core")
    for cls in _subclasses(NodeContext):
        for attr in _own_methods(cls, _CONTEXT_CALLS):
            wrap(cls, attr, f"sim.engine.ctx.{attr}", "sim.engine")

    init, run, run_streaming = _engine_hooks(
        tracer,
        vars(SimulationEngine)["__init__"],
        vars(SimulationEngine)["run"],
        vars(SimulationEngine)["run_streaming"],
    )
    patch(SimulationEngine, "__init__",
          span(init, "sim.engine.setup", "sim.engine.setup", keep=True))
    patch(SimulationEngine, "run",
          span(run, "sim.engine.run", "sim.engine", keep=True))
    patch(SimulationEngine, "run_streaming",
          span(run_streaming, "sim.engine.run", "sim.engine", keep=True))

    wrap(DelayModel, "validated_delay", "sim.delays.validated_delay", "sim.delays")
    wrap(DriftModel, "validated_rate_function",
         "sim.drift.validated_rate_function", "sim.drift")

    evals = tracer.eval_wrapper
    for owner, attr, counts in (
        (LogicalClockRecord, "value", dict(record=1)),
        (LogicalClockRecord, "value_left", dict(record=1)),
        (LogicalClockRecord, "values_at", dict(record=1, points=1)),
        (LogicalClockRecord, "values_left_at", dict(record=1, points=1)),
        (HardwareClock, "value", dict(hardware=1)),
        (HardwareClock, "values_at", dict(hardware=1, points=1)),
        (HardwareClock, "time_at_value", dict(hardware=1)),
        (PiecewiseConstantRate, "integral_from_start", dict(rate=1)),
        (PiecewiseConstantRate, "integrals_at", dict(rate=1, points=1)),
        (PiecewiseConstantRate, "advance", dict(rate=1)),
    ):
        name = f"sim.clock.{owner.__name__}.{attr}"
        patch(owner, attr, evals(vars(owner)[attr], name, **counts))
    # The numpy column evaluator of the trace fold: right value and left
    # limit of one record at every point, with the hardware clock and its
    # rate integral computed inline.
    patch(sim_trace, "_vector_values", evals(
        vars(sim_trace)["_vector_values"], "sim.clock.vector_values",
        record=2, hardware=1, rate=1, points=1,
    ))

    for attr in ("global_skew", "local_skew"):
        wrap(ExecutionTrace, attr, "sim.trace.fold", "sim.trace.fold",
             keep=True, zone="sim.trace.fold_points")
    for attr in _TRACKER_CALLS:
        wrap(StreamingSkewTracker, attr, f"sim.monitors.stream.{attr}",
             "sim.monitors.stream", zone="sim.monitors.stream_record_evals")
    for cls in _subclasses(BaseMonitor):
        for attr in _own_methods(cls, ("check",)):
            wrap(cls, attr, "sim.monitors.check", "sim.monitors.check")

    public_queries = [
        attr for attr, value in vars(FaultInjector).items()
        if inspect.isfunction(value) and not attr.startswith("_")
    ]
    for attr in public_queries:
        wrap(FaultInjector, attr, f"faults.{attr}", "faults")

    wrap(ExecutionSpec, "digest", "exec.digest", "exec.digest", keep=True)
    run_summary = vars(ExecutionSpec)["run_summary"]
    spec_digest = vars(ExecutionSpec)["digest"]

    def tagged_run_summary(self, *args, **kwargs):
        first = tracer._open_kept[-1]  # this call's own exec.run_summary span
        try:
            return run_summary(self, *args, **kwargs)
        finally:
            tracer.tag_spans(first, spec_digest(self))

    patch(ExecutionSpec, "run_summary",
          span(tagged_run_summary, "exec.run_summary", "exec.run_summary", keep=True))
    wrap(ResultCache, "get", "exec.cache_get", "exec.cache_get", keep=True)
    wrap(ResultCache, "put", "exec.cache_put", "exec.cache_put", keep=True)
    wrap(SweepExecutor, "run", "exec.sweep", "exec.sweep", keep=True)
    for attr in ("summarize_trace", "summarize_streaming"):
        wrap(exec_summary, attr, "exec.summarize", "exec.summarize", keep=True)

    generate = vars(cert_runner)["generate_scenarios"]

    def generate_all(*args, **kwargs):
        # The stream is lazy; draw it inside the span so the span times
        # the fuzzing, not the creation of a generator.
        return iter(list(generate(*args, **kwargs)))

    patch(cert_runner, "generate_scenarios",
          span(generate_all, "cert.fuzz", "cert.fuzz", keep=True))
    wrap(CertScenario, "build_spec", "cert.build_spec", "cert.fuzz", keep=True)
    for cls in _subclasses(Certificate):
        for attr in _own_methods(cls, ("check_summary",)):
            wrap(cls, attr, "cert.check", "cert.check", keep=True)


def uninstall(tracer: Tracer) -> None:
    """Restore every attribute :func:`install` replaced."""
    while tracer._installed:
        owner, attr, original = tracer._installed.pop()
        setattr(owner, attr, original)


# -- per-layer metrics --------------------------------------------------------


def _sum(tracer: Tracer, names: Iterable[str], field: int) -> float:
    return sum(tracer.aggregates.get(name, (0, 0.0, 0.0))[field] for name in names)


def _names(tracer: Tracer, prefix: str) -> List[str]:
    return [name for name in tracer.aggregates if name.startswith(prefix)]


def dispatch_seconds(spans: Sequence[dict]) -> float:
    """Time in sweep batches outside the executions they dispatched."""
    runs: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["name"] == "exec.run_summary" and span["parent"] is not None:
            runs.setdefault(span["parent"], []).append((span["start"], span["end"]))
    return sum(
        (span["end"] - span["start"]) - union_length(runs.get(i, ()))
        for i, span in enumerate(spans)
        if span["name"] == "exec.sweep"
    )


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The per-layer metrics of one traced pass, by metric name.

    Names ending in ``self_s`` are self times; other ``_s`` names are
    inclusive durations of the layer's spans.
    """
    calls, total, self_ = 0, 1, 2
    engine = tracer.engine
    ctx = _names(tracer, "sim.engine.ctx.")
    core = _names(tracer, "core.")
    clock = _names(tracer, "sim.clock.")
    tracker = _names(tracer, "sim.monitors.stream.")
    faults = _names(tracer, "faults.")
    alarms_set = engine.get("alarms_set", 0)
    return {
        "core.callbacks": _sum(tracer, core, calls),
        "core.self_s": _sum(tracer, core, self_),
        "sim.engine.self_s": _sum(tracer, ["sim.engine.run"] + ctx, self_),
        "sim.engine.setup_s": _sum(tracer, ["sim.engine.setup"], total),
        "sim.engine.ctx_calls": _sum(tracer, ctx, calls),
        "sim.engine.events": engine.get("events", 0),
        "sim.engine.sends": engine.get("sends", 0),
        "sim.engine.alarms_set": alarms_set,
        "sim.engine.alarms_superseded": engine.get("alarms_superseded", 0),
        "sim.engine.alarm_useful_ratio": (
            engine.get("alarms_fired", 0) / alarms_set if alarms_set else 0.0
        ),
        "sim.engine.queue_depth_hwm": engine.get("queue_depth_hwm", 0),
        "sim.clock.record_evals": tracer.count("sim.clock.record_evals"),
        "sim.clock.hw_evals": tracer.count("sim.clock.hw_evals"),
        "sim.clock.rate_evals": tracer.count("sim.clock.rate_evals"),
        "sim.clock.self_s": _sum(tracer, clock, self_),
        "sim.clock.checkpoints": engine.get("checkpoints", 0),
        "sim.clock.breakpoints": engine.get("breakpoints", 0),
        "sim.delays.calls": _sum(tracer, ["sim.delays.validated_delay"], calls),
        "sim.delays.self_s": _sum(tracer, ["sim.delays.validated_delay"], self_),
        "sim.drift.calls": _sum(tracer, ["sim.drift.validated_rate_function"], calls),
        "sim.drift.self_s": _sum(tracer, ["sim.drift.validated_rate_function"], self_),
        "sim.trace.fold_s": _sum(tracer, ["sim.trace.fold"], total),
        "sim.trace.fold_points": tracer.count("sim.trace.fold_points"),
        "sim.monitors.stream_fold_s": _sum(tracer, tracker, total),
        "sim.monitors.stream_record_evals": tracer.count(
            "sim.monitors.stream_record_evals"
        ),
        "sim.monitors.checks": _sum(tracer, ["sim.monitors.check"], calls),
        "sim.monitors.check_s": _sum(tracer, ["sim.monitors.check"], total),
        "faults.calls": _sum(tracer, faults, calls),
        "faults.self_s": _sum(tracer, faults, self_),
        "exec.digests": _sum(tracer, ["exec.digest"], calls),
        "exec.digest_s": _sum(tracer, ["exec.digest"], total),
        "exec.cache_puts": _sum(tracer, ["exec.cache_put"], calls),
        "exec.cache_put_s": _sum(tracer, ["exec.cache_put"], total),
        "exec.dispatch_s": dispatch_seconds(tracer.spans),
        "exec.spec_overhead_s": _sum(tracer, ["exec.run_summary"], self_),
        "exec.summarize_s": _sum(tracer, ["exec.summarize"], self_),
        "cert.fuzz_s": _sum(tracer, ["cert.fuzz", "cert.build_spec"], total),
        "cert.checks": _sum(tracer, ["cert.check"], calls),
        "cert.check_s": _sum(tracer, ["cert.check"], total),
    }
