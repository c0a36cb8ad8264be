"""Online invariant monitors.

The paper requires every clock synchronization algorithm to satisfy two
conditions at all times (Section 3):

* Condition (1), the *envelope*: ``(1 − ε)(t − t_v) ≤ L_v(t) ≤ (1 + ε)t``;
* Condition (2), *bounded rates*: ``α(t' − t) ≤ L_v(t') − L_v(t) ≤ β(t' − t)``
  with ``α = 1 − ε`` and ``β = (1 + ε)(1 + μ)`` for A^opt (Corollary 5.3).

Monitors check these after every simulation event.  Because all clocks are
piecewise-linear and the bounds are linear, a violation that occurs at all
occurs at an event breakpoint, so event-time checking is exact up to the
numerical tolerance.

Monitors either raise :class:`~repro.errors.InvariantViolation` fail-fast
(``strict=True``) or collect violations for post-run inspection.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import chain
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import InvariantViolation
from repro.sim.trace import SkewExtremum, _max_extremum, _skew_fold

__all__ = [
    "Violation",
    "BaseMonitor",
    "EnvelopeMonitor",
    "RateBoundMonitor",
    "MonotonicityMonitor",
    "StabilizationMonitor",
    "StreamingSkewTracker",
]

NodeId = Hashable

#: Absolute numerical slack for invariant comparisons.
TOLERANCE = 1e-7


@dataclass(frozen=True)
class Violation:
    monitor: str
    node: NodeId
    time: float
    detail: str


class BaseMonitor:
    """Shared collect-or-raise behaviour."""

    name = "monitor"

    def __init__(self, strict: bool = True):
        self.strict = strict
        self.violations: List[Violation] = []

    def _report(self, node: NodeId, time: float, detail: str) -> None:
        violation = Violation(self.name, node, time, detail)
        if self.strict:
            raise InvariantViolation(detail, node=node, time=time)
        self.violations.append(violation)

    def check(self, engine, node: NodeId, time: float) -> None:
        raise NotImplementedError


class EnvelopeMonitor(BaseMonitor):
    """Condition (1): logical clocks stay in the affine envelope of real time."""

    name = "envelope"

    def __init__(self, epsilon: float, strict: bool = True):
        super().__init__(strict)
        self.epsilon = float(epsilon)

    def check(self, engine, node: NodeId, time: float) -> None:
        start = engine.start_time(node)
        if start is None:
            return
        logical = engine.logical_value(node)
        lower = (1 - self.epsilon) * (time - start)
        upper = (1 + self.epsilon) * time
        if logical < lower - TOLERANCE:
            self._report(
                node,
                time,
                f"envelope lower bound violated at node {node!r}, t={time}: "
                f"L={logical} < (1-eps)(t-t_v)={lower}",
            )
        if logical > upper + TOLERANCE:
            self._report(
                node,
                time,
                f"envelope upper bound violated at node {node!r}, t={time}: "
                f"L={logical} > (1+eps)t={upper}",
            )


class RateBoundMonitor(BaseMonitor):
    """Condition (2): the instantaneous logical rate stays within [α, β].

    Checks the *multiplier* against what the current hardware rate allows:
    ``α ≤ ρ · h_v(t) ≤ β``.  For algorithms that declare ``allows_jumps``
    the upper bound is skipped (β = ∞ by declaration).
    """

    name = "rate-bounds"

    def __init__(self, alpha: float, beta: float, strict: bool = True):
        super().__init__(strict)
        self.alpha = float(alpha)
        self.beta = float(beta)

    def check(self, engine, node: NodeId, time: float) -> None:
        if engine.start_time(node) is None:
            return
        runtime_record = engine._runtimes[node].record
        rate = runtime_record.rate_at(time)
        if rate < self.alpha - TOLERANCE:
            self._report(
                node,
                time,
                f"logical rate {rate} below alpha={self.alpha} at node {node!r}, t={time}",
            )
        if not engine.algorithm.allows_jumps and rate > self.beta + TOLERANCE:
            self._report(
                node,
                time,
                f"logical rate {rate} above beta={self.beta} at node {node!r}, t={time}",
            )


#: Evaluation cells (nodes × instants) a :class:`StreamingSkewTracker`
#: buffers per window: it folds ``max(1, _WINDOW_CELLS // nodes)`` final
#: instants at a time through the trace fold.
_WINDOW_CELLS = 1 << 14


class StreamingSkewTracker:
    """Folds exact skew extrema incrementally, without storing a trace.

    The engine feeds it every logical-clock checkpoint as it happens;
    hardware rate breakpoints are drawn lazily from each clock's fixed
    schedule.  A heap of pending instants yields exactly the point set
    the trace-based evaluation uses — the union of all clocks' linearity
    breakpoints plus ``{0, horizon}`` — in ascending order.  Final
    instants are buffered into a window of at most
    ``max(1, _WINDOW_CELLS // nodes)`` instants, and each window is
    folded by one call of the trace module's skew fold; windows merge
    with strict ``>``.  A window of at least ``_VECTOR_MIN_POINTS`` (32)
    instants — every full window of a run with up to 512 nodes — folds
    on numpy columns, all edges' own columns in one gather; shorter
    windows, such as the one-instant windows of a 100k-node run, fold in
    pure Python.  Either way the results are bit-identical to
    ``ExecutionTrace.global_skew()`` / ``local_skew()`` /
    ``spread_at(horizon)``; ``tests/test_monitors_streaming.py`` checks
    both against a naive per-point oracle.

    Pair skews are folded only at the *pair's own* breakpoint union
    (plus the interval endpoints), never at other nodes' breakpoints:
    evaluating a convex-kinked difference at extra points could surface
    a float-rounding extremum the trace path never sees
    (``TestOwnInstantsOnly`` in ``tests/test_monitors_streaming.py`` pins
    two such ensembles).

    Memory is O(nodes · window + edges): after each window the tracker
    discards the clock-record segments of the nodes it touched that no
    later instant can need, so a full run needs bounded memory
    regardless of its length.
    """

    def __init__(
        self,
        nodes: Sequence[NodeId],
        edges: Sequence[Tuple[NodeId, NodeId]],
        horizon: float,
    ):
        self.horizon = float(horizon)
        self.nodes: List[NodeId] = list(nodes)
        self.edges: List[Tuple[NodeId, NodeId]] = [tuple(e) for e in edges]
        #: Spread at the horizon (right values); set by :meth:`finalize`.
        self.final_spread = 0.0

        n = len(self.nodes)
        index = {node: i for i, node in enumerate(self.nodes)}
        self._records: List[Optional[object]] = [None] * n
        self._hw_streams: List[Optional[Iterator[float]]] = [None] * n
        self._last_noted: List[Optional[float]] = [None] * n
        self._last_consumed: List[Optional[float]] = [None] * n
        self._bp_counts = [0] * n
        self._incident: List[List[int]] = [[] for _ in range(n)]
        self._edge_idx: List[Tuple[int, int]] = []
        for e, (a, b) in enumerate(self.edges):
            ia, ib = index[a], index[b]
            self._edge_idx.append((ia, ib))
            self._incident[ia].append(e)
            self._incident[ib].append(e)
        self._best = SkewExtremum(-1.0, 0.0, None, None)
        self._edge_best_v = [-1.0] * len(self.edges)
        self._edge_best_t = [0.0] * len(self.edges)
        # The window: buffered final instants, the nodes owning one of
        # them, and each touched edge's own instants (as window columns).
        self._window = max(1, _WINDOW_CELLS // max(1, n))
        self._points: List[float] = []
        self._touched: Set[int] = set()
        self._edge_columns: Dict[int, List[int]] = {}
        # Pending evaluation instants: (time, node_index, from_hw_stream).
        # The sentinel index −1 forces the t=0 endpoint evaluation that
        # the trace path always performs.
        self._heap: List[Tuple[float, int, bool]] = [(0.0, -1, False)]
        self._finalized = False

    # -- engine feed ---------------------------------------------------------

    def note_start(self, idx: int, record, hardware) -> None:
        """Register a node's freshly created clock record at its start."""
        self._records[idx] = record
        self.note_checkpoint(idx, record.start_time)
        stream = hardware.breakpoints_in(record.start_time, self.horizon)
        first = next(stream, None)
        if first is not None:
            self._hw_streams[idx] = stream
            heappush(self._heap, (first, idx, True))

    def note_checkpoint(self, idx: int, t: float) -> None:
        """Register a logical-clock checkpoint (rate change or jump)."""
        if t > self.horizon or t == self._last_noted[idx]:
            return
        self._last_noted[idx] = t
        heappush(self._heap, (t, idx, False))

    def advance(self, now: float) -> None:
        """Buffer every pending instant strictly before ``now``.

        Safe because events pop in nondecreasing time order: no future
        event can add a checkpoint earlier than the current event time,
        so instants before ``now`` are final.  Later checkpoints never
        change a clock's values before ``now`` either, so a buffered
        instant folds the same whenever its window is flushed.
        """
        heap = self._heap
        while heap and heap[0][0] < now:
            self._buffer_next()

    def finalize(self) -> None:
        """Fold everything up to and including the horizon endpoint."""
        if self._finalized:
            return
        self._finalized = True
        horizon = self.horizon
        heap = self._heap
        while heap and heap[0][0] < horizon:
            self._buffer_next()
        # Checkpoints exactly at the horizon still count as that node's
        # breakpoints, but the instant itself is evaluated once below as
        # the interval endpoint (with every edge, like the trace path).
        while heap:
            t, idx, _ = heappop(heap)
            if idx >= 0 and self._last_consumed[idx] != t:
                self._last_consumed[idx] = t
                self._bp_counts[idx] += 1
        heappush(heap, (horizon, -1, False))
        self._buffer_next()
        if self._points:
            self._flush()
        records = self._records
        values = [0.0 if rec is None else rec.value(horizon) for rec in records]
        self.final_spread = max(values) - min(values)

    # -- folding -------------------------------------------------------------

    def _buffer_next(self) -> None:
        """Move the earliest pending instant into the window; fold the
        window once it is full."""
        heap = self._heap
        t = heap[0][0]
        column = len(self._points)
        self._points.append(t)
        edge_ids: List[Iterable[int]] = []
        while heap and heap[0][0] == t:
            _, idx, from_hw = heappop(heap)
            if idx < 0:
                edge_ids.append(range(len(self.edges)))
            else:
                if self._last_consumed[idx] != t:
                    self._last_consumed[idx] = t
                    self._bp_counts[idx] += 1
                    self._touched.add(idx)
                    edge_ids.append(self._incident[idx])
                if from_hw:
                    nxt = next(self._hw_streams[idx], None)
                    if nxt is not None:
                        heappush(heap, (nxt, idx, True))
        edge_columns = self._edge_columns
        for e in chain.from_iterable(edge_ids):
            columns = edge_columns.get(e)
            if columns is None:
                edge_columns[e] = [column]
            elif columns[-1] != column:
                columns.append(column)
        if column + 1 >= self._window:
            self._flush()

    def _flush(self) -> None:
        """Fold the buffered window with one trace-fold call, then prune."""
        points = self._points
        edge_columns = self._edge_columns
        edge_idx = self._edge_idx
        pairs = [(*edge_idx[e], columns) for e, columns in edge_columns.items()]
        (value, k, hi, lo), pair_folds = _skew_fold(self._records, points, pairs)
        if value > self._best.value:
            self._best = SkewExtremum(value, points[k], self.nodes[hi], self.nodes[lo])
        edge_best_v, edge_best_t = self._edge_best_v, self._edge_best_t
        for e, (magnitude, at) in zip(edge_columns, pair_folds):
            if magnitude > edge_best_v[e]:
                edge_best_v[e], edge_best_t[e] = magnitude, points[at]
        # Every later instant lies after this window, so each touched
        # record keeps only the segments from its last instant on.
        frontier = points[-1]
        records = self._records
        for idx in self._touched:
            records[idx].prune_to(frontier)
        self._points = []
        self._touched = set()
        self._edge_columns = {}

    # -- results -------------------------------------------------------------

    def global_extremum(self) -> SkewExtremum:
        """The folded worst-case global skew (Definition 3.1)."""
        return self._best

    def local_extremum(self) -> SkewExtremum:
        """The folded worst-case local skew (Definition 3.2)."""
        edge_best_v, edge_best_t = self._edge_best_v, self._edge_best_t
        return _max_extremum(
            SkewExtremum(edge_best_v[e], edge_best_t[e], a, b)
            for e, (a, b) in enumerate(self.edges)
        )

    def breakpoint_count(self, idx: int) -> int:
        """Unique evaluation instants consumed for node ``idx`` — equal to
        ``len(record.breakpoints_in(start, horizon))`` in trace mode."""
        return self._bp_counts[idx]


class StabilizationMonitor(BaseMonitor):
    """Dynamic-graph stabilization: the spread re-converges after churn.

    The dynamic-networks extension (Kuhn–Lenzen–Locher–Oshman) shows the
    gradient algorithm re-converges to the static-graph skew bounds
    within a bounded stabilization period after the last topology
    change.  The monitor is armed at ``stabilize_at`` (the last change
    time plus a conservative settle bound — see
    ``ExecutionSpec._monitors``); from then on the spread of logical
    clock values over *participating* nodes — started, neither crashed
    nor absent — must stay within ``bound`` (+ tolerance).

    Each check is O(nodes); it is only attached when the spec carries a
    topology schedule, and the certification scenarios that rely on it
    are small.
    """

    name = "stabilization"

    def __init__(self, bound: float, stabilize_at: float, strict: bool = True):
        super().__init__(strict)
        self.bound = float(bound)
        self.stabilize_at = float(stabilize_at)

    def check(self, engine, node: NodeId, time: float) -> None:
        if time < self.stabilize_at:
            return
        values: List[float] = []
        for other, runtime in engine._runtimes.items():
            if runtime.crashed or runtime.absent:
                continue
            if engine.start_time(other) is None:
                # Never-integrated nodes are reported by the engine's
                # all-started check; a zero clock here would only add a
                # spurious spread on top of that failure.
                continue
            values.append(engine.logical_value(other))
        if len(values) < 2:
            return
        spread = max(values) - min(values)
        if spread > self.bound + TOLERANCE:
            self._report(
                node,
                time,
                f"stabilization bound violated at t={time}: spread {spread} "
                f"> G={self.bound} (topology settled, armed at "
                f"t_s={self.stabilize_at})",
            )


class MonotonicityMonitor(BaseMonitor):
    """Logical clocks never run backwards (implied by Condition (2))."""

    name = "monotonicity"

    def __init__(self, strict: bool = True):
        super().__init__(strict)
        self._last: dict = {}

    def check(self, engine, node: NodeId, time: float) -> None:
        if engine.start_time(node) is None:
            return
        logical = engine.logical_value(node)
        previous: Optional[float] = self._last.get(node)
        if previous is not None and logical < previous - TOLERANCE:
            self._report(
                node,
                time,
                f"logical clock decreased at node {node!r}: {previous} -> {logical}",
            )
        self._last[node] = logical
