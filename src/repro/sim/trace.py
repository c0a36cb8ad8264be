"""Execution traces with *exact* skew evaluation.

Because adversarial rate schedules are piecewise-constant, every clock in
an execution is piecewise-linear in real time.  This module records the
breakpoint structure of each logical clock and evaluates skews exactly:

* the difference ``L_v − L_w`` of two piecewise-linear functions is
  piecewise-linear, so its extremum over an interval is attained at a
  breakpoint of either clock;
* the spread ``max_v L_v − min_v L_v`` is a maximum of linear functions
  minus a minimum of linear functions on each common linearity interval,
  hence convex there, so its maximum is attained at interval endpoints —
  i.e. again at breakpoints.

Therefore evaluating at the merged breakpoints (plus the horizon) yields
the true worst case of Definitions 3.1 and 3.2 for the executed schedule,
with no sampling error.  Discontinuous clock jumps (baselines with
unbounded rates, β = ∞) are supported by additionally evaluating left
limits at jump points.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import chain
from operator import sub
from pathlib import Path
from typing import Any, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import TraceError
from repro.obs.metrics import RunMetrics
from repro.sim.clock import HardwareClock
from repro.topology.generators import Topology

try:  # numpy is optional; every result below is identical without it.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-free installs
    _np = None

#: Evaluation-point count from which the skew fold runs on numpy columns
#: instead of the pure-Python pointer sweeps.  Both paths pay per record
#: (a fixed set of array calls against a sweep step per point), so the
#: break-even is a point count whatever the number of records: measured
#: at 32-40 points for 65-record streaming windows and below 32 for
#: 2-record pair folds.  Shorter folds stay scalar, which also keeps both
#: paths exercised by the test suite.
_VECTOR_MIN_POINTS = 32

#: Below this many points the scalar fold queries each record point by
#: point instead of sweeping it (measured break-even: about 4 points).
_SWEEP_MIN_POINTS = 4

#: Evaluation cells (records × points) of one trace-mode fold window:
#: ``ExecutionTrace.global_skew`` / ``max_pair_skew`` fold the merged
#: breakpoints in windows of
#: ``max(_VECTOR_MIN_POINTS, _TRACE_WINDOW_CELLS // records)`` points, so
#: the numpy columns stay near a megabyte however long the run.  Smaller
#: windows cost more per-record array calls: on the ``sweep-trace``
#: benchmark (seed 0) the fold took 0.76 s per pass with 2**14 cells and
#: 0.58-0.60 s with 2**16.
_TRACE_WINDOW_CELLS = 1 << 16

__all__ = [
    "LogicalClockRecord",
    "MessageRecord",
    "ProbeRecord",
    "ExecutionTrace",
    "SkewExtremum",
]

NodeId = Hashable


class LogicalClockRecord:
    """Piecewise record of one node's logical clock.

    Between checkpoints the logical clock advances at ``ρ · h_v``, i.e.
    ``L(t) = L_k + ρ_k · (H(t) − H(t_k))`` on ``[t_k, t_{k+1})``.  A
    checkpoint is appended whenever the rate multiplier ``ρ`` changes or
    the clock jumps discontinuously.
    """

    __slots__ = (
        "_hardware",
        "_times",
        "_values",
        "_multipliers",
        "_anchor_hws",
        "_jump_times",
        "_start",
        "_count",
        "_memo_t",
        "_memo_v",
    )

    #: Minimum number of stale leading checkpoints before :meth:`prune_to`
    #: performs list surgery, amortizing the O(len) deletions.
    PRUNE_BATCH = 32

    def __init__(self, hardware: HardwareClock, initial_multiplier: float = 1.0):
        self._hardware = hardware
        start = hardware.start_time
        self._start: float = start
        self._times: List[float] = [start]
        self._values: List[float] = [0.0]
        # H(t_k) per checkpoint, cached at append time: value() subtracts
        # it from H(t), the identical float the original formula computed
        # by re-evaluating the hardware clock at the anchor on each query.
        self._anchor_hws: List[float] = [hardware.value(start)]
        self._multipliers: List[float] = [float(initial_multiplier)]
        self._jump_times: List[float] = []
        self._count: int = 1
        # Single-entry memo for value(); invalidated on every append.
        self._memo_t: Optional[float] = None
        self._memo_v: float = 0.0

    @property
    def hardware(self) -> HardwareClock:
        return self._hardware

    @property
    def start_time(self) -> float:
        return self._start

    def checkpoint(self, t: float, multiplier: float) -> None:
        """Record a rate-multiplier change at time ``t`` (continuous)."""
        value = self.value(t)
        self._append(t, value, multiplier)

    def jump(self, t: float, new_value: float) -> None:
        """Record a discontinuous jump of the clock value at time ``t``."""
        current = self.value(t)
        if new_value < current - 1e-9:
            raise TraceError(
                f"logical clock jump backwards at t={t}: {current} -> {new_value}"
            )
        if new_value != current:
            self._jump_times.append(t)
        self._append(t, new_value, self._multipliers[-1])

    def _append(self, t: float, value: float, multiplier: float) -> None:
        times = self._times
        if t < times[-1]:
            raise TraceError(
                f"checkpoint at {t} precedes last checkpoint {times[-1]}"
            )
        self._memo_t = None
        if t == times[-1]:
            # Same-instant update replaces the last checkpoint's future.
            self._values[-1] = value
            self._multipliers[-1] = float(multiplier)
        else:
            times.append(t)
            self._values.append(value)
            self._anchor_hws.append(self._hardware.value(t))
            self._multipliers.append(float(multiplier))
            self._count += 1

    # -- evaluation ---------------------------------------------------------

    def _segment_index(self, t: float) -> int:
        if t < self._times[0]:
            if t >= self._start:
                raise TraceError(
                    f"time {t} falls in the pruned prefix of this clock record "
                    f"(kept from {self._times[0]})"
                )
            raise TraceError(f"time {t} precedes clock start {self._start}")
        return bisect_right(self._times, t) - 1

    def value(self, t: float) -> float:
        """Logical clock value at real time ``t`` (0 before the start).

        Right-continuous at jump points.
        """
        if t == self._memo_t:
            return self._memo_v
        times = self._times
        if t >= times[-1]:
            i = len(times) - 1
        elif t < times[0]:
            if t < self._start:
                return 0.0
            raise TraceError(
                f"time {t} falls in the pruned prefix of this clock record "
                f"(kept from {times[0]})"
            )
        else:
            i = bisect_right(times, t) - 1
        v = self._values[i] + self._multipliers[i] * (
            self._hardware.value(t) - self._anchor_hws[i]
        )
        self._memo_t = t
        self._memo_v = v
        return v

    def value_left(self, t: float) -> float:
        """Left limit of the clock at ``t`` (differs from value at jumps)."""
        times = self._times
        if t <= times[0]:
            if t <= self._start:
                return 0.0
            raise TraceError(
                f"time {t} falls in the pruned prefix of this clock record "
                f"(kept from {times[0]})"
            )
        if t > times[-1]:
            i = len(times) - 1
        else:
            i = bisect_right(times, t) - 1
            if times[i] == t and i > 0:
                i -= 1
        return self._values[i] + self._multipliers[i] * (
            self._hardware.value(t) - self._anchor_hws[i]
        )

    def values_at(
        self, ts: Sequence[float], _hw_values: Optional[List[float]] = None
    ) -> List[float]:
        """Batched :meth:`value` over ascending ``ts`` (bit-identical).

        One forward pointer sweep replaces the per-call bisect + memo
        machinery; every output is produced by exactly the same float
        expression as the scalar method, so results agree to the last
        bit.  ``_hw_values`` lets a caller evaluating both one-sided
        limits reuse the hardware sweep (the hardware clock has no jumps,
        so its values are shared).
        """
        times = self._times
        values = self._values
        multipliers = self._multipliers
        anchors = self._anchor_hws
        first = times[0]
        last = times[-1]
        last_index = len(times) - 1
        start = self._start
        hw_values = (
            self._hardware.values_at(ts) if _hw_values is None else _hw_values
        )
        out: List[float] = []
        append = out.append
        i = 0
        for t, hw in zip(ts, hw_values):
            if t >= last:
                j = last_index
            elif t < first:
                if t < start:
                    append(0.0)
                    continue
                raise TraceError(
                    f"time {t} falls in the pruned prefix of this clock record "
                    f"(kept from {first})"
                )
            else:
                while i < last_index and times[i + 1] <= t:
                    i += 1
                j = i
            append(values[j] + multipliers[j] * (hw - anchors[j]))
        return out

    def values_left_at(
        self, ts: Sequence[float], _hw_values: Optional[List[float]] = None
    ) -> List[float]:
        """Batched :meth:`value_left` over ascending ``ts`` (bit-identical)."""
        times = self._times
        values = self._values
        multipliers = self._multipliers
        anchors = self._anchor_hws
        first = times[0]
        last = times[-1]
        last_index = len(times) - 1
        start = self._start
        hw_values = (
            self._hardware.values_at(ts) if _hw_values is None else _hw_values
        )
        out: List[float] = []
        append = out.append
        i = 0
        for t, hw in zip(ts, hw_values):
            if t <= first:
                if t <= start:
                    append(0.0)
                    continue
                raise TraceError(
                    f"time {t} falls in the pruned prefix of this clock record "
                    f"(kept from {first})"
                )
            if t > last:
                j = last_index
            else:
                while i < last_index and times[i + 1] <= t:
                    i += 1
                j = i
                if times[j] == t and j > 0:
                    j -= 1
            append(values[j] + multipliers[j] * (hw - anchors[j]))
        return out

    def multiplier_at(self, t: float) -> float:
        """The rate multiplier ρ in effect at time ``t``."""
        if t < self._start:
            return 0.0
        if t >= self._times[-1]:
            return self._multipliers[-1]
        return self._multipliers[self._segment_index(t)]

    def rate_at(self, t: float) -> float:
        """Instantaneous logical rate ``ρ(t) · h_v(t)``."""
        if t < self._start:
            return 0.0
        return self.multiplier_at(t) * self._hardware.rate_at(t)

    # -- structure ----------------------------------------------------------

    def breakpoints_in(self, a: float, b: float) -> List[float]:
        """All linearity breakpoints of this clock in the closed ``[a, b]``.

        Includes checkpoint times, hardware rate changes, and the clock
        start (before which the value is the constant 0); sorted and
        *unique* — a checkpoint coinciding with a hardware rate change
        (e.g. a rate-rule update triggered at a drift breakpoint) is one
        breakpoint, not two, so skew evaluation never evaluates the same
        instant twice.
        """
        if self._times[0] != self._start:
            raise TraceError(
                "breakpoints_in is unavailable on a pruned clock record"
            )
        points = set(t for t in self._times if a <= t <= b)
        points.update(self._hardware.breakpoints_in(a, b))
        return sorted(points)

    def prune_to(self, frontier: float) -> None:
        """Drop checkpoints that can no longer affect queries at ``t ≥ frontier``.

        Keeps the segment containing ``frontier`` *and* the one before it
        (so ``value_left`` at the frontier itself stays answerable), plus
        everything later.  Queries strictly inside the pruned prefix raise
        :class:`TraceError` instead of returning wrong values.  Deletions
        are batched (:attr:`PRUNE_BATCH`) to amortize the list surgery.
        """
        times = self._times
        j = bisect_right(times, frontier) - 1
        k = j - 1
        if k < self.PRUNE_BATCH:
            return
        del times[:k]
        del self._values[:k]
        del self._multipliers[:k]
        del self._anchor_hws[:k]
        jumps = self._jump_times
        if jumps and jumps[0] < times[0]:
            del jumps[: bisect_left(jumps, times[0])]

    @property
    def jump_times(self) -> Tuple[float, ...]:
        return tuple(self._jump_times)

    @property
    def checkpoint_count(self) -> int:
        return self._count


def _vector_eligible(n_points: int) -> bool:
    """Whether the numpy evaluation path applies (never changes results).

    Requires numpy and enough points per record to amortize the array
    calls (:data:`_VECTOR_MIN_POINTS`).  Pruned records qualify:
    :func:`_vector_values` raises :class:`TraceError` for a point in a
    pruned prefix, exactly as the scalar sweeps do.
    """
    return _np is not None and n_points >= _VECTOR_MIN_POINTS


def _vector_values(record: LogicalClockRecord, ts: "_np.ndarray"):
    """``(right, left)`` value arrays of ``record`` at ascending ``ts``.

    Bit-identical to the scalar :meth:`LogicalClockRecord.value` /
    :meth:`value_left`: every arithmetic step below is the same sequence
    of correctly-rounded float64 operations applied elementwise, and
    ``searchsorted(side='right') - 1`` is exactly ``bisect_right - 1``
    (with ``side='left'`` matching the left limit's step-back at exact
    checkpoint hits).  No reductions, so no reordered rounding.

    Only the record segments that ``ts`` reaches are converted to arrays;
    the hardware rate's arrays are built once per clock and cached on the
    :class:`HardwareClock`, a per-run object.
    """
    times = record._times
    start, kept = record._start, times[0]
    if kept != start:
        # A point in [start, kept] needs a pruned segment for its right
        # value or its left limit; refuse it like the scalar sweeps do.
        k = int(ts.searchsorted(start))
        if k < len(ts) and ts[k] <= kept:
            raise TraceError(
                f"time {float(ts[k])} falls in the pruned prefix of this "
                f"clock record (kept from {kept})"
            )
    hardware = record._hardware
    arrays = hardware._rate_arrays
    if arrays is None:
        rate = hardware._rate
        arrays = hardware._rate_arrays = (
            _np.asarray(rate._times),
            _np.asarray(rate._cumulative),
            _np.asarray(rate._rates),
        )
    rate_times, cumulative, rates = arrays
    first = float(ts[0])
    j = rate_times.searchsorted(ts, side="right") - 1
    # Positions with t <= start are masked to 0.0 below; their (possibly
    # negative) segment indices only ever produce overwritten garbage.
    integrals = cumulative[j] + rates[j] * (ts - rate_times[j])
    hw_values = integrals - hardware._start_integral
    if first <= hardware._start_time:
        hw_values[ts <= hardware._start_time] = 0.0

    # Convert only the segments the points reach, from the one holding
    # the first point's left limit to the one holding the last point: a
    # streaming record keeps up to PRUNE_BATCH stale segments before its
    # window.  A point before ``kept`` implies ``lo == 0``.
    lo = max(0, bisect_left(times, first) - 1)
    hi = max(bisect_right(times, float(ts[-1])), lo + 1)
    seg_times = _np.asarray(times[lo:hi])
    values = _np.asarray(record._values[lo:hi])
    multipliers = _np.asarray(record._multipliers[lo:hi])
    anchors = _np.asarray(record._anchor_hws[lo:hi])
    i = seg_times.searchsorted(ts, side="right") - 1
    right = values[i] + multipliers[i] * (hw_values - anchors[i])
    if first < kept:
        right[ts < kept] = 0.0
    i = seg_times.searchsorted(ts, side="left") - 1
    left = values[i] + multipliers[i] * (hw_values - anchors[i])
    if first <= kept:
        left[ts <= kept] = 0.0
    return right, left


def _skew_fold(
    records: Sequence[Optional[LogicalClockRecord]],
    points: Sequence[float],
    pairs: Sequence[Tuple[int, int, Sequence[int]]] = (),
) -> Tuple[Tuple[float, int, int, int], List[Tuple[float, int]]]:
    """The exact skew fold of ``records`` over ascending ``points``.

    Returns ``((spread, k, hi, lo), pair_folds)``: the largest
    ``max_v L_v − min_v L_v`` over every point, the index ``k`` of its
    point and the rows ``hi``/``lo`` of the maximal and minimal clock
    there; and, for each ``pairs[j] = (a, b, columns)``, the largest
    ``|L_a − L_b|`` over that pair's own ascending point indices
    ``columns`` (at least one) only, as ``pair_folds[j] = (magnitude, k)``.
    A ``None`` record is a node that has not started yet and reads 0.0
    everywhere.

    At each point the right value comes before the left limit, the first
    maximal (and minimal) row wins, and only a strictly larger value
    replaces the running best.  Both paths below therefore resolve ties
    identically, and so do successive folds merged with strict ``>``.
    """
    n_points = len(points)
    if _vector_eligible(n_points):
        ts = _np.asarray(points)
        rights = _np.zeros((len(records), n_points))
        lefts = _np.zeros((len(records), n_points))
        for row, rec in enumerate(records):
            if rec is not None:
                rights[row], lefts[row] = _vector_values(rec, ts)
        # Column max/min select floats without rounding, so the spreads
        # are the identical differences the scalar fold computes; the
        # interleaved argmax (right before left at each point) and the
        # per-column argmax/argmin reproduce its first-winner ties.
        spreads = _np.empty(2 * n_points)
        spreads[0::2] = rights.max(axis=0) - rights.min(axis=0)
        spreads[1::2] = lefts.max(axis=0) - lefts.min(axis=0)
        k = int(spreads.argmax())
        column = (rights if k % 2 == 0 else lefts)[:, k >> 1]
        spread = (
            float(spreads[k]), k >> 1, int(column.argmax()), int(column.argmin())
        )
        if not pairs:
            return spread, []
        # Every pair's own columns in one gather, each pair's magnitudes
        # interleaved right before left like the spreads above.  The
        # segment maximum selects without rounding, and the first
        # position holding it is the strict-> scan's winner.
        counts = _np.array([len(columns) for _, _, columns in pairs])
        cols = _np.fromiter(
            chain.from_iterable(columns for _, _, columns in pairs), _np.intp
        )
        a_rows = _np.repeat([a for a, _, _ in pairs], counts)
        b_rows = _np.repeat([b for _, b, _ in pairs], counts)
        magnitudes = _np.empty(2 * len(cols))
        magnitudes[0::2] = _np.abs(rights[a_rows, cols] - rights[b_rows, cols])
        magnitudes[1::2] = _np.abs(lefts[a_rows, cols] - lefts[b_rows, cols])
        starts = _np.zeros(len(pairs), dtype=_np.intp)
        _np.cumsum(2 * counts[:-1], out=starts[1:])  # reprolint: exact-fold (integer counts)
        best = _np.maximum.reduceat(magnitudes, starts)
        hits = _np.flatnonzero(magnitudes == _np.repeat(best, 2 * counts))
        first = hits[hits.searchsorted(starts)]
        return spread, list(zip(best.tolist(), cols[first >> 1].tolist()))
    else:
        if n_points < _SWEEP_MIN_POINTS:
            # A short window over many records: scalar queries cost less
            # than three batched sweeps per record.
            rows_right = [
                [0.0 if rec is None else rec.value(t) for rec in records]
                for t in points
            ]
            rows_left = [
                [0.0 if rec is None else rec.value_left(t) for rec in records]
                for t in points
            ]
        else:
            # One batched column per record (right values and left limits
            # share the hardware sweep), transposed to one row per point.
            zeros = [0.0] * n_points
            cols_right, cols_left = [], []
            for rec in records:
                if rec is None:
                    cols_right.append(zeros)
                    cols_left.append(zeros)
                    continue
                hw_values = rec.hardware.values_at(points)
                cols_right.append(rec.values_at(points, _hw_values=hw_values))
                cols_left.append(rec.values_left_at(points, _hw_values=hw_values))
            rows_right, rows_left = list(zip(*cols_right)), list(zip(*cols_left))
        sides = (rows_right, rows_left)
        spreads = [list(map(sub, map(max, rows), map(min, rows))) for rows in sides]
        best = max(map(max, spreads))
        # The first point holding the best spread, its right value before
        # its left limit, is the strict-> scan's winner; .index() recovers
        # the first maximal and minimal row there.
        k, side = min((s.index(best), side) for side, s in enumerate(spreads) if best in s)
        values = sides[side][k]
        spread = (best, k, values.index(max(values)), values.index(min(values)))
    pair_folds: List[Tuple[float, int]] = []
    for a, b, columns in pairs:
        best, best_k = -1.0, 0
        for k in columns:
            right, left = rows_right[k], rows_left[k]
            magnitude = abs(right[a] - right[b])
            if magnitude > best:
                best, best_k = magnitude, k
            magnitude = abs(left[a] - left[b])
            if magnitude > best:
                best, best_k = magnitude, k
        pair_folds.append((best, best_k))
    return spread, pair_folds


def _max_extremum(extrema: Iterable["SkewExtremum"]) -> "SkewExtremum":
    """The first largest of ``extrema`` (strict ``>``).

    An empty fold — local skew on a topology without edges — is 0.0
    with pair ``(None, None)``: no two neighbours ever disagree.
    """
    best: Optional[SkewExtremum] = None
    for candidate in extrema:
        if best is None or candidate.value > best.value:
            best = candidate
    return SkewExtremum(0.0, 0.0, None, None) if best is None else best


@dataclass(frozen=True)
class MessageRecord:
    """One message: who, when, what, and how long it was in transit."""

    sender: NodeId
    receiver: NodeId
    send_time: float
    delay: float
    payload: Any
    size_bits: int

    @property
    def deliver_time(self) -> float:
        return self.send_time + self.delay


@dataclass(frozen=True)
class ProbeRecord:
    """An algorithm-emitted measurement (e.g. estimate error samples)."""

    name: str
    node: NodeId
    time: float
    value: Any


@dataclass(frozen=True)
class SkewExtremum:
    """A worst-case skew observation: its value, when, and between whom."""

    value: float
    time: float
    node_a: NodeId
    node_b: NodeId


@dataclass
class ExecutionTrace:
    """Everything measurable about one finished execution."""

    topology: Topology
    horizon: float
    logical: Dict[NodeId, LogicalClockRecord]
    hardware: Dict[NodeId, HardwareClock]
    start_times: Dict[NodeId, float]
    messages_sent: Dict[NodeId, int]
    messages_received: Dict[NodeId, int]
    bits_sent: Dict[NodeId, int]
    message_log: List[MessageRecord] = field(default_factory=list)
    probes: List[ProbeRecord] = field(default_factory=list)
    events_processed: int = 0
    messages_dropped: int = 0
    messages_lost_link: int = 0
    messages_lost_crash: int = 0
    messages_duplicated: int = 0
    #: Per-node scheduled crash downtime overlapping the node's active
    #: window (fault executions only; empty otherwise).
    downtime: Dict[NodeId, float] = field(default_factory=dict)
    #: Engine counters and phase timers; ``None`` unless the engine ran
    #: with ``collect_metrics=True``.
    metrics: Optional[RunMetrics] = None
    #: Structured event log ``(kind, time, node, data)``; ``None`` unless
    #: the engine ran with ``record_events=True``.
    event_log: Optional[List[Tuple[str, float, NodeId, dict]]] = None

    # -- point queries -------------------------------------------------------

    def logical_value(self, node: NodeId, t: float) -> float:
        return self.logical[node].value(t)

    def hardware_value(self, node: NodeId, t: float) -> float:
        return self.hardware[node].value(t)

    def skew(self, a: NodeId, b: NodeId, t: float) -> float:
        """Signed skew ``L_a(t) − L_b(t)``."""
        return self.logical[a].value(t) - self.logical[b].value(t)

    def spread_at(self, t: float) -> float:
        """``max_v L_v(t) − min_v L_v(t)``."""
        values = [rec.value(t) for rec in self.logical.values()]
        return max(values) - min(values)

    # -- exact extrema -------------------------------------------------------

    def _fold(
        self, nodes: Sequence[NodeId], t0: Optional[float], t1: Optional[float]
    ) -> SkewExtremum:
        """The spread of ``nodes``' clocks, folded exactly over their
        merged breakpoints in ``[t0, t1]`` (default: the whole run)."""
        t0 = 0.0 if t0 is None else t0
        t1 = self.horizon if t1 is None else t1
        records = [self.logical[node] for node in nodes]
        points = {t0, t1}
        for rec in records:
            points.update(rec.breakpoints_in(t0, t1))
        eval_points = sorted(points)
        # Windows merged with strict >, as in the streaming tracker, keep
        # the first-argmax rule over the whole interval.
        window = max(_VECTOR_MIN_POINTS, _TRACE_WINDOW_CELLS // len(records))
        best = None
        for start in range(0, len(eval_points), window):
            (value, k, hi, lo), _ = _skew_fold(
                records, eval_points[start:start + window]
            )
            if best is None or value > best[0]:
                best = (value, start + k, hi, lo)
        value, k, hi, lo = best
        return SkewExtremum(value, eval_points[k], nodes[hi], nodes[lo])

    def max_pair_skew(
        self, a: NodeId, b: NodeId, t0: Optional[float] = None, t1: Optional[float] = None
    ) -> SkewExtremum:
        """Exact maximum of ``|L_a − L_b|`` over ``[t0, t1]``.

        The spread of two clocks is exactly ``|L_a − L_b|``: ``x − y`` and
        ``y − x`` are negations of each other in IEEE-754.
        """
        extremum = self._fold((a, b), t0, t1)
        return SkewExtremum(extremum.value, extremum.time, a, b)

    def global_skew(
        self, t0: Optional[float] = None, t1: Optional[float] = None
    ) -> SkewExtremum:
        """Exact worst-case global skew (Definition 3.1) of this execution.

        The spread is convex on each common linearity interval, so
        evaluating at all merged breakpoints is exact.
        """
        return self._fold(list(self.logical), t0, t1)

    def local_skew(
        self, t0: Optional[float] = None, t1: Optional[float] = None
    ) -> SkewExtremum:
        """Exact worst-case local skew (Definition 3.2): max over edges."""
        return _max_extremum(
            self.max_pair_skew(a, b, t0, t1) for a, b in self.topology.edges()
        )

    def skew_by_distance(
        self,
        distances: Dict[NodeId, Dict[NodeId, int]],
        t: Optional[float] = None,
    ) -> Dict[int, float]:
        """Maximum absolute skew per hop distance, at time ``t``.

        ``t`` defaults to the horizon.  Used for gradient-property curves
        (Corollary 7.9): the paper predicts skew at distance ``d`` grows as
        ``O(d · κ · (1 + log(D/d)))``.
        """
        t = self.horizon if t is None else t
        values = {node: self.logical[node].value(t) for node in self.logical}
        worst: Dict[int, float] = {}
        nodes = list(self.logical)
        for i, a in enumerate(nodes):
            for b in nodes[i + 1:]:
                d = distances[a][b]
                magnitude = abs(values[a] - values[b])
                if magnitude > worst.get(d, -1.0):
                    worst[d] = magnitude
        return worst

    def max_skew_by_distance(
        self, distances: Dict[NodeId, Dict[NodeId, int]]
    ) -> Dict[int, float]:
        """Worst-case (over all time) absolute skew per hop distance.

        More expensive than :meth:`skew_by_distance`; intended for modest
        node counts.
        """
        worst: Dict[int, float] = {}
        nodes = list(self.logical)
        for i, a in enumerate(nodes):
            for b in nodes[i + 1:]:
                d = distances[a][b]
                extremum = self.max_pair_skew(a, b)
                if extremum.value > worst.get(d, -1.0):
                    worst[d] = extremum.value
        return worst

    # -- aggregate counters ----------------------------------------------------

    def total_messages(self) -> int:
        return sum(self.messages_sent.values())  # reprolint: exact-fold (int counters)

    def total_bits(self) -> int:
        return sum(self.bits_sent.values())  # reprolint: exact-fold (int counters)

    def amortized_message_frequency(self, node: NodeId) -> float:
        """Messages per unit real time at ``node`` over its *active* period.

        Active time is the span from the node's start to the horizon
        minus any scheduled crash downtime (:attr:`downtime`): a crashed
        node sends nothing, so counting its outage as active time would
        understate the message frequency of recovered nodes.  Returns
        0.0 when the node was never active.
        """
        active = (
            self.horizon - self.start_times[node] - self.downtime.get(node, 0.0)
        )
        if active <= 0:
            return 0.0
        return self.messages_sent[node] / active

    def probes_named(self, name: str) -> List[ProbeRecord]:
        return [p for p in self.probes if p.name == name]

    # -- observability ----------------------------------------------------------

    def export_events(
        self, path: Union[str, Path], spec_digest: str = ""
    ) -> str:
        """Write the structured event log to ``path`` as JSONL.

        Requires the engine to have run with ``record_events=True``.
        Returns the SHA-256 content digest of the record lines (also
        stored in the file footer), so two exports can be diffed by
        digest alone.  See :mod:`repro.obs.export` for the schema.
        """
        from repro.obs.export import export_events

        return export_events(self, path, spec_digest=spec_digest)
