"""Property suite: the exact skew fold, judged by a naive oracle.

:class:`~repro.sim.monitors.StreamingSkewTracker` folds windows of
instants through the same kernel as :meth:`ExecutionTrace.global_skew` /
:meth:`local_skew`, so comparing the two alone would not test the fold.
The judge here is a naive oracle: a per-point loop over scalar
``value()`` / ``value_left()`` for the global skew and a per-edge loop
for the local skew.  The tests drive the tracker directly — no engine —
over randomized piecewise-linear clock ensembles (random drift
schedules, random rate-multiplier checkpoints, jumps, staggered starts)
and check the tracker and a freshly built :class:`ExecutionTrace` over
*separate but identically constructed* records against that oracle
(the tracker prunes its own records as it goes).  Window lengths of one
to three instants and a forced numpy path exercise window boundaries and
both kernel paths.

Equality is exact (``==`` on floats, never ``pytest.approx``): every path
must evaluate the same point set in the same order with the same
arithmetic, which is the engine-parity contract (docs/ENGINE.md).

The dedup regression from PR 3 — a logical checkpoint landing exactly on
a hardware rate breakpoint is ONE linearity breakpoint, not two — gets a
deterministic case plus property coverage (checkpoint times are drawn
from a grid that overlaps the drift breakpoint grid).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.monitors as monitors_mod
import repro.sim.trace as trace_mod
from repro.sim.clock import HardwareClock
from repro.sim.monitors import StreamingSkewTracker
from repro.sim.rates import PiecewiseConstantRate
from repro.sim.trace import ExecutionTrace, LogicalClockRecord, SkewExtremum
from repro.topology.generators import line

pytestmark = pytest.mark.parity

HORIZON = 50.0


def _build_ensemble(seed: int, n_nodes: int):
    """Deterministic random clock ensemble: per-node rate schedules,
    start times, and sorted mutation events ``(t, kind, payload)``.

    Mutation times are drawn from a 0.5-step grid and hardware breakpoints
    from a 2.5-step grid, so checkpoint-meets-rate-change collisions occur
    routinely — the dedup path is exercised, not just possible.
    """
    rng = random.Random(f"monitors-streaming:{seed}")
    ensemble = []
    for i in range(n_nodes):
        bp_count = rng.randrange(0, 5)
        bps = sorted(
            rng.sample([2.5 * k for k in range(1, 20)], bp_count)
        )
        rates = [rng.uniform(0.9, 1.1) for _ in range(bp_count + 1)]
        start = 0.0 if i == 0 or rng.random() < 0.5 else round(
            rng.uniform(0.5, HORIZON / 4), 1
        )
        events = []
        n_events = rng.randrange(0, 8)
        times = sorted(
            t
            for t in rng.sample([0.5 * k for k in range(1, 100)], n_events)
            if t > start
        )
        for t in times:
            if rng.random() < 0.25:
                events.append((t, "jump", rng.uniform(0.0, 0.5)))
            else:
                events.append((t, "checkpoint", rng.uniform(1.0, 1.2)))
        ensemble.append(
            {"bps": [0.0] + bps, "rates": rates, "start": start, "events": events}
        )
    return ensemble


def _make_record(node_cfg):
    clock = HardwareClock(
        PiecewiseConstantRate(node_cfg["bps"], node_cfg["rates"]),
        start_time=node_cfg["start"],
    )
    return clock, LogicalClockRecord(clock)


def _drive_tracker(ensemble, topology):
    """Replay the ensemble through a tracker exactly as the engine would:
    advance to each event time first, then mutate, then note."""
    nodes = list(topology.nodes)
    tracker = StreamingSkewTracker(nodes, list(topology.edges()), HORIZON)
    clocks = [_make_record(cfg) for cfg in ensemble]
    timeline = []
    for idx, cfg in enumerate(ensemble):
        timeline.append((cfg["start"], idx, ("start", None)))
        for t, kind, payload in cfg["events"]:
            timeline.append((t, idx, (kind, payload)))
    timeline.sort(key=lambda item: (item[0], item[1]))
    for t, idx, (kind, payload) in timeline:
        tracker.advance(t)
        clock, record = clocks[idx]
        if kind == "start":
            tracker.note_start(idx, record, clock)
        elif kind == "checkpoint":
            record.checkpoint(t, payload)
            tracker.note_checkpoint(idx, t)
        else:  # jump
            record.jump(t, record.value(t) + payload)
            tracker.note_checkpoint(idx, t)
    tracker.finalize()
    return tracker


def _build_oracle_trace(ensemble, topology) -> ExecutionTrace:
    """An identical, *unpruned* ensemble wrapped as a trace for the oracle."""
    nodes = list(topology.nodes)
    logical, hardware = {}, {}
    for idx, cfg in enumerate(ensemble):
        clock, record = _make_record(cfg)
        for t, kind, payload in cfg["events"]:
            if kind == "checkpoint":
                record.checkpoint(t, payload)
            else:
                record.jump(t, record.value(t) + payload)
        logical[nodes[idx]] = record
        hardware[nodes[idx]] = clock
    return ExecutionTrace(
        topology=topology,
        horizon=HORIZON,
        logical=logical,
        hardware=hardware,
        start_times={nodes[i]: cfg["start"] for i, cfg in enumerate(ensemble)},
        messages_sent={},
        messages_received={},
        bits_sent={},
    )


def _naive_fold(trace, nodes) -> SkewExtremum:
    """Per-point loop over the nodes' own breakpoints plus ``{0, horizon}``:
    scalar right value then left limit, first maximal/minimal node,
    strict ``>``."""
    points = {0.0, HORIZON}
    for node in nodes:
        points.update(trace.logical[node].breakpoints_in(0.0, HORIZON))
    best = SkewExtremum(-1.0, 0.0, None, None)
    for t in sorted(points):
        for left in (False, True):
            values = [
                trace.logical[n].value_left(t) if left else trace.logical[n].value(t)
                for n in nodes
            ]
            hi = max(range(len(nodes)), key=values.__getitem__)
            lo = min(range(len(nodes)), key=values.__getitem__)
            if values[hi] - values[lo] > best.value:
                best = SkewExtremum(values[hi] - values[lo], t, nodes[hi], nodes[lo])
    return best


def _naive_local(trace) -> SkewExtremum:
    """Per-edge loop: the first edge with the largest ``|L_a − L_b|``."""
    best = SkewExtremum(0.0, 0.0, None, None)
    for a, b in trace.topology.edges():
        edge = _naive_fold(trace, (a, b))
        if best.node_a is None or edge.value > best.value:
            best = SkewExtremum(edge.value, edge.time, a, b)
    return best


def _assert_matches_oracle(ensemble, topology):
    tracker = _drive_tracker(ensemble, topology)
    trace = _build_oracle_trace(ensemble, topology)
    expected_g, expected_l = _naive_fold(trace, list(trace.logical)), _naive_local(trace)
    assert trace.global_skew() == expected_g
    assert tracker.global_extremum() == expected_g
    assert trace.local_skew() == expected_l
    assert tracker.local_extremum() == expected_l
    assert tracker.final_spread == trace.spread_at(HORIZON)


def _force_path(patch, path: str) -> bool:
    """Send every fold through one kernel path: ``"scalar"`` (the
    pure-Python fold, as without numpy) or ``"numpy"`` (a one-point
    threshold).  False if numpy is not installed for the latter.

    The one-point threshold also lets a test shrink the trace fold's
    windows below 32 points on either path."""
    patch.setattr(trace_mod, "_VECTOR_MIN_POINTS", 1)
    if path == "scalar":
        patch.setattr(trace_mod, "_np", None)
    elif trace_mod._np is None:
        return False
    return True


@pytest.fixture(params=["scalar", "numpy"])
def kernel_path(request, monkeypatch):
    """Run a test on the pure-Python fold and on the forced numpy path."""
    if not _force_path(monkeypatch, request.param):
        pytest.skip("numpy is not installed")


class TestFoldEqualsTraceEvaluation:
    @given(seed=st.integers(0, 10_000), n_nodes=st.integers(2, 5))
    @settings(max_examples=40, deadline=None)
    def test_global_and_local_extrema_bit_identical(self, seed, n_nodes):
        _assert_matches_oracle(_build_ensemble(seed, n_nodes), line(n_nodes))

    @given(
        seed=st.integers(0, 10_000),
        n_nodes=st.integers(2, 5),
        window=st.integers(1, 3),
        vector=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_short_windows_and_both_kernel_paths(self, seed, n_nodes, window, vector):
        # Windows of 1-3 instants put many window boundaries inside each
        # run, in the tracker and in the trace fold, and a batch of 1
        # prunes after every window; a one-point vector threshold sends
        # every window through the numpy path, and no numpy sends all of
        # them through the pure-Python fold.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(monitors_mod, "_WINDOW_CELLS", window * n_nodes)
            patch.setattr(trace_mod, "_TRACE_WINDOW_CELLS", window * n_nodes)
            patch.setattr(LogicalClockRecord, "PRUNE_BATCH", 1)
            if not _force_path(patch, "numpy" if vector else "scalar"):
                return
            _assert_matches_oracle(_build_ensemble(seed, n_nodes), line(n_nodes))

    @pytest.mark.parametrize("window", [1, 2, 3])
    def test_ties_keep_the_first_instant(self, window, monkeypatch, kernel_path):
        # Equal rates after a jump hold the skew at exactly 0.25 over many
        # instants and windows: only the first instant may win.
        ensemble = [
            {"bps": [0.0, 10.0, 20.0, 30.0], "rates": [1.0] * 4, "start": 0.0,
             "events": []},
            {"bps": [0.0], "rates": [1.0], "start": 0.0,
             "events": [(5.0, "jump", 0.25)]},
        ]
        monkeypatch.setattr(monitors_mod, "_WINDOW_CELLS", 2 * window)
        monkeypatch.setattr(trace_mod, "_TRACE_WINDOW_CELLS", 2 * window)
        _assert_matches_oracle(ensemble, line(2))
        tracker = _drive_tracker(ensemble, line(2))
        assert tracker.global_extremum().time == tracker.local_extremum().time == 5.0

    def test_right_value_before_left_limit(self, kernel_path):
        # At t=1 node 1 jumps from 0.25 below node 0 to 0.25 above it, and
        # the skew stays 0.25 after: the right value names the pair (1, 0).
        ensemble = [
            {"bps": [0.0], "rates": [1.0], "start": 0.0, "events": []},
            {"bps": [0.0, 1.0], "rates": [0.75, 1.0], "start": 0.0,
             "events": [(1.0, "jump", 0.5)]},
        ]
        _assert_matches_oracle(ensemble, line(2))
        extremum = _drive_tracker(ensemble, line(2)).global_extremum()
        assert (extremum.time, extremum.node_a, extremum.node_b) == (1.0, 1, 0)

    @given(seed=st.integers(0, 10_000), n_nodes=st.integers(2, 5))
    @settings(max_examples=40, deadline=None)
    def test_breakpoint_counts_match_trace_breakpoints(self, seed, n_nodes):
        ensemble = _build_ensemble(seed, n_nodes)
        topology = line(n_nodes)
        tracker = _drive_tracker(ensemble, topology)
        trace = _build_oracle_trace(ensemble, topology)
        for idx, node in enumerate(topology.nodes):
            record = trace.logical[node]
            expected = len(record.breakpoints_in(record.start_time, HORIZON))
            assert tracker.breakpoint_count(idx) == expected, (
                f"node {node}: folded {tracker.breakpoint_count(idx)} "
                f"breakpoints, trace has {expected}"
            )


class TestCheckpointMeetsRateChange:
    """The PR 3 dedup case: a rate-rule update firing exactly at a drift
    breakpoint is one linearity breakpoint, evaluated exactly once."""

    def _colliding_ensemble(self):
        return [
            # Node 0: hardware bp at t=10 AND a checkpoint at t=10.
            {
                "bps": [0.0, 10.0],
                "rates": [1.05, 0.95],
                "start": 0.0,
                "events": [(10.0, "checkpoint", 1.1)],
            },
            # Node 1: plain drift-free clock with one jump.
            {
                "bps": [0.0],
                "rates": [1.0],
                "start": 0.0,
                "events": [(20.0, "jump", 0.25)],
            },
        ]

    def test_collision_counts_once_and_extrema_match(self):
        ensemble = self._colliding_ensemble()
        topology = line(2)
        tracker = _drive_tracker(ensemble, topology)
        trace = _build_oracle_trace(ensemble, topology)
        record = trace.logical[0]
        # breakpoints_in dedups the collision; the tracker must agree.
        expected = len(record.breakpoints_in(0.0, HORIZON))
        assert 10.0 in record.breakpoints_in(0.0, HORIZON)
        assert tracker.breakpoint_count(0) == expected
        _assert_matches_oracle(ensemble, topology)

    def test_checkpoint_at_horizon_counts_but_folds_once(self):
        ensemble = [
            {
                "bps": [0.0],
                "rates": [1.02],
                "start": 0.0,
                "events": [(HORIZON, "checkpoint", 1.0)],
            },
            {"bps": [0.0], "rates": [0.98], "start": 0.0, "events": []},
        ]
        topology = line(2)
        tracker = _drive_tracker(ensemble, topology)
        trace = _build_oracle_trace(ensemble, topology)
        record = trace.logical[0]
        assert tracker.breakpoint_count(0) == len(
            record.breakpoints_in(0.0, HORIZON)
        )
        _assert_matches_oracle(ensemble, topology)


class TestOwnInstantsOnly:
    """Each edge is folded at its own endpoints' instants only.

    Nodes 0 and 1 run at one hardware rate and node 0 jumps once, so
    ``L_0 − L_1`` is constant after the jump up to rounding, which
    differs from instant to instant.  Node 2 only adds checkpoints: its
    instants are foreign to edge (0, 1), and ``|L_0 − L_1|`` evaluated at
    one of them reads a larger value (first case) or the same value
    earlier (second case) than the maximum over the edge's own instants.
    A tracker that folds every edge at every window instant reports that
    reading; the trace path never sees it.  Both ensembles come from a
    seeded search over such three-node ensembles.
    """

    CASES = [
        # (rate, jump time, jump size, foreign instant, (value, time))
        (1.004, 2.1, 0.487, 21.0, (0.4870000000000001, 2.1)),
        (0.926, 4.9, 0.334, 44.0, (0.3340000000000032, HORIZON)),
    ]

    @pytest.mark.parametrize("case", CASES, ids=["value", "time"])
    def test_foreign_instants_never_fold_an_edge(self, case, kernel_path):
        rate, jump_at, size, foreign, expected = case
        ensemble = [
            {"bps": [0.0], "rates": [rate], "start": 0.0,
             "events": [(jump_at, "jump", size)]},
            {"bps": [0.0], "rates": [rate], "start": 0.0, "events": []},
            {"bps": [0.0], "rates": [rate], "start": 0.0,
             "events": [(foreign, "checkpoint", 1.0)]},
        ]
        trace = _build_oracle_trace(ensemble, line(3))
        own = _naive_fold(trace, (0, 1))
        a, b = trace.logical[0], trace.logical[1]
        at_foreign = abs(a.value(foreign) - b.value(foreign))
        # The ensemble is a witness: the foreign instant would win.
        assert at_foreign > own.value or (
            at_foreign == own.value and foreign < own.time
        )
        _assert_matches_oracle(ensemble, line(3))
        local = _drive_tracker(ensemble, line(3)).local_extremum()
        assert (local.value, local.time, local.node_a, local.node_b) == (
            *expected, 0, 1
        )


def _records(ensemble):
    """Unpruned records of ``ensemble`` with every event applied."""
    return list(_build_oracle_trace(ensemble, line(len(ensemble))).logical.values())


def _naive_pair_folds(records, points, pairs):
    """Per pair, per own column: right value then left limit, strict ``>``."""
    folds = []
    for a, b, columns in pairs:
        best, best_k = -1.0, 0
        for k in columns:
            t = points[k]
            for read in ("value", "value_left"):
                values = [
                    0.0 if records[i] is None else getattr(records[i], read)(t)
                    for i in (a, b)
                ]
                magnitude = abs(values[0] - values[1])
                if magnitude > best:
                    best, best_k = magnitude, k
        folds.append((best, best_k))
    return folds


def _assert_plain(result):
    (spread, k, hi, lo), folds = result
    assert type(spread) is float
    assert (type(k), type(hi), type(lo)) == (int, int, int)
    for magnitude, column in folds:
        assert (type(magnitude), type(column)) == (float, int)


class TestPairFolds:
    """The per-edge folds of the skew kernel, on both kernel paths."""

    #: Rate-1.0 clocks with quarter-sized jumps: every difference is
    #: exact, so each pair's magnitude is a plateau of exact ties.
    PLATEAU = [
        {"bps": [0.0], "rates": [1.0], "start": 0.0, "events": []},
        {"bps": [0.0], "rates": [1.0], "start": 0.0,
         "events": [(2.0, "jump", 0.25)]},
        {"bps": [0.0], "rates": [1.0], "start": 0.0,
         "events": [(3.0, "jump", 0.5)]},
    ]

    @given(
        seed=st.integers(0, 10_000),
        n_nodes=st.integers(2, 5),
        vector=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_pairs_match_the_naive_loop(self, seed, n_nodes, vector):
        rng = random.Random(f"pair-folds:{seed}")
        records = _records(_build_ensemble(seed, n_nodes))
        if rng.random() < 0.3:
            records[rng.randrange(n_nodes)] = None  # a node not started yet
        points = {0.0, HORIZON}
        for rec in records:
            if rec is not None:
                points.update(rec.breakpoints_in(0.0, HORIZON))
        points = sorted(points)
        pairs = []
        for _ in range(rng.randrange(1, 6)):
            a, b = rng.sample(range(n_nodes), 2)
            size = rng.randrange(1, len(points) + 1)
            pairs.append((a, b, sorted(rng.sample(range(len(points)), size))))
        with pytest.MonkeyPatch.context() as patch:
            if not _force_path(patch, "numpy" if vector else "scalar"):
                return
            result = trace_mod._skew_fold(records, points, pairs)
        assert result[1] == _naive_pair_folds(records, points, pairs)
        _assert_plain(result)

    def test_tie_plateau_keeps_each_pairs_first_column(self, kernel_path):
        records = _records(self.PLATEAU)
        points = [float(t) for t in range(11)]
        pairs = [
            (0, 1, list(range(11))),   # 0.25 from t=2 on
            (1, 2, [1, 3, 5, 7]),      # 0.25 from t=3 on
            (0, 2, [4, 6, 8]),         # 0.5 throughout its own columns
        ]
        result = trace_mod._skew_fold(records, points, pairs)
        assert result[1] == [(0.25, 2), (0.25, 3), (0.5, 4)]
        assert result[1] == _naive_pair_folds(records, points, pairs)
        _assert_plain(result)

    @pytest.mark.parametrize("window", [1, 2, 3])
    def test_tie_plateau_across_windows_per_edge(self, window, monkeypatch, kernel_path):
        # Every edge's own extremum, not only the largest one, keeps the
        # first instant of its plateau when the plateau spans windows, in
        # the tracker and in the trace fold.
        monkeypatch.setattr(monitors_mod, "_WINDOW_CELLS", 3 * window)
        monkeypatch.setattr(trace_mod, "_TRACE_WINDOW_CELLS", 3 * window)
        ensemble = [
            {**cfg, "bps": [0.0, 10.0, 20.0, 30.0], "rates": [1.0] * 4}
            for cfg in self.PLATEAU
        ]
        tracker = _drive_tracker(ensemble, line(3))
        trace = _build_oracle_trace(ensemble, line(3))
        for e, (a, b) in enumerate(tracker.edges):
            expected = _naive_fold(trace, (a, b))
            assert (tracker._edge_best_v[e], tracker._edge_best_t[e]) == (
                expected.value, expected.time
            )
            folded = trace.max_pair_skew(a, b)
            assert (folded.value, folded.time) == (expected.value, expected.time)
        # Node 1's jump opens both of its edges' plateaus at t=2.
        assert (tracker._edge_best_t[0], tracker._edge_best_t[1]) == (2.0, 2.0)

    def test_right_value_before_left_limit_at_a_jump(self, kernel_path):
        # Node 1 runs at half speed until t=1, then jumps back onto node
        # 0's clock: |L_0 − L_1| = 0.5 only as the left limit at t=1.
        # Node 2 jumps 0.25 ahead at t=1 and keeps the lead, so its gap
        # to node 0 is 0.25 as a right value at t=1 and at every later
        # point.
        ensemble = [
            {"bps": [0.0], "rates": [1.0], "start": 0.0, "events": []},
            {"bps": [0.0, 1.0], "rates": [0.5, 1.0], "start": 0.0,
             "events": [(1.0, "jump", 0.5)]},
            {"bps": [0.0], "rates": [1.0], "start": 0.0,
             "events": [(1.0, "jump", 0.25)]},
        ]
        records = _records(ensemble)
        points = [0.0, 0.5, 1.0, 2.0, 4.0]
        pairs = [(0, 1, [0, 1, 2, 3, 4]), (0, 2, [1, 2, 3, 4]), (1, 0, [3, 4])]
        result = trace_mod._skew_fold(records, points, pairs)
        assert result[1] == [(0.5, 2), (0.25, 2), (0.0, 3)]
        assert result[1] == _naive_pair_folds(records, points, pairs)

    def test_edges_with_a_single_own_column(self, kernel_path):
        records = _records(_build_ensemble(7, 4))
        records[3] = None
        points = [0.0, 5.0, 12.5, 30.0, HORIZON]
        pairs = [(0, 1, [0]), (1, 2, [4]), (2, 3, [2]), (0, 2, [1, 3]), (3, 0, [3])]
        result = trace_mod._skew_fold(records, points, pairs)
        assert result[1] == _naive_pair_folds(records, points, pairs)
        assert [result[1][j][1] for j in (0, 1, 2, 4)] == [0, 4, 2, 3]
        _assert_plain(result)


def _window_records(n_records: int):
    """``n_records`` drifting clocks with a dozen checkpoints each."""
    rng = random.Random(f"path-choice:{n_records}")
    records = []
    for _ in range(n_records):
        clock = HardwareClock(PiecewiseConstantRate(
            [0.0, 20.0], [rng.uniform(0.95, 1.05), rng.uniform(0.95, 1.05)]
        ))
        record = LogicalClockRecord(clock)
        for tenth in sorted(rng.sample(range(1, 400), 12)):
            record.checkpoint(tenth / 10, rng.uniform(1.0, 1.2))
        records.append(record)
    return records


class TestPathChoice:
    """Which kernel path a fold takes, by its point count alone."""

    @pytest.mark.skipif(trace_mod._np is None, reason="needs the numpy path")
    @pytest.mark.parametrize("n_records,n_points", [(65, 252), (33, 496), (2, 64)])
    def test_benchmark_sized_folds_take_numpy(
        self, n_records, n_points, vector_calls, monkeypatch
    ):
        # 65 and 33 records: full streaming windows of the 64- and
        # 32-hop lines; 2 records over 64 points: a trace-mode pair fold.
        if n_records > 2:
            assert monitors_mod._WINDOW_CELLS // n_records == n_points
        records = _window_records(n_records)
        points = [40.0 * k / n_points for k in range(n_points)]
        pairs = [(i, i + 1, list(range(i % 3, n_points, 3))) for i in range(n_records - 1)]
        result = trace_mod._skew_fold(records, points, pairs)
        assert vector_calls == [n_points] * n_records
        _assert_plain(result)
        monkeypatch.setattr(trace_mod, "_np", None)
        assert trace_mod._skew_fold(records, points, pairs) == result
        assert len(vector_calls) == n_records

    @pytest.mark.parametrize("window", [1, 2, 3])
    def test_short_windows_stay_point_wise(self, window, vector_calls, monkeypatch):
        ensemble = _build_ensemble(11, 4)
        one_window = _drive_tracker(ensemble, line(4))
        monkeypatch.setattr(monitors_mod, "_WINDOW_CELLS", window * 4)

        def no_sweep(*args, **kwargs):
            raise AssertionError("a short window swept a record")

        monkeypatch.setattr(LogicalClockRecord, "values_at", no_sweep)
        monkeypatch.setattr(LogicalClockRecord, "values_left_at", no_sweep)
        tracker = _drive_tracker(ensemble, line(4))
        assert vector_calls == []
        assert tracker.global_extremum() == one_window.global_extremum()
        assert tracker.local_extremum() == one_window.local_extremum()
