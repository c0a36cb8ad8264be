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


@pytest.fixture(params=["scalar", "numpy"])
def kernel_path(request, monkeypatch):
    """Run a test on the scalar sweeps and on the forced numpy path."""
    if request.param == "numpy":
        if trace_mod._np is None:
            pytest.skip("numpy is not installed")
        monkeypatch.setattr(trace_mod, "_VECTOR_MIN_POINTS", 1)


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
        # run, and a batch of 1 prunes after every window; a one-point
        # vector threshold sends every window (and every trace fold)
        # through the numpy path instead of the scalar sweeps.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(monitors_mod, "_WINDOW_CELLS", window * n_nodes)
            patch.setattr(LogicalClockRecord, "PRUNE_BATCH", 1)
            if vector:
                if trace_mod._np is None:
                    return
                patch.setattr(trace_mod, "_VECTOR_MIN_POINTS", 1)
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
