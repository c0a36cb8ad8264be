"""Unit and property tests for clock records and exact skew evaluation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.trace as trace_mod
from repro.errors import TraceError
from repro.sim.clock import HardwareClock
from repro.sim.rates import PiecewiseConstantRate
from repro.sim.trace import ExecutionTrace, LogicalClockRecord
from repro.topology.generators import line


def make_record(rate_segments, start=0.0):
    clock = HardwareClock(
        PiecewiseConstantRate.from_segments(rate_segments), start_time=start
    )
    return LogicalClockRecord(clock)


class TestLogicalClockRecord:
    def test_follows_hardware_by_default(self):
        record = make_record([(0.0, 1.1)])
        assert record.value(10.0) == pytest.approx(11.0)

    def test_zero_before_start(self):
        record = make_record([(0.0, 1.0)], start=4.0)
        assert record.value(2.0) == 0.0
        assert record.value(4.0) == 0.0

    def test_multiplier_changes_rate(self):
        record = make_record([(0.0, 1.0)])
        record.checkpoint(5.0, 2.0)
        assert record.value(5.0) == pytest.approx(5.0)
        assert record.value(7.0) == pytest.approx(5.0 + 4.0)
        assert record.rate_at(6.0) == pytest.approx(2.0)
        assert record.rate_at(4.0) == pytest.approx(1.0)

    def test_multiplier_composes_with_hardware_drift(self):
        record = make_record([(0.0, 1.0), (6.0, 0.5)])
        record.checkpoint(5.0, 2.0)
        # [5,6]: 2*1, [6,8]: 2*0.5 -> 5 + 2 + 2 = 9.
        assert record.value(8.0) == pytest.approx(9.0)

    def test_checkpoint_in_past_rejected(self):
        record = make_record([(0.0, 1.0)])
        record.checkpoint(5.0, 2.0)
        with pytest.raises(TraceError):
            record.checkpoint(4.0, 1.0)

    def test_same_instant_checkpoint_replaces(self):
        record = make_record([(0.0, 1.0)])
        record.checkpoint(5.0, 2.0)
        record.checkpoint(5.0, 3.0)
        assert record.value(6.0) == pytest.approx(5.0 + 3.0)

    def test_jump_forward(self):
        record = make_record([(0.0, 1.0)])
        record.jump(5.0, 9.0)
        assert record.value(5.0) == pytest.approx(9.0)
        assert record.value_left(5.0) == pytest.approx(5.0)
        assert record.jump_times == (5.0,)

    def test_jump_backwards_rejected(self):
        record = make_record([(0.0, 1.0)])
        with pytest.raises(TraceError):
            record.jump(5.0, 3.0)

    def test_equal_value_jump_not_recorded_as_jump(self):
        record = make_record([(0.0, 1.0)])
        record.jump(5.0, 5.0)
        assert record.jump_times == ()

    def test_value_before_start_query(self):
        record = make_record([(0.0, 1.0)])
        with pytest.raises(TraceError):
            record._segment_index(-1.0)

    def test_breakpoints_include_hardware_and_checkpoints(self):
        record = make_record([(0.0, 1.0), (4.0, 1.1)])
        record.checkpoint(2.0, 1.5)
        points = record.breakpoints_in(0.0, 10.0)
        assert 2.0 in points and 4.0 in points and 0.0 in points

    def test_breakpoints_unique_when_checkpoint_meets_rate_change(self):
        """Regression: a checkpoint coinciding with a hardware rate change
        used to yield the same time point twice, so skew evaluation
        evaluated (and paid for) duplicated instants."""
        record = make_record([(0.0, 1.0), (4.0, 1.1), (7.0, 0.9)])
        record.checkpoint(4.0, 1.5)  # same instant as the rate change
        record.checkpoint(7.0, 1.2)  # and again
        points = record.breakpoints_in(0.0, 10.0)
        assert points == sorted(set(points))  # sorted and duplicate-free
        assert points.count(4.0) == 1
        assert points.count(7.0) == 1
        # Evaluation count: one evaluation per distinct instant.
        assert len(points) == len({0.0, 4.0, 7.0})

    def test_multiplier_at(self):
        record = make_record([(0.0, 1.0)])
        record.checkpoint(3.0, 1.5)
        assert record.multiplier_at(2.0) == 1.0
        assert record.multiplier_at(3.0) == 1.5
        assert record.multiplier_at(-1.0) == 0.0

    @pytest.mark.skipif(trace_mod._np is None, reason="needs the numpy path")
    def test_vector_path_on_pruned_record_is_exact_or_loud(self, monkeypatch):
        records = [make_record([(0.0, 1.0), (50.0, 1.1)]) for _ in range(2)]
        for rec in records:
            for k in range(1, 100):
                rec.checkpoint(float(k), 1.0 + (k % 3) / 10)
        pruned, twin = records
        pruned.prune_to(60.0)
        n = trace_mod._VECTOR_MIN_POINTS
        kept = [60.0 + 40.0 * i / n for i in range(n)]
        # Kept points: bit-identical to the unpruned twin on the numpy path.
        assert trace_mod._vector_eligible(n)
        right, left = trace_mod._vector_values(pruned, trace_mod._np.asarray(kept))
        assert right.tolist() == twin.values_at(kept)
        assert left.tolist() == twin.values_left_at(kept)
        # A point in the pruned prefix raises on both paths.
        points = [100.0 * i / n for i in range(n)]
        with pytest.raises(TraceError, match="pruned prefix"):
            trace_mod._skew_fold([pruned], points)
        monkeypatch.setattr(trace_mod, "_np", None)
        with pytest.raises(TraceError, match="pruned prefix"):
            trace_mod._skew_fold([pruned], points)


def build_trace(records, horizon, topology):
    nodes = list(topology.nodes)
    return ExecutionTrace(
        topology=topology,
        horizon=horizon,
        logical={n: records[i] for i, n in enumerate(nodes)},
        hardware={n: records[i].hardware for i, n in enumerate(nodes)},
        start_times={n: records[i].start_time for i, n in enumerate(nodes)},
        messages_sent={n: 0 for n in nodes},
        messages_received={n: 0 for n in nodes},
        bits_sent={n: 0 for n in nodes},
    )


class TestExactSkewEvaluation:
    def test_pair_skew_hand_computed(self):
        fast = make_record([(0.0, 1.1)])
        slow = make_record([(0.0, 0.9)])
        trace = build_trace([fast, slow], horizon=10.0, topology=line(2))
        extremum = trace.max_pair_skew(0, 1)
        assert extremum.value == pytest.approx(2.0)  # 0.2 * 10
        assert extremum.time == pytest.approx(10.0)

    def test_global_skew_transient_peak(self):
        """The spread can peak strictly inside the run; breakpoints catch it."""
        a = make_record([(0.0, 1.1), (5.0, 0.9)])
        b = make_record([(0.0, 0.9), (5.0, 1.1)])
        trace = build_trace([a, b], horizon=10.0, topology=line(2))
        extremum = trace.global_skew()
        assert extremum.value == pytest.approx(1.0)  # 0.2*5 at t=5
        assert extremum.time == pytest.approx(5.0)

    def test_local_skew_picks_worst_edge(self):
        a = make_record([(0.0, 1.0)])
        b = make_record([(0.0, 1.0)])
        c = make_record([(0.0, 1.2)])
        trace = build_trace([a, b, c], horizon=10.0, topology=line(3))
        extremum = trace.local_skew()
        assert set((extremum.node_a, extremum.node_b)) == {1, 2}
        assert extremum.value == pytest.approx(2.0)

    def test_jump_left_limit_counted(self):
        """A jump creates skew just before it that must be observed."""
        a = make_record([(0.0, 1.0)])
        b = make_record([(0.0, 1.0)])
        b.checkpoint(0.0, 0.0001)  # b nearly frozen
        a.jump(5.0, 20.0)
        trace = build_trace([a, b], horizon=5.0, topology=line(2))
        extremum = trace.max_pair_skew(0, 1)
        assert extremum.value == pytest.approx(20.0, abs=0.01)

    def test_skew_signed_query(self):
        a = make_record([(0.0, 1.1)])
        b = make_record([(0.0, 1.0)])
        trace = build_trace([a, b], horizon=10.0, topology=line(2))
        assert trace.skew(0, 1, 10.0) == pytest.approx(1.0)
        assert trace.skew(1, 0, 10.0) == pytest.approx(-1.0)

    def test_spread_at(self):
        a = make_record([(0.0, 1.2)])
        b = make_record([(0.0, 1.0)])
        c = make_record([(0.0, 0.8)])
        trace = build_trace([a, b, c], horizon=10.0, topology=line(3))
        assert trace.spread_at(5.0) == pytest.approx(2.0)

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_breakpoint_max_dominates_dense_sampling(self, data):
        """Exactness property: no sampled spread exceeds the reported max."""
        seed = data.draw(st.integers(0, 10_000))
        rng = random.Random(seed)
        records = []
        for _ in range(3):
            times, rates = [0.0], [rng.uniform(0.9, 1.1)]
            t = 0.0
            for _ in range(rng.randint(0, 4)):
                t += rng.uniform(0.5, 3.0)
                times.append(t)
                rates.append(rng.uniform(0.9, 1.1))
            record = LogicalClockRecord(
                HardwareClock(PiecewiseConstantRate(times, rates))
            )
            checkpoint_t = 0.0
            for _ in range(rng.randint(0, 3)):
                checkpoint_t += rng.uniform(0.5, 3.0)
                record.checkpoint(checkpoint_t, rng.choice([1.0, 1.5]))
            records.append(record)
        trace = build_trace(records, horizon=12.0, topology=line(3))
        reported = trace.global_skew().value
        for i in range(481):
            t = 12.0 * i / 480
            assert trace.spread_at(t) <= reported + 1e-9

    def test_skew_by_distance(self):
        a = make_record([(0.0, 1.0)])
        b = make_record([(0.0, 1.1)])
        c = make_record([(0.0, 1.3)])
        trace = build_trace([a, b, c], horizon=10.0, topology=line(3))
        distances = {0: {0: 0, 1: 1, 2: 2}, 1: {0: 1, 1: 0, 2: 1}, 2: {0: 2, 1: 1, 2: 0}}
        by_distance = trace.skew_by_distance(distances)
        assert by_distance[1] == pytest.approx(2.0)  # |b-c| = 0.2*10
        assert by_distance[2] == pytest.approx(3.0)

    def test_max_skew_by_distance(self):
        a = make_record([(0.0, 1.0)])
        b = make_record([(0.0, 1.1)])
        trace = build_trace([a, b], horizon=10.0, topology=line(2))
        distances = {0: {0: 0, 1: 1}, 1: {0: 1, 1: 0}}
        assert trace.max_skew_by_distance(distances)[1] == pytest.approx(1.0)


class TestCounters:
    def test_amortized_frequency(self):
        record = make_record([(0.0, 1.0)])
        trace = build_trace([record, make_record([(0.0, 1.0)])], 10.0, line(2))
        trace.messages_sent[0] = 20
        assert trace.amortized_message_frequency(0) == pytest.approx(2.0)

    def test_amortized_frequency_subtracts_downtime(self):
        """Regression: scheduled crash downtime must not count as active
        time when amortizing the message rate."""
        record = make_record([(0.0, 1.0)])
        trace = build_trace([record, make_record([(0.0, 1.0)])], 10.0, line(2))
        trace.messages_sent[0] = 20
        trace.downtime[0] = 6.0
        assert trace.amortized_message_frequency(0) == pytest.approx(5.0)

    def test_amortized_frequency_zero_when_never_active(self):
        """Downtime covering the whole span yields 0.0, not a division by
        zero (or a negative-denominator artifact)."""
        record = make_record([(0.0, 1.0)])
        trace = build_trace([record, make_record([(0.0, 1.0)])], 10.0, line(2))
        trace.messages_sent[0] = 3
        trace.downtime[0] = 10.0
        assert trace.amortized_message_frequency(0) == 0.0
        trace.downtime[0] = 12.0  # defensive: over-counted downtime
        assert trace.amortized_message_frequency(0) == 0.0

    def test_totals(self):
        records = [make_record([(0.0, 1.0)]) for _ in range(2)]
        trace = build_trace(records, 10.0, line(2))
        trace.messages_sent[0] = 3
        trace.bits_sent[1] = 128
        assert trace.total_messages() == 3
        assert trace.total_bits() == 128
