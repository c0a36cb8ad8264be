"""Self-tests of the benchmark: span arithmetic, wrappers, output checks.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import spans  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    """A clock that reads the values it is given, in order."""

    def __init__(self, *readings):
        self.readings = list(readings)

    def __call__(self):
        return self.readings.pop(0)


# -- span arithmetic ------------------------------------------------------------


def test_union_of_disjoint_nested_and_overlapping_intervals():
    assert spans.union_length([]) == 0.0
    assert spans.union_length([(0, 1), (2, 4)]) == 3
    assert spans.union_length([(0, 10), (2, 3), (4, 5)]) == 10
    assert spans.union_length([(0, 4), (2, 6), (5, 7)]) == 7
    assert spans.union_length([(5, 7), (0, 4), (2, 6)]) == 7


def test_self_time_subtracts_the_union_of_children():
    tree = [
        {"start": 0.0, "end": 10.0, "parent": None},
        # Two overlapping children cover [1, 6]: 5 seconds, not 6.
        {"start": 1.0, "end": 4.0, "parent": 0},
        {"start": 3.0, "end": 6.0, "parent": 0},
        # A grandchild is inside its parent and does not count for the root.
        {"start": 1.5, "end": 2.5, "parent": 1},
    ]
    assert spans.self_times(tree) == [5.0, 2.0, 3.0, 1.0]


def test_self_time_is_never_negative_when_children_cover_the_parent():
    tree = [
        {"start": 0.0, "end": 2.0, "parent": None},
        {"start": 0.0, "end": 1.5, "parent": 0},
        {"start": 0.5, "end": 2.0, "parent": 0},
    ]
    times = spans.self_times(tree)
    assert times[0] == 0.0
    assert all(t >= 0 for t in times)


def test_online_self_time_matches_the_span_tree():
    # outer [0, 10] calls inner twice: [1, 3] and [4, 8]; inner of
    # another layer, so both calls are timed.
    tracer = spans.Tracer(clock=FakeClock(0.0, 1.0, 3.0, 4.0, 8.0, 10.0))

    def inner():
        return 1

    wrapped_inner = tracer.span_wrapper(inner, "inner", "b", keep=True)

    def outer():
        return wrapped_inner() + wrapped_inner()

    assert tracer.span_wrapper(outer, "outer", "a", keep=True)() == 2
    calls, total, self_ = tracer.aggregates["outer"]
    assert (calls, total, self_) == (1, 10.0, 4.0)
    assert tracer.aggregates["inner"] == [2, 6.0, 6.0]
    assert [s["parent"] for s in tracer.spans] == [None, 0, 0]
    assert spans.self_times(tracer.spans) == [4.0, 2.0, 4.0]


def test_reentering_a_layer_is_counted_but_not_timed_twice():
    tracer = spans.Tracer(clock=FakeClock(0.0, 5.0))
    calls = []

    def leaf():
        calls.append(1)

    wrapped_leaf = tracer.span_wrapper(leaf, "leaf", "same")

    def top():
        wrapped_leaf()

    tracer.span_wrapper(top, "top", "same")()
    assert calls == [1]
    assert tracer.aggregates["top"] == [1, 5.0, 5.0]
    assert tracer.aggregates["leaf"] == [1, 0.0, 0.0]


def test_clock_evaluations_count_points_and_credit_the_open_fold():
    tracer = spans.Tracer(clock=FakeClock(0.0, 1.0, 2.0, 3.0, 4.0, 5.0))

    def values_at(record, ts):
        return list(ts)

    batched = tracer.eval_wrapper(values_at, "batched", record=1, points=1)
    fold = tracer.span_wrapper(
        lambda: batched(None, [1, 2, 3]), "fold", "fold", zone="fold_points"
    )
    fold()
    batched(None, [4, 5])
    assert tracer.count("sim.clock.record_evals") == 5
    assert tracer.count("fold_points") == 3


def test_spans_close_when_the_wrapped_call_raises():
    tracer = spans.Tracer(clock=FakeClock(0.0, 2.0))

    def boom():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.span_wrapper(boom, "boom", "x", keep=True)()
    assert tracer.spans[0]["end"] == 2.0
    assert tracer._stack == [] and tracer._open_kept == []


# -- wrapper installation -----------------------------------------------------------


def _import_everything():
    for workload in workloads.WORKLOADS:
        workloads.import_program(workload)


def test_install_wraps_every_layer_and_uninstall_restores_the_originals():
    _import_everything()
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        installed = tracer.installed
        assert installed
        for owner, attr, original in installed:
            assert vars(owner)[attr] is not original
            assert vars(owner)[attr].__wrapped__ is not None
        names = {getattr(owner, "__name__", "") + "." + attr
                 for owner, attr, _ in installed}
        for expected in (
            "AoptNode.on_message", "_EngineContext.send_all",
            "SimulationEngine.__init__", "LogicalClockRecord.value",
            "DelayModel.validated_delay", "DriftModel.validated_rate_function",
            "StreamingSkewTracker.advance", "FaultInjector.message_fate",
            "ExecutionSpec.run_summary", "ResultCache.put",
            "SweepExecutor.run", "repro.cert.runner.generate_scenarios",
        ):
            assert expected in names
        with pytest.raises(RuntimeError):
            spans.install(tracer)
    finally:
        spans.uninstall(tracer)
    assert tracer.installed == []
    for owner, attr, original in installed:
        assert vars(owner)[attr] is original


def test_traced_execution_returns_the_untraced_summary():
    from repro.core.node import AoptAlgorithm
    from repro.core.params import SyncParams
    from repro.exec.spec import ExecutionSpec
    from repro.sim.delays import UniformDelay
    from repro.sim.drift import TwoGroupDrift
    from repro.topology import generators

    params = SyncParams.recommended(epsilon=0.05, delay_bound=1.0)
    topology = generators.line(4)
    spec = ExecutionSpec(
        topology=topology,
        algorithm=AoptAlgorithm(params),
        drift=TwoGroupDrift(0.05, topology.nodes[:2]),
        delay=UniformDelay(0.0, 1.0, seed=3),
        horizon=30.0,
        check_invariants=True,
        params=params,
    )
    for mode in (spec, spec.with_record_trace(False)):
        untraced = mode.run_summary()
        counters = []
        for _ in range(2):
            tracer = spans.Tracer()
            spans.install(tracer)
            try:
                traced = mode.run_summary()
            finally:
                spans.uninstall(tracer)
            assert workloads.summary_hash(traced) == workloads.summary_hash(untraced)
            assert traced.run_metrics is None
            metrics = spans.layer_metrics(tracer)
            counters.append({k: v for k, v in metrics.items() if not k.endswith("_s")})
            assert {s["id"] for s in tracer.spans} == {mode.digest()}
        assert counters[0] == counters[1]
        assert counters[0]["sim.engine.events"] == untraced.events_processed
        assert counters[0]["sim.monitors.checks"] > 0


# -- output checks ----------------------------------------------------------------


def _certify_result(outputs, errors):
    report = {
        "hash": "r", "counts": {"c": [1, 0]},
        "errors": [[i, e] for i, e in sorted(errors.items())],
        "clean_but_errors": True, "complete": True,
    }
    return workloads.PassResult(
        setup_s=0.0, wall_s=1.0, events=1, specs=len(outputs),
        spec_seconds=[0.0] * len(outputs), outputs=outputs, errors=errors,
        report=report,
    )


def test_known_defect_fails_its_spec_without_a_mismatch():
    defect = "ScheduleError: node 2: 'crash' at t=55.62 while already down since t=39.496"
    result = _certify_result(["a", None], {1: defect})
    expected = workloads.expected_record("certify-faults", result)
    assert workloads.check_pass("certify-faults", result, expected, None) == ([1], [])
    # A seed without committed outputs still recognises the defect.
    assert workloads.check_pass("certify-faults", result, None, result) == ([1], [])


def test_changed_summary_or_new_error_is_a_mismatch():
    result = _certify_result(["a", "b"], {})
    expected = workloads.expected_record("certify-faults", result)
    changed = _certify_result(["a", "x"], {})
    failed, wrong = workloads.check_pass("certify-faults", changed, expected, None)
    assert failed == [1] and len(wrong) == 1
    broken = _certify_result(["a", None], {1: "SimulationError: boom"})
    failed, wrong = workloads.check_pass("certify-faults", broken, None, None)
    assert failed == [1] and "unexpected error" in wrong[0]
    failed, wrong = workloads.check_pass("certify-faults", changed, None, result)
    assert failed == [1] and "first pass" in wrong[0]
