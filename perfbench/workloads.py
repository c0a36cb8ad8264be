"""The benchmark's workloads: their set-up, one timed pass, and output checks.

Every workload is one closed-loop client: a serial executor
(``workers=1``) in this process and a fresh, empty result cache per
pass, driven through the public user path — ``SweepExecutor.run`` over
``ExecutionSpec.run_summary`` for the sweeps, ``cert.runner.certify``
for the certification campaign.

* ``sweep-trace`` — ``repro sweep --topology line --diameters 16 32 64``:
  the six standard adversaries per diameter, ε = 0.05, T = 1, default
  horizons, full traces folded by the vectorized trace fold.  The main
  user path: algorithm callbacks and the event loop dominate.
* ``sweep-stream`` — the same 18 specs with ``record_trace=False``
  (``repro sweep --streaming``).  The streaming tracker's
  O(nodes × breakpoints) fold dominates; ``sweep-trace`` bypasses it,
  and this workload bypasses the trace fold.  Summaries must equal
  ``sweep-trace``'s except for ``spec_digest``.
* ``certify-faults`` — ``repro certify --budget N --seed S``: many
  small fuzzed topologies with crash/link faults and invariant monitors
  on every event, so per-spec set-up, monitors, the fault injector,
  cache writes and certificate checks carry a share they never have in
  the sweeps.  ``N`` (about 200) is set per seed by ``cert_budget`` so
  that campaigns of all seeds carry about the same simulated work.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import importlib
import json
import re
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = [
    "WORKLOADS",
    "PassResult",
    "import_program",
    "run_pass",
    "check_pass",
    "expected_record",
    "summary_hash",
    "scale",
    "cert_budget",
    "scenario_work",
]

DIAMETERS = (16, 32, 64)
EPSILON = 0.05
DELAY_BOUND = 1.0
#: Simulated work per certification campaign, in the units of
#: ``scenario_work`` (about 200 scenarios).  A campaign of a fixed
#: number of scenarios varies in cost with the fuzzed topologies and
#: horizons: 240 scenarios took 7.7-9.5 s over seeds 10-14 on a 2-core
#: shared host.  A pass stays short enough to repeat within a run.
CERT_WORK = 11_000.0

#: The fuzzer can draw overlapping crash windows for one node
#: (``cert/fuzzer.py:_sample_faults``); the schedule then refuses the
#: second crash.  These scenarios count as failed specs, never as
#: mismatches, until the fuzzer is fixed.
KNOWN_DEFECT = re.compile(r"^ScheduleError: .*'crash' at t=\S+ while already down")

_SWEEP_MODULES = (
    "repro.analysis.experiments",
    "repro.core.bounds",
    "repro.core.node",
    "repro.core.params",
    "repro.exec.cache",
    "repro.exec.pool",
    "repro.topology.generators",
)

#: Workload name -> the ``repro`` modules its user path imports.
WORKLOADS: Dict[str, Tuple[str, ...]] = {
    "sweep-trace": _SWEEP_MODULES,
    "sweep-stream": _SWEEP_MODULES,
    "certify-faults": ("repro.cert.runner", "repro.exec.cache", "repro.exec.pool"),
}


def import_program(workload: str) -> None:
    """Import the modules ``workload`` uses (timed by the caller)."""
    for module in WORKLOADS[workload]:
        importlib.import_module(module)


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _short_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def summary_hash(summary, spec_digest: Optional[str] = None) -> str:
    """Hash of a summary's canonical JSON, optionally with another digest.

    Passing the trace-mode spec digest for a streaming summary checks
    that the two modes agree on every field but ``spec_digest``.
    """
    fields = dataclasses.asdict(summary)
    if spec_digest is not None:
        fields["spec_digest"] = spec_digest
    return _short_hash(_canonical(fields))


@dataclass
class PassResult:
    """One pass of a workload: timings, work done and outputs."""

    setup_s: float
    wall_s: float
    events: int
    specs: int
    #: Per spec: seconds in ``run_summary`` (as the executor timed it).
    spec_seconds: List[float]
    #: Per spec: summary hash, or ``None`` if the spec errored.
    outputs: List[Optional[str]]
    #: Spec index -> error string.
    errors: Dict[int, str]
    #: Per spec: whether the skew theorems' bounds hold (sweeps only).
    within_bounds: List[bool] = field(default_factory=list)
    #: Certification report facts (certify only).
    report: Optional[dict] = None
    #: Messages lost to crashes, links or drops, over all summaries.
    messages_lost: int = 0
    cache_hits: int = 0
    cache_misses: int = 0


def _sweep_specs(seed: int, streaming: bool):
    from repro.analysis.experiments import standard_adversaries, suite_specs
    from repro.core.node import AoptAlgorithm
    from repro.core.params import SyncParams
    from repro.topology import generators

    params = SyncParams.recommended(epsilon=EPSILON, delay_bound=DELAY_BOUND)
    trace_specs, diameters = [], []
    for d in DIAMETERS:
        topology = generators.line(d + 1)
        specs = suite_specs(
            topology,
            lambda: AoptAlgorithm(params),
            params,
            cases=standard_adversaries(topology, params, seed=seed),
        )
        trace_specs += specs
        diameters += [d] * len(specs)
    specs = (
        [spec.with_record_trace(False) for spec in trace_specs]
        if streaming
        else trace_specs
    )
    return params, trace_specs, specs, diameters


def _sweep_pass(seed: int, streaming: bool, cache_dir, scope) -> PassResult:
    from repro.core.bounds import global_skew_bound, local_skew_bound
    from repro.exec.cache import ResultCache
    from repro.exec.pool import SweepExecutor

    with scope():
        started = time.perf_counter()
        params, trace_specs, specs, diameters = _sweep_specs(seed, streaming)
        cache = ResultCache(cache_dir)
        executor = SweepExecutor(workers=1, cache=cache)
        dispatched = time.perf_counter()
        outcomes = executor.run(specs)
        finished = time.perf_counter()

    outputs: List[Optional[str]] = []
    errors: Dict[int, str] = {}
    within: List[bool] = []
    events = lost = 0
    for i, outcome in enumerate(outcomes):
        if not outcome.ok:
            outputs.append(None)
            errors[i] = outcome.error or "no summary"
            within.append(False)
            continue
        summary = outcome.summary
        outputs.append(summary_hash(summary, trace_specs[i].digest()))
        events += summary.events_processed
        lost += (
            summary.messages_lost_link
            + summary.messages_lost_crash
            + summary.messages_dropped
        )
        d = diameters[i]
        within.append(
            not summary.monitor_violations
            and summary.global_skew <= global_skew_bound(params, d) + 1e-7
            and summary.local_skew <= local_skew_bound(params, d) + 1e-7
        )
    return PassResult(
        setup_s=dispatched - started,
        wall_s=finished - dispatched,
        events=events,
        specs=len(specs),
        spec_seconds=[outcome.seconds for outcome in outcomes],
        outputs=outputs,
        errors=errors,
        within_bounds=within,
        messages_lost=lost,
        cache_hits=cache.hits,
        cache_misses=cache.misses,
    )


def scenario_work(scenario) -> float:
    """Predicted cost of one fuzzed scenario: edges × horizon × ε / T.

    A^opt sends more messages the more edges, simulated time and drift
    a scenario has, and fewer the longer its delays.  Over seeds 10-14
    (1200 scenarios) this predicts a scenario's run time with R² = 0.92.
    """
    edges = sum(1 for _ in scenario.build_spec().topology.edges())
    return edges * scenario.horizon * scenario.epsilon / scenario.delay_bound


@functools.lru_cache(maxsize=None)
def cert_budget(seed: int) -> int:
    """Scenarios of the ``seed`` campaign whose work first reaches ``CERT_WORK``.

    Over seeds 0-39 the work of a fixed 240 scenarios spreads by 10%
    (interquartile range over median); this budget (177-243 scenarios)
    holds it within 1%.  Scenario ``i`` of a campaign does not depend on
    the budget (``cert.fuzzer.sample_scenario``), so this is a prefix of
    the campaign, and the known-defect scenarios in it run as they come.
    """
    from repro.cert.fuzzer import sample_scenario

    work, budget = 0.0, 0
    while work < CERT_WORK:
        work += scenario_work(sample_scenario(seed, budget, algorithm="aopt"))
        budget += 1
    return budget


def _certify_pass(seed: int, cache_dir, scope) -> PassResult:
    from repro.cert.runner import certify
    from repro.exec.cache import ResultCache
    from repro.exec.pool import SweepExecutor

    class ClockedExecutor(SweepExecutor):
        """Serial executor that notes when batches start and finish."""

        def __init__(self, cache):
            super().__init__(workers=1, cache=cache)
            self.first_dispatch: Optional[float] = None
            self.last_summary: Optional[float] = None
            self.results: List[Tuple[int, object]] = []
            self._offset = 0

        def run(self, specs, manifest=None):
            if self.first_dispatch is None:
                self.first_dispatch = time.perf_counter()
            outcomes = super().run(specs, manifest=manifest)
            self.last_summary = time.perf_counter()
            self.results += [(self._offset + o.index, o) for o in outcomes]
            self._offset += len(specs)
            return outcomes

    budget = cert_budget(seed)
    with scope():
        started = time.perf_counter()
        cache = ResultCache(cache_dir)
        executor = ClockedExecutor(cache)
        report = certify(
            seed=seed, budget=budget, algorithm="aopt", executor=executor
        )

    outputs: List[Optional[str]] = [None] * executor._offset
    seconds = [0.0] * executor._offset
    errors: Dict[int, str] = {}
    events = lost = 0
    for index, outcome in executor.results:
        seconds[index] = outcome.seconds
        if not outcome.ok:
            errors[index] = outcome.error or "no summary"
            continue
        summary = outcome.summary
        outputs[index] = summary_hash(summary)
        events += summary.events_processed
        lost += (
            summary.messages_lost_link
            + summary.messages_lost_crash
            + summary.messages_dropped
        )
    facts = report.as_dict()
    del facts["duration_seconds"]
    return PassResult(
        setup_s=executor.first_dispatch - started,
        wall_s=executor.last_summary - executor.first_dispatch,
        events=events,
        specs=len(outputs),
        spec_seconds=seconds,
        outputs=outputs,
        errors=errors,
        report={
            "hash": _short_hash(_canonical(facts)),
            "counts": {
                stat["certificate"]: [stat["checks"], stat["violations"]]
                for stat in facts["stats"]
            },
            "errors": [[e["index"], e["error"]] for e in facts["errors"]],
            "clean_but_errors": (
                not facts["violations"]
                and all(c["satisfied"] for c in facts["constructions"])
            ),
            "complete": facts["complete"] and facts["scenarios_run"] == budget,
        },
        messages_lost=lost,
        cache_hits=cache.hits,
        cache_misses=cache.misses,
    )


def run_pass(
    workload: str, seed: int, cache_dir, scope=contextlib.nullcontext
) -> PassResult:
    """Set up and run one pass of ``workload`` with a fresh cache.

    ``scope()`` is entered around the user path only (set-up and run),
    not around the output checks; the traced run installs its wrappers
    there.
    """
    if workload == "certify-faults":
        return _certify_pass(seed, cache_dir, scope)
    return _sweep_pass(seed, workload == "sweep-stream", cache_dir, scope)


def expected_record(workload: str, result: PassResult):
    """What ``expected.json`` stores for one seed of ``workload``."""
    if workload == "certify-faults":
        return {
            "summaries": result.outputs,
            "errors": result.report["errors"],
            "counts": result.report["counts"],
            "report": result.report["hash"],
        }
    return result.outputs


def check_pass(
    workload: str, result: PassResult, expected, reference: Optional[PassResult]
) -> Tuple[List[int], List[str]]:
    """Check one pass; returns ``(failed spec indices, mismatches)``.

    A spec fails when it errored or its output mismatched.  A mismatch
    is any output that differs from the committed ``expected`` record
    for the seed (or, for a seed without one, breaks a skew bound or the
    certification report) or from the run's first pass ``reference``.
    Known-defect errors fail their spec but are not mismatches.
    """
    failed = sorted(result.errors)
    mismatches: List[str] = []
    certify = workload == "certify-faults"

    if expected is None:
        for i, ok in enumerate(result.within_bounds):
            if not ok and i not in result.errors:
                failed.append(i)
                mismatches.append(f"spec {i}: skew bound or monitor violated")
        for i, error in result.errors.items():
            if not (certify and KNOWN_DEFECT.match(error)):
                mismatches.append(f"spec {i}: unexpected error: {error}")
        if certify and not (
            result.report["clean_but_errors"] and result.report["complete"]
        ):
            mismatches.append("certification found violations or was incomplete")
    else:
        outputs = expected["summaries"] if certify else expected
        if len(outputs) != len(result.outputs):
            mismatches.append(
                f"{len(result.outputs)} specs, expected {len(outputs)}"
            )
        for i, (got, want) in enumerate(zip(result.outputs, outputs)):
            if got is not None and got != want:
                failed.append(i)
                mismatches.append(f"spec {i}: summary {got} != expected {want}")
            elif got is None and want is not None:
                mismatches.append(f"spec {i}: unexpected error: {result.errors[i]}")
        if certify:
            report = result.report
            for key in ("errors", "counts"):
                if report[key] != expected[key]:
                    mismatches.append(
                        f"certify {key} {report[key]} != expected {expected[key]}"
                    )
            if report["hash"] != expected["report"]:
                mismatches.append(
                    f"certify report {report['hash']} != expected {expected['report']}"
                )

    if reference is not None:
        for i, (got, first) in enumerate(zip(result.outputs, reference.outputs)):
            if got != first:
                if i not in failed:
                    failed.append(i)
                mismatches.append(f"spec {i}: output differs from the first pass")
        if certify and result.report["hash"] != reference.report["hash"]:
            mismatches.append("certify report differs from the first pass")
    return sorted(set(failed)), mismatches


def scale(workload: str, seed: int) -> dict:
    """Size and horizon of ``workload``: max ``D``, horizons, horizon/(D·T)."""
    if workload == "certify-faults":
        from repro.cert.fuzzer import generate_scenarios

        sizes = {"scenarios": cert_budget(seed)}
        points = {
            (s.diameter(), s.horizon, s.delay_bound)
            for s in generate_scenarios(seed, sizes["scenarios"], algorithm="aopt")
        }
    else:
        sizes = {}
        _, specs, _, diameters = _sweep_specs(seed, False)
        points = {
            (d, spec.horizon, DELAY_BOUND) for d, spec in zip(diameters, specs)
        }
    ratios = [h / (d * t) for d, h, t in points if d > 0]
    return {
        **sizes,
        "max_D": max(d for d, _, _ in points),
        "horizon_min": min(h for _, h, _ in points),
        "horizon_max": max(h for _, h, _ in points),
        "horizon_over_DT_min": min(ratios),
        "horizon_over_DT_max": max(ratios),
        "distinct_D_horizon_T": len(points),
    }
