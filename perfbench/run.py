"""Run one workload of the repo benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep-trace --seed 0 --seconds 38 --trace 0

The workload is repeated, one pass after another, for about
``--seconds`` seconds (at least one pass).  Each pass builds its
inputs from ``--seed``, runs them through the public user path with a
fresh, empty result cache, and checks every output against the hashes
committed in ``expected.json`` (or, for a seed without committed
hashes, against the paper's skew bounds and the certification report),
and against the first pass.

``--trace 0`` reports the end-to-end metrics: wall time from each
spec's median pass (see ``_median_wall``), set-up time as a median.
``--trace 1`` runs one untraced pass and then traced passes, and
reports the per-layer metrics (see ``spans.py``) plus the tracing
overhead: traced ``wall_s`` over untraced ``wall_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 when every output matched, 1 on a mismatch, and 2 when the
program cannot be imported from this checkout.  Provenance, per-pass
samples and (traced) spans are written under ``.perfbench-work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

#: Fresh interpreters that time the program's imports, in addition to
#: this process's own import; set-up time is the median over all.  One
#: runs after each of the first passes, so that a slow spell of the
#: host meets few of them.
IMPORT_PROBES = 6

_IMPORT_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
sys.path.insert(0, sys.argv[2])
started = time.perf_counter()
import workloads
workloads.import_program(sys.argv[3])
print(time.perf_counter() - started)
"""

def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True,
        choices=["sweep-trace", "sweep-stream", "certify-faults"],
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def _source_digest() -> str:
    """SHA-256 over the program's source files, by relative path."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _provenance(workload: str, seed: int, args) -> dict:
    import workloads

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    uname = os.uname()
    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": f"{uname.sysname} {uname.release} {uname.machine}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "scale": workloads.scale(workload, seed),
    }


def _probe_import(workload: str) -> float:
    """Import time of the program in a fresh interpreter (waited for)."""
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC), str(HERE), workload],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


class _TracedScope:
    """Installs a fresh tracer around one pass's user path."""

    def __init__(self):
        self.tracers = []

    @contextlib.contextmanager
    def __call__(self):
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        frame = tracer.open_span("bench.pass", "bench")
        try:
            yield tracer
        finally:
            tracer.close_span("bench.pass", frame)
            spans.uninstall(tracer)
            self.tracers.append(tracer)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    started = time.perf_counter()
    workloads.import_program(args.workload)
    import_times = [time.perf_counter() - started]
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    expected_path = HERE / "expected.json"
    expected = json.loads(expected_path.read_text(encoding="utf-8"))
    expected_seed = expected[
        "certify-faults" if args.workload == "certify-faults" else "sweep"
    ].get(str(args.seed))

    cache_dir = WORK / f"cache-{os.getpid()}"
    traced_scope = _TracedScope()
    passes, traced_flags, failures, mismatches = [], [], [], []
    layer_samples = []
    loop_started = time.perf_counter()
    try:
        while True:
            traced = bool(args.trace) and bool(passes)
            shutil.rmtree(cache_dir, ignore_errors=True)
            pass_started = time.perf_counter()
            result = workloads.run_pass(
                args.workload, args.seed, cache_dir,
                traced_scope if traced else contextlib.nullcontext,
            )
            pass_seconds = time.perf_counter() - pass_started
            failed, wrong = workloads.check_pass(
                args.workload, result, expected_seed,
                passes[0] if passes else None,
            )
            passes.append(result)
            if len(passes) == 1:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            traced_flags.append(traced)
            failures.append(failed)
            mismatches += [f"pass {len(passes)}: {m}" for m in wrong]
            if traced:
                layer_samples.append(
                    _layer_sample(traced_scope.tracers[-1], result)
                )
            if len(import_times) <= IMPORT_PROBES:
                import_times.append(_probe_import(args.workload))
            elapsed = time.perf_counter() - loop_started
            if args.trace and not layer_samples:
                continue
            if elapsed + pass_seconds > args.seconds:
                break
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    while len(import_times) <= IMPORT_PROBES:
        import_times.append(_probe_import(args.workload))

    # BENCHMARK.json names every metric and its unit; the code must
    # report exactly those.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = declared["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    # An operation is one spec of the workload; later passes re-time the
    # same specs, so a spec counts once, as failed if it failed in any
    # pass.  The counts then depend on the seed alone, not on how many
    # passes fit in the run.
    attempted = passes[0].specs
    failed_total = len(set().union(*failures))
    untraced = [p for p, t in zip(passes, traced_flags) if not t]
    if args.trace:
        metrics = _layer_metrics(layer_samples, untraced, units, mismatches)
    else:
        wall = _median_wall(passes)
        metrics = {
            "wall_s": wall,
            "events_per_s": statistics.median(p.events for p in passes) / wall,
            "setup_s": statistics.median(import_times)
            + statistics.median(p.setup_s for p in passes),
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": (attempted - failed_total) / attempted,
        }
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(units))} are reported but "
            "not declared in BENCHMARK.json, or declared but not reported"
        )
    provenance = _provenance(args.workload, args.seed, args)
    provenance["checked_against"] = (
        "expected.json" if expected_seed is not None else "skew bounds and report"
    )
    record = {
        "provenance": provenance,
        "passes": [
            {
                "traced": traced,
                "setup_s": p.setup_s,
                "wall_s": p.wall_s,
                "events": p.events,
                "specs": p.specs,
                "spec_seconds": p.spec_seconds,
                "failed": len(failed),
                "errors": {str(i): e for i, e in sorted(p.errors.items())},
            }
            for p, traced, failed in zip(passes, traced_flags, failures)
        ],
        "import_s": import_times,
        "mismatches": mismatches,
        "metrics": metrics,
    }
    WORK.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (WORK / f"result-{stem}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    if args.trace:
        _write_spans(WORK / f"spans-{stem}.jsonl", traced_scope.tracers)

    print(f"provenance: {json.dumps(provenance, sort_keys=True)}")
    print(f"passes: {len(passes)}  specs: {attempted}  failed: {failed_total}")
    for message in mismatches:
        print(f"MISMATCH {message}")
    for name, value in metrics.items():
        print(f"  {name:<36} {value:>16.6g} {units[name]}")
    correct = not mismatches
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed_total,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


def _median_wall(passes) -> float:
    """A pass's wall time, rebuilt from each spec's median pass.

    The host's speed dips by up to half for a second or so at a time,
    often enough that whole-pass times within one run spread by a
    fifth.  Each spec's median time over the passes, summed, plus the
    median time between specs (dispatch, cache writes, certificate
    checks), sheds the dips that meet a spec in fewer than half the
    passes.  Unlike each spec's fastest time, it does not shrink as
    more passes fit in a run, so a run on a slow host, which fits fewer
    passes, is not penalised twice: over five seeds per workload on a
    2-core shared host its spread between runs was 7-12%, against
    10-15% for the fastest.
    """
    per_spec = sum(
        statistics.median(times) for times in zip(*(p.spec_seconds for p in passes))
    )
    between = statistics.median(p.wall_s - sum(p.spec_seconds) for p in passes)
    return per_spec + between


def _layer_sample(tracer, result) -> dict:
    import spans

    sample = spans.layer_metrics(tracer)
    sample["exec.cache_hits"] = result.cache_hits
    sample["exec.cache_misses"] = result.cache_misses
    sample["faults.messages_lost"] = result.messages_lost
    sample["cert.errors"] = len(result.errors) if result.report is not None else 0
    sample["bench.traced_wall_s"] = result.wall_s
    return sample


def _layer_metrics(samples, untraced, units, mismatches) -> dict:
    """Per-layer metrics: medians of times, counts that must repeat exactly."""
    traced_wall = statistics.median(s.pop("bench.traced_wall_s") for s in samples)
    metrics = {}
    for name in samples[0]:
        values = [sample[name] for sample in samples]
        if units[name] == "s":
            metrics[name] = statistics.median(values)
            continue
        metrics[name] = values[0]
        if any(value != values[0] for value in values):
            mismatches.append(f"traced counter {name} differs between passes: {values}")
    untraced_wall = statistics.median(p.wall_s for p in untraced)
    metrics["bench.trace_overhead"] = traced_wall / untraced_wall
    return metrics


def _write_spans(path: Path, tracers) -> None:
    import spans

    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as out:
        for number, tracer in enumerate(tracers, start=1):
            self_times = spans.self_times(tracer.spans)
            for index, (span, self_s) in enumerate(zip(tracer.spans, self_times)):
                out.write(json.dumps(
                    dict(span, span=index, self_s=self_s, traced_pass=number),
                    sort_keys=True,
                ) + "\n")


if __name__ == "__main__":
    sys.exit(main())
