"""Record the expected outputs that ``run.py`` checks against.

Usage, from the root of a checkout::

    python3 perfbench/record_expected.py 0-31 1009

For every seed, runs one pass of ``sweep-trace`` and of
``certify-faults`` and stores the per-spec summary hashes (plus the
certification report's counts, errors and hash) in
``perfbench/expected.json``.  ``sweep-stream`` is checked against the
``sweep-trace`` hashes.  Re-record only when a change is meant to alter
results, and say why in the change.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(args):
    for arg in args:
        low, _, high = arg.partition("-")
        yield from range(int(low), int(high or low) + 1)


def main(argv) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    path = HERE / "expected.json"
    expected = (
        json.loads(path.read_text(encoding="utf-8"))
        if path.exists()
        else {"sweep": {}, "certify-faults": {}}
    )
    cache_dir = ROOT / ".perfbench-work" / "cache-record"
    for seed in _seeds(argv):
        for workload, key in (("sweep-trace", "sweep"), ("certify-faults", "certify-faults")):
            shutil.rmtree(cache_dir, ignore_errors=True)
            result = workloads.run_pass(workload, seed, cache_dir)
            expected[key][str(seed)] = workloads.expected_record(workload, result)
            print(f"seed {seed} {workload}: {len(result.errors)} errored specs")
    shutil.rmtree(cache_dir, ignore_errors=True)
    # One seed per line keeps the file diffable.
    lines = ["{"]
    for k, key in enumerate(("sweep", "certify-faults")):
        records = sorted(expected[key].items(), key=lambda kv: int(kv[0]))
        lines.append(f" {json.dumps(key)}: {{")
        lines += [
            f"  {json.dumps(seed)}: {json.dumps(record, sort_keys=True)}"
            + ("," if i < len(records) - 1 else "")
            for i, (seed, record) in enumerate(records)
        ]
        lines.append(" }" + ("," if k == 0 else ""))
    lines.append("}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
