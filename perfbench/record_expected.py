"""Regenerate ``expected_digests.json`` from the current simulator.

Usage: ``python3 perfbench/record_expected.py``

Runs one untimed pass of every workload at the default seed and writes
each task's result digest. Only re-record when the simulated model is
meant to change; a performance or simplicity change must leave the
committed digests as they are.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import digest  # noqa: E402
import refkernel  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    expected = {}
    workdir = HERE.parent / ".perfbench_tmp" / "record"
    try:
        for name, cls in workloads.WORKLOADS.items():
            plan = cls(workloads.DEFAULT_SEED, workdir / name)
            normalizer = refkernel.Normalizer()
            results = plan.run_pass(normalizer)
            normalizer.stop()
            expected[name] = {
                label: digest.result_digest(result)
                for label, result in results
            }
            plan.after_pass()
            print(f"{name}: {len(results)} digests", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = HERE / "expected_digests.json"
    path.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
