"""Host-normalized end-to-end benchmark of the CROW simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload mix4-read-crow --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics (``setup_s``, ``run_s``,
``sim_ips``, ``peak_rss_mb``); ``--trace 1`` makes one untraced and one
traced pass and reports the per-layer metrics, writing the spans to
``.perfbench_out/``. Either way every task's result digest is checked,
the metrics are printed one per line with their units, and the last
line of output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import digest  # noqa: E402
import refkernel  # noqa: E402
import workloads  # noqa: E402

#: Timed set-up probes per run (after one untimed probe that compiles
#: bytecode and warms the file cache).
SETUP_PROBES = 8
EXPECTED_PATH = HERE / "expected_digests.json"
OUT_DIR = ROOT / ".perfbench_out"
WORK_ROOT = ROOT / ".perfbench_tmp"


class Ledger:
    """Digest checks of every task a run attempts."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        committed = json.loads(EXPECTED_PATH.read_text())
        self.expected = committed.get(workload, {})
        self.first: dict[str, str] = {}
        self.attempted = 0
        self.problems: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.problems)

    def check(self, label: str, result, seed: "int | None" = None) -> None:
        """Count one task; record why it failed, if it did."""
        seed = self.seed if seed is None else seed
        self.attempted += 1
        if isinstance(result, BaseException):
            self.problems.append(f"{label}: raised {result!r}")
            return
        value = digest.result_digest(result)
        problem = digest.sanity_problem(result)
        key = f"{seed}:{label}"
        if problem is None and seed == workloads.DEFAULT_SEED:
            committed = self.expected.get(label)
            if committed != value:
                problem = f"digest {value} != committed {committed}"
        if problem is None:
            previous = self.first.setdefault(key, value)
            if previous != value:
                problem = f"digest {value} != earlier pass {previous}"
        if problem is None and label.startswith("rerun:"):
            computed = self.first.get(f"{seed}:run:{label[6:]}")
            if computed != value:
                problem = f"cached digest {value} != computed {computed}"
        if problem is not None:
            self.problems.append(f"{label}: {problem}")

    def digests(self) -> dict[str, str]:
        return dict(self.first)


def _setup_seconds(name: str, seed: int, workdir: Path) -> float:
    """Median normalized set-up time over fresh-interpreter probes."""
    values = []
    for index in range(SETUP_PROBES + 1):
        probe_dir = workdir / f"setup{index}"
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed),
             str(probe_dir)],
            capture_output=True, text=True, timeout=120,
        )
        shutil.rmtree(probe_dir, ignore_errors=True)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        if index == 0:
            continue
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        values.append(record["normalized_s"])
    return statistics.median(values)


def _one_pass(plan, ledger: Ledger, recorder=None) -> tuple:
    """Run one timed pass and check its tasks.

    Returns ``(slices, boundary rates, results)``. With a ``recorder``
    the pass runs with the tracing wrappers installed.

    Every pass starts from a collected heap. Simulated systems are
    cyclic garbage, so without this a full collection of whatever the
    earlier passes left lands in a random task of a later pass.
    Garbage made within the pass is collected inside it, as in a user's
    sweep.
    """
    import tracing

    gc.collect()
    normalizer = refkernel.Normalizer()
    if recorder is None:
        results = plan.run_pass(normalizer)
    else:
        with tracing.installed(recorder):
            results = plan.run_pass(normalizer)
    slices = normalizer.stop()
    for label, result in results:
        ledger.check(label, result)
    plan.after_pass()
    return slices, normalizer.rates, results


def _region_seconds(passes: list) -> tuple[float, float]:
    """(normalized, wall) time of one pass: per-slice medians, summed."""
    normalized, wall = defaultdict(list), defaultdict(list)
    for slices in passes:
        for label, wall_s, norm_s in slices:
            normalized[label].append(norm_s)
            wall[label].append(wall_s)
    return (
        sum(statistics.median(v) for v in normalized.values()),
        sum(statistics.median(v) for v in wall.values()),
    )


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(args, workdir: Path, ledger: Ledger) -> dict:
    """The end-to-end metrics (``--trace 0``)."""
    setup_s = _setup_seconds(args.workload, args.seed, workdir / "setup")
    plan = workloads.WORKLOADS[args.workload](args.seed, workdir / "run")
    passes = []
    deadline = time.perf_counter() + args.seconds
    while not passes or time.perf_counter() < deadline:
        slices, _, _ = _one_pass(plan, ledger)
        passes.append(slices)
    run_s, _wall = _region_seconds(passes)
    if args.seed != workloads.DEFAULT_SEED:
        # Whatever the seed, one task is checked against its committed
        # digest: the default-seed run of the pass's first task.
        anchor = workloads.WORKLOADS[args.workload](
            workloads.DEFAULT_SEED, workdir / "anchor"
        )
        try:
            label, result = anchor.anchor_task()
        except Exception as exc:
            label, result = "anchor", exc
        ledger.check(label, result, seed=workloads.DEFAULT_SEED)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"passes: {len(passes)}", flush=True)
    return {
        "setup_s": _metric(setup_s, "s"),
        "run_s": _metric(run_s, "s"),
        "sim_ips": _metric(plan.sim_instructions / run_s, "1/s"),
        "peak_rss_mb": _metric(peak_kib / 1024.0, "MB"),
    }


def trace(args, workdir: Path, ledger: Ledger) -> dict:
    """The per-layer metrics (``--trace 1``)."""
    import layers
    import tracing

    plan = workloads.WORKLOADS[args.workload](args.seed, workdir / "run")
    slices, rates, _ = _one_pass(plan, ledger)
    untraced_s, wall_s = _region_seconds([slices])
    recorder = tracing.Recorder(
        f"{args.workload}-seed{args.seed}-{os.getpid()}"
    )
    traced = Ledger(args.workload, args.seed)
    traced_slices, _, results = _one_pass(plan, traced, recorder)
    traced_s, _ = _region_seconds([traced_slices])
    ledger.attempted += traced.attempted
    ledger.problems.extend(traced.problems)
    for key, value in traced.digests().items():
        if ledger.digests().get(key) != value:
            ledger.problems.append(f"{key}: traced digest differs")
    recorder.dump(
        OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json",
        workload=args.workload, seed=args.seed,
    )
    # Cache hits of a rerun repeat results the pass already simulated.
    simulated = [
        result for label, result in results
        if not label.startswith("rerun:")
        and not isinstance(result, BaseException)
    ]
    metrics = layers.layer_metrics(recorder, simulated)
    metrics["host.wall_s"] = _metric(wall_s, "s")
    metrics["host.ref_mops"] = _metric(statistics.median(rates), "Mops")
    metrics["host.trace_overhead"] = _metric(traced_s / untraced_s, "ratio")
    return metrics


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workdir = WORK_ROOT / str(os.getpid())
    ledger = Ledger(args.workload, args.seed)
    try:
        metrics = (trace if args.trace else measure)(args, workdir, ledger)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:>16.6g} {metric['unit']}")
    share = ledger.failed / ledger.attempted
    print(f"{'failed':32s} {ledger.failed:>9d}/{ledger.attempted:<6d} "
          f"({share:.1%})")
    for problem in ledger.problems[:10]:
        print(f"  FAILED {problem}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
