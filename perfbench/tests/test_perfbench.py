"""Tests of the benchmark itself (not collected by the repository suite).

Run from the repository root::

    python3 -m pytest perfbench/tests -q

They check that the traced run cannot change behaviour, that its exact
counts repeat, that digests repeat for a seed no committed digest covers,
that the benchmark only uses the simulator's public API, and that it
refuses to run without the simulator's sources.
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import digest  # noqa: E402
import layers  # noqa: E402
import refkernel  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: A seed no committed digest covers.
HELD_OUT_SEED = 7919


def _exact(metrics: dict) -> dict:
    """Every per-layer metric that is not a host timing."""
    return {
        name: metric["value"]
        for name, metric in metrics.items()
        if not name.endswith("_s") and not name.endswith("_per_s")
        and not name.startswith("host.")
    }


def _pass(plan, recorder=None):
    normalizer = refkernel.Normalizer()
    if recorder is None:
        results = plan.run_pass(normalizer)
    else:
        with tracing.installed(recorder):
            results = plan.run_pass(normalizer)
    normalizer.stop()
    plan.after_pass()
    for label, result in results:
        assert not isinstance(result, BaseException), (label, result)
    return results


def _digests(results) -> dict:
    return {label: digest.result_digest(r) for label, r in results}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_and_digests_match(name, tmp_path):
    plan = workloads.WORKLOADS[name](HELD_OUT_SEED, tmp_path)
    untraced = _digests(_pass(plan))
    ledgers = []
    for attempt in range(2):
        recorder = tracing.Recorder(f"test-{attempt}")
        results = _pass(plan, recorder)
        # The wrappers must not change what the simulator computes.
        assert _digests(results) == untraced
        simulated = [r for label, r in results
                     if not label.startswith("rerun:")]
        ledgers.append(_exact(layers.layer_metrics(recorder, simulated)))
    assert ledgers[0] == ledgers[1]
    assert ledgers[0]["model.sim_cycles"] > 0
    assert ledgers[0]["controller.rank_probes"] > 0


def test_wrappers_are_removed_after_the_traced_block():
    from repro import System
    from repro.controller.scheduler import FrFcfsCap

    before = (vars(System)["run"], vars(FrFcfsCap)["ranked"])
    with tracing.installed(tracing.Recorder("test")):
        assert vars(System)["run"] is not before[0]
    assert (vars(System)["run"], vars(FrFcfsCap)["ranked"]) == before


def test_every_layer_metric_is_declared():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in declared["per_layer"]}
    metrics = layers.layer_metrics(tracing.Recorder("empty"), [])
    host = {"host.wall_s", "host.ref_mops", "host.trace_overhead"}
    assert set(metrics) | host == names


def test_default_seed_matches_committed_digests(tmp_path):
    committed = json.loads((BENCH / "expected_digests.json").read_text())
    plan = workloads.WORKLOADS["mix4-read-crow"](
        workloads.DEFAULT_SEED, tmp_path
    )
    assert _digests(_pass(plan)) == committed["mix4-read-crow"]


def test_ledger_counts_mismatch_and_exceptions_as_failures(tmp_path):
    plan = workloads.WORKLOADS["mix4-read-crow"](HELD_OUT_SEED, tmp_path)
    label, result = plan.anchor_task()
    ledger = run.Ledger("mix4-read-crow", workloads.DEFAULT_SEED)
    ledger.check(label, result)  # a held-out result under the default seed
    ledger.check("boom", RuntimeError("task crashed"))
    assert (ledger.attempted, ledger.failed) == (2, 2)


def test_normalizer_excludes_kernel_time():
    normalizer = refkernel.Normalizer()
    normalizer.mark("a")
    normalizer.mark("b")
    slices = normalizer.stop()
    assert [label for label, _, _ in slices] == ["a", "b"]
    assert len(normalizer.rates) == 3
    # Empty slices: only the two perf_counter calls around a boundary.
    assert all(wall < 0.005 for _, wall, _ in slices)


# ----------------------------------------------------------------------
# Public-API guard
# ----------------------------------------------------------------------
def _sources() -> dict[Path, ast.Module]:
    paths = sorted(BENCH.glob("*.py"))
    return {p: ast.parse(p.read_text(), str(p)) for p in paths}


def test_imports_no_private_repro_name():
    for path, tree in _sources().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module and \
                    node.module.split(".")[0] == "repro":
                parts = node.module.split(".") + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                parts = [p for a in node.names for p in a.name.split(".")
                         if a.name.split(".")[0] == "repro"]
            else:
                continue
            private = [p for p in parts if p.startswith("_")]
            assert not private, f"{path.name}:{node.lineno} {private}"


def test_never_selects_an_engine_or_reads_bench_knobs():
    knob = "REPRO_" + "BENCH_"
    for path, tree in _sources().items():
        assert knob not in path.read_text(), path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.keyword):
                assert node.arg != "engine", f"{path.name}:{node.lineno}"
            if isinstance(node, ast.Attribute) and \
                    isinstance(node.ctx, ast.Store):
                assert node.attr != "engine", f"{path.name}:{node.lineno}"


def test_environment_is_restored_after_a_run(capsys, monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    before = dict(os.environ)
    assert run.main([
        "--workload", "campaign-write-forked", "--seconds", "0",
        "--seed", str(HELD_OUT_SEED),
    ]) == 0
    assert dict(os.environ) == before
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {
        "setup_s", "run_s", "sim_ips", "peak_rss_mb"
    }


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mix4-read-crow",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
