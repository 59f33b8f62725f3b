"""Property-based differential fuzzing of the vectorized prewarm.

The property: for *any* randomized scenario (workload mixes ×
mechanisms × CROW knobs × run lengths — the same scenario space the
conformance fuzzer sweeps), ``System.prewarm`` leaves exactly the warm
state of its scalar oracle ``System._prewarm_scalar`` — LLC sets in LRU
key order, page table and allocator RNG, trace cursors — and the timed
run continuing from it (the inlined ``_run_until`` loop) matches the
oracle continued one ``_step()`` at a time (the checkpointing loop, at
a cadence too long to ever save): telemetry export, every ``SimResult``
field and the final component state tree. A failing example prints the
scenario JSON, which replays via ``python -m repro check --scenario
'<json>'`` (plus hypothesis's ``@reproduce_failure`` blob under the ci
profile).
"""

import dataclasses
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, note, settings
from hypothesis import strategies as st

from repro.check.scenarios import random_scenario
from repro.sim.sweep import derive_trace_seed
from repro.sim.system import System
from repro.trace.stream import TraceStream

PREWARM = 10_000


def _system(scenario):
    config = dataclasses.replace(
        scenario.to_config("report"), telemetry=True
    )
    traces = [
        TraceStream(name, derive_trace_seed(scenario.seed, core))
        for core, name in enumerate(scenario.workloads)
    ]
    return System(config, traces)


def _warm_state(system):
    return (
        [list(entries.items()) for entries in system.llc._sets],
        system.vm.state_dict(),
        [core.trace.state_dict() for core in system.cores],
    )


def _finish(system, scenario, **extra):
    result = system.run(
        scenario.instructions,
        scenario.warmup_instructions,
        prewarm_accesses=0,
        **extra,
    )
    return result, system.state_dict(), system.check_report()


@given(case_seed=st.integers(0, 2**32 - 1))
@settings(
    max_examples=10, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_random_scenario_warm_state_matches_scalar_oracle(case_seed):
    scenario = random_scenario(case_seed)
    note(f"scenario: {scenario.to_json()}")
    oracle = _system(scenario)
    oracle._prewarm_scalar(PREWARM)
    system = _system(scenario)
    system.prewarm(PREWARM)
    assert _warm_state(system) == _warm_state(oracle)

    result, state, report = _finish(system, scenario)
    with tempfile.TemporaryDirectory() as tmp:
        oracle_result, oracle_state, oracle_report = _finish(
            oracle, scenario,
            checkpoint_path=Path(tmp) / "never.ckpt", checkpoint_every=1 << 40,
        )
    # The full telemetry export and every SimResult field, not just the
    # digest — a digest collision cannot hide a divergence here.
    assert result.telemetry_digest() == oracle_result.telemetry_digest()
    assert dataclasses.asdict(result) == dataclasses.asdict(oracle_result)
    # The complete component state tree: cores, caches, VM, controllers,
    # mechanisms, event queue, RNG positions.
    assert state == oracle_state
    # Conformance observations must agree too (report mode collects
    # rather than raises, so both command streams are compared
    # violation-for-violation).
    assert report.ok == oracle_report.ok
    assert len(report.violations) == len(oracle_report.violations)
