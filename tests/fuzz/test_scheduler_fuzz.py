"""Property-based differential fuzzing of incremental scheduling.

The property: for any randomized scenario (the conformance fuzzer's
scenario space, ``repro.check.scenarios.random_scenario``) run under
each registered mechanism, every controller tick of the incremental
controller makes the same decision as the full re-ranking oracle
(``tests/controller/rerank_oracle.py``) — the same commands issued at
the same cycle, and the same wake time returned. Both runs start from
the same configuration and traces, so the first differing tick is the
first wrong decision. A failing example prints the scenario JSON, which
replays via ``python -m repro check --scenario '<json>'`` (plus
hypothesis's ``@reproduce_failure`` blob under the ci profile).
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, note, settings
from hypothesis import strategies as st

from repro.check.scenarios import random_scenario
from repro.sim.config import MECHANISMS
from repro.sim.sweep import derive_trace_seed
from repro.sim.system import System
from repro.trace.stream import TraceStream
from tests.controller.rerank_oracle import record_decisions, use_oracle

PREWARM = 10_000


def _decisions(scenario, oracle: bool):
    config = dataclasses.replace(scenario.to_config("report"), check=False)
    traces = [
        TraceStream(name, derive_trace_seed(scenario.seed, core))
        for core, name in enumerate(scenario.workloads)
    ]
    system = System(config, traces)
    logs = []
    for controller in system.controllers:
        if oracle:
            use_oracle(controller)
        logs.append(record_decisions(controller))
    result = system.run(
        scenario.instructions,
        scenario.warmup_instructions,
        prewarm_accesses=PREWARM,
    )
    return logs, result


def _first_difference(logs, oracle_logs):
    for channel, (log, oracle_log) in enumerate(zip(logs, oracle_logs)):
        for tick, (got, want) in enumerate(zip(log, oracle_log)):
            if got != want:
                return (
                    f"channel {channel} tick {tick}: incremental {got} "
                    f"!= full re-rank {want}"
                )
        if len(log) != len(oracle_log):
            return (
                f"channel {channel}: {len(log)} ticks != oracle "
                f"{len(oracle_log)}"
            )
    return None


@pytest.mark.parametrize("mechanism", MECHANISMS)
@given(case_seed=st.integers(0, 2**32 - 1))
@settings(
    max_examples=2, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_incremental_decisions_match_full_rerank(mechanism, case_seed):
    scenario = dataclasses.replace(
        random_scenario(case_seed), mechanism=mechanism
    )
    note(f"scenario: {scenario.to_json()}")
    logs, result = _decisions(scenario, oracle=False)
    oracle_logs, oracle_result = _decisions(scenario, oracle=True)
    difference = _first_difference(logs, oracle_logs)
    assert difference is None, (
        f"{difference}\nscenario: {scenario.to_json()}"
    )
    assert result == oracle_result
