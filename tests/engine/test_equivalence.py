"""Differential suite: the vectorized run path must equal the reference.

A run takes the *batch* path: the vectorized ``System.prewarm`` and the
inlined ``System._run_until`` timed loop. The *event* path is the
reference it is held to: ``System._prewarm_scalar`` and the
checkpointing loop's one ``System._step()`` per iteration, at a cadence
too long to ever save. For every oracle mechanism in
``tests/data/expected_digests.json``, the same (config, seed, workload)
must produce

* the identical telemetry digest (and the committed oracle digest),
* an identical :class:`~repro.sim.metrics.SimResult` tree, field for
  field, and
* a clean pass under the strict conformance checker.

Configs pickled while ``SystemConfig`` still had an ``engine`` field
must keep their digests — asserted at the bottom of this module.
"""

import copy
import dataclasses
import json
from pathlib import Path

import pytest

from repro import SystemConfig, run_workload
from repro.sim.campaign import config_digest, task_digest
from repro.sim.system import System
from repro.snapshot import warmup_digest

DATA = Path(__file__).resolve().parent.parent / "data"
EXPECTED = json.loads((DATA / "expected_digests.json").read_text())

RUN = dict(instructions=2_000, warmup_instructions=500)


@pytest.fixture
def event_path(monkeypatch, tmp_path):
    """Switch every System's prewarm to the scalar oracle; returns the
    run keywords that select the one-``_step()``-per-iteration loop."""

    def use():
        monkeypatch.setattr(System, "prewarm", System._prewarm_scalar)
        return dict(
            checkpoint_path=tmp_path / "never.ckpt", checkpoint_every=1 << 40
        )

    return use


def run_once(mechanism, run=None, **extra):
    config = SystemConfig(
        cores=1, mechanism=mechanism, seed=1, telemetry=True, **extra
    )
    return run_workload("libq", config, **RUN, **(run or {}))


class TestOracleEquivalence:
    @pytest.mark.parametrize("case", sorted(EXPECTED))
    def test_batch_matches_oracle_and_event(self, case, event_path):
        mechanism = case.removeprefix("libq-")
        batch = run_once(mechanism)
        event = run_once(mechanism, run=event_path())
        want = EXPECTED[case]
        assert event.telemetry_digest() == want["digest"]
        assert batch.telemetry_digest() == want["digest"]
        assert batch.cycles == want["cycles"]
        # The whole result tree, not just the digest: every stat, every
        # energy component, every telemetry leaf.
        assert dataclasses.asdict(batch) == dataclasses.asdict(event)

    @pytest.mark.parametrize("case", sorted(EXPECTED))
    def test_batch_passes_strict_conformance(self, case):
        """The shadow checker watches the real command stream — a run
        completing under strict mode means the timed loop issued a fully
        JEDEC/CROW-conformant schedule, independent of the digest."""
        mechanism = case.removeprefix("libq-")
        result = run_once(mechanism, check=True, check_mode="strict")
        assert result.telemetry_digest() == EXPECTED[case]["digest"]


class TestMultiCoreEquivalence:
    def test_four_core_mix_is_engine_invariant(self, event_path):
        from repro.sim.sweep import run_mix

        config = SystemConfig(
            cores=4, mechanism="crow-cache", seed=7, telemetry=True
        )

        def run(**extra):
            return run_mix(
                ["libq", "mcf", "stream-copy", "milc"],
                config,
                instructions=1_500,
                warmup_instructions=300,
                **extra,
            )

        batch = run()
        event = run(**event_path())
        assert dataclasses.asdict(batch) == dataclasses.asdict(event)


def legacy_config(config=None, engine="batch"):
    """``config`` as unpickled from before the ``engine`` field went
    away: pickle restores the stale attribute straight into
    ``__dict__``."""
    config = copy.copy(config if config is not None else SystemConfig())
    config.__dict__["engine"] = engine
    return config


class TestEngineDigestExclusion:
    def test_config_digest_ignores_engine(self):
        assert config_digest(legacy_config()) == config_digest(SystemConfig())

    def test_warmup_digest_ignores_engine(self):
        assert warmup_digest(legacy_config()) == warmup_digest(SystemConfig())

    def test_task_digest_ignores_engine(self):
        kwargs = dict(
            kind="workload",
            names=("libq",),
            instructions=1000,
            warmup_instructions=100,
            seed=1,
        )
        assert task_digest(config=legacy_config(), **kwargs) == task_digest(
            config=SystemConfig(), **kwargs
        )

    def test_unknown_engine_rejected(self):
        """The knob is gone: no engine can be selected at all."""
        with pytest.raises(TypeError, match="engine"):
            SystemConfig(engine="batch")

    def test_legacy_engine_snapshot_restores(self, tmp_path):
        """A snapshot whose pickled config carries an ``engine``
        attribute restores under its unchanged config digest and
        resumes to the uninterrupted run's digest."""
        from repro.snapshot.container import read_snapshot, write_snapshot

        config = SystemConfig(
            cores=1, mechanism="crow-cache", seed=1, telemetry=True
        )
        snap = tmp_path / "run.snap"
        oracle = run_workload(
            "libq", config, **RUN, snapshot_at_cycle=300, snapshot_path=snap
        )
        header, payload = read_snapshot(snap)
        header.pop("format_version")
        payload["config"] = legacy_config(config, engine="event")
        legacy = tmp_path / "legacy.snap"
        write_snapshot(legacy, header, payload)

        system = System.restore(legacy, config)
        assert system.config.engine == "event"
        assert config_digest(system.config) == header["config_digest"]
        resumed = System.resume(legacy)
        assert resumed.telemetry_digest() == oracle.telemetry_digest()
