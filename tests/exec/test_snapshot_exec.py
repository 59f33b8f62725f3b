"""Campaign-level snapshot behaviour: crash-resume and warm forking.

Covers the exec-engine side of the snapshot subsystem: a retried task
resumes from the checkpoint its killed predecessor left behind (and the
journal says so), corrupt checkpoints degrade to a full re-run, and
``run_forked`` pre-warms once per compatibility group without changing
any result byte.
"""

import json
import os
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.exec import ParallelCampaign, TaskSpec
from repro.sim.config import SystemConfig
from repro.sim.sweep import run_workload

DATA = Path(__file__).resolve().parent.parent / "data"
EXPECTED = json.loads((DATA / "expected_digests.json").read_text())

RUN = dict(instructions=2_000, warmup_instructions=500, seed=0)


def spec_for(mechanism, **extra):
    return TaskSpec.workload(
        "libq",
        SystemConfig(cores=1, mechanism=mechanism, seed=1, telemetry=True),
        **RUN,
        **extra,
    )


def read_journal(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines()]


def events(journal, name):
    return [e for e in journal if e.get("event") == name]


def _crash_after_checkpoint(spec):
    """Worker body simulating a mid-run kill: attempt 1 leaves a valid
    checkpoint at cycle 250 and dies without reporting; the retry runs
    the spec normally and must resume from that checkpoint."""
    checkpoint = spec.checkpoint_path()
    if not checkpoint.is_file():
        run_workload(
            spec.names[0], spec.config,
            instructions=spec.instructions,
            warmup_instructions=spec.warmup_instructions,
            seed=spec.seed,
            snapshot_at_cycle=250, snapshot_path=checkpoint,
        )
        os._exit(13)
    return spec.run()


class TestSpecIdentity:
    def test_snapshot_fields_do_not_change_digest(self, tmp_path):
        """Warm/checkpoint plumbing changes *how* a task executes, never
        *what* it is — so it must not shift the cache key."""
        plain = spec_for("baseline")
        plumbed = spec_for(
            "baseline",
            warm_image=tmp_path / "w.warm",
            checkpoint_dir=tmp_path,
            checkpoint_every=123,
        )
        assert plain.digest() == plumbed.digest()
        assert plain.cache_filename() == plumbed.cache_filename()

    def test_checkpoint_path_is_digest_named(self, tmp_path):
        spec = spec_for("baseline", checkpoint_dir=tmp_path)
        assert spec.checkpoint_path() == tmp_path / f"{spec.digest()}.ckpt"
        assert spec_for("baseline").checkpoint_path() is None


class TestCrashResume:
    def test_killed_worker_resumes_from_its_checkpoint(self, tmp_path):
        """The full fault path: worker dies mid-run (exit 13, no report),
        the runner retries, the retry resumes from the checkpoint — and
        the final digest is byte-identical to an uninterrupted run."""
        journal = tmp_path / "journal.jsonl"
        spec = spec_for("crow-cache", checkpoint_dir=tmp_path / "ck")
        with ParallelCampaign(
            tmp_path / "cache", jobs=2, retries=1, journal=journal,
        ) as campaign:
            (outcome,) = campaign.run([spec], _fn=_crash_after_checkpoint)
        assert outcome.ok
        assert outcome.attempts == 2
        want = EXPECTED["libq-crow-cache"]
        assert outcome.result.telemetry_digest() == want["digest"]

        log = read_journal(journal)
        (retry,) = events(log, "task_retry")
        assert retry["crashed"] is True
        (resumed,) = events(log, "task_resumed")
        assert resumed["checkpoint_cycle"] == 250
        assert resumed["attempt"] == 2
        # a completed run deletes its checkpoint
        assert not spec.checkpoint_path().is_file()

    def test_corrupt_checkpoint_falls_back_to_full_rerun(self, tmp_path):
        spec = spec_for("baseline", checkpoint_dir=tmp_path)
        spec.checkpoint_path().write_bytes(b"garbage" * 100)
        result = spec.run()
        want = EXPECTED["libq-baseline"]
        assert result.telemetry_digest() == want["digest"]
        assert not spec.checkpoint_path().is_file()

    def test_serial_runner_journals_resume_too(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        spec = spec_for("salp", checkpoint_dir=tmp_path / "ck")
        run_workload(
            "libq", spec.config, **RUN,
            snapshot_at_cycle=300,
            snapshot_path=spec.checkpoint_path(),
        )
        with ParallelCampaign(
            tmp_path / "cache", jobs=1, journal=journal,
        ) as campaign:
            (outcome,) = campaign.run([spec])
        assert outcome.ok
        want = EXPECTED["libq-salp"]
        assert outcome.result.telemetry_digest() == want["digest"]
        (resumed,) = events(read_journal(journal), "task_resumed")
        assert resumed["checkpoint_cycle"] == 300


class TestWarmFork:
    MECHANISMS = ("baseline", "crow-cache", "crow-ref", "chargecache")

    def test_forked_sweep_matches_oracle_digests(self, tmp_path):
        """One shared pre-warm, four mechanism forks — every digest must
        equal the committed straight-run oracle, and the journal must
        record exactly one warm_fork covering all four."""
        journal = tmp_path / "journal.jsonl"
        specs = [spec_for(m) for m in self.MECHANISMS]
        with ParallelCampaign(
            tmp_path / "cache", jobs=1, journal=journal,
        ) as campaign:
            outcomes = campaign.run_forked(specs, tmp_path / "warm")
        for mechanism, outcome in zip(self.MECHANISMS, outcomes):
            assert outcome.ok, mechanism
            want = EXPECTED[f"libq-{mechanism}"]
            assert (
                outcome.result.telemetry_digest() == want["digest"]
            ), mechanism
        (fork,) = events(read_journal(journal), "warm_fork")
        assert fork["forks"] == len(self.MECHANISMS)
        assert fork["warm_s"] > 0
        assert Path(fork["image"]).is_file()

    def test_forked_image_has_the_runs_prewarm_length(self, tmp_path):
        """The image builder and every forked task's loader share one
        prewarm count, so no forked task can reject its image."""
        from repro.sim.sweep import PREWARM_ACCESSES
        from repro.snapshot import read_header

        journal = tmp_path / "journal.jsonl"
        specs = [spec_for(m) for m in ("baseline", "crow-cache")]
        with ParallelCampaign(
            tmp_path / "cache", jobs=1, retries=0, journal=journal,
        ) as campaign:
            outcomes = campaign.run_forked(specs, tmp_path / "warm")
        assert all(outcome.ok for outcome in outcomes)
        (fork,) = events(read_journal(journal), "warm_fork")
        header = read_header(fork["image"])
        assert header["prewarm_accesses"] == PREWARM_ACCESSES

    def test_singleton_group_runs_cold(self, tmp_path):
        """A group of one spec with no pre-built image amortizes nothing
        — it must skip image building and still produce the oracle
        digest."""
        journal = tmp_path / "journal.jsonl"
        with ParallelCampaign(
            tmp_path / "cache", jobs=1, journal=journal,
        ) as campaign:
            (outcome,) = campaign.run_forked(
                [spec_for("baseline")], tmp_path / "warm"
            )
        assert outcome.ok
        want = EXPECTED["libq-baseline"]
        assert outcome.result.telemetry_digest() == want["digest"]
        assert events(read_journal(journal), "warm_fork") == []
        assert not (tmp_path / "warm").exists()

    def test_failed_forked_sweep_raises_via_results(self, tmp_path):
        def boom(spec):
            raise ReproError("injected")

        with ParallelCampaign(
            tmp_path / "cache", jobs=1, retries=0,
        ) as campaign:
            with pytest.raises(ReproError):
                campaign.results(
                    [spec_for("baseline")], _fn=boom
                )
