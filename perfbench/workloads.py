"""The benchmark's three workloads, built only from public entry points.

Each workload is a class with the same shape:

* ``__init__(seed, workdir)`` is the set-up a user pays before the first
  call into the simulator: building configs, task specs and empty cache
  directories. ``setup_probe.py`` times exactly this, after the import.
* ``run_pass(normalizer)`` runs one pass of the timed region. It calls
  ``normalizer.mark`` at every natural boundary (a task, or a campaign
  event) so no slice is much longer than a second, and returns
  ``[(task_label, SimResult or the exception the task raised), ...]``.
* ``after_pass()`` is untimed clean-up between passes.
* ``sim_instructions`` is the number of instructions one pass simulates,
  warm-up and measured, summed over every core.
* ``anchor_task()`` runs the pass's first task once and returns
  ``(task_label, SimResult)``; the benchmark runs it at the default seed
  to compare against the committed digest whatever ``--seed`` was.

No module-level ``repro`` import: ``setup_probe.py`` must be able to
import this module before starting its clock.
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path

__all__ = ["WORKLOADS", "DEFAULT_SEED", "TaskFailed"]

#: The seed the committed digests in ``expected_digests.json`` are for.
DEFAULT_SEED = 0

#: The read-dominated H-class mix of ``mix4-read-crow``.
READ_MIX = ("libq", "mcf", "milc", "gems")
#: The write-heavy mix of ``campaign-write-forked``.
WRITE_MIX = ("lbm", "stream-copy", "leslie3d", "zeusmp")


class TaskFailed(RuntimeError):
    """A campaign task that exhausted its retries."""


class _Workload:
    def after_pass(self) -> None:
        """Untimed clean-up between passes (nothing by default)."""


def _attempt(run, *args):
    """``run(*args)``, or the exception it raised (a failed task)."""
    try:
        return run(*args)
    except Exception as exc:  # counted as a failed operation
        return exc


class Mix4ReadCrow(_Workload):
    """Independent 4-core crow-cache runs of a read-dominated H mix.

    A small functional prewarm (5k accesses per core) leaves the LLC
    partly warm, so the timed loops do most of the work: cores, memory
    port, controller ranking, DRAM timing and the CROW mechanism.
    """

    name = "mix4-read-crow"
    runs_per_pass = 4
    instructions = 3_000
    warmup_instructions = 1_500
    prewarm_accesses = 5_000

    def __init__(self, seed: int, workdir: Path) -> None:
        from repro import SystemConfig, derive_trace_seed

        self.config = SystemConfig(mechanism="crow-cache", cores=4)
        self.derive_trace_seed = derive_trace_seed
        # One run seed per independent run; each core's trace seed is
        # derived from it exactly as run_mix derives it.
        self.run_seeds = [
            seed * self.runs_per_pass + k for k in range(self.runs_per_pass)
        ]
        self.sim_instructions = (
            self.runs_per_pass * len(READ_MIX)
            * (self.instructions + self.warmup_instructions)
        )

    def _run(self, run_seed: int):
        from repro import System
        from repro.trace import TraceStream

        traces = [
            TraceStream(name, self.derive_trace_seed(run_seed, core))
            for core, name in enumerate(READ_MIX)
        ]
        system = System(self.config, traces)
        return system.run(
            self.instructions,
            self.warmup_instructions,
            prewarm_accesses=self.prewarm_accesses,
        )

    def _label(self, index: int) -> str:
        return f"mix{index}@crow-cache"

    def run_pass(self, normalizer) -> list:
        results = []
        for index, run_seed in enumerate(self.run_seeds):
            label = self._label(index)
            normalizer.mark(label)
            results.append((label, _attempt(self._run, run_seed)))
        return results

    def anchor_task(self):
        return self._label(0), self._run(self.run_seeds[0])


class Sweep1cPrewarm(_Workload):
    """A single-core baseline/crow-cache sweep with a large prewarm.

    100k functional prewarm accesses against a 1.5k-instruction timed
    region: trace synthesis, translation and LLC warming dominate and
    the controller is nearly idle. libq is a hot-set streamer, mcf a
    large random footprint, povray and namd are L-class.
    """

    name = "sweep1c-prewarm"
    names = ("libq", "mcf", "povray", "namd")
    mechanisms = ("baseline", "crow-cache")
    instructions = 1_000
    warmup_instructions = 500
    prewarm_accesses = 100_000

    def __init__(self, seed: int, workdir: Path) -> None:
        from repro import SystemConfig

        self.seed = seed
        self.tasks = [
            (f"{name}@{mechanism}", name, SystemConfig(mechanism=mechanism))
            for name in self.names
            for mechanism in self.mechanisms
        ]
        self.sim_instructions = len(self.tasks) * (
            self.instructions + self.warmup_instructions
        )

    def _run(self, name: str, config):
        from repro import System
        from repro.trace import TraceStream

        # The same trace stream run_workload builds for this seed.
        system = System(config, [TraceStream(name, self.seed)])
        return system.run(
            self.instructions,
            self.warmup_instructions,
            prewarm_accesses=self.prewarm_accesses,
        )

    def run_pass(self, normalizer) -> list:
        results = []
        for label, name, config in self.tasks:
            normalizer.mark(label)
            results.append((label, _attempt(self._run, name, config)))
        return results

    def anchor_task(self):
        label, name, config = self.tasks[0]
        return label, self._run(name, config)


class CampaignWriteForked(_Workload):
    """A warm-forked 4-core campaign over five mechanisms, then a rerun.

    ``ParallelCampaign(jobs=1).run_forked`` builds one warm image for the
    write-heavy mix (every mechanism shares its warm digest), forks five
    telemetry-enabled runs from it and stores their results; the same
    grid is then submitted again and every task is a cache hit. Each
    pass starts from empty result-cache, warm-image and estimate-record
    directories. The functional prewarm is the default 200k accesses per
    core: ``run_forked`` builds images at its ``prewarm_accesses`` but
    ``TaskSpec.run`` always loads them expecting the default, so any
    other value makes every forked task fail.
    """

    name = "campaign-write-forked"
    mechanisms = ("baseline", "crow-cache", "crow-combined", "chargecache",
                  "hira")
    #: Short timed regions: how many cycles a 4-core write mix needs for
    #: a fixed instruction count varies by 10-15% from seed to seed, and
    #: every task of a pass shares one seed, so the timed share of a
    #: pass is what carries that variation into ``run_s``.
    instructions = 1_000
    warmup_instructions = 500
    #: Campaign events that bound a slice. The per-task telemetry and
    #: cache-hit events are a few milliseconds apart and not worth a
    #: kernel each.
    slice_events = frozenset({
        "warm_fork", "campaign_start", "task_start", "task_done",
        "campaign_end",
    })

    def __init__(self, seed: int, workdir: Path) -> None:
        from repro import SystemConfig
        from repro.exec import TaskSpec

        self.workdir = Path(workdir)
        self.specs = [
            TaskSpec.mix(
                list(WRITE_MIX),
                SystemConfig(mechanism=mechanism, telemetry=True),
                instructions=self.instructions,
                warmup_instructions=self.warmup_instructions,
                seed=seed,
            )
            for mechanism in self.mechanisms
        ]
        self.sim_instructions = len(self.specs) * len(WRITE_MIX) * (
            self.instructions + self.warmup_instructions
        )
        self._passes = 0
        self._saved_env: "str | None" = None
        self._fresh_dirs()

    def _fresh_dirs(self) -> None:
        """Empty cache, warm-image and estimate-record directories."""
        self.pass_dir = self.workdir / f"pass{self._passes}"
        self._passes += 1
        for sub in ("cache", "warm", "records"):
            (self.pass_dir / sub).mkdir(parents=True)

    def _attach_records(self) -> None:
        """Point the estimate record cache at this pass's directory.

        The record cache is attached when the process-wide arbiter is
        built, so the arbiter is rebuilt: each pass starts with an empty
        record directory and no in-process coefficient memo, as a fresh
        CLI campaign would. :meth:`after_pass` undoes both.
        """
        from repro.estimate.runtime import ESTIMATE_CACHE_ENV
        from repro.estimate.runtime import reset_default_arbiter

        self._saved_env = os.environ.get(ESTIMATE_CACHE_ENV)
        os.environ[ESTIMATE_CACHE_ENV] = str(self.pass_dir / "records")
        reset_default_arbiter()

    def run_pass(self, normalizer) -> list:
        from repro.exec import ParallelCampaign

        self._attach_records()
        index = [0]

        def observe(event: str, fields: dict) -> None:
            if event in self.slice_events:
                index[0] += 1
                normalizer.mark(f"{index[0]}:{event}")

        normalizer.mark("0:build")
        with ParallelCampaign(
            self.pass_dir / "cache", jobs=1, observers=[observe]
        ) as campaign:
            first = campaign.run_forked(self.specs, self.pass_dir / "warm")
            rerun = campaign.run(self.specs)
        results = []
        for phase, outcomes in (("run", first), ("rerun", rerun)):
            for outcome in outcomes:
                label = f"{phase}:{outcome.spec.label}"
                results.append((label, outcome.result if outcome.ok
                                else TaskFailed(f"{label}: {outcome.error}")))
        return results

    def after_pass(self) -> None:
        """Detach the record cache; replace this pass's directories."""
        from repro.estimate.runtime import ESTIMATE_CACHE_ENV
        from repro.estimate.runtime import reset_default_arbiter

        if self._saved_env is None:
            os.environ.pop(ESTIMATE_CACHE_ENV, None)
        else:
            os.environ[ESTIMATE_CACHE_ENV] = self._saved_env
        reset_default_arbiter()
        shutil.rmtree(self.pass_dir, ignore_errors=True)
        self._fresh_dirs()

    def anchor_task(self):
        spec = self.specs[0]
        return f"run:{spec.label}", spec.run()


WORKLOADS = {
    cls.name: cls for cls in (Mix4ReadCrow, Sweep1cPrewarm,
                              CampaignWriteForked)
}
