"""Experiment helpers: run one workload or one mix under a configuration.

These wrap the System construction + run boilerplate the benchmark harness
uses; every figure script is "build config grid -> run_workload / run_mix
-> print the paper-style table".
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

from repro.sim.config import SystemConfig
from repro.sim.metrics import SimResult
from repro.sim.system import System
from repro.trace.stream import TraceStream
from repro.trace.workloads import Workload, workload as lookup_workload

__all__ = [
    "run_workload",
    "run_mix",
    "alone_ipcs",
    "derive_trace_seed",
    "PREWARM_ACCESSES",
]

#: Functional prewarm length per core for every run these helpers start.
#: Warm images are built with it and loaded expecting it, so a forked
#: task and its image cannot disagree.
PREWARM_ACCESSES = 200_000


def _resolve(w: "Workload | str") -> Workload:
    return lookup_workload(w) if isinstance(w, str) else w


def _stream(w: "Workload | str", seed: int) -> TraceStream:
    """A provenance-carrying trace stream for one workload (snapshot-ready)."""
    resolved = _resolve(w)
    return TraceStream(
        getattr(resolved, "name", str(w)), seed,
        _iterator=resolved.trace(seed),
    )


def derive_trace_seed(seed: int, core: int) -> int:
    """Per-core trace seed for multiprogrammed runs.

    Hash-derived so that distinct ``(seed, core)`` pairs can never collide
    (the historical ``seed * 16 + core`` scheme aliased e.g. ``(0, 16)``
    with ``(1, 0)``), and process-stable (no salted ``hash()``) so cache
    keys and parallel workers agree with serial runs.
    """
    payload = f"{seed}:{core}".encode()
    return int.from_bytes(
        hashlib.blake2b(payload, digest_size=8).digest(), "big"
    )


def run_workload(
    w: "Workload | str",
    config: SystemConfig | None = None,
    instructions: int = 60_000,
    warmup_instructions: int = 30_000,
    seed: int = 0,
    warm_image=None,
    checkpoint_path=None,
    checkpoint_every: int = 50_000,
    snapshot_at_cycle: "int | None" = None,
    snapshot_path=None,
) -> SimResult:
    """Run one workload on a single-core system.

    The snapshot keywords pass straight through to
    :meth:`repro.sim.system.System.run` (warm-image adoption, periodic
    resumable checkpoints, one-shot snapshots); all default to off.
    """
    config = config if config is not None else SystemConfig()
    config = replace(config, cores=1)
    system = System(config, [_stream(w, seed)])
    return system.run(
        instructions,
        warmup_instructions,
        prewarm_accesses=PREWARM_ACCESSES,
        warm_image=warm_image,
        checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
        snapshot_at_cycle=snapshot_at_cycle,
        snapshot_path=snapshot_path,
    )


def run_mix(
    mix: "list[Workload | str]",
    config: SystemConfig | None = None,
    instructions: int = 40_000,
    warmup_instructions: int = 20_000,
    seed: int = 0,
    warm_image=None,
    checkpoint_path=None,
    checkpoint_every: int = 50_000,
    snapshot_at_cycle: "int | None" = None,
    snapshot_path=None,
) -> SimResult:
    """Run a multiprogrammed mix (one workload per core)."""
    config = config if config is not None else SystemConfig()
    config = replace(config, cores=len(mix))
    traces = [
        _stream(w, derive_trace_seed(seed, i)) for i, w in enumerate(mix)
    ]
    system = System(config, traces)
    return system.run(
        instructions,
        warmup_instructions,
        prewarm_accesses=PREWARM_ACCESSES,
        warm_image=warm_image,
        checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
        snapshot_at_cycle=snapshot_at_cycle,
        snapshot_path=snapshot_path,
    )


def alone_ipcs(
    mix: "list[Workload | str]",
    config: SystemConfig | None = None,
    instructions: int = 40_000,
    warmup_instructions: int = 20_000,
    seed: int = 0,
) -> list[float]:
    """Per-workload IPC when run alone (weighted-speedup denominators)."""
    results = []
    for i, w in enumerate(mix):
        result = run_workload(
            w,
            config=config,
            instructions=instructions,
            warmup_instructions=warmup_instructions,
            seed=derive_trace_seed(seed, i),
        )
        results.append(result.ipc)
    return results
