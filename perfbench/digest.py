"""Per-task result digests: the benchmark's correctness check.

A digest covers the public :class:`repro.SimResult` fields a user reads:
measured cycles, per-core IPC and MPKI, the LLC miss rate, the
controller and mechanism statistics, the CROW hit rate and the energy
breakdown. Telemetry-enabled results also carry
``SimResult.telemetry_digest()``. Floats are encoded with ``repr``, so
any change in any digit changes the digest.

The simulator is deterministic for a fixed input, so a performance or
simplicity change must leave every digest byte-identical. The model
itself is unvalidated: the repository holds no measurement of real
hardware, so a matching digest proves "unchanged", not "accurate".
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math

__all__ = ["result_digest", "sanity_problem"]


def result_digest(result) -> str:
    """Stable hex digest of one result's public fields."""
    energy = result.energy
    payload = {
        "cycles": result.cycles,
        "core_ipcs": [repr(x) for x in result.core_ipcs],
        "core_mpki": [repr(x) for x in result.core_mpki],
        "llc_miss_rate": repr(result.llc_miss_rate),
        "crow_hit_rate": repr(result.crow_hit_rate),
        "controller_stats": result.controller_stats,
        "mechanism_stats": {
            key: repr(value)
            for key, value in result.mechanism_stats.items()
        },
        "energy": None if energy is None else {
            key: repr(value)
            for key, value in dataclasses.asdict(energy).items()
        },
        "telemetry": result.telemetry_digest(),
    }
    encoded = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(encoded).hexdigest()[:24]


def sanity_problem(result) -> "str | None":
    """A reason the result cannot be right, or ``None``.

    Used for seeds that have no committed digest: every run must
    simulate some cycles at a finite, positive IPC and spend a finite,
    positive amount of energy.
    """
    if result.cycles <= 0:
        return f"non-positive cycle count {result.cycles}"
    for ipc in result.core_ipcs:
        if not (math.isfinite(ipc) and ipc > 0):
            return f"bad core IPC {ipc!r}"
    total = result.total_energy_nj
    if not (math.isfinite(total) and total > 0):
        return f"bad total energy {total!r}"
    return None
