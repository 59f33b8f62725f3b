"""Per-layer metrics of a traced pass.

Layer names follow the repository's modules; see ``README.md`` for the
table of which end-to-end metric each one should move. Counts are exact
for a fixed input. ``*_s`` values are host seconds measured with the
tracing wrappers in place, so they are inflated by the tracing cost
(``host.trace_overhead``) and only comparable between traced runs.
Every metric is emitted for every workload; a layer a workload does not
exercise reads 0.
"""

from __future__ import annotations

__all__ = ["layer_metrics"]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(rec, results: list) -> dict:
    """Metric name -> ``{"value", "unit"}`` from a recorder and results."""
    counts = rec.counts
    calls = rec.calls
    out: dict[str, tuple[float, str]] = {}

    # phase: inclusive wall time of each run phase.
    prewarm_s = rec.totals["System.prewarm"].total
    out["phase.setup_s"] = (rec.totals["System.__init__"].total, "s")
    out["phase.prewarm_s"] = (prewarm_s, "s")
    out["phase.timed_s"] = (rec.phases["timed_s"], "s")
    out["phase.finalize_s"] = (rec.phases["finalize_s"], "s")
    out["phase.prewarm_accesses_per_s"] = (
        _ratio(counts["prewarm.accesses"], prewarm_s), "1/s"
    )

    out["trace.records"] = (counts["trace.records"], "count")
    out["trace.self_s"] = (rec.layer_self_s("trace"), "s")

    out["translation.calls"] = (
        calls("VirtualMemory.translate") + calls("VirtualMemory.bulk_map"),
        "count",
    )
    out["translation.pages_mapped"] = (
        counts["translation.pages_mapped"], "count"
    )
    out["translation.self_s"] = (rec.layer_self_s("translation"), "s")

    llc_accesses = calls("Llc.access")
    out["llc.accesses"] = (llc_accesses, "count")
    out["llc.warm_accesses"] = (calls("Llc.warm"), "count")
    out["llc.miss_rate"] = (
        _ratio(counts["llc.misses"], llc_accesses), "ratio"
    )
    out["llc.self_s"] = (rec.layer_self_s("llc"), "s")

    out["core.ticks"] = (calls("Core.tick"), "count")
    out["core.self_s"] = (rec.layer_self_s("core"), "s")

    out["port.accesses"] = (calls("MemoryPort.access"), "count")
    out["port.self_s"] = (rec.layer_self_s("port"), "s")

    ticks = calls("ChannelController.tick")
    commands = counts["controller.commands"]
    probes = counts["controller.rank_probes"]
    stats: dict[str, int] = {}
    for result in results:
        for key, value in result.controller_stats.items():
            stats[key] = stats.get(key, 0) + value
    row_accesses = sum(
        stats.get(k, 0) for k in ("row_hits", "row_misses", "row_conflicts")
    )
    out["controller.ticks"] = (ticks, "count")
    out["controller.commands"] = (commands, "count")
    out["controller.issue_ratio"] = (_ratio(commands, ticks), "ratio")
    out["controller.rank_probes"] = (probes, "count")
    out["controller.probes_per_command"] = (_ratio(probes, commands), "ratio")
    out["controller.row_hit_rate"] = (
        _ratio(stats.get("row_hits", 0), row_accesses), "ratio"
    )
    out["controller.write_drains"] = (stats.get("write_drains", 0), "count")
    out["controller.read_latency_cycles"] = (
        _ratio(stats.get("read_latency_sum", 0),
               stats.get("reads_served", 0)),
        "cycles",
    )
    out["controller.self_s"] = (rec.layer_self_s("controller"), "s")

    earliest = calls("DramChannel.earliest_issue")
    issues = calls("DramChannel.issue")
    out["dram.earliest_issue_calls"] = (earliest, "count")
    out["dram.issue_calls"] = (issues, "count")
    out["dram.probes_per_issue"] = (_ratio(earliest, issues), "ratio")
    out["dram.self_s"] = (rec.layer_self_s("dram"), "s")

    hit_rates = [
        r.crow_hit_rate for r in results if r.crow_hit_rate is not None
    ]
    out["mech.service_row_calls"] = (
        calls("Mechanism.service_row"), "count"
    )
    out["mech.plan_activation_calls"] = (
        calls("Mechanism.plan_activation"), "count"
    )
    out["mech.crow_hit_rate"] = (
        _ratio(sum(hit_rates), len(hit_rates)), "ratio"
    )
    out["mech.self_s"] = (rec.layer_self_s("mech"), "s")

    out["estimate.backend_calls"] = (
        calls("EstimatorPlugin.estimate"), "count"
    )
    out["estimate.record_hits"] = (counts["estimate.record_hits"], "count")
    out["estimate.self_s"] = (rec.layer_self_s("estimate"), "s")

    out["snapshot.bytes_written"] = (
        counts["snapshot.bytes_written"], "bytes"
    )
    out["snapshot.bytes_read"] = (counts["snapshot.bytes_read"], "bytes")
    out["snapshot.self_s"] = (rec.layer_self_s("snapshot"), "s")

    out["store.writes"] = (counts["store.writes"], "count")
    out["store.hits"] = (counts["store.hits"], "count")
    out["store.bytes"] = (counts["store.bytes"], "bytes")
    out["store.self_s"] = (rec.layer_self_s("store"), "s")

    out["exec.tasks"] = (counts["exec.tasks"], "count")
    out["exec.self_s"] = (rec.layer_self_s("exec"), "s")

    out["telemetry.self_s"] = (rec.layer_self_s("telemetry"), "s")

    out["model.sim_cycles"] = (sum(r.cycles for r in results), "cycles")
    out["model.ipc_sum"] = (sum(r.ipc_sum for r in results), "ipc")

    return {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in out.items()
    }
