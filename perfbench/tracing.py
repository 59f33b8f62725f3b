"""Outside-in layer tracing for the benchmark's traced run.

:func:`installed` wraps public methods of the simulator's classes, for
the duration of a ``with`` block, so every call records into a
:class:`Recorder`. Nothing in the package under test changes: the
wrappers are plain functions set on the classes in the traced process
only, and they are removed on exit.

Two kinds of wrapper share one call stack:

* *span* wrappers (system construction, prewarm, runs, campaign, store,
  snapshot, estimate, telemetry lifecycle) keep every call as a span
  record (name, start, end, parent, run id), written out at exit;
* *hot* wrappers (core and controller ticks, DRAM timing, LLC, trace,
  translation, mechanism hooks, latency histogram) are called up to
  millions of times per pass, so they only fold each call into per-name
  totals.

Both attribute time the same way: a call's self time is its duration
minus the time of the wrapped calls nested inside it. A layer's
``self_s`` is the sum over its wrapped methods. Counts (calls, bytes,
hits) are exact for a fixed input and repeat run to run.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from time import perf_counter

__all__ = ["Recorder", "installed", "LAYERS"]

#: Layer name -> the wrapped-method names whose self time it owns.
LAYERS = {
    "phase.setup": ("System.__init__",),
    "trace": ("TraceStream.__next__", "TraceStream.take"),
    "translation": ("VirtualMemory.translate", "VirtualMemory.bulk_map"),
    "llc": ("Llc.access", "Llc.warm"),
    "core": ("Core.tick",),
    "port": ("MemoryPort.access",),
    "controller": ("ChannelController.tick",),
    "dram": ("DramChannel.earliest_issue", "DramChannel.issue"),
    "mech": ("Mechanism.service_row", "Mechanism.plan_activation",
             "Mechanism.urgent_plan", "Mechanism.on_activate",
             "Mechanism.on_precharge", "Mechanism.on_refresh"),
    "estimate": ("EstimatorArbiter.estimate", "EstimatorPlugin.estimate",
                 "RecordCache.load", "RecordCache.store"),
    "snapshot": ("System.save_warm_image", "System.load_warm_image"),
    "store": ("Campaign.store", "Campaign.load_cached"),
    "exec": ("ParallelCampaign.run", "ParallelCampaign.run_forked",
             "ProcessPoolRunner.run", "TaskSpec.run"),
    "telemetry": ("SystemTelemetry.__init__", "SystemTelemetry.begin",
                  "SystemTelemetry.finalize", "Histogram.observe"),
}


class _Totals:
    __slots__ = ("calls", "total", "child")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.child = 0.0


class Recorder:
    """In-memory spans, per-method totals and counters of one run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: Open calls, innermost last: [name, start, child_s, span_id].
        self.stack: list[list] = []
        self.totals: dict[str, _Totals] = defaultdict(_Totals)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[dict] = []
        #: Wall seconds of the run phases, derived at System.run exit.
        self.phases: dict[str, float] = defaultdict(float)
        #: Start of the current run's timed loops (after prewarm).
        self.timed_from = 0.0
        #: End of the latest core or controller tick.
        self.last_tick = 0.0

    def self_s(self, name: str) -> float:
        totals = self.totals.get(name)
        return 0.0 if totals is None else totals.total - totals.child

    def calls(self, name: str) -> int:
        totals = self.totals.get(name)
        return 0 if totals is None else totals.calls

    def layer_self_s(self, layer: str) -> float:
        return sum(self.self_s(name) for name in LAYERS[layer])

    def dump(self, path: Path, **meta) -> None:
        """Write spans, per-method totals and counters as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "run_id": self.run_id,
            **meta,
            "spans": self.spans,
            "methods": {
                name: {
                    "calls": t.calls,
                    "total_s": t.total,
                    "self_s": t.total - t.child,
                }
                for name, t in sorted(self.totals.items())
            },
            "counts": dict(sorted(self.counts.items())),
            "phases": dict(sorted(self.phases.items())),
        }
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(document, indent=1, sort_keys=True))
        os.replace(tmp, path)


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _wrap(rec: Recorder, name: str, fn, after=None, before=None,
          keep: bool = False):
    """Fold each call of ``fn`` into ``rec.totals[name]``.

    ``keep`` also records the call as a span; ``before()`` runs first
    and ``after(args, result, end)`` sees the result. A call nested
    directly in a call of the same name (an override delegating to its
    base class) passes straight through, so it is counted once.
    """
    stack = rec.stack
    totals = rec.totals[name]

    def wrapper(*args, **kwargs):
        if stack and stack[-1][0] is name:
            return fn(*args, **kwargs)
        if before is not None:
            before()
        span_id = 0
        if keep:
            parent = next((f[3] for f in reversed(stack) if f[3]), 0)
            span_id = len(rec.spans) + 1
            record = {"id": span_id, "parent": parent, "name": name,
                      "run": rec.run_id}
            rec.spans.append(record)
        frame = [name, 0.0, 0.0, span_id]
        stack.append(frame)
        start = frame[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            elapsed = end - start
            totals.calls += 1
            totals.total += elapsed
            totals.child += frame[2]
            if stack:
                stack[-1][2] += elapsed
            if keep:
                record["start"] = start
                record["end"] = end
                record["self_s"] = elapsed - frame[2]
        if after is not None:
            after(args, result, end)
        return result

    return wrapper


_hot = _wrap
_span = partial(_wrap, keep=True)


def _file_size(path) -> int:
    try:
        return os.stat(path).st_size
    except OSError:
        return 0


def _targets(rec: Recorder) -> list:
    """``(class, attribute, wrapper factory, after-hook[, name])``.

    The name defaults to ``Class.attribute``.
    """
    from repro import System
    from repro.controller.controller import ChannelController
    from repro.controller.mechanism import Mechanism
    from repro.cpu.cache import Llc
    from repro.cpu.core import Core
    from repro.cpu.translation import VirtualMemory
    from repro.dram.device import DramChannel
    from repro.estimate import EstimatorArbiter, EstimatorPlugin, RecordCache
    from repro.exec import ParallelCampaign, ProcessPoolRunner, TaskSpec
    from repro.mech import mechanism_names
    from repro.sim import Campaign
    from repro.sim.system import MemoryPort
    from repro.telemetry.collect import SystemTelemetry
    from repro.telemetry.stats import Histogram
    from repro.trace import TraceStream

    counts = rec.counts

    def tick_done(args, result, end):
        rec.last_tick = end

    def run_start():
        # Runs without prewarm or warm image time from their start.
        rec.timed_from = perf_counter()

    def prewarm_done(args, result, end):
        system, accesses = args[0], args[1]
        counts["prewarm.accesses"] += accesses * len(system.cores)
        rec.timed_from = end

    def run_done(args, result, end):
        system = args[0]
        rec.phases["timed_s"] += rec.last_tick - rec.timed_from
        rec.phases["finalize_s"] += end - rec.last_tick
        counts["translation.pages_mapped"] += system.vm.mapped_pages

    def take_done(args, result, end):
        counts["trace.records"] += len(result)

    def next_done(args, result, end):
        counts["trace.records"] += 1

    def access_done(args, result, end):
        if not result[0]:
            counts["llc.misses"] += 1

    def issue_done(args, result, end):
        if any(f[0] == "ChannelController.tick" for f in rec.stack):
            counts["controller.commands"] += 1

    def saved(args, result, end):
        counts["snapshot.bytes_written"] += _file_size(args[1])

    def loaded(args, result, end):
        counts["snapshot.bytes_read"] += _file_size(args[1])
        rec.timed_from = end

    def record_loaded(args, result, end):
        if result is not None:
            counts["estimate.record_hits"] += 1

    def stored(args, result, end):
        counts["store.writes"] += 1
        counts["store.bytes"] += _file_size(args[1])

    def cache_loaded(args, result, end):
        if result is not None:
            counts["store.hits"] += 1

    def runner_done(args, result, end):
        counts["exec.tasks"] += len(result)

    targets = [
        (System, "__init__", _span, None),
        (System, "prewarm", _span, prewarm_done),
        (System, "run", partial(_span, before=run_start), run_done),
        (System, "save_warm_image", _span, saved),
        (System, "load_warm_image", _span, loaded),
        (TraceStream, "__next__", _hot, next_done),
        (TraceStream, "take", _hot, take_done),
        (VirtualMemory, "translate", _hot, None),
        (VirtualMemory, "bulk_map", _hot, None),
        (Llc, "access", _hot, access_done),
        (Llc, "warm", _hot, None),
        (Core, "tick", _hot, tick_done),
        (MemoryPort, "access", _hot, None),
        (ChannelController, "tick", _hot, tick_done),
        (DramChannel, "earliest_issue", _hot, None),
        (DramChannel, "issue", _hot, issue_done),
        (EstimatorArbiter, "estimate", _span, None),
        (RecordCache, "load", _span, record_loaded),
        (RecordCache, "store", _span, None),
        (Campaign, "store", _span, stored),
        (Campaign, "load_cached", _span, cache_loaded),
        (ParallelCampaign, "run", _span, None),
        (ParallelCampaign, "run_forked", _span, None),
        (ProcessPoolRunner, "run", _span, runner_done),
        (TaskSpec, "run", _span, None),
        (SystemTelemetry, "__init__", _span, None),
        (SystemTelemetry, "begin", _span, None),
        (SystemTelemetry, "finalize", _span, None),
        (Histogram, "observe", _hot, None),
    ]
    # Every concrete mechanism and estimator backend overrides the
    # base-class hooks, so wrap each class that defines one. All are
    # registered by the time the registries list their names.
    mechanism_names()
    hooks = LAYERS["mech"]
    for cls in _subclasses(Mechanism):
        for qualified in hooks:
            attr = qualified.split(".")[1]
            if attr in vars(cls):
                targets.append((cls, attr, _hot, None, qualified))
    for cls in _subclasses(EstimatorPlugin):
        if "estimate" in vars(cls):
            targets.append(
                (cls, "estimate", _span, None, "EstimatorPlugin.estimate")
            )
    return targets


def _subclasses(base) -> list:
    found, todo = [base], [base]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                todo.append(sub)
    return found


def _predicate_counter(rec: Recorder, ranked):
    """Wrap the row-hit predicate ``FrFcfsCap.ranked`` is handed."""
    counts = rec.counts

    def wrapper(self, requests, is_row_hit, bank_hit_streak):
        def probe(request):
            counts["controller.rank_probes"] += 1
            return is_row_hit(request)

        return ranked(self, requests, probe, bank_hit_streak)

    return wrapper


@contextmanager
def installed(rec: Recorder):
    """Wrap the target methods for the duration of the block."""
    from repro.controller.scheduler import FrFcfsCap

    saved: list[tuple[type, str, object]] = []
    try:
        for cls, attr, factory, after, *name in _targets(rec):
            name = name[0] if name else f"{cls.__name__}.{attr}"
            original = vars(cls)[attr]
            saved.append((cls, attr, original))
            setattr(cls, attr, factory(rec, name, original, after))
        original = vars(FrFcfsCap)["ranked"]
        saved.append((FrFcfsCap, "ranked", original))
        FrFcfsCap.ranked = _predicate_counter(rec, original)
        yield rec
    finally:
        for cls, attr, original in reversed(saved):
            setattr(cls, attr, original)
