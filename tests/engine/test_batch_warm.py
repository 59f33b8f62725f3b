"""Vectorized prewarm equivalence: ``System.prewarm`` vs its scalar oracle.

``System.prewarm`` simulates the LLC's exact-LRU automaton across all
sets in parallel and allocates page frames in bulk. Its contract is
state identity: after warming, the LLC set dicts (tags, dirty bits, LRU
*key order*) and the virtual-memory state (page table, allocator RNG
position) must be byte-equal to what ``System._prewarm_scalar``, the
record-at-a-time reference, produces — that state seeds the timed run,
so any divergence would surface as a digest change downstream.
"""

import tracemalloc

import pytest

from repro.sim.config import SystemConfig
from repro.sim.system import _PREWARM_CHUNK as CHUNK
from repro.sim.system import System
from repro.trace.stream import TraceStream


def build(workloads, seed, plain=False):
    config = SystemConfig(cores=len(workloads), seed=seed)
    traces = [
        TraceStream(name, seed + core)
        for core, name in enumerate(workloads)
    ]
    if plain:
        # Plain iterators over the same records: no take_arrays.
        traces = [iter(trace) for trace in traces]
    return System(config, traces)


def warmed_pair(workloads, seed, accesses):
    """(oracle, vectorized) systems warmed on identical inputs."""
    oracle = build(workloads, seed)
    oracle._prewarm_scalar(accesses)
    vectorized = build(workloads, seed)
    vectorized.prewarm(accesses)
    return oracle, vectorized


def assert_same_warm_state(oracle, vectorized):
    assert vectorized.llc.state_dict() == oracle.llc.state_dict()
    assert vectorized.vm.state_dict() == oracle.vm.state_dict()


WORKLOAD_CASES = [
    (("libq",), 1),
    (("random",), 7),
    (("mcf",), 3),
    (("omnetpp",), 11),
    (("libq", "mcf"), 5),
    (("libq", "mcf", "stream-copy", "milc"), 2),
]


class TestWarmStateEquivalence:
    @pytest.mark.parametrize("workloads,seed", WORKLOAD_CASES)
    def test_llc_and_vm_state_identical(self, workloads, seed):
        oracle, vectorized = warmed_pair(workloads, seed, 30_000)
        assert_same_warm_state(oracle, vectorized)
        # Trace cursors must agree too — the timed phase continues from
        # exactly where prewarm stopped consuming.
        for oc, vc in zip(oracle.cores, vectorized.cores):
            assert vc.trace.state_dict() == oc.trace.state_dict()

    def test_lru_key_order_is_preserved(self):
        """Snapshot byte-identity depends on dict insertion order, not
        just set membership: keys must be LRU-first on both paths."""
        oracle, vectorized = warmed_pair(("random",), 13, 50_000)
        for os_, vs in zip(oracle.llc._sets, vectorized.llc._sets):
            assert list(vs.items()) == list(os_.items())

    def test_chunk_boundary_invariance(self):
        """Warm counts straddling the chunk size hit the multi-chunk
        path, single- and multi-core; state must still match the scalar
        loop."""
        for workloads in (("libq",), ("libq", "mcf", "stream-copy", "milc")):
            for accesses in (CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 7):
                oracle, vectorized = warmed_pair(workloads, 1, accesses)
                assert_same_warm_state(oracle, vectorized)

    def test_ragged_multicore_tail(self):
        """A finite trace running dry mid-chunk: the scalar order skips
        the exhausted stream and keeps going; so must the kernel."""
        from repro.trace.chunks import ChunkTrace
        from repro.trace.workloads import workload

        def finite(name, seed, records):
            columns = workload(name).trace(seed).take_columns(records)
            return TraceStream(
                name, seed, _iterator=ChunkTrace(iter([columns]))
            )

        def system():
            traces = [
                finite("libq", 1, 25_000),
                finite("mcf", 2, CHUNK + 100),
                finite("milc", 3, 40_000),
            ]
            return System(SystemConfig(cores=3, seed=1), traces)

        oracle, vectorized = system(), system()
        oracle._prewarm_scalar(40_000)
        vectorized.prewarm(40_000)
        assert_same_warm_state(oracle, vectorized)
        for oc, vc in zip(oracle.cores, vectorized.cores):
            assert vc.trace.state_dict() == oc.trace.state_dict()

    def test_stats_reset_after_warm(self):
        system = build(("libq",), 1)
        system.prewarm(20_000)
        assert system.llc.hits == 0
        assert system.llc.misses == 0
        assert system.llc.writebacks == 0

    def test_double_prewarm_falls_back_to_scalar(self):
        """A second warm sees a non-empty LLC: the vectorized kernel's
        fresh-state precondition fails and the scalar path must take
        over, keeping the state equal to the oracle's even then."""
        oracle, vectorized = warmed_pair(("libq",), 1, 10_000)
        oracle._prewarm_scalar(10_000)
        vectorized.prewarm(10_000)
        assert_same_warm_state(oracle, vectorized)

    def test_plain_iterator_trace_falls_back_to_scalar(self):
        """A trace with no take_arrays (a plain iterator) takes the
        scalar path, with the same end state as an array-capable one."""
        oracle, _ = warmed_pair(("libq", "mcf"), 5, 12_000)
        plain = build(("libq", "mcf"), 5, plain=True)
        plain.prewarm(12_000)
        assert_same_warm_state(oracle, plain)


def _memory(warm, accesses):
    """(peak, working) traced bytes of ``warm(accesses)`` on a fresh
    4-core system: the peak above the starting point, and the peak
    above the warm state left behind (the transient working memory)."""
    system = build(("libq", "mcf", "stream-copy", "milc"), 3)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        warm(system, accesses)
        end, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - start, peak - end


def test_vectorized_peak_memory_stays_within_scalar():
    """Vectorizing the prewarm must not cost memory: per-chunk numpy
    temporaries scale with chunk size times cores, and materializing
    the whole LRU matrix as Python lists at once added ~7 MB of peak.
    Both peaks here include the retained LLC/page-table state; the
    working-memory bound is the one a whole-LLC write-back breaks."""
    scalar_peak, scalar_working = _memory(System._prewarm_scalar, 50_000)
    peak, working = _memory(System.prewarm, 50_000)
    assert peak <= 1.1 * scalar_peak, (peak, scalar_peak)
    assert working <= 1.1 * scalar_working, (working, scalar_working)
