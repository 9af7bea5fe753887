"""Cross-validation of the LRU-core replay (repro.arch.replay) against the
dict-based reference simulators — including hypothesis-generated geometries
and traces.  The reference stays in the tree as the oracle; the replay must
be bitwise identical to it."""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.arch import MemoryHierarchy, TLB, replay
from repro.arch.cache import Cache, CacheConfig, line_ids
from repro.arch.machine import SCALED_XEON, TEST_MACHINE, MachineConfig
from repro.arch.tlb import TLBConfig

# small geometries that keep hypothesis runs fast but still exercise
# conflict misses, eviction, and multi-set indexing
_GEOMETRIES = [
    # (l1 size, l1 assoc, l2 size, l2 assoc, l3 size, l3 assoc)
    (256, 1, 512, 2, 2048, 4),
    (512, 2, 1024, 4, 4096, 4),
    (512, 4, 2048, 8, 8192, 8),
    (1024, 4, 4096, 2, 8192, 16),
]


def _machine(geom_idx: int, tlb_entries: int = 8) -> MachineConfig:
    s1, a1, s2, a2, s3, a3 = _GEOMETRIES[geom_idx % len(_GEOMETRIES)]
    return MachineConfig(
        name=f"hyp-{geom_idx}",
        l1d=CacheConfig("L1D", size=s1, assoc=a1, line=64, latency=4),
        l2=CacheConfig("L2", size=s2, assoc=a2, line=64, latency=12),
        l3=CacheConfig("L3", size=s3, assoc=a3, line=64, latency=42),
        icache=CacheConfig("L1I", size=4096, assoc=4, line=64, latency=4),
        tlb=TLBConfig(entries=tlb_entries, assoc=4, walk_latency=36),
    )


def _reference(machine, addrs, rw):
    hier = MemoryHierarchy(machine).simulate(addrs, rw)
    tlb = TLB(machine.tlb)
    tlb_miss = tlb.simulate(addrs)
    return hier, tlb.stats(), tlb_miss


def _assert_equal(machine, addrs, rw):
    ref_hier, ref_tlb, ref_tlb_miss = _reference(machine, addrs, rw)
    rep = replay(addrs, rw, machine)
    assert np.array_equal(ref_hier.l1_miss, rep.hierarchy.l1_miss)
    assert np.array_equal(ref_hier.l2_miss, rep.hierarchy.l2_miss)
    assert np.array_equal(ref_hier.l3_miss, rep.hierarchy.l3_miss)
    assert np.array_equal(ref_hier.latency, rep.hierarchy.latency)
    assert ref_hier.l1 == rep.hierarchy.l1
    assert ref_hier.l2 == rep.hierarchy.l2
    assert ref_hier.l3 == rep.hierarchy.l3
    assert np.array_equal(ref_tlb_miss, rep.tlb_miss)
    assert ref_tlb == rep.tlb


class TestFusedVsReference:
    @given(geom=st.integers(0, 3),
           seed=st.integers(0, 2**31 - 1),
           n=st.integers(0, 600))
    @settings(max_examples=40, deadline=None)
    def test_random_traces_bitwise_identical(self, geom, seed, n):
        rng = np.random.default_rng(seed)
        machine = _machine(geom)
        addrs = rng.integers(0, 1 << 20, size=n, dtype=np.uint64)
        rw = rng.integers(0, 2, size=n, dtype=np.uint8)
        _assert_equal(machine, addrs, rw)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_rw_none_matches(self, seed):
        rng = np.random.default_rng(seed)
        addrs = rng.integers(0, 1 << 18, size=300, dtype=np.uint64)
        _assert_equal(_machine(seed % 4), addrs, None)

    def test_shipped_machines(self):
        rng = np.random.default_rng(7)
        addrs = rng.integers(0, 1 << 22, size=20000, dtype=np.uint64)
        rw = rng.integers(0, 2, size=20000, dtype=np.uint8)
        for m in (TEST_MACHINE, SCALED_XEON):
            _assert_equal(m, addrs, rw)

    def test_empty_trace(self):
        rep = replay(np.empty(0, np.uint64), np.empty(0, np.uint8),
                     TEST_MACHINE)
        assert rep.hierarchy.l1.accesses == 0
        assert rep.tlb.accesses == 0
        assert len(rep.hierarchy.latency) == 0


class TestCpuModelFastPath:
    def test_fast_equals_slow_on_workload(self):
        from repro.arch.cpu import CPUModel
        from repro.datagen.registry import make
        from repro.harness.runner import run_cpu_workload

        spec = make("ldbc", scale=0.03, seed=0)
        result, _ = run_cpu_workload("BFS", spec, machine=TEST_MACHINE)
        fast = CPUModel(TEST_MACHINE).run(result.trace, fast=True)
        slow = CPUModel(TEST_MACHINE).run(result.trace, fast=False)
        assert fast.summary() == slow.summary()
        assert np.array_equal(fast.hierarchy.l1_miss,
                              slow.hierarchy.l1_miss)
        assert fast.dtlb == slow.dtlb


class TestCacheLinesFastPath:
    def test_lines_param_matches_addrs(self):
        rng = np.random.default_rng(0)
        addrs = rng.integers(0, 1 << 16, size=500, dtype=np.uint64)
        cfg = CacheConfig("t", size=1024, assoc=4, line=64)
        m1 = Cache(cfg).simulate(addrs)
        m2 = Cache(cfg).simulate(None, lines=line_ids(addrs, 64))
        m3 = Cache(cfg).simulate(None, lines=line_ids(addrs, 64).tolist())
        assert np.array_equal(m1, m2)
        assert np.array_equal(m1, m3)

    def test_line_ids_pow2_and_non_pow2(self):
        addrs = np.array([0, 63, 64, 4095, 4096, 12345], dtype=np.uint64)
        assert np.array_equal(line_ids(addrs, 64), addrs // 64)
        assert np.array_equal(line_ids(addrs, 4096), addrs // 4096)
        assert np.array_equal(line_ids(addrs, 96), addrs // 96)
