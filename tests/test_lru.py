"""The shared LRU core (repro.arch.lru): both backends against the
dict-based Cache oracle, its build fallback, and every engine routed
through it checked against its reference with each backend forced."""

import dataclasses
import logging

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.arch import MemoryHierarchy, TLB, lru, replay
from repro.arch.cache import Cache, CacheConfig
from repro.arch.machine import SCALED_XEON, TEST_MACHINE


def _cfg(n_sets, assoc):
    return CacheConfig("t", size=n_sets * assoc * 64, assoc=assoc, line=64)


def _sets(keys, n_sets):
    return keys & np.uint64(n_sets - 1)


# the lru_backend fixture only pins the backend, so hypothesis examples
# may share one fixture instance
def _hyp(max_examples):
    return settings(max_examples=max_examples, deadline=None,
                    suppress_health_check=[
                        HealthCheck.function_scoped_fixture])


class TestCoreVsOracle:
    """Both backends (via the ``lru_backend`` fixture) against the
    dict-based :class:`Cache` oracle."""

    @given(log_sets=st.integers(0, 5), assoc=st.integers(1, 9),
           seed=st.integers(0, 2**31 - 1), n=st.integers(0, 400),
           spread=st.sampled_from([8, 64, 1 << 12]))
    @_hyp(60)
    def test_random_geometries(self, lru_backend, log_sets, assoc, seed, n,
                               spread):
        n_sets = 1 << log_sets
        keys = np.random.default_rng(seed).integers(
            0, spread, n, dtype=np.uint64)
        ref = Cache(_cfg(n_sets, assoc)).simulate(None, lines=keys)
        got = lru.lru_walk(lru.new_state(n_sets, assoc), assoc,
                           _sets(keys, n_sets), keys)
        assert np.array_equal(got, ref)

    @given(seed=st.integers(0, 2**31 - 1), n1=st.integers(0, 300),
           n2=st.integers(0, 300))
    @_hyp(30)
    def test_warm_state_across_two_calls(self, lru_backend, seed, n1, n2):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 200, n1, dtype=np.uint64)
        b = rng.integers(0, 200, n2, dtype=np.uint64)
        oracle = Cache(_cfg(4, 4))
        state = lru.new_state(4, 4)
        for keys in (a, b):
            assert np.array_equal(
                lru.lru_walk(state, 4, _sets(keys, 4), keys),
                oracle.simulate(None, lines=keys))

    def test_fully_associative_64_way(self, lru_backend):
        keys = np.random.default_rng(1).integers(0, 96, 5000,
                                                 dtype=np.uint64)
        got = lru.lru_walk(lru.new_state(1, 64), 64, None, keys)
        assert np.array_equal(got,
                              Cache(_cfg(1, 64)).simulate(None, lines=keys))

    def test_direct_mapped(self, lru_backend):
        keys = np.array([0, 1, 0, 4, 0, 1], dtype=np.uint64)
        got = lru.lru_walk(lru.new_state(4, 1), 1, _sets(keys, 4), keys)
        assert got.tolist() == [True, True, False, True, True, False]

    def test_empty_stream(self, lru_backend):
        state = lru.new_state(2, 2)
        got = lru.lru_walk(state, 2, np.empty(0, np.uint64),
                           np.empty(0, np.uint64))
        assert got.dtype == bool and len(got) == 0
        assert (state == lru.EMPTY).all()

    def test_rejects_bad_arguments(self):
        state = lru.new_state(2, 2)
        with pytest.raises(ValueError):
            lru.lru_walk(state, 3, None, np.zeros(1, np.uint64))
        with pytest.raises(ValueError):
            lru.lru_walk(state, 2, np.array([2], np.uint64),
                         np.zeros(1, np.uint64))
        with pytest.raises(ValueError):
            lru.lru_walk(state, 2, np.zeros(2, np.uint64),
                         np.zeros(1, np.uint64))
        with pytest.raises(ValueError):
            lru.lru_walk(state.astype(np.int64), 2, None,
                         np.zeros(1, np.uint64))


class TestBuild:
    def test_missing_compiler_falls_back_to_python(self, monkeypatch,
                                                   tmp_path):
        records: list[logging.LogRecord] = []

        class Collect(logging.Handler):
            def emit(self, record):
                records.append(record)

        handler = Collect(logging.WARNING)
        logger = logging.getLogger("repro.arch.lru")
        logger.addHandler(handler)
        monkeypatch.setattr(lru, "CC", str(tmp_path / "no-such-cc"))
        monkeypatch.setattr(lru, "cache_dir", lambda: tmp_path / "cache")
        monkeypatch.setattr(lru, "_impl", None)
        try:
            keys = np.random.default_rng(2).integers(0, 64, 500,
                                                     dtype=np.uint64)
            got = lru.lru_walk(lru.new_state(4, 2), 2, _sets(keys, 4), keys)
            assert lru._impl is lru._walk_py
        finally:
            logger.removeHandler(handler)
        assert np.array_equal(
            got, Cache(_cfg(4, 2)).simulate(None, lines=keys))
        fallback = [r for r in records
                    if getattr(r, "event", None) == "lru_fallback"]
        assert len(fallback) == 1
        assert not list((tmp_path / "cache").glob("*.tmp"))

    def test_library_cached_by_content_key(self, monkeypatch, tmp_path):
        monkeypatch.setattr(lru, "cache_dir", lambda: tmp_path)
        try:
            first = lru._build()
        except lru.BUILD_ERRORS as e:
            pytest.skip(f"C backend unavailable: {e}")
        mtime = first.stat().st_mtime_ns
        assert lru._build() == first
        assert first.stat().st_mtime_ns == mtime
        assert [p.name for p in tmp_path.iterdir()] == [first.name]


def _trace(n, spread, seed):
    from repro.core.trace import Tracer
    rng = np.random.default_rng(seed)
    t = Tracer()
    for a in rng.integers(0, spread, n).tolist():
        t.i(2)
        if a & 1:
            t.w(a & ~7)
        else:
            t.r(a & ~7)
    return t.freeze()


class TestEnginesPerBackend:
    """Every engine on the core, with each backend, against its
    dict-based reference, bit for bit."""

    def test_replay(self, lru_backend):
        rng = np.random.default_rng(5)
        addrs = rng.integers(0, 1 << 21, 3000, dtype=np.uint64)
        rw = rng.integers(0, 2, 3000, dtype=np.uint8)
        for m in (TEST_MACHINE, SCALED_XEON):
            rep = replay(addrs, rw, m)
            hier = MemoryHierarchy(m).simulate(addrs, rw)
            tlb = TLB(m.tlb)
            assert np.array_equal(rep.tlb_miss, tlb.simulate(addrs))
            assert rep.tlb == tlb.stats()
            for lvl in ("l1_miss", "l2_miss", "l3_miss", "latency", "l1",
                        "l2", "l3"):
                a, b = getattr(rep.hierarchy, lvl), getattr(hier, lvl)
                assert (np.array_equal(a, b) if isinstance(a, np.ndarray)
                        else a == b), lvl

    def test_icache(self, lru_backend):
        from repro.arch.icache import ICache
        from repro.datagen.registry import make
        from repro.harness.runner import run_cpu_workload
        result, _ = run_cpu_workload("BFS", make("ldbc", scale=0.02, seed=0),
                                     machine=TEST_MACHINE)
        cfg = CacheConfig("L1I", size=1024, assoc=2, line=64)
        for depth in (0, 3):
            ic = ICache(cfg)
            got = ic.simulate(result.trace, stack_depth=depth)
            oracle = Cache(cfg)
            oracle.simulate(ic._visit_addrs(result.trace, depth))
            assert (got.accesses, got.misses) == \
                (oracle.stats.accesses, oracle.stats.misses)

    def test_multicore(self, lru_backend):
        from repro.parallel.trace_sim import (simulate_multicore,
                                              simulate_multicore_reference)
        ft = _trace(2500, 1 << 14, 4)
        for p, chunk in ((1, 256), (3, 7), (4, 64)):
            assert simulate_multicore(ft, TEST_MACHINE, p=p, chunk=chunk) \
                == simulate_multicore_reference(ft, TEST_MACHINE, p=p,
                                                chunk=chunk)

    def test_gpu_kernels(self, lru_backend):
        from repro.datagen.registry import make
        from repro.gpu.kernels.base import run_reference
        from repro.gpu.runner import GPU_KERNELS, UNDIRECTED_KERNELS, \
            csr_to_coo
        spec = make("roadnet", scale=0.01, seed=0)
        for name, cls in sorted(GPU_KERNELS.items()):
            csr = spec.csr()
            if name in UNDIRECTED_KERNELS:
                csr = csr.undirected()
            coo = csr_to_coo(csr)
            _, core = cls().run(csr, coo, l2_bytes=1024)
            _, ref = run_reference(cls(), csr, coo, l2_bytes=1024)
            assert dataclasses.asdict(core) == dataclasses.asdict(ref), name
