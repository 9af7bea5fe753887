"""Trace replay through the compiled LRU core: L1D -> L2 -> L3 (+ DTLB).

:func:`replay` walks the hierarchy as three :func:`repro.arch.lru.
lru_walk` calls, one per level: each level's key stream is the previous
level's miss positions, compressed with numpy (``idx[miss]``), so every
level sees exactly the miss-stream composition of the multi-level
reference.  The DTLB is one more walk over the full stream at page
granularity.  :func:`lru_misses` is the count-only walk of the ICache.

Each level runs the same exact LRU over the same substream as the
reference simulators (:class:`repro.arch.hierarchy.MemoryHierarchy`,
:class:`repro.arch.tlb.TLB`), so miss masks and stats are bitwise
identical to them; the references stay in the tree as the
cross-validation oracle (see ``tests/test_replay.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cache import CacheConfig, CacheStats, line_ids
from .hierarchy import HierarchyResult
from .lru import lru_walk, new_state
from .machine import MachineConfig
from .tlb import TLBStats


@dataclass
class ReplayResult:
    """Replay output: hierarchy + DTLB results of one replay."""

    hierarchy: HierarchyResult
    tlb: TLBStats
    tlb_miss: np.ndarray    # per-access bool, program order


def walk_level(cfg: CacheConfig, keys: np.ndarray) -> np.ndarray:
    """Miss mask of a cold ``cfg`` cache over line ids ``keys``."""
    return lru_walk(new_state(cfg.n_sets, cfg.assoc), cfg.assoc,
                    keys & np.uint64(cfg.n_sets - 1), keys)


def lru_misses(ids: np.ndarray, cfg: CacheConfig) -> int:
    """Miss count of a cold ``cfg`` cache over line ids ``ids`` (the
    ICache walk, where per-access masks are not needed)."""
    return int(np.count_nonzero(walk_level(cfg, ids)))


def replay(addrs: np.ndarray, rw: np.ndarray | None,
           machine: MachineConfig) -> ReplayResult:
    """Replay ``addrs`` through a cold hierarchy + DTLB."""
    m = machine
    addrs = np.asarray(addrs, dtype=np.uint64)
    rw = None if rw is None else np.asarray(rw)
    n = len(addrs)
    k1 = line_ids(addrs, m.l1d.line)

    def keys(cfg: CacheConfig, idx: np.ndarray) -> np.ndarray:
        if cfg.line == m.l1d.line:
            return k1[idx]
        return line_ids(addrs[idx], cfg.line)

    i1 = np.flatnonzero(walk_level(m.l1d, k1))
    i2 = i1[walk_level(m.l2, keys(m.l2, i1))]
    i3 = i2[walk_level(m.l3, keys(m.l3, i2))]
    tlb_miss = walk_level(m.tlb.cache_config(), line_ids(addrs, m.tlb.page))

    def writes(idx: np.ndarray) -> int:
        return int(np.count_nonzero(rw[idx])) if rw is not None else 0

    def mask_of(idx: np.ndarray) -> np.ndarray:
        out = np.zeros(n, dtype=bool)
        out[idx] = True
        return out

    def stats_of(cfg: CacheConfig, accesses: int,
                 idx: np.ndarray) -> CacheStats:
        w = writes(idx)
        return CacheStats(cfg.name, accesses=accesses, misses=len(idx),
                          read_misses=len(idx) - w, write_misses=w)

    l1_miss, l2_miss, l3_miss = mask_of(i1), mask_of(i2), mask_of(i3)
    latency = np.zeros(n, dtype=np.int32)
    latency[l1_miss] = m.l2.latency
    latency[l2_miss] = m.l3.latency
    latency[l3_miss] = m.mem_latency
    hier = HierarchyResult(
        l1=stats_of(m.l1d, n, i1),
        l2=stats_of(m.l2, len(i1), i2),
        l3=stats_of(m.l3, len(i2), i3),
        l1_miss=l1_miss, l2_miss=l2_miss, l3_miss=l3_miss,
        latency=latency)
    tlb = TLBStats(accesses=n, misses=int(np.count_nonzero(tlb_miss)),
                   walk_latency=m.tlb.walk_latency)
    return ReplayResult(hierarchy=hier, tlb=tlb, tlb_miss=tlb_miss)
