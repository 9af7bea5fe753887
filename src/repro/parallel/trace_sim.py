"""Trace-driven multicore cache simulation.

The analytical projection in :mod:`repro.parallel.multicore` answers "how
fast", but the paper's pinned-thread runs also change *cache behaviour*:
each core keeps private L1/L2 slices of the working set while all cores
contend for the shared L3 (Table 6's 20 MB LLC).  This module replays a
workload trace as ``p`` interleaved threads — each executing a contiguous
slice of the work — through private L1/L2 hierarchies and one shared L3,
quantifying:

* the private-cache benefit (each core's slice is smaller than the whole),
* shared-LLC contention (interleaved miss streams evict each other).

Used by the multicore-contention ablation bench; the single-core case
(``p=1``) reduces exactly to :class:`~repro.arch.hierarchy.MemoryHierarchy`
(tested).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..arch.cache import Cache, CacheStats, line_ids
from ..arch.lru import lru_walk, new_state
from ..arch.replay import walk_level
from ..arch.machine import MachineConfig
from ..core.trace import FrozenTrace


@dataclass
class MulticoreCacheResult:
    """Per-level aggregate behaviour of the p-core replay."""

    p: int
    l1: CacheStats            # summed over cores
    l2: CacheStats            # summed over cores
    l3: CacheStats            # the shared LLC
    per_core_accesses: list[int]

    def l3_miss_rate(self) -> float:
        return self.l3.miss_rate

    def mpki(self, n_instrs: int) -> dict[str, float]:
        return {"L1D": self.l1.mpki(n_instrs),
                "L2": self.l2.mpki(n_instrs),
                "L3": self.l3.mpki(n_instrs)}


def _chunk_owners(n: int, p: int, chunk: int) -> np.ndarray:
    """Owner core of each access: contiguous work chunks dealt round-robin
    (the block-cyclic schedule of a pinned OpenMP loop)."""
    return (np.arange(n) // chunk) % p


def _setup(trace: FrozenTrace, machine: MachineConfig, p: int | None,
           chunk: int) -> tuple[int, np.ndarray]:
    """Validated core count and the per-access owner cores."""
    if p is None:
        p = machine.n_cores
    if p <= 0:
        raise ValueError("p must be positive")
    if chunk <= 0:
        raise ValueError("chunk must be positive")
    return p, _chunk_owners(len(trace.addrs), p, chunk)


def _read_stats(name: str, accesses: int, misses: int) -> CacheStats:
    """Counters of a walk without an rw stream: every miss is a read."""
    return CacheStats(name, accesses=accesses, misses=misses,
                      read_misses=misses)


def simulate_multicore(trace: FrozenTrace, machine: MachineConfig,
                       p: int | None = None,
                       chunk: int = 256) -> MulticoreCacheResult:
    """Replay ``trace`` as ``p`` threads with private L1/L2 + shared L3.

    The access stream is split block-cyclically into per-core substreams
    (approximating a parallel loop's work distribution); private levels
    see only their core's stream, and the shared L3 sees the cores' miss
    streams interleaved chunk by chunk — the eviction interleaving that
    causes LLC contention.

    Three :func:`repro.arch.lru.lru_walk` calls in global program order:
    every core's private L1 (L2) sets live side by side in one state
    array, access ``i`` probing set ``owner * n_sets + set``, so each
    core's slice sees exactly the accesses that core owns, in order; the
    shared L3 is walked over the L2-miss stream.  Stats are bitwise
    identical to the per-core reference
    (:func:`simulate_multicore_reference`).
    """
    p, owners = _setup(trace, machine, p, chunk)
    m = machine
    addrs = np.asarray(trace.addrs, dtype=np.uint64)
    n = len(addrs)
    own = owners.astype(np.uint64)
    k1 = line_ids(addrs, m.l1d.line)

    def private(cfg, idx: np.ndarray) -> np.ndarray:
        keys = k1[idx] if cfg.line == m.l1d.line else \
            line_ids(addrs[idx], cfg.line)
        sets = own[idx] * np.uint64(cfg.n_sets) \
            + (keys & np.uint64(cfg.n_sets - 1))
        return idx[lru_walk(new_state(p * cfg.n_sets, cfg.assoc),
                            cfg.assoc, sets, keys)]

    i1 = private(m.l1d, np.arange(n))
    i2 = private(m.l2, i1)
    k3 = k1[i2] if m.l3.line == m.l1d.line else \
        line_ids(addrs[i2], m.l3.line)
    m3 = int(np.count_nonzero(walk_level(m.l3, k3)))
    return MulticoreCacheResult(
        p, _read_stats("L1D", n, len(i1)),
        _read_stats("L2", len(i1), len(i2)),
        _read_stats(m.l3.name, len(i2), m3),
        np.bincount(owners, minlength=p).tolist())


def simulate_multicore_reference(trace: FrozenTrace,
                                 machine: MachineConfig,
                                 p: int | None = None,
                                 chunk: int = 256) -> MulticoreCacheResult:
    """Per-core multi-pass reference of :func:`simulate_multicore` on
    the dict-based :class:`~repro.arch.cache.Cache` (the test oracle):
    each core's private L1/L2 replayed separately, then the merged
    L2-miss positions through the shared L3."""
    p, owners = _setup(trace, machine, p, chunk)
    addrs = trace.addrs
    agg_l1 = CacheStats("L1D")
    agg_l2 = CacheStats("L2")
    l3 = Cache(machine.l3)
    miss_positions: list[np.ndarray] = []
    per_core_accesses: list[int] = []
    for core in range(p):
        idx = np.flatnonzero(owners == core)
        per_core_accesses.append(len(idx))
        if len(idx) == 0:
            continue
        l1 = Cache(machine.l1d)
        m1 = l1.simulate(addrs[idx])
        l2 = Cache(machine.l2)
        pos1 = idx[m1]
        m2 = l2.simulate(addrs[pos1]) if len(pos1) else np.zeros(0, bool)
        for agg, st in ((agg_l1, l1.stats), (agg_l2, l2.stats)):
            agg.accesses += st.accesses
            agg.misses += st.misses
            agg.read_misses += st.read_misses
            agg.write_misses += st.write_misses
        miss_positions.append(pos1[m2])
    # shared L3 sees the cores' miss streams in global program order
    # (the block-cyclic schedule interleaves them chunk by chunk)
    if miss_positions:
        merged = np.sort(np.concatenate(miss_positions))
        l3.simulate(addrs[merged])
    return MulticoreCacheResult(p, agg_l1, agg_l2, l3.stats,
                                per_core_accesses)


def llc_contention(trace: FrozenTrace, machine: MachineConfig,
                   p: int | None = None) -> float:
    """Shared-LLC contention factor: p-core L3 misses / 1-core L3 misses.

    > 1 means the interleaved working sets evict each other (the
    multicore tax on Fig. 7's already-poor L3 behaviour).
    """
    solo = simulate_multicore(trace, machine, p=1)
    multi = simulate_multicore(trace, machine, p=p)
    if solo.l3.misses == 0:
        return 1.0
    return multi.l3.misses / solo.l3.misses
