"""Set-associative LRU cache: geometry, counters and the reference
simulator.

The workhorse of the CPU characterization replays a byte-address trace
through a cache level and returns the per-access hit/miss mask, from which
the harness derives MPKI (Fig. 7) and hit rates (Fig. 9).  Production
walks run on the compiled core in :mod:`repro.arch.lru`; this module
keeps two independent implementations, cross-validated against it by
tests:

* :meth:`Cache.simulate` — the oracle: per-set insertion-ordered dicts
  emulating true LRU (Python dicts preserve insertion order; re-inserting
  a tag moves it to MRU position).
* :func:`repro.arch.stackdist.stack_distances` — Fenwick-tree LRU stack
  distances; hit iff distance < associativity.  Used for associativity
  sweeps (one pass answers all associativities).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def line_ids(addrs: np.ndarray, line: int) -> np.ndarray:
    """Byte addresses -> line (or page) ids, as a uint64 array.

    Computed once per replay and shared across levels with the same line
    size instead of re-dividing per level.
    """
    addrs = np.asarray(addrs, dtype=np.uint64)
    if line & (line - 1) == 0:
        return addrs >> np.uint64(line.bit_length() - 1)
    return addrs // np.uint64(line)


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level.

    ``size`` bytes total, ``assoc`` ways, ``line`` bytes per line.
    ``n_sets`` must come out a power of two (standard indexing).
    """

    name: str
    size: int
    assoc: int
    line: int = 64
    latency: int = 4          # load-to-use latency in cycles (on hit)

    def __post_init__(self):
        if self.size <= 0 or self.assoc <= 0 or self.line <= 0:
            raise ValueError("size, assoc and line must be positive")
        if self.size % (self.assoc * self.line):
            raise ValueError(
                f"{self.name}: size {self.size} not divisible by "
                f"assoc*line = {self.assoc * self.line}")
        n_sets = self.size // (self.assoc * self.line)
        if n_sets & (n_sets - 1):
            raise ValueError(f"{self.name}: n_sets={n_sets} not a power of 2")

    @property
    def n_sets(self) -> int:
        return self.size // (self.assoc * self.line)


@dataclass
class CacheStats:
    """Counters of one simulated level."""

    name: str
    accesses: int = 0
    misses: int = 0
    read_misses: int = 0
    write_misses: int = 0

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def hit_rate(self) -> float:
        return 1.0 - self.miss_rate

    def mpki(self, n_instrs: int) -> float:
        """Misses per kilo-instruction."""
        return 1000.0 * self.misses / n_instrs if n_instrs else 0.0


class Cache:
    """One set-associative LRU cache level (stateful, replayable)."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self._sets: list[dict[int, None]] = [dict() for _ in
                                             range(config.n_sets)]
        self.stats = CacheStats(config.name)

    def reset(self) -> None:
        """Empty the cache and zero the stats."""
        for s in self._sets:
            s.clear()
        self.stats = CacheStats(self.config.name)

    def access(self, addr: int, is_write: bool = False) -> bool:
        """Access one byte address; returns ``True`` on hit."""
        line = addr // self.config.line
        s = self._sets[line % self.config.n_sets]
        self.stats.accesses += 1
        if line in s:
            del s[line]        # move to MRU position
            s[line] = None
            return True
        self.stats.misses += 1
        if is_write:
            self.stats.write_misses += 1
        else:
            self.stats.read_misses += 1
        s[line] = None
        if len(s) > self.config.assoc:
            del s[next(iter(s))]   # evict LRU (oldest insertion)
        return False

    def simulate(self, addrs: np.ndarray | None, rw: np.ndarray | None = None,
                 *, lines: np.ndarray | list[int] | None = None) -> np.ndarray:
        """Replay a whole trace; returns a bool miss mask (True = miss).

        ``addrs`` are byte addresses; ``rw`` optionally marks writes (1).
        State persists across calls (warm cache), call :meth:`reset` first
        for a cold run.

        ``lines=`` is the fast path: callers that already hold the line ids
        (the hierarchy shares one ``addrs >> log2(line)`` precompute across
        levels) pass them directly and ``addrs`` is ignored entirely.
        """
        cfg = self.config
        n_sets = cfg.n_sets
        assoc = cfg.assoc
        sets = self._sets
        if lines is None:
            lines = line_ids(addrs, cfg.line).tolist()
        elif isinstance(lines, np.ndarray):
            lines = lines.tolist()
        writes = None
        if rw is not None:
            writes = rw.tolist() if isinstance(rw, np.ndarray) else list(rw)
        miss = np.zeros(len(lines), dtype=bool)
        n_miss = 0
        w_miss = 0
        for i, line in enumerate(lines):
            s = sets[line % n_sets]
            if line in s:
                del s[line]
                s[line] = None
            else:
                miss[i] = True
                n_miss += 1
                if writes is not None and writes[i]:
                    w_miss += 1
                s[line] = None
                if len(s) > assoc:
                    del s[next(iter(s))]
        st = self.stats
        st.accesses += len(lines)
        st.misses += n_miss
        st.write_misses += w_miss
        st.read_misses += n_miss - w_miss
        return miss

    def resident_lines(self) -> int:
        """Number of lines currently cached (for occupancy tests)."""
        return sum(len(s) for s in self._sets)
