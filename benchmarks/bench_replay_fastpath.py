"""Characterization-matrix fast path: vectorized kernels + the LRU core
vs. loop kernels + reference simulators.

The fast path has two layers, both exact:

* **Vectorized workload kernels** — BFS/TC/CComp/kCore emit their traces
  through bulk numpy splicing (``repro.workloads._bulk``) instead of
  per-element tracer calls.  The frozen trace is **per-element identical**
  to the loop kernels' (address stream, branch sites, instruction counts,
  region visits), so everything downstream is unchanged by construction.
* **One compiled LRU core** (:mod:`repro.arch.lru`) behind every cache
  walk: the CPU hierarchy + DTLB (:func:`repro.arch.replay.replay`), the
  multicore private/shared hierarchy (:func:`repro.parallel.trace_sim.
  simulate_multicore`) and the SIMT L2 (:class:`repro.gpu.simt.
  KernelAccum`), plus the branch predictors' segmented scan
  (``simulate_branches(fast=True)``), each cross-validated bitwise
  against the dict-based :class:`~repro.arch.cache.Cache` reference it
  replaces.

Three things are measured and asserted:

1. **Equivalence gate** — for every workload x machine cell the fast
   configuration (vectorized kernels + content-addressed
   :class:`TraceStore` + LRU core) must report the *identical*
   metric summary the baseline (loop kernels re-executed per cell,
   reference multi-pass simulators) reports.  No tolerance: same dict,
   same bits.
2. **Engine gates** — CPU replay miss masks, multicore stats and SIMT
   stats on the core must match their ``Cache.simulate``-based
   references bit for bit on a real workload trace.
3. **Sweep speedup** — wall-clock for the full workloads x machines
   characterization sweep, fast vs. baseline.  Acceptance floor: **10x**
   at the standard scale (0.08); 2x at smoke scales, where fixed
   overheads dominate the shrunken work.

Results land in ``BENCH_replay.json``.  ``REPRO_BENCH_SCALE`` shrinks the
dataset for CI smoke runs.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_replay_fastpath.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
import time
from pathlib import Path

import numpy as np

try:
    from benchmarks.conftest import show
except ModuleNotFoundError:      # standalone: repo root not on sys.path
    def show(text: str) -> None:
        print("\n" + text)
from repro.arch import MemoryHierarchy, TLB, replay
from repro.arch.machine import SCALED_XEON, MachineConfig
from repro.core.tracestore import TraceStore
from repro.datagen.registry import make as make_dataset
from repro.harness import format_table
from repro.harness.runner import clear_cache, run_cpu_workload
from repro.parallel.trace_sim import (simulate_multicore,
                                      simulate_multicore_reference)
from repro.workloads._bulk import loop_reference_kernels

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.08"))
SEED = int(os.environ.get("REPRO_BENCH_SEED", "0"))
# the four vectorized kernels, one per paper computation class: BFS
# (CompProp traversal), TC (CompStruct, orientation-pass heavy), CComp
# (bidirectional label propagation), kCore (iterative peel)
WORKLOAD_SET = ("BFS", "TC", "CComp", "kCore")
# fixed per-cell overheads dominate tiny smoke datasets, so the floor is
# scale-dependent: the headline 10x holds at the standard scale
SPEEDUP_FLOOR = 10.0 if SCALE >= 0.08 else 2.0
OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_replay.json"


def _machines() -> list[MachineConfig]:
    """SCALED_XEON plus seven cache-geometry variants — the shape of an
    LLC/L2 sensitivity sweep (same trace, eight hierarchies).

    Five of the variants perturb only the L3 (the axis the paper's LLC
    discussion cares about: Fig. 7's MPKI is LLC-bound); two perturb the
    L2.  Sweeping the LLC axis densely is exactly the workload the trace
    store amortizes: one trace execution, then one compiled replay per
    machine.
    """
    base = SCALED_XEON
    variants = [base]
    for tag, l2_num, l2_den, l3_num, l3_den, a2, a3 in (
            ("double-llc", 1, 1, 2, 1, base.l2.assoc, base.l3.assoc),
            ("half-llc", 1, 1, 1, 2, base.l2.assoc, base.l3.assoc),
            ("quarter-llc", 1, 1, 1, 4, base.l2.assoc, base.l3.assoc),
            ("eighth-llc", 1, 1, 1, 8, base.l2.assoc, base.l3.assoc),
            ("llc-low-assoc", 1, 1, 1, 1, base.l2.assoc, 4),
            ("half-l2", 1, 2, 1, 1, base.l2.assoc, base.l3.assoc),
            ("low-assoc", 1, 1, 1, 1, 2, 4)):
        variants.append(dataclasses.replace(
            base,
            name=f"{base.name}/{tag}",
            l2=dataclasses.replace(base.l2,
                                   size=base.l2.size * l2_num // l2_den,
                                   assoc=a2),
            l3=dataclasses.replace(base.l3,
                                   size=base.l3.size * l3_num // l3_den,
                                   assoc=a3)))
    return variants


def _sweep(spec, machines, *, trace_store, fast):
    """Run every workload on every machine; return {(w, m): summary}."""
    out = {}
    for wname in WORKLOAD_SET:
        for m in machines:
            _, cpu = run_cpu_workload(wname, spec, machine=m,
                                      trace_store=trace_store, fast=fast)
            out[(wname, m.name)] = cpu.summary()
    return out


def _bitwise_gate(trace, machines) -> int:
    """CPU replay on the core vs. reference simulators on a real workload
    trace: per-access miss masks and latency must match bit for bit."""
    checked = 0
    for m in machines:
        rep = replay(trace.addrs, trace.rw, m)
        ref = MemoryHierarchy(m).simulate(trace.addrs, trace.rw)
        tlb = TLB(m.tlb)
        ref_tlb_miss = tlb.simulate(trace.addrs)
        assert np.array_equal(ref.l1_miss, rep.hierarchy.l1_miss)
        assert np.array_equal(ref.l2_miss, rep.hierarchy.l2_miss)
        assert np.array_equal(ref.l3_miss, rep.hierarchy.l3_miss)
        assert np.array_equal(ref.latency, rep.hierarchy.latency)
        assert np.array_equal(ref_tlb_miss, rep.tlb_miss)
        assert ref.l1 == rep.hierarchy.l1
        assert ref.l2 == rep.hierarchy.l2
        assert ref.l3 == rep.hierarchy.l3
        assert tlb.stats() == rep.tlb
        checked += 1
    return checked


def _multicore_gate(trace, machine) -> int:
    """Multicore replay on the core vs. the per-core multi-pass reference:
    aggregate L1/L2 and shared-L3 stats must be identical."""
    checked = 0
    for p in (1, 2, 4):
        core = simulate_multicore(trace, machine, p=p)
        ref = simulate_multicore_reference(trace, machine, p=p)
        assert core == ref, (p, core, ref)
        checked += 1
    return checked


def _gpu_gate(spec) -> int:
    """SIMT L2 accounting on the core vs. the dict-based reference L2,
    across every GPU kernel: identical KernelStats."""
    from repro.gpu.device import K40
    from repro.gpu.kernels.base import run_reference
    from repro.gpu.runner import GPU_KERNELS, UNDIRECTED_KERNELS, csr_to_coo
    checked = 0
    for name, cls in sorted(GPU_KERNELS.items()):
        csr = spec.csr()
        if name in UNDIRECTED_KERNELS:
            csr = csr.undirected()
        coo = csr_to_coo(csr)
        _, core = cls().run(csr, coo, l2_bytes=K40.l2_bytes)
        _, ref = run_reference(cls(), csr, coo, l2_bytes=K40.l2_bytes)
        assert dataclasses.asdict(core) == dataclasses.asdict(ref), name
        checked += 1
    return checked


def run_replay_benchmark() -> dict:
    spec = make_dataset("ldbc", scale=SCALE, seed=SEED)
    machines = _machines()

    result, _ = run_cpu_workload("BFS", spec, machine=machines[0])
    trace = result.trace
    masks_checked = _bitwise_gate(trace, machines)
    multicore_checked = _multicore_gate(trace, machines[0])
    gpu_checked = _gpu_gate(spec)

    clear_cache()
    t0 = time.perf_counter()
    with loop_reference_kernels():
        slow = _sweep(spec, machines, trace_store=None, fast=False)
    t_slow = time.perf_counter() - t0

    with tempfile.TemporaryDirectory() as tmp:
        store = TraceStore(tmp)
        clear_cache()
        t0 = time.perf_counter()
        fast = _sweep(spec, machines, trace_store=store, fast=True)
        t_fast = time.perf_counter() - t0
        store_stats = store.stats.as_dict()

    cells = len(WORKLOAD_SET) * len(machines)
    mismatched = [f"{w}@{m}" for (w, m) in slow
                  if slow[(w, m)] != fast[(w, m)]]
    speedup = t_slow / t_fast if t_fast else float("inf")

    return {
        "config": {"scale": SCALE, "seed": SEED,
                   "workloads": list(WORKLOAD_SET),
                   "machines": [m.name for m in machines],
                   "cells": cells},
        "equivalence": {"cells_compared": cells,
                        "mismatched_cells": mismatched,
                        "bitwise_mask_machines": masks_checked,
                        "multicore_configs": multicore_checked,
                        "gpu_kernels": gpu_checked,
                        "identical": not mismatched},
        "baseline_s": round(t_slow, 4),
        "fastpath_s": round(t_fast, 4),
        "speedup": round(speedup, 2),
        "speedup_floor": SPEEDUP_FLOOR,
        "trace_store": store_stats,
    }


def _render(results: dict) -> str:
    rows = [["baseline (loop kernels + reference sims)",
             results["baseline_s"], "1.0x"],
            ["fast (vectorized kernels + LRU core)",
             results["fastpath_s"], f"{results['speedup']:.1f}x"]]
    return format_table(
        ["configuration", "sweep_s", "speedup"], rows,
        title=(f"{results['config']['cells']}-cell machine sweep "
               f"(scale={results['config']['scale']})"))


def test_replay_fastpath_equivalence_and_speedup():
    results = run_replay_benchmark()
    OUT_PATH.write_text(json.dumps(results, indent=2, sort_keys=True))
    show(_render(results)
         + f"\ntrace store: {results['trace_store']}"
         + f"\nequivalence: {results['equivalence']}")
    assert results["equivalence"]["identical"], \
        results["equivalence"]["mismatched_cells"]
    assert results["speedup"] >= SPEEDUP_FLOOR, results


if __name__ == "__main__":
    results = run_replay_benchmark()
    OUT_PATH.write_text(json.dumps(results, indent=2, sort_keys=True))
    print(_render(results))
    print(f"trace store: {results['trace_store']}")
    print(f"equivalence: {results['equivalence']}")
    print(f"wrote {OUT_PATH}")
