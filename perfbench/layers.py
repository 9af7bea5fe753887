"""Per-layer timing from outside the package.

The traced run wraps public functions of each ``repro`` layer in spans
that record the calling thread's CPU time.  A span's *self* time is its
duration minus the durations of the spans it encloses, so self times of
all layers never double count and, together with the untraced remainder,
add up to the pass's process CPU time.

Nothing under ``src/`` changes: :func:`install` patches module and class
attributes and returns a function that puts the originals back.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Any, Callable

_clock = time.thread_time


class LayerTracer:
    """Self CPU time, event counts and wall-time samples per layer.
    Spans nest per thread; one lock guards the shared totals."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.events: dict[str, float] = defaultdict(float)
        self.wall_ms: dict[str, list[float]] = defaultdict(list)
        #: layer renames in force (e.g. replay on sweep machines 2-8)
        self.alias: dict[str, str] = {}
        #: free-form tag the bench sets (the current GPU dataset)
        self.tag = ""
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, layer: str) -> list:
        frame = [self.alias.get(layer, layer), _clock(), 0.0]
        self._stack().append(frame)
        return frame

    def exit(self, frame: list) -> None:
        elapsed = _clock() - frame[1]
        stack = self._stack()
        stack.pop()
        with self._lock:
            self.self_s[frame[0]] += elapsed - frame[2]
        if stack:
            stack[-1][2] += elapsed

    def count(self, key: str, n: float) -> None:
        with self._lock:
            self.events[key] += n

    def sample_ms(self, key: str, ms: float) -> None:
        with self._lock:
            self.wall_ms[key].append(ms)


Events = Callable[[tuple, dict, Any], "dict[str, float]"]


def _wrap(tracer: LayerTracer, fn: Callable, layer: "str | Callable",
          events: Events | None, wall: str | None) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        name = layer(args, kwargs) if callable(layer) else layer
        t0 = time.perf_counter() if wall else 0.0
        frame = tracer.enter(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
        if wall:
            tracer.sample_ms(wall, (time.perf_counter() - t0) * 1e3)
        if events is not None:
            for key, n in events(args, kwargs, out).items():
                tracer.count(key, n)
        return out
    return traced


def _patch(restore: list, owner: Any, attr: str, tracer: LayerTracer,
           layer, events: Events | None = None,
           wall: str | None = None) -> None:
    raw = owner.__dict__.get(attr) if isinstance(owner, type) else None
    original = getattr(owner, attr)
    if isinstance(raw, classmethod):
        patched: Any = classmethod(
            _wrap(tracer, raw.__func__, layer, events, wall))
        restore.append((owner, attr, raw))
    elif isinstance(raw, property):
        patched = property(_wrap(tracer, raw.fget, layer, events, wall))
        restore.append((owner, attr, raw))
    else:
        patched = _wrap(tracer, original, layer, events, wall)
        # a subclass inheriting the method gets its own shadowing
        # attribute; restoring deletes it again
        restore.append((owner, attr, raw if isinstance(owner, type)
                        else original))
    setattr(owner, attr, patched)


def install(tracer: LayerTracer) -> Callable[[], None]:
    """Wrap every measured layer boundary; returns the undo function."""
    from repro.arch import cpu as arch_cpu
    from repro.arch.icache import ICache
    from repro.core.trace import Tracer
    from repro.core.tracestore import TraceStore
    from repro.datagen import registry
    from repro.datagen.spec import GraphSpec
    from repro.dynamic.engine import DynamicEngine
    from repro.dynamic.incremental import IncrementalBFS, IncrementalCComp
    from repro.dynamic.store import Snapshot
    from repro.formats.csr import CSRGraph
    from repro.gpu import runner as gpu_runner
    from repro.gpu.kernels import GPU_KERNELS
    from repro.harness import runner
    from repro.parallel import trace_sim
    from repro.query import engine as query_engine
    from repro.query.exec import GraphImage
    from repro.query.engine import QueryEngine
    from repro.workloads import WORKLOADS

    restore: list = []

    def p(owner, attr, layer, events=None, wall=None):
        _patch(restore, owner, attr, tracer, layer, events, wall)

    # generators
    p(registry, "make", "datagen.gen")
    p(runner, "munin_like", "bayes.gen")
    # core: graph build, trace freezing, trace store
    p(runner, "_build_graph", "core.build",
      lambda a, k, out: {"core.build_edges": a[0].m})
    p(runner, "_shared_graph", "core.build")
    p(runner, "_dagify", "core.build")
    p(runner, "build_bn_graph", "core.build")
    p(Tracer, "freeze", "core.trace")
    p(TraceStore, "save", "core.tracestore.save")
    p(TraceStore, "load", "core.tracestore.load")
    # workload kernels (trace emission included)
    for name, cls in WORKLOADS.items():
        p(cls, "run", f"workloads.kernel.{name}",
          lambda a, k, out: {"workloads.emit": len(out.trace.addrs)
                             if out.trace is not None else 0})
    # CPU model and its three engines
    p(arch_cpu.CPUModel, "run", "arch.cycle",
      lambda a, k, out: {"arch.sim_instrs": out.n_instrs})
    p(arch_cpu, "replay", "arch.replay",
      lambda a, k, out: {tracer.alias.get("arch.replay", "arch.replay")
                         + ".accesses": len(a[0])})
    p(arch_cpu, "simulate_branches", "arch.branch",
      lambda a, k, out: {"arch.branches": len(a[0])})
    p(ICache, "simulate", "arch.icache")
    # multicore replay
    p(trace_sim, "simulate_multicore", "parallel.multicore",
      lambda a, k, out: {"parallel.accesses": len(a[0].addrs)})
    # static formats and the SIMT model
    p(GraphSpec, "csr", "formats.populate")
    p(CSRGraph, "undirected", "formats.populate")
    p(gpu_runner, "csr_to_coo", "formats.populate")
    for cls in GPU_KERNELS.values():
        p(cls, "run", lambda a, k: f"gpu.simt.{tracer.tag}",
          lambda a, k, out: {"gpu.warp_issues": out[1].warp_issues})
    # harness glue
    p(runner, "characterize", "harness.glue")
    p(runner, "run_cpu_workload", "harness.glue")
    # query language
    p(QueryEngine, "query", "query.engine", wall="query.handler")
    p(query_engine, "parse", "query.parse")
    p(query_engine, "unparse", "query.parse")
    p(query_engine, "plan_pipeline", "query.plan")
    p(query_engine, "execute_plan", "query.exec")
    p(GraphImage, "from_snapshot", "query.image")
    p(GraphImage, "from_spec", "query.image")
    # dynamic graphs
    p(DynamicEngine, "mutate", "dynamic.mutate", wall="dynamic.mutate")
    p(DynamicEngine, "query", "dynamic.query", wall="dynamic.dyn_query")
    p(IncrementalBFS, "refresh", "dynamic.kernel")
    p(IncrementalCComp, "refresh", "dynamic.kernel")
    # graph-size scans of a pinned snapshot (the planner's cost inputs)
    p(Snapshot, "n_vertices", "dynamic.snapshot")
    p(Snapshot, "n_arcs", "dynamic.snapshot")

    def undo() -> None:
        for owner, attr, original in reversed(restore):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
    return undo
