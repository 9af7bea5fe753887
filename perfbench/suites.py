"""The three benchmark workloads.

Each suite runs fixed *passes*: a pass is the same deterministic unit of
work every time, so its CPU time is comparable across runs and commits.

* ``prepare()``: untimed reset before a pass (fresh caches, store or
  server); the first one is part of set-up.
* ``execute(tracer)``: the timed pass; returns the raw results.
* ``finish(raw)``: untimed; digests every op and gathers pass statistics.
"""

from __future__ import annotations

import dataclasses
import random
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any

import numpy as np

from gate import dataset_identity, digest, scalars
from repro.arch.machine import SCALED_XEON, MachineConfig
from repro.core.errors import GraphError
from repro.datagen import registry
from repro.gpu import runner as gpu_runner
from repro.harness import runner
from repro.parallel import trace_sim


@dataclasses.dataclass
class PassResult:
    ops: list[tuple[str, str]]        # (op name, output digest)
    errors: list[str]                 # ops that raised or got an error
    stats: dict[str, Any]


def _trace_bytes(trace) -> int:
    return sum(v.nbytes for v in vars(trace).values()
               if isinstance(v, np.ndarray))


def _attempt(fn, *args, **kwargs):
    """Run one op; an exception is returned (and its traceback printed to
    stderr) so the pass goes on and the op counts as failed."""
    try:
        return fn(*args, **kwargs)
    except Exception as e:  # noqa: BLE001 - every op failure is counted
        traceback.print_exc(file=sys.stderr)
        return e


def _digests(results: list) -> tuple[list[tuple[str, str]], list[str]]:
    ops, errors = [], []
    for name, value in results:
        if isinstance(value, Exception):
            errors.append(name)
            ops.append((name, f"error:{type(value).__name__}"))
        else:
            ops.append((name, digest(value)))
    return ops, errors


def _traversal_root(spec) -> int:
    return int(np.argmax(spec.out_degrees()))


# -- characterize-cold ----------------------------------------------------------

class CharacterizeCold:
    """Figs 5-8 (13 CPU workloads on LDBC) plus Fig 9's road extreme (7
    data-sensitive workloads on roadnet), every cell computed cold: no
    memo, no trace store, every row kept alive until the pass ends."""

    name = "characterize-cold"
    #: LDBC's heap (584 KB) overflows the 512 KB scaled L3; roadnet's
    #: (284 KB) fits.
    SCALE = 0.15
    #: CPU seconds of one pass on a 2-vCPU x86 host (Python 3.11)
    NOMINAL_PASS_S = 22.0
    MATRIX = (("ldbc", runner.CPU_WORKLOADS),
              ("roadnet", runner.DATA_SENSITIVE_WORKLOADS))

    def __init__(self, seed: int, work: Path):
        self.seed = seed

    def setup(self) -> None:
        warm = registry.make("ldbc", scale=0.03, seed=self.seed)
        runner.characterize("BFS", warm, memo=False)
        self.prepare()

    def datasets(self) -> list[dict[str, Any]]:
        return [dataset_identity(registry.make(ds, scale=self.SCALE,
                                               seed=self.seed))
                for ds, _ in self.MATRIX]

    def prepare(self) -> None:
        runner.clear_cache()

    def execute(self, tracer) -> list:
        rows = []
        for ds, workloads in self.MATRIX:
            spec = registry.make(ds, scale=self.SCALE, seed=self.seed)
            for w in workloads:
                rows.append((f"{ds}/{w}", _attempt(
                    runner.characterize, w, spec, memo=False)))
        return rows

    def finish(self, rows: list) -> PassResult:
        ok = [row for _, row in rows if not isinstance(row, Exception)]
        ops, errors = _digests(
            [(name, row if isinstance(row, Exception) else
              {"summary": row.cpu.summary(),
               "outputs": scalars(row.result.outputs)})
             for name, row in rows])
        stats = {"sim_instrs": sum(row.cpu.n_instrs for row in ok),
                 "trace_mb_held": sum(_trace_bytes(row.result.trace)
                                      for row in ok) / 2**20}
        return PassResult(ops, errors, stats)

    def close(self) -> None:
        runner.clear_cache()


# -- simulate-sweep -------------------------------------------------------------

def machine_ladder() -> list[MachineConfig]:
    """SCALED_XEON plus seven LLC/L2 variants: one trace, eight
    hierarchies (the ladder of ``benchmarks/bench_replay_fastpath.py``)."""
    base = SCALED_XEON
    ladder = [base]
    for tag, l2_div, l3_num, l3_den, a2, a3 in (
            ("double-llc", 1, 2, 1, base.l2.assoc, base.l3.assoc),
            ("half-llc", 1, 1, 2, base.l2.assoc, base.l3.assoc),
            ("quarter-llc", 1, 1, 4, base.l2.assoc, base.l3.assoc),
            ("eighth-llc", 1, 1, 8, base.l2.assoc, base.l3.assoc),
            ("llc-low-assoc", 1, 1, 1, base.l2.assoc, 4),
            ("half-l2", 2, 1, 1, base.l2.assoc, base.l3.assoc),
            ("low-assoc", 1, 1, 1, 2, 4)):
        ladder.append(dataclasses.replace(
            base, name=f"{base.name}/{tag}",
            l2=dataclasses.replace(base.l2, size=base.l2.size // l2_div,
                                   assoc=a2),
            l3=dataclasses.replace(base.l3,
                                   size=base.l3.size * l3_num // l3_den,
                                   assoc=a3)))
    return ladder


class SimulateSweep:
    """Trace once, simulate many: four vectorized kernels on LDBC through
    a TraceStore, replayed on the eight-machine ladder; multicore replay
    at p=4 and p=16 per trace; the 8 GPU kernels on all five Table 7
    datasets."""

    name = "simulate-sweep"
    CPU_SCALE = 0.25
    GPU_SCALE = 0.5
    KERNELS = ("BFS", "CComp", "kCore", "TC")
    CORES = (4, 16)
    NOMINAL_PASS_S = 18.0

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.machines = machine_ladder()
        self.store_dir: str | None = None
        self.store = None

    def setup(self) -> None:
        warm = registry.make("ldbc", scale=0.03, seed=self.seed)
        runner.characterize("BFS", warm, memo=False)
        gpu_runner.run_gpu_workload("BFS", warm, root=0)
        self.prepare()

    def datasets(self) -> list[dict[str, Any]]:
        out = [dataset_identity(registry.make("ldbc", scale=self.CPU_SCALE,
                                              seed=self.seed))]
        out += [dataset_identity(registry.make(ds, scale=self.GPU_SCALE,
                                               seed=self.seed))
                for ds in registry.REGISTRY]
        return out

    def prepare(self) -> None:
        from repro.core.tracestore import TraceStore
        runner.clear_cache()
        self._drop_store()
        self.work.mkdir(parents=True, exist_ok=True)
        self.store_dir = tempfile.mkdtemp(prefix="traces-", dir=self.work)
        self.store = TraceStore(self.store_dir)

    def _gpu_params(self, name: str, spec) -> dict[str, Any]:
        if name in ("BFS", "SPath"):
            return {"root": _traversal_root(spec)}
        if name == "BCentr":
            return {"n_sources": 4}
        return {}

    def execute(self, tracer) -> dict[str, Any]:
        results: list[tuple[str, Any]] = []
        traces = []
        sim_instrs = 0
        spec = registry.make("ldbc", scale=self.CPU_SCALE, seed=self.seed)
        for w in self.KERNELS:
            for i, machine in enumerate(self.machines):
                if tracer is not None and i == 1:
                    tracer.alias["arch.replay"] = "arch.sweep_replay"
                out = _attempt(runner.run_cpu_workload, w, spec,
                               machine=machine, trace_store=self.store)
                if not isinstance(out, Exception):
                    result, metrics = out
                    sim_instrs += metrics.n_instrs
                    out = {"summary": metrics.summary(),
                           "outputs": scalars(result.outputs)}
                    if i == 0:
                        traces.append((w, result.trace))
                results.append((f"cpu/{w}/{machine.name}", out))
            if tracer is not None:
                tracer.alias.clear()
        for w, trace in traces:
            for p in self.CORES:
                results.append((f"multicore/{w}/p{p}", _attempt(
                    trace_sim.simulate_multicore, trace, SCALED_XEON, p=p)))
        for ds in registry.REGISTRY:
            gspec = registry.make(ds, scale=self.GPU_SCALE, seed=self.seed)
            if tracer is not None:
                tracer.tag = ds
            for w in runner.GPU_WORKLOAD_SET:
                out = _attempt(gpu_runner.run_gpu_workload, w, gspec,
                               **self._gpu_params(w, gspec))
                if not isinstance(out, Exception):
                    out = {"stats": out[1].stats,
                           "outputs": scalars(out[0])}
                results.append((f"gpu/{ds}/{w}", out))
        return {"results": results, "sim_instrs": sim_instrs,
                "store": self.store.stats.as_dict()}

    def finish(self, raw: dict[str, Any]) -> PassResult:
        ops, errors = _digests(raw["results"])
        st = raw["store"]
        lookups = st["hits"] + st["misses"]
        stats = {"sim_instrs": raw["sim_instrs"],
                 "tracestore_hit_ratio": st["hits"] / lookups
                 if lookups else 0.0}
        self._drop_store()
        return PassResult(ops, errors, stats)

    def _drop_store(self) -> None:
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)
            self.store_dir = None

    def close(self) -> None:
        self._drop_store()
        runner.clear_cache()


# -- serve-rw -------------------------------------------------------------------

class ServeRW:
    """One client connection, one client thread, closed loop, against an
    in-process service (one inline pool worker).  The seeded plan mixes
    ~65% DSL queries on a dynamic LDBC source, ~15% incremental
    ``dyn_query`` reads and ~20% ``mutate`` churn batches on the same
    store.  Every pass starts a fresh service, so every pass replays the
    same store history."""

    name = "serve-rw"
    SCALE = 0.25
    REQUESTS = 800
    QUERY_MIX, DYN_MIX = 0.65, 0.15
    WRITE_BATCH = 8
    NOMINAL_PASS_S = 24.0
    READ_OPS = ("query", "dyn_query")

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.plan = self._plan()
        self.server = None
        self.client = None

    def _source(self) -> str:
        return f"from ldbc scale={self.SCALE:g} seed={self.seed} dynamic=true"

    def _plan(self) -> list[tuple[str, dict[str, Any]]]:
        """Fixed counts per request kind (every DSL template equally
        often), in a seeded order with seeded churn: the seed changes
        what is asked and written, not how much of each."""
        from repro.dynamic.ops import churn_ops
        from repro.query.templates import query_template_pool
        static = f"from ldbc scale={self.SCALE:g} seed={self.seed}"
        pool = [q.replace(static, self._source(), 1)
                for q in query_template_pool(["ldbc"], scale=self.SCALE,
                                             seed=self.seed)]
        ident = {"dataset": "ldbc", "scale": self.SCALE, "seed": self.seed}
        n_queries = round(self.REQUESTS * self.QUERY_MIX / len(pool))
        n_dyn = round(self.REQUESTS * self.DYN_MIX / 2)
        kinds = ([("query", q) for q in pool] * n_queries
                 + [("dyn_query", w) for w in ("BFS", "CComp")] * n_dyn)
        kinds += [("mutate", None)] * (self.REQUESTS - len(kinds))
        rng = random.Random(f"serve-rw:{self.seed}")
        rng.shuffle(kinds)
        n_vertices = registry.scaled_vertices("ldbc", self.SCALE)
        plan = []
        for op, arg in kinds:
            if op == "query":
                plan.append((op, {"q": arg}))
            elif op == "dyn_query":
                plan.append((op, dict(ident, workload=arg, root=0)))
            else:
                plan.append((op, dict(ident, ops=churn_ops(
                    rng, n_vertices, self.WRITE_BATCH))))
        return plan

    def setup(self) -> None:
        self.prepare()

    def datasets(self) -> list[dict[str, Any]]:
        return [dataset_identity(registry.make("ldbc", scale=self.SCALE,
                                               seed=self.seed))]

    def prepare(self) -> None:
        from repro.service.client import ServiceClient
        from repro.service.pool import PoolConfig
        from repro.service.server import GraphService, ServiceThread
        self._stop_server()
        service = GraphService(
            pool_config=PoolConfig(size=1, isolation="inline"))
        self.server = ServiceThread(service)
        self.server.__enter__()
        self.client = ServiceClient(self.server.host, self.server.port,
                                    timeout_s=120.0).connect()
        # warm request: builds the dynamic store (datagen) at version 0
        self.client.request("explain", q=f"{self._source()} | count")

    def execute(self, tracer) -> dict[str, Any]:
        records = []
        client = self.client
        c0 = time.thread_time()
        for op, params in self.plan:
            t0 = time.perf_counter()
            try:
                resp = client.request(op, **params)
            except (GraphError, OSError) as e:
                resp = e
            records.append((op, (time.perf_counter() - t0) * 1e3, resp))
        return {"records": records, "client_cpu_s": time.thread_time() - c0}

    @staticmethod
    def _outputs(op: str, resp: dict[str, Any]) -> dict[str, Any]:
        if op == "query":
            keys = ("table", "rows", "version")
        elif op == "dyn_query":
            keys = ("outputs", "version")
        else:
            keys = ("version", "applied", "skipped", "n_vertices", "n_arcs")
        return {k: resp.get(k) for k in keys}

    def finish(self, raw: dict[str, Any]) -> PassResult:
        ops, errors = [], []
        lat: dict[str, list[float]] = {}
        served: dict[str, int] = {}
        for i, (op, ms, resp) in enumerate(raw["records"]):
            name = f"{i:04d}/{op}"
            lat.setdefault(op, []).append(ms)
            if isinstance(resp, Exception):
                errors.append(name)
                ops.append((name, f"error:{type(resp).__name__}"))
                continue
            if op == "dyn_query":
                served[resp.get("served")] = served.get(resp.get("served"),
                                                        0) + 1
            ops.append((name, digest(self._outputs(op, resp))))
        snap = self.client.request("stats")
        self._stop_server()
        server_ms = {}
        hist = snap["metrics"].get("service_request_latency_ms", {})
        for s in hist.get("samples", []):
            op = s["labels"].get("op")
            if op in lat and s["count"]:
                server_ms[op] = (s["sum"], s["count"])
        plan_ops = sum(len(v) for v in lat.values())
        server_total = sum(server_ms[op][0] for op in server_ms)
        round_trip = sum(sum(v) for v in lat.values())
        store = next(iter(snap["dynamic"]["stores"].values()), {})
        q = snap["query"]
        incremental = served.get("incremental", 0)
        stats = {
            "read_ms": [ms for op in self.READ_OPS for ms in lat.get(op, [])],
            "write_ms": list(lat.get("mutate", [])),
            "client_cpu_s": raw["client_cpu_s"],
            "server_ms_mean": {op: total / n
                               for op, (total, n) in server_ms.items()},
            "transport_ms_mean": (round_trip - server_total) / plan_ops
            if plan_ops else 0.0,
            "result_hit_ratio": q["result_cache"]["hit_rate"],
            "plan_hit_ratio": q["plan_cache"]["hit_rate"],
            "graph_hit_ratio": q["graph_cache"]["hit_rate"],
            "compactions": store.get("stats", {}).get("compactions", 0),
            "incremental_ratio": incremental
            / max(1, incremental + served.get("recompute", 0)),
        }
        return PassResult(ops, errors, stats)

    def _stop_server(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.server is not None:
            self.server.__exit__(None, None, None)
            self.server = None

    def close(self) -> None:
        self._stop_server()


SUITES = {s.name: s for s in (CharacterizeCold, SimulateSweep, ServeRW)}
