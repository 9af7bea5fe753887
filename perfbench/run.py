"""Repository benchmark: cold characterization, simulator sweep and
read/write serving.

Usage (from the repository root)::

    python3 perfbench/run.py --workload characterize-cold --seed 0 \\
        --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced pass and reports the per-layer metrics plus a
stage table.  ``--record`` stores the output digests of the selected
input seed in ``expected.json``.  The last line of standard output is
the JSON result; the exit code is 0 only when every op succeeded and
matched its recorded digest.  See ``METHODS.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_REPEATS = 5
REF_PROBE_MS = 1.0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("characterize-cold", "simulate-sweep",
                             "serve-rw"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="store this input seed's output digests")
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def nearest_rank(samples, q: float) -> float:
    """Nearest-rank percentile: an observed sample, never interpolated."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def declared(kind: str, values: dict[str, float]) -> dict[str, dict]:
    """``values`` as result metrics, checked against the names and units
    BENCHMARK.json declares for ``kind``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    names = [m["name"] for m in spec]
    if set(names) != set(values):
        raise RuntimeError(f"{kind} metrics differ from BENCHMARK.json: "
                           f"{sorted(set(names) ^ set(values))}")
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in spec}


def timed_pass(suite, tracer, probe) -> tuple[object, float, float]:
    """Run one pass; CPU and wall seconds exclude the probe's bursts."""
    with probe:
        c0, w0 = time.process_time(), time.perf_counter()
        raw = suite.execute(tracer)
        cpu, wall = time.process_time() - c0, time.perf_counter() - w0
    spent = sum(probe.bursts)
    return raw, cpu - spent, wall - spent


def child_setups(args, n: int) -> list[float]:
    """Set-up time of ``n`` fresh processes (imports, datagen, service
    start, warm request), each run to completion in turn."""
    out = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])
                   ["setup_s"])
    return out


def layer_metrics(tracer, traced_cpu: float, untraced_cpu: float,
                  stats: dict, untraced_stats: dict) -> dict[str, float]:
    """Per-layer values of the traced pass; rates are events per second
    of the layer's own self time."""
    from repro.harness.runner import CPU_WORKLOADS
    from repro.datagen.registry import REGISTRY
    S, E = tracer.self_s, tracer.events

    def rate(events: float, seconds: float, unit: float) -> float:
        return events / seconds / unit if seconds > 0 else 0.0

    kernels = {w: S.get(f"workloads.kernel.{w}", 0.0)
               for w in CPU_WORKLOADS}
    gpu = {ds: S.get(f"gpu.simt.{ds}", 0.0) for ds in REGISTRY}
    kernel_s, simt_s = sum(kernels.values()), sum(gpu.values())
    wall = tracer.wall_ms
    m = {
        "datagen.gen_s": S["datagen.gen"],
        "bayes.gen_s": S["bayes.gen"],
        "core.build_s": S["core.build"],
        "core.build_kedges_per_s": rate(E["core.build_edges"],
                                        S["core.build"], 1e3),
        "core.trace_s": S["core.trace"],
        "core.trace_mb_held": stats.get("trace_mb_held", 0.0),
        "core.tracestore.save_s": S["core.tracestore.save"],
        "core.tracestore.load_s": S["core.tracestore.load"],
        "core.tracestore.hit_ratio": stats.get("tracestore_hit_ratio", 0.0),
        "workloads.kernel_s": kernel_s,
        **{f"workloads.kernel_s.{w}": s for w, s in kernels.items()},
        "workloads.emit_maccess_per_s": rate(E["workloads.emit"], kernel_s,
                                             1e6),
        "arch.replay_s": S["arch.replay"],
        "arch.replay_maccess_per_s": rate(E["arch.replay.accesses"],
                                          S["arch.replay"], 1e6),
        "arch.sweep_replay_s": S["arch.sweep_replay"],
        "arch.sweep_maccess_per_s": rate(E["arch.sweep_replay.accesses"],
                                         S["arch.sweep_replay"], 1e6),
        "arch.branch_s": S["arch.branch"],
        "arch.branch_mbranch_per_s": rate(E["arch.branches"],
                                          S["arch.branch"], 1e6),
        "arch.icache_s": S["arch.icache"],
        "arch.cycle_s": S["arch.cycle"],
        "harness.glue_s": S["harness.glue"],
        "parallel.multicore_s": S["parallel.multicore"],
        "parallel.multicore_maccess_per_s": rate(
            E["parallel.accesses"], S["parallel.multicore"], 1e6),
        "formats.populate_s": S["formats.populate"],
        "gpu.simt_s": simt_s,
        **{f"gpu.simt_s.{ds}": s for ds, s in gpu.items()},
        "gpu.warp_minstr_per_s": rate(E["gpu.warp_issues"], simt_s, 1e6),
        "query.engine_s": S["query.engine"],
        "query.parse_s": S["query.parse"],
        "query.plan_s": S["query.plan"],
        "query.exec_s": S["query.exec"],
        "query.image_s": S["query.image"],
        "query.handler_ms_p50": nearest_rank(wall["query.handler"], 50),
        "query.handler_ms_p90": nearest_rank(wall["query.handler"], 90),
        "query.result_hit_ratio": stats.get("result_hit_ratio", 0.0),
        "query.plan_hit_ratio": stats.get("plan_hit_ratio", 0.0),
        "query.graph_hit_ratio": stats.get("graph_hit_ratio", 0.0),
        "dynamic.mutate_s": S["dynamic.mutate"],
        "dynamic.query_s": S["dynamic.query"],
        "dynamic.kernel_s": S["dynamic.kernel"],
        "dynamic.snapshot_s": S["dynamic.snapshot"],
        "dynamic.mutate_ms_p90": nearest_rank(wall["dynamic.mutate"], 90),
        "dynamic.dyn_query_ms_p50": nearest_rank(wall["dynamic.dyn_query"],
                                                 50),
        "dynamic.compactions": float(stats.get("compactions", 0)),
        "dynamic.incremental_ratio": stats.get("incremental_ratio", 0.0),
        "service.client_s": stats.get("client_cpu_s", 0.0),
        **{f"service.server_ms_mean.{op}":
           stats.get("server_ms_mean", {}).get(op, 0.0)
           for op in ("query", "dyn_query", "mutate")},
        "service.transport_ms_mean": stats.get("transport_ms_mean", 0.0),
        # end-to-end figures of the untraced pass of this run
        "sim_minstr_per_s": rate(untraced_stats.get("sim_instrs", 0),
                                 untraced_cpu, 1e6),
        "read_p50_ms": nearest_rank(untraced_stats.get("read_ms", []), 50),
        "read_p90_ms": nearest_rank(untraced_stats.get("read_ms", []), 90),
        "write_p90_ms": nearest_rank(untraced_stats.get("write_ms", []), 90),
    }
    accounted = sum(S.values()) + stats.get("client_cpu_s", 0.0)
    m["stage.other_s"] = traced_cpu - accounted
    m["trace.traced_cpu_s"] = traced_cpu
    m["trace.untraced_cpu_s"] = untraced_cpu
    m["trace.overhead_s"] = traced_cpu - untraced_cpu
    return m


def stage_table(workload: str, tracer, stats: dict, traced_cpu: float,
                untraced_cpu: float) -> str:
    S, E = tracer.self_s, tracer.events
    rates = {"arch.replay": ("arch.replay.accesses", 1e6, "Maccess/s"),
             "arch.sweep_replay": ("arch.sweep_replay.accesses", 1e6,
                                   "Maccess/s"),
             "arch.branch": ("arch.branches", 1e6, "Mbranch/s"),
             "parallel.multicore": ("parallel.accesses", 1e6, "Maccess/s"),
             "core.build": ("core.build_edges", 1e3, "kedge/s")}
    rows = dict(S)
    if stats.get("client_cpu_s"):
        rows["service.client"] = stats["client_cpu_s"]
    rows["(other: unwrapped code, service event loop)"] = \
        traced_cpu - sum(rows.values())
    lines = [f"stage table: {workload} (traced pass, self CPU time)",
             f"  {'layer':48s} {'self_s':>9s} {'share':>7s}  events/s"]
    for layer, s in sorted(rows.items(), key=lambda kv: -kv[1]):
        extra = ""
        if layer in rates and s > 0:
            key, unit, label = rates[layer]
            extra = f"{E[key] / s / unit:.3f} {label}"
        lines.append(f"  {layer:48s} {s:9.3f} {s / traced_cpu:7.1%}  "
                     f"{extra}")
    kernel_s = sum(v for k, v in S.items()
                   if k.startswith("workloads.kernel."))
    if kernel_s > 0:
        lines.append(f"  workloads emit: {E['workloads.emit'] / kernel_s / 1e6:.3f}"
                     " Maccess/s of kernel time")
    simt_s = sum(v for k, v in S.items() if k.startswith("gpu.simt."))
    if simt_s > 0:
        lines.append(f"  gpu simt: {E['gpu.warp_issues'] / simt_s / 1e6:.3f}"
                     " Mwarp-instr/s")
    lines.append(f"  traced pass cpu {traced_cpu:.3f} s = self times above; "
                 f"untraced pass cpu {untraced_cpu:.3f} s; "
                 f"tracing overhead {traced_cpu - untraced_cpu:+.3f} s")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gate
    import suites

    seed = gate.input_seed(args.seed)
    suite = suites.SUITES[args.workload](seed, WORK)
    suite.setup()
    # CPU seconds since process start (all threads), scaled by the host
    # speed measured right after: on a shared host, wall time of a
    # sub-second set-up swings with steal and the neighbours' load
    setup_cpu = time.process_time()
    setup_s = setup_cpu * REF_PROBE_MS / gate.SpeedProbe().sample_ms(40)
    if args.setup_only:
        suite.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    identity = {"workload": args.workload, "seed": args.seed,
                "input_seed": seed, "datasets": suite.datasets(),
                **gate.code_identity(ROOT)}
    gate.log("identity " + json.dumps(identity, sort_keys=True))
    ticks0 = gate.cpu_ticks()
    calib = [gate.calibrate_ms()]

    # A fixed number of passes: --seconds over the pass's nominal length,
    # so every run of a workload does the same work on any host.  The
    # traced run makes one untraced and one traced pass.
    n_passes = 2 if args.trace else max(
        1, round(args.seconds / suite.NOMINAL_PASS_S))
    tracer = None
    passes = []        # (PassResult, cpu_s, wall_s, traced, probe_ms)
    try:
        for i in range(n_passes):
            if i:
                suite.prepare()
            traced = bool(args.trace) and i == 1
            if traced:
                from layers import LayerTracer, install
                tracer = LayerTracer()
                undo = install(tracer)
            try:
                # the traced pass runs without the probe, so its bursts
                # land in no span
                probe = gate.SpeedProbe(enabled=not traced)
                raw, cpu, wall = timed_pass(suite, tracer, probe)
            finally:
                if traced:
                    undo()
            result = suite.finish(raw)
            del raw
            gc.collect()
            passes.append((result, cpu, wall, traced, probe.burst_ms))
            gate.log(f"pass {i + 1}{' (traced)' if traced else ''}: "
                     f"cpu {cpu:.3f} s, wall {wall:.3f} s, "
                     f"probe {probe.burst_ms:.4f} ms x{len(probe.bursts)}, "
                     f"{len(result.ops)} ops, {len(result.errors)} errors")
    finally:
        suite.close()

    if args.record:
        gate.record_expected(args.workload, seed, passes[0][0].ops)
    expected = gate.load_expected(args.workload, seed)
    attempted = failed = 0
    for result, *_ in passes:
        bad = set(gate.check(result.ops, expected)) | set(result.errors)
        attempted += len(result.ops)
        failed += len(bad)
        for name in sorted(bad)[:10]:
            gate.log(f"FAILED {name}")

    calib.append(gate.calibrate_ms())
    host = {"host.calib_ms": statistics.median(calib),
            "host.steal_frac": gate.steal_frac(ticks0, gate.cpu_ticks())}
    gate.log(f"host: calib {calib[0]:.1f}/{calib[1]:.1f} ms (start/end), "
             f"steal {host['host.steal_frac']:.1%}")
    gate.log(f"ops: {attempted} attempted, {failed} failed "
             f"(failed_frac {failed / max(1, attempted):.4f})")

    plain = [p for p in passes if not p[3]]
    cpu_s = statistics.median(p[1] for p in plain)
    cpu_ref_s = statistics.median(p[1] * REF_PROBE_MS / p[4] for p in plain)
    gate.log(f"cpu_s {cpu_s:.3f} (raw), cpu_ref_s {cpu_ref_s:.3f}")
    stats0 = plain[0][0].stats
    if stats0.get("sim_instrs"):
        gate.log(f"sim_minstr_per_s {stats0['sim_instrs'] / cpu_s / 1e6:.4f}")
    if stats0.get("read_ms"):
        reads = [ms for p in plain for ms in p[0].stats["read_ms"]]
        writes = [ms for p in plain for ms in p[0].stats["write_ms"]]
        gate.log(f"reads {len(reads)}: p50 {nearest_rank(reads, 50):.3f} ms, "
                 f"p90 {nearest_rank(reads, 90):.3f} ms; writes "
                 f"{len(writes)}: p90 {nearest_rank(writes, 90):.3f} ms")

    if args.trace:
        traced_result, traced_cpu = passes[1][0], passes[1][1]
        gate.log(stage_table(args.workload, tracer, traced_result.stats,
                             traced_cpu, cpu_s))
        values = layer_metrics(tracer, traced_cpu, cpu_s,
                               traced_result.stats, stats0)
        values.update(host)
        values["failed_frac"] = failed / max(1, attempted)
        metrics = declared("per_layer", values)
    else:
        setups = [setup_s] + child_setups(args, SETUP_REPEATS - 1)
        gate.log("setup_s samples " + " ".join(f"{s:.3f}" for s in setups))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = declared("end_to_end", {
            "setup_s": statistics.median(setups), "cpu_ref_s": cpu_ref_s,
            "peak_rss_mb": rss_mb})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
