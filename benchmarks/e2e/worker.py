"""Run one workload in this process and print its result as one JSON line.

Started by ``run.py`` as a fresh, single-threaded child per workload::

    python worker.py '{"workload": "p2p_warm", "seed": 0, "seconds": 8,
                       "trace": true, "spans_dir": null}'

Flow: set-up (cold calibration, context build, warm-up) several times,
keeping the last; an untraced timed pass (end-to-end metrics); with
``trace``, a traced pass over the same inputs on freshly set-up contexts
(per-layer metrics).  Every pass is checked for correctness, and the traced
pass must reproduce every simulated result and deterministic counter of the
untraced one bit for bit.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import process_time

import hostref
from hostref import REF_CPU_S
from layertrace import LAYERS, SpanTracer
from workloads import SYSTEM, WORKLOADS, block_edges, build_rig

from repro.bench.runner import clear_caches, get_setup
from repro.runtime.sanitizer import check_invariants

#: Set-up repetitions per run; setup_s is their median.
SETUP_REPEATS = 11

#: Model-error size buckets (the paper's <=6 % claim is above 4 MiB).
ERR_BUCKETS = (
    ("lt4m", 0, 4 << 20),
    ("4m_16m", 4 << 20, 16 << 20),
    ("16m_64m", 16 << 20, 64 << 20),
    ("ge64m", 64 << 20, math.inf),
)


def snapshot(rig) -> dict:
    """Every deterministic counter of the rig's layers, flattened.

    Host wall-clock values (graph compile time, the flight recorder's
    planning stage, which holds planner wall time) are left out: they are
    the only values allowed to differ between two runs of one input.
    """
    ctx = rig.ctx
    flight = ctx.flight.summary()
    flight["stages"].pop("planning", None)
    doc = {
        "engine": rig.engine.stats_snapshot(),
        "fabric": ctx.runtime.fabric.stats_snapshot(),
        "gpu": ctx.runtime.stats_snapshot(),
        "pipeline": ctx.pipeline.stats_snapshot(),
        "cuda_ipc": ctx.cuda_ipc.stats_snapshot(),
        "transfers": ctx.transfers.stats_snapshot(),
        "planner": {"cache": ctx.planner.cache.stats()},
        "health": ctx.health.snapshot(),
        "flight": flight,
        "mpi": rig.comm.stats_snapshot(),
    }
    flat: dict = {}

    def walk(prefix: str, value) -> None:
        if isinstance(value, dict):
            for k, v in value.items():
                walk(f"{prefix}.{k}", v)
        elif "wall" not in prefix:
            flat[prefix] = tuple(value) if isinstance(value, list) else value

    for key, value in doc.items():
        walk(key, value)
    return flat


def put_records(puts) -> list:
    """The simulated outcome of every put, in submission order."""
    out = []
    for at, ev in puts:
        if ev.ok:
            r = ev.value
            out.append((at, r.src, r.dst, r.nbytes, r.protocol, r.mode,
                        r.start, r.end, r.retries, r.rerouted_bytes))
        else:
            out.append((at, type(ev._exception).__name__))
    return out


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile (0.0 for no samples)."""
    if not values:
        return 0.0
    s = sorted(values)
    return s[max(1, math.ceil(q * len(s))) - 1]


def check_pass(wl, rig, before: dict, result) -> list[str]:
    """Correctness checks at quiescence; returns violations."""
    errors = []
    engine = rig.engine
    now, processed = engine.now, engine.events_processed
    engine.run()
    if engine.events_processed != processed or engine.now != now or engine.queued:
        errors.append("engine not drained after the pass")
    report = check_invariants(rig.ctx, raise_on_violation=False)
    errors.extend(report.violations)
    if rig.comm.unmatched != (0, 0):
        errors.append(f"unmatched MPI messages: {rig.comm.unmatched}")
    after = snapshot(rig)
    submitted = after["transfers.bytes.submitted"] - before["transfers.bytes.submitted"]
    delivered = after["transfers.bytes.delivered"] - before["transfers.bytes.delivered"]
    if wl.name != "faults_open_loop":
        # Closed loops: every byte asked for arrives.
        if delivered != submitted:
            errors.append(f"delivered {delivered} of {submitted} submitted bytes")
        if any(not ev.ok for _at, ev in result.puts):
            errors.append("a closed-loop put failed")
    return errors


def model_errors(wl, setup, puts) -> dict:
    """|T^ - T| / T per bucket over completed rendezvous puts with no
    retries; T^ from an idle context's planner, T the put's execution
    interval (its duration less the fixed request and handshake costs)."""
    idle = build_rig(setup, wl.config())
    cfg = idle.ctx.config
    fixed = cfg.request_overhead + cfg.rndv_overhead
    samples = {name: [] for name, _lo, _hi in ERR_BUCKETS}
    every = []
    for _at, ev in puts:
        if not ev.ok:
            continue
        r = ev.value
        if r.protocol != "rndv" or r.retries:
            continue
        observed = r.end - r.start - fixed
        predicted = idle.ctx.planner.predict_time(
            r.src, r.dst, r.nbytes,
            include_host=cfg.include_host,
            max_gpu_staged=cfg.max_gpu_staged,
            exclude=cfg.exclude_paths,
        )
        err = abs(predicted - observed) / observed * 100.0
        every.append(err)
        for name, lo, hi in ERR_BUCKETS:
            if lo <= r.nbytes < hi:
                samples[name].append(err)
    mean = lambda xs: sum(xs) / len(xs) if xs else 0.0  # noqa: E731
    out = {"model_err_pct": mean(every)}
    for name, xs in samples.items():
        out[f"core.err_pct.{name}"] = mean(xs)
    return out


def end_to_end(result, setup_times: list, setup_refs: list, rss_mb: float) -> dict:
    """Host metrics in reference-box CPU seconds (``hostref``): the CPU
    times of a block are scaled by ``REF_CPU_S`` over the mean reference
    piece timed through that block, and each set-up time by ``REF_CPU_S``
    over the mean of the pieces timed before and after it."""
    scales = [REF_CPU_S / r for r in result.block_ref]
    per_block = [
        p / (c * s)
        for p, c, s in zip(result.block_puts, result.block_cpu, scales)
        if c > 0
    ]
    op_cpu = [
        result.op_cpu[i] * s
        for (lo, hi), s in zip(block_edges(result.ops), scales)
        for i in range(lo, hi)
    ]
    setups = [
        t * 2 * REF_CPU_S / (before + after)
        for t, before, after in zip(setup_times, setup_refs, setup_refs[1:])
    ]
    return {
        "puts_per_s": statistics.median(per_block),
        "host_op_us_p50": statistics.median(op_cpu) * 1e6,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mb,
    }


def lost_puts(before: dict, after: dict) -> int:
    """Puts that did not deliver: shed, expired, rejected or failed."""
    return sum(
        after[f"transfers.{k}"] - before[f"transfers.{k}"]
        for k in ("shed", "expired", "rejected", "failed")
    )


def simulated(result, before: dict, after: dict) -> dict:
    delivered = after["transfers.bytes.delivered"] - before["transfers.bytes.delivered"]
    submitted = after["transfers.submitted"] - before["transfers.submitted"]
    lost = lost_puts(before, after)
    return {
        "sim_gbps": delivered / result.sim_time / 1e9 if result.sim_time else 0.0,
        "sim_op_us_p50": percentile(result.op_sim, 0.50) * 1e6,
        "sim_op_us_p99": percentile(result.op_sim, 0.99) * 1e6,
        "sim_op_samples": len(result.op_sim),
        "fail_frac": lost / submitted if submitted else 0.0,
    }


def per_layer(result, before, after, tracer, layer_self, untraced_cpu) -> dict:
    def d(key):
        return after[key] - before[key]

    def ratio(num, den):
        return num / den if den else 0.0

    puts = d("transfers.submitted")
    stages = lambda stage, q: after[f"flight.stages.{stage}.{q}"] * 1e6  # noqa: E731
    peak_concurrency = max(
        v for k, v in after.items()
        if k.startswith("fabric.channels.") and k.endswith(".max_concurrency")
    )
    total = result.wall
    shares = {f"{layer}.self_share": layer_self[layer] / total for layer in LAYERS[:-1]}
    shares["other.self_share"] = 1.0 - sum(shares.values())
    return {
        **shares,
        "sim.engine.events_per_put": ratio(d("engine.events_processed"), puts),
        "sim.engine.cancelled_per_put": ratio(d("engine.events_cancelled"), puts),
        "sim.engine.peak_queued": after["engine.peak_queued"],
        "sim.engine.host_us_per_event": ratio(
            layer_self["sim.engine"] * 1e6, d("engine.events_processed")
        ),
        "sim.fabric.copy_us": tracer.mean_incl_us("Fabric.copy"),
        "sim.fabric.solve_us": tracer.mean_incl_us("flush:Fabric._flush"),
        "sim.fabric.flows_per_put": ratio(d("fabric.flows_admitted"), puts),
        "sim.fabric.solves_per_put": ratio(d("fabric.rate_recomputes"), puts),
        "sim.fabric.fast_path_frac": ratio(
            d("fabric.solver_fast_admits"), d("fabric.flows_admitted")
        ),
        "sim.fabric.peak_channel_concurrency": peak_concurrency,
        "sim.fabric.flows_failed": d("fabric.flows_failed"),
        "core.plan_us": tracer.mean_incl_us("PathPlanner.plan"),
        "core.plan_cache_hit_rate": ratio(
            d("planner.cache.hits"), d("planner.cache.hits") + d("planner.cache.misses")
        ),
        "core.cold_plans_per_put": ratio(d("planner.cache.misses"), puts),
        "core.graph_hit_rate": ratio(
            d("transfers.graphs.hits"),
            d("transfers.graphs.hits") + d("transfers.graphs.misses"),
        ),
        "core.graph_compiles_per_put": ratio(d("transfers.graphs.compiles"), puts),
        "core.graph_compile_us": tracer.mean_incl_us("GraphCache.compile_and_store"),
        "core.quarantines": d("health.quarantines"),
        "ucx.execute_us": tracer.mean_incl_us(
            "PipelineEngine.execute", "PipelineEngine.execute_settled"
        ),
        "ucx.paths_per_put": ratio(d("pipeline.paths_executed"), puts),
        "ucx.chunks_per_put": ratio(d("pipeline.chunks_executed"), puts),
        "ucx.replay_frac": ratio(
            d("pipeline.transfers_replayed"), d("pipeline.transfers_executed")
        ),
        "ucx.retries_per_put": ratio(d("cuda_ipc.recovery.retries"), puts),
        "ucx.rerouted_frac": ratio(
            d("cuda_ipc.recovery.rerouted_bytes"), d("transfers.bytes.submitted")
        ),
        "ucx.paths_failed": d("pipeline.paths_failed"),
        "ucx.execution_us_p50": stages("execution", "p50"),
        "ucx.execution_us_p99": stages("execution", "p99"),
        "ucx.recovery_us_p50": stages("recovery", "p50"),
        "ucx.recovery_us_p99": stages("recovery", "p99"),
        "runtime.submit_us": tracer.mean_incl_us("TransferManager.submit"),
        "runtime.queued_frac": ratio(d("transfers.dispatched_queued"), puts),
        "runtime.queue_wait_us_p50": stages("queue_wait", "p50"),
        "runtime.queue_wait_us_p99": stages("queue_wait", "p99"),
        "runtime.peak_queue_depth": after["transfers.peak_queue_depth"],
        "runtime.shed_frac": ratio(d("transfers.shed"), puts),
        "runtime.expired_frac": ratio(d("transfers.expired"), puts),
        "runtime.rejected_frac": ratio(d("transfers.rejected"), puts),
        "runtime.peak_channel_flows": after["transfers.load.peak_channel_flows"],
        "runtime.retry_budget_consumed": after["transfers.retry_budget.consumed"],
        "gpu.copies_per_put": ratio(d("gpu.copies_issued"), puts),
        "gpu.streams_created": after["gpu.streams_created"],
        "gpu.ipc_hit_rate": ratio(
            d("gpu.ipc_cache.hits"), d("gpu.ipc_cache.hits") + d("gpu.ipc_cache.misses")
        ),
        "obs.spans_per_put": ratio(d("flight.spans_recorded"), puts),
        "obs.dropped": after["flight.dropped"],
        "mpi.messages_per_op": ratio(d("mpi.messages_matched"), result.ops),
        "mpi.local_copies_per_op": ratio(d("mpi.local_copies"), result.ops),
        "trace_overhead": result.cpu / untraced_cpu - 1.0,
    }


def fresh_setup():
    """Cold calibration: the in-process memo is dropped first."""
    clear_caches()
    return get_setup(SYSTEM)


def run(spec: dict) -> dict:
    wl = WORKLOADS[spec["workload"]]
    inputs = wl.inputs(spec["seed"], wl.n_ops(spec["seconds"]))
    errors: list[str] = []

    setup_times, setup_refs = [], []
    for _ in range(SETUP_REPEATS):
        rig = None
        gc.collect()
        setup_refs.append(hostref.kernel())
        t0 = process_time()
        setup = fresh_setup()
        rig = wl.build(setup, inputs)
        wl.warmup(rig, inputs)
        setup_times.append(process_time() - t0)
    setup_refs.append(hostref.kernel())
    gc.collect()
    before = snapshot(rig)
    untraced = wl.run_pass(rig, inputs, ref=hostref.kernel)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    errors += check_pass(wl, rig, before, untraced)
    after = snapshot(rig)
    sim = simulated(untraced, before, after)
    out = {
        "workload": wl.name,
        "attempted": len(untraced.puts),
        "failed": lost_puts(before, after),
        "ops": untraced.ops,
        "end_to_end": end_to_end(untraced, setup_times, setup_refs, rss_mb),
        "simulated": sim,
        # Raw host measurements behind the scaled end-to-end metrics.
        "host": {
            "setup_cpu_s": setup_times,
            "setup_ref_s": setup_refs,
            "block_cpu_s": untraced.block_cpu,
            "block_ref_s": untraced.block_ref,
            "block_puts": untraced.block_puts,
            "op_cpu_us_p50": statistics.median(untraced.op_cpu) * 1e6,
        },
    }
    if spec["trace"]:
        out["per_layer"] = {**sim, **model_errors(wl, setup, untraced.puts)}
        reference_puts, reference_counters = put_records(untraced.puts), after
        untraced_cpu = untraced.cpu
        del rig, untraced
        gc.collect()
        tracer = SpanTracer()
        setup = fresh_setup()
        rig = wl.build(setup, inputs, tracer)
        wl.warmup(rig, inputs)
        tracer.reset()
        gc.collect()
        before = snapshot(rig)
        traced = wl.run_pass(rig, inputs, tracer)
        layer_self = tracer.layer_self_s()
        t_start = tracer.start[0] if len(tracer) else 0.0
        after_traced = snapshot(rig)
        errors += check_pass(wl, rig, before, traced)
        after = snapshot(rig)
        if put_records(traced.puts) != reference_puts:
            errors.append("traced pass changed a simulated put outcome")
        changed = sorted(
            k for k in set(after) | set(reference_counters)
            if after.get(k) != reference_counters.get(k)
        )
        if changed:
            errors.append(f"traced pass changed counters: {', '.join(changed[:8])}")
        out["per_layer"].update(
            per_layer(traced, before, after_traced, tracer, layer_self, untraced_cpu)
        )
        out["spans"] = len(tracer)
        if spec.get("spans_dir"):
            path = Path(spec["spans_dir"]) / f"{wl.name}.spans.jsonl"
            tracer.write_jsonl(path, t_start)
            out["spans_file"] = str(path)
    out["errors"] = errors
    out["correct"] = not errors
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: worker.py SPEC_JSON", file=sys.stderr)
        return 2
    out = run(json.loads(argv[0]))
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
