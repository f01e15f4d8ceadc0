"""Performance regression suite for the simulator core.

Times the three hot layers this repo's results depend on and writes a
machine-readable ``BENCH_sim.json``:

* **engine_core** — raw event-loop throughput with no solver attached:
  timeout chains, generator-process ping-pong, and cancellation churn
  against the event heap.  This is the series the ≥100k events/s
  roadmap target is measured on.
* **solver** — a synthetic fluid-solver workload (contended waves over
  shared channels + disjoint back-to-back chains) run through
  :class:`~repro.sim.fabric.Fabric` twice: with the incremental solver and
  with the ``full_recompute=True`` debug path.  Reports events/sec, rate
  recomputes, fast-path counters, and the incremental-vs-full speedup.
* **fig5** — one reduced FIG5 sweep cold (empty calibration memo, serial)
  and once warm + parallel, measuring the end-to-end wall-clock win of the
  calibration cache and the ``--jobs`` fan-out.
* **planner** — cached Algorithm-1 lookups/sec (the per-put runtime cost)
  plus the cold (cache-miss) plans/sec sub-series.
* **graph_replay** — warm compiled-graph replay vs cold per-transfer setup
  (plan + pipeline construction); the ≥5x floor is gated in
  ``benchmarks/test_sim_throughput.py``.
* **fault_recovery** — the CHAOS headline: simulated recovery time of a
  mid-transfer LinkDown vs the fault-free run and vs restarting the whole
  transfer over the surviving paths.
* **overload** — the OVERLOAD headline: 4x offered load plus a mid-run
  LinkDown against a bounded admission queue with deadlines and retry
  budgets.  The committed series (goodput fraction, exact shed fraction,
  admitted-p99 headroom against the scenario bound) is simulated-time and
  deterministic.
* **tracing_overhead** — the flight recorder's on-by-default tax: the
  median of paired recorder-on/recorder-off latency ratios over adjacent
  identical mixed-size transfer blocks.  The <3 % budget is gated in
  ``benchmarks/test_sim_throughput.py``.

Usage::

    python -m repro.bench.perfsuite --quick -o BENCH_sim.json
    python -m repro.bench.perfsuite --quick --baseline benchmarks/results/perf_baseline.json

With ``--baseline`` the suite exits non-zero if solver microbench
throughput regressed by more than ``--max-regress`` (default 30 %) against
the committed baseline — this is the CI perf-smoke gate.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.sim.engine import Engine
from repro.sim.fabric import Fabric
from repro.units import MiB

PERF_SUITE_VERSION = 5

#: Series compared against the baseline by :func:`check_regression`:
#: (json path, human label).  All are "higher is better" throughputs.
GATED_SERIES = (
    (("engine_core", "events_per_sec"), "engine core event throughput"),
    (("solver", "events_per_sec"), "solver microbench throughput"),
    (("solver", "speedup_vs_full_recompute"), "incremental solver speedup"),
    (("planner", "cached_lookups_per_sec"), "cached planner lookups"),
    (("planner", "cold_plans_per_sec"), "cold (cache-miss) planner plans"),
    (("graph_replay", "warm_replays_per_sec"), "warm graph replays"),
    (("graph_replay", "speedup_replay_vs_cold"), "graph replay setup speedup"),
    (("overload", "goodput_fraction"), "overload goodput fraction"),
    (("overload", "p99_headroom"), "overload admitted-p99 headroom"),
)


# ----------------------------------------------------------------------
# Engine-core microbenchmark (no fabric attached)
# ----------------------------------------------------------------------

def _engine_workload(
    *, chains: int, chain_length: int, procs: int, hops: int, churn: int
) -> dict:
    """Pure event-loop churn: measures the event heap with no solver cost.

    Three concurrent stressors cover the engine's distinct hot paths:

    * *timeout chains* — ``chains`` callback chains each rescheduling
      ``chain_length`` times (the ``schedule_fn``/callback fast path);
    * *process ping-pong* — ``procs`` generator processes yielding
      ``hops`` timeouts each (the Process/Event facade path);
    * *cancellation churn* — ``churn`` events scheduled far in the
      future and cancelled immediately (tombstoning + compaction).
    """
    eng = Engine()

    def rechain(remaining: int, step: float) -> None:
        if remaining > 0:
            eng.call_at(eng.now + step).add_callback(
                lambda _ev: rechain(remaining - 1, step)
            )

    for c in range(chains):
        rechain(chain_length, 1e-6 * (1 + c % 7))

    def ping(n: int, delay: float):
        for _ in range(n):
            yield eng.timeout(delay)

    for p in range(procs):
        eng.process(ping(hops, 1.3e-6 * (1 + p % 5)))

    for i in range(churn):
        eng.cancel(eng.call_at(1.0 + i * 1e-6))

    t_start = time.perf_counter()
    eng.run()
    wall = time.perf_counter() - t_start
    snap = eng.stats_snapshot()
    return {
        "wall_s": wall,
        "events_processed": snap["events_processed"],
        "events_per_sec": snap["events_processed"] / wall if wall > 0 else 0.0,
        "events_cancelled": snap["events_cancelled"],
        "heap_compactions": snap["heap_compactions"],
        "peak_queued": snap["peak_queued"],
    }


def bench_engine_core(*, quick: bool = False, repeats: int = 3) -> dict:
    """Best-of-``repeats`` raw engine throughput (ROADMAP item 2 gate)."""
    kw = dict(
        chains=8 if quick else 16,
        chain_length=2_000 if quick else 5_000,
        procs=50 if quick else 100,
        hops=200 if quick else 500,
        churn=2_000 if quick else 10_000,
    )
    best = min(
        (_engine_workload(**kw) for _ in range(max(1, repeats))),
        key=lambda r: r["wall_s"],
    )
    best["workload"] = kw
    return best


# ----------------------------------------------------------------------
# Solver microbenchmark
# ----------------------------------------------------------------------

def _solver_workload(
    *,
    waves: int,
    flows_per_wave: int,
    shared_channels: int,
    chain_channels: int,
    chain_length: int,
    full_recompute: bool,
) -> dict:
    """Run one synthetic solver workload to completion; return stats.

    Two phases run concurrently, mirroring what the benchmarks actually
    stress: staggered waves of flows contending on a few shared channels
    (windowed OSU loops), and per-channel back-to-back chains whose flows
    never share a channel (pipelined chunk trains — the incremental
    solver's fast path).
    """
    eng = Engine()
    fabric = Fabric(eng, full_recompute=full_recompute)
    for i in range(shared_channels):
        fabric.add_channel(f"sh{i}", alpha=1e-6, beta=10e9 + i * 1e8)
    for i in range(chain_channels):
        fabric.add_channel(f"pv{i}", alpha=5e-7, beta=20e9 + i * 1e8)

    for w in range(waves):
        t0 = w * 2e-3
        for f in range(flows_per_wave):
            a = f % shared_channels
            b = (f * 7 + w) % shared_channels
            names = (f"sh{a}",) if a == b else (f"sh{a}", f"sh{b}")
            nbytes = (1 + (f % 5)) * MiB
            eng.call_at(t0 + (f % 17) * 1e-6).add_callback(
                lambda _ev, names=names, nbytes=nbytes: fabric.copy(names, nbytes)
            )

    def chain(name: str, remaining: int) -> None:
        if remaining <= 0:
            return
        fabric.copy(name, 4 * MiB).add_callback(
            lambda _ev: chain(name, remaining - 1)
        )

    for i in range(chain_channels):
        chain(f"pv{i}", chain_length)

    t_start = time.perf_counter()
    eng.run()
    wall = time.perf_counter() - t_start
    snap = eng.stats_snapshot()
    return {
        "wall_s": wall,
        "events_processed": snap["events_processed"],
        "events_per_sec": snap["events_processed"] / wall if wall > 0 else 0.0,
        "events_cancelled": snap["events_cancelled"],
        "heap_compactions": snap["heap_compactions"],
        "peak_queued": snap["peak_queued"],
        "rate_recomputes": fabric.rate_recomputes,
        "solver_fast_admits": fabric.solver_fast_admits,
        "solver_fast_finishes": fabric.solver_fast_finishes,
        "flows_completed": fabric.flows_completed,
    }


def bench_solver(*, quick: bool = False, repeats: int = 3) -> dict:
    """Incremental vs full-recompute solver on the synthetic workload."""
    kw = dict(
        waves=3 if quick else 6,
        flows_per_wave=30 if quick else 60,
        shared_channels=8,
        chain_channels=4 if quick else 8,
        chain_length=50 if quick else 200,
    )
    incr = min(
        (_solver_workload(full_recompute=False, **kw) for _ in range(repeats)),
        key=lambda r: r["wall_s"],
    )
    full = min(
        (_solver_workload(full_recompute=True, **kw) for _ in range(repeats)),
        key=lambda r: r["wall_s"],
    )
    incr["workload"] = kw
    incr["full_recompute_wall_s"] = full["wall_s"]
    incr["full_recompute_rate_recomputes"] = full["rate_recomputes"]
    incr["speedup_vs_full_recompute"] = (
        full["wall_s"] / incr["wall_s"] if incr["wall_s"] > 0 else 0.0
    )
    return incr


# ----------------------------------------------------------------------
# FIG5 sweep: calibration cache + parallel fan-out
# ----------------------------------------------------------------------

def bench_fig5(*, quick: bool = True, jobs: int | None = None, repeats: int = 2) -> dict:
    """Pre-PR-configuration vs optimized wall clock for a FIG5 sweep.

    Baseline reproduces how the sweep ran before the fast-core work:
    full-recompute solver, cold calibration, serial execution.  The
    optimized run uses the incremental solver, a warm calibration cache,
    and fans points across ``jobs`` workers.  Both produce byte-identical
    tables (asserted); the speedup on a single-core machine comes from the
    solver + cache alone, so ``cpu_count`` is recorded alongside.  Each
    side is timed ``repeats`` times and the best wall clock kept.
    """
    import os

    import repro.sim.fabric as fabric_mod
    from repro.bench.experiments import run_fig5
    from repro.bench.parallel import default_jobs
    from repro.bench.runner import clear_caches, get_setup

    kw = dict(
        systems=("beluga", "narval"),
        sizes=[4 * MiB, 16 * MiB, 64 * MiB] if quick
        else [2 * MiB, 8 * MiB, 32 * MiB, 128 * MiB, 512 * MiB],
        windows=(1, 16),
        iterations=2,
        warmup=1,
        grid_steps=4 if quick else 6,
        chunk_menu=(1, 8) if quick else (1, 4, 16),
    )
    jobs = jobs if jobs is not None else default_jobs()

    baseline_wall = optimized_wall = float("inf")
    baseline_cpu = optimized_cpu = float("inf")
    baseline = optimized = None
    saved = fabric_mod.FULL_RECOMPUTE_DEFAULT
    for _ in range(max(1, repeats)):
        fabric_mod.FULL_RECOMPUTE_DEFAULT = True
        try:
            clear_caches()  # baseline pays calibration every run
            t0, c0 = time.perf_counter(), time.process_time()
            baseline = run_fig5(**kw)
            baseline_wall = min(baseline_wall, time.perf_counter() - t0)
            baseline_cpu = min(baseline_cpu, time.process_time() - c0)
        finally:
            fabric_mod.FULL_RECOMPUTE_DEFAULT = saved

        clear_caches()
        for system in kw["systems"]:
            get_setup(system)  # warm calibration (what --cal-cache provides)
        t0, c0 = time.perf_counter(), time.process_time()
        optimized = run_fig5(**kw, jobs=jobs)
        optimized_wall = min(optimized_wall, time.perf_counter() - t0)
        optimized_cpu = min(optimized_cpu, time.process_time() - c0)

    assert baseline.render() == optimized.render(), "fast path changed results"
    return {
        "rows": len(baseline.rows),
        "jobs": jobs,
        "cpu_count": os.cpu_count() or 1,
        "baseline_wall_s": baseline_wall,
        "optimized_wall_s": optimized_wall,
        "speedup": baseline_wall / optimized_wall if optimized_wall > 0 else 0.0,
        # parent-process CPU time: excludes scheduler noise (and, with
        # jobs>1, the workers), so it is the stable serial-win metric
        "baseline_cpu_s": baseline_cpu,
        "optimized_cpu_s": optimized_cpu,
        "cpu_speedup": (
            baseline_cpu / optimized_cpu if optimized_cpu > 0 else 0.0
        ),
    }


# ----------------------------------------------------------------------
# Planner overhead
# ----------------------------------------------------------------------

def bench_planner(*, quick: bool = False, repeats: int = 3) -> dict:
    """Cached Algorithm-1 lookups per second (the per-put runtime cost).

    Best-of-``repeats`` over a batch large enough (~0.1 s) that the
    throughput is stable enough to gate on.
    """
    from repro.bench.runner import get_setup
    from repro.core.planner import PathPlanner

    setup = get_setup("beluga")
    planner = PathPlanner(setup.topology, setup.store)
    plan = planner.plan(0, 1, 64 * MiB)
    lookups = 20_000 if quick else 50_000
    wall = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        for _ in range(lookups):
            plan = planner.plan(0, 1, 64 * MiB)
        wall = min(wall, time.perf_counter() - t0)
    assert plan.from_cache
    # Cache-miss sub-series: the full Algorithm-1 pass per plan.  This is
    # the cost a graph/plan-cache miss actually pays, and the denominator
    # of the cache's value proposition.
    cold_plans = 200 if quick else 500
    cold_wall = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        for _ in range(cold_plans):
            cold = planner.plan(0, 1, 64 * MiB, use_cache=False)
        cold_wall = min(cold_wall, time.perf_counter() - t0)
    assert not cold.from_cache
    return {
        "lookups": lookups,
        "wall_s": wall,
        "cached_lookups_per_sec": lookups / wall if wall > 0 else 0.0,
        "overhead_vs_64mib_transfer": (wall / lookups) / plan.predicted_time,
        "cold_plans": cold_plans,
        "cold_wall_s": cold_wall,
        "cold_plans_per_sec": cold_plans / cold_wall if cold_wall > 0 else 0.0,
        "cache_speedup": (
            (cold_wall / cold_plans) / (wall / lookups) if wall > 0 else 0.0
        ),
    }


# ----------------------------------------------------------------------
# Compiled transfer-graph replay
# ----------------------------------------------------------------------

def bench_graph_replay(*, quick: bool = False, repeats: int = 3) -> dict:
    """Warm graph replay vs cold per-transfer setup (DESIGN.md §5g).

    Both arms measure *setup only* — what happens between ``put`` and the
    first byte moving, execution excluded — over the same repeated
    mixed-size stream:

    * **cold** — what every transfer paid before compiled graphs: a
      planner pass (warm *plan* cache, i.e. the cold arm still benefits
      from the pre-existing cache) plus per-transfer pipeline setup
      (chunk schedule, stream binding, tag construction — what
      :func:`~repro.core.transfer_graph.compile_plan` captures).
    * **warm** — a graph-cache key build plus an LRU hit returning the
      pre-resolved :class:`~repro.core.transfer_graph.TransferGraph`.

    The ≥5x ``speedup_replay_vs_cold`` floor is gated in
    ``benchmarks/test_sim_throughput.py``.
    """
    from repro.bench.runner import get_setup
    from repro.core.transfer_graph import GraphCache, compile_plan
    from repro.ucx import TransportConfig, UCXContext

    setup = get_setup("beluga")
    ctx = UCXContext(Engine(), setup.topology, config=TransportConfig(),
                     store=setup.store)
    planner, pipeline = ctx.planner, ctx.pipeline
    sizes = (8 * MiB, 64 * MiB, 2 * MiB, 16 * MiB)
    ops = 2_000 if quick else 5_000
    cache = GraphCache()
    # warm both caches: one plan + one compiled graph per distinct size
    for nbytes in sizes:
        plan = planner.plan(0, 1, nbytes)
        key = cache.key_for(0, 1, nbytes, "dynamic")
        cache.compile_and_store(key, plan, pipeline)

    cold_wall = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        for i in range(ops):
            plan = planner.plan(0, 1, sizes[i % len(sizes)])
            compile_plan(plan, pipeline)
        cold_wall = min(cold_wall, time.perf_counter() - t0)

    warm_wall = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        for i in range(ops):
            key = cache.key_for(0, 1, sizes[i % len(sizes)], "dynamic")
            graph = cache.get(key)
        warm_wall = min(warm_wall, time.perf_counter() - t0)
    assert graph is not None, "warm arm must hit the graph cache"

    return {
        "ops": ops,
        "sizes": list(sizes),
        "cold_wall_s": cold_wall,
        "warm_wall_s": warm_wall,
        "cold_setups_per_sec": ops / cold_wall if cold_wall > 0 else 0.0,
        "warm_replays_per_sec": ops / warm_wall if warm_wall > 0 else 0.0,
        "speedup_replay_vs_cold": (
            cold_wall / warm_wall if warm_wall > 0 else 0.0
        ),
        "cache": cache.stats(),
    }


# ----------------------------------------------------------------------
# Suite driver
# ----------------------------------------------------------------------

def bench_fault_recovery(*, quick: bool = False) -> dict:
    """CHAOS series: mid-transfer LinkDown recovery vs restart-from-scratch.

    All headline numbers are *simulated* seconds (deterministic, so the
    committed series is reproducible bit-for-bit); only ``wall_s`` times
    the harness itself.  ``restart_reference_s`` models the naive
    alternative to partial-replan recovery: the sunk half of the fault-free
    transfer plus the whole message re-sent over the surviving paths.
    """
    from repro.bench.baselines import dynamic_config
    from repro.bench.experiments.chaos import run_chaos
    from repro.bench.runner import get_setup

    nbytes = (64 if quick else 256) * MiB
    t0 = time.perf_counter()
    r = run_chaos("beluga", scenario="linkdown", nbytes=nbytes)
    setup = get_setup("beluga")
    env = setup.env(dynamic_config().with_(exclude_paths=("direct",)))
    engine, ctx, _comm = env.fresh()
    survivors_only = engine.run(until=ctx.put(0, 1, nbytes, tag="restart"))
    restart = 0.5 * r.fault_free.duration + survivors_only.duration
    return {
        "nbytes": nbytes,
        "channel": r.channel,
        "fault_free_s": r.fault_free.duration,
        "recovered_s": r.chaotic.duration,
        "restart_reference_s": restart,
        "overhead_ratio": r.overhead_ratio,
        "recovery_vs_restart": r.chaotic.duration / restart,
        "retries": r.chaotic.retries,
        "rerouted_bytes": r.chaotic.rerouted_bytes,
        "delivered_ok": r.delivered_bytes == r.nbytes,
        "wall_s": time.perf_counter() - t0,
    }


def bench_overload(*, quick: bool = False) -> dict:
    """OVERLOAD series: 4x load + mid-run LinkDown against the SLO layer.

    Every headline number except ``wall_s`` is simulated and deterministic
    (the scenario derives all timing from the measured fault-free T₀ and a
    fixed seed), so the committed series reproduces bit-for-bit.  Both
    gated series are higher-is-better: ``goodput_fraction`` (delivered /
    offered under 4x load) and ``p99_headroom`` (scenario latency bound
    over the achieved admitted p99 — >= 1 means the bound held).
    """
    from repro.bench.experiments.overload import run_overload

    t0 = time.perf_counter()
    r = run_overload(
        nbytes=(4 if quick else 8) * MiB, n=24 if quick else 48
    )
    return {
        "nbytes": r.nbytes,
        "n_offered": r.n_offered,
        "load_factor": r.load_factor,
        "t0_s": r.t0,
        "channel": r.channel,
        "completed": r.completed,
        "shed": r.shed,
        "expired": r.expired,
        "rejected": r.rejected,
        "goodput_fraction": r.goodput_fraction,
        "shed_fraction": r.shed_fraction,
        "admitted_p50_s": r.admitted_p50,
        "admitted_p99_s": r.admitted_p99,
        "p99_bound_s": r.p99_bound,
        "p99_headroom": (
            r.p99_bound / r.admitted_p99 if r.admitted_p99 > 0 else 0.0
        ),
        "peak_queue_depth": r.peak_queue_depth,
        "queue_limit": r.queue_limit,
        "retry_budget_consumed": r.retry_budget.get("consumed", 0),
        "governor_transitions": r.overload.get("transitions", 0),
        "sanitizer_ok": r.conserved,
        "wall_s": time.perf_counter() - t0,
    }


def _tracing_ratio_samples(pairs_n: int, warmup: int) -> tuple[list[float], int, int]:
    """Paired per-block overhead ratios from one environment.

    Each sample runs the *same* block of transfers (one per (gpu pair,
    size) combination) twice back to back — once with the recorder off,
    once on, order alternating — and contributes ``t_on / t_off - 1``.
    Pairing adjacent identical blocks is what makes the estimator robust
    on shared/noisy runners: CPU-frequency and scheduler drift over a
    few-ms block is negligible, so it cancels in the ratio, while the
    alternating order cancels warm-cache bias; timing a whole block
    (rather than a single put) averages the timer jitter inside each arm
    before the ratio is taken.  The size mix spans small (fixed span cost
    dominates) through multi-chunk transfers (amortised cost), touching
    every span kind the hot path emits.  GC is parked over the sampled
    region so collection pauses don't land in one arm.
    """
    import gc

    from repro.bench.baselines import dynamic_config
    from repro.bench.runner import get_setup

    setup = get_setup("beluga")
    env = setup.env(dynamic_config())
    engine, ctx, _comm = env.fresh()
    flight = ctx.flight
    workload = tuple(zip(
        ((0, 1), (2, 3), (1, 2), (0, 3)),
        (MiB, 16 * MiB, 4 * MiB, 64 * MiB),
    ))
    clock = time.perf_counter_ns
    seq = 0
    puts_per_block = len(workload)

    def block(on: bool) -> int:
        nonlocal seq
        flight.enabled = on
        t0 = clock()
        for (src, dst), nbytes in workload:
            engine.run(until=ctx.put(src, dst, nbytes, tag=f"o{seq}"))
            seq += 1
        return clock() - t0

    for _ in range(warmup):
        block(True)
        block(False)
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    ratios = []
    try:
        for k in range(pairs_n):
            if k % 2 == 0:
                off = block(False)
                on = block(True)
            else:
                on = block(True)
                off = block(False)
            ratios.append(on / off - 1.0)
    finally:
        if gc_was_enabled:
            gc.enable()
    return ratios, flight.spans_recorded, (pairs_n + warmup) * puts_per_block


def bench_tracing_overhead(*, quick: bool = False, repeats: int = 3) -> dict:
    """Flight-recorder overhead: recorder-on vs recorder-off put latency.

    ``overhead`` is the median of paired on/off block ratios pooled
    across ``repeats`` fresh environments (see
    :func:`_tracing_ratio_samples` for why pairing adjacent identical
    blocks is the noise-robust design).  The acceptance budget for the
    on-by-default recorder is <3 %.
    """
    pairs_n = 60 if quick else 100
    warmup = 5 if quick else 12
    pooled: list[float] = []
    spans = traced_puts = 0
    for _ in range(max(1, repeats)):
        ratios, recorded, n = _tracing_ratio_samples(pairs_n, warmup)
        pooled.extend(ratios)
        spans += recorded
        traced_puts += n  # every traced put of this env (on arm)
    pooled.sort()
    overhead = pooled[len(pooled) // 2]
    return {
        "paired_blocks": len(pooled),
        "repeats": repeats,
        "overhead": overhead,
        "p90_ratio": pooled[int(0.9 * (len(pooled) - 1))],
        "spans_recorded": spans,
        "spans_per_put": spans / traced_puts if traced_puts else 0.0,
    }


def run_suite(*, quick: bool = False, jobs: int | None = None) -> dict:
    return {
        "version": PERF_SUITE_VERSION,
        "quick": quick,
        "engine_core": bench_engine_core(quick=quick),
        "solver": bench_solver(quick=quick),
        "fig5": bench_fig5(quick=quick, jobs=jobs),
        "planner": bench_planner(quick=quick),
        "graph_replay": bench_graph_replay(quick=quick),
        "fault_recovery": bench_fault_recovery(quick=quick),
        "overload": bench_overload(quick=quick),
        "tracing_overhead": bench_tracing_overhead(quick=quick),
    }


def _lookup(doc: dict, path: tuple[str, ...]):
    for key in path:
        doc = doc[key]
    return doc


def check_regression(
    current: dict, baseline: dict, *, max_regress: float = 0.30
) -> list[str]:
    """Compare gated throughput series; return failure messages (empty=pass).

    Raises :class:`ValueError` when the two documents come from
    different-sized workloads (``--quick`` vs full): their absolute
    throughputs are not comparable.
    """
    if current.get("quick") != baseline.get("quick"):
        raise ValueError(
            "cannot gate: current and baseline used different workload "
            f"sizes (quick={current.get('quick')} vs {baseline.get('quick')})"
        )
    failures = []
    for path, label in GATED_SERIES:
        try:
            base = float(_lookup(baseline, path))
        except (KeyError, TypeError):
            continue  # series absent from an older baseline: not gated
        cur = float(_lookup(current, path))
        if base > 0 and cur < base * (1.0 - max_regress):
            failures.append(
                f"{label}: {cur:,.0f}/s is {1 - cur / base:.0%} below "
                f"baseline {base:,.0f}/s (limit {max_regress:.0%})"
            )
    return failures


def write_profile(stem: Path) -> list[Path]:
    """Profile the quick hot-path workloads; write flamegraph inputs.

    Produces ``<stem>.prof`` (binary ``pstats`` dump — render a flamegraph
    with ``flameprof``/``snakeviz``, or ``py-spy`` live on a dev box) and
    ``<stem>.txt`` (top functions by cumulative time, reviewable straight
    from the CI artifact without any tooling).
    """
    import cProfile
    import io
    import pstats

    stem.parent.mkdir(parents=True, exist_ok=True)
    profile = cProfile.Profile()
    profile.enable()
    _engine_workload(chains=8, chain_length=2_000, procs=50, hops=200, churn=2_000)
    _solver_workload(
        full_recompute=False, waves=3, flows_per_wave=30,
        shared_channels=8, chain_channels=4, chain_length=50,
    )
    profile.disable()
    prof_path = stem.with_suffix(".prof")
    profile.dump_stats(prof_path)
    buf = io.StringIO()
    stats = pstats.Stats(profile, stream=buf)
    stats.sort_stats("cumulative").print_stats(40)
    stats.sort_stats("tottime").print_stats(20)
    txt_path = stem.with_suffix(".txt")
    txt_path.write_text(buf.getvalue())
    return [prof_path, txt_path]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-perfsuite", description="Simulator-core perf regression suite"
    )
    parser.add_argument("--quick", action="store_true", help="CI-sized workloads")
    parser.add_argument("-j", "--jobs", type=int, default=None)
    parser.add_argument("-o", "--output", default="BENCH_sim.json")
    parser.add_argument(
        "--baseline", help="committed baseline JSON to gate against"
    )
    parser.add_argument(
        "--max-regress",
        type=float,
        default=0.30,
        help="max tolerated fractional throughput regression (default 0.30)",
    )
    parser.add_argument(
        "--profile",
        metavar="STEM",
        help="also cProfile the quick hot-path workloads and write "
        "STEM.prof (flamegraph input) + STEM.txt (top functions)",
    )
    args = parser.parse_args(argv)

    doc = run_suite(quick=args.quick, jobs=args.jobs)
    text = json.dumps(doc, indent=2, sort_keys=True)
    Path(args.output).write_text(text + "\n")
    print(text)
    print(f"wrote {args.output}", file=sys.stderr)

    if args.profile:
        for path in write_profile(Path(args.profile)):
            print(f"wrote {path}", file=sys.stderr)

    if args.baseline:
        baseline = json.loads(Path(args.baseline).read_text())
        try:
            failures = check_regression(
                doc, baseline, max_regress=args.max_regress
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for failure in failures:
            print(f"PERF REGRESSION: {failure}", file=sys.stderr)
        if failures:
            return 1
        print(f"perf gate passed vs {args.baseline}", file=sys.stderr)
    return 0


__all__ = [
    "PERF_SUITE_VERSION",
    "GATED_SERIES",
    "bench_engine_core",
    "bench_solver",
    "bench_fig5",
    "bench_planner",
    "bench_graph_replay",
    "bench_fault_recovery",
    "bench_overload",
    "bench_tracing_overhead",
    "run_suite",
    "check_regression",
    "write_profile",
    "main",
]


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
