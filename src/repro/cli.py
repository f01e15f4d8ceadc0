"""Command-line experiment driver.

Usage::

    python -m repro.cli fig4                 # theta distribution table
    python -m repro.cli fig5 --quick         # unidirectional BW grid
    python -m repro.cli fig6 --system beluga
    python -m repro.cli fig7
    python -m repro.cli conc                 # concurrent-pairs experiment
    python -m repro.cli errors               # TAB-ERR aggregation
    python -m repro.cli observations         # OBS1-5 checks
    python -m repro.cli calibrate --system narval
    python -m repro.cli all --quick -o EXPERIMENTS.md
    python -m repro.cli stats --size 64M     # metrics snapshot of one BW run
    python -m repro.cli trace -o trace.json  # Chrome-trace timeline export
    python -m repro.cli drift                # closed- vs open-loop recovery
    python -m repro.cli critical-path        # per-transfer bottleneck report
    python -m repro.cli chaos                # fault injection recovery report
    python -m repro.cli contention           # contention-aware planning report
    python -m repro.cli overload             # 4x load + fault: shedding/deadlines
    python -m repro.cli slowest              # slowest traced transfers (chaos run)
    python -m repro.cli timeline 1           # one trace's causal span tree
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.bench import report
from repro.bench.experiments import (
    check_observations,
    headline_speedups,
    prediction_error_table,
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig7,
)
from repro.bench.baselines import dynamic_config
from repro.bench.experiments.concurrent_pairs import run_concurrent_pairs
from repro.bench.experiments.chaos import (
    SCENARIOS,
    run_chaos,
    run_traced_scenario,
)
from repro.bench.experiments.contention import (
    CONTENTION_PATTERNS,
    measure_contention,
    run_contention,
)
from repro.bench.experiments.drift_recovery import run_drift_recovery
from repro.bench.experiments.overload import SHED_POLICIES, run_overload
from repro.bench.omb import osu_bw
from repro.bench.parallel import default_jobs
from repro.bench.runner import (
    default_sizes,
    dump_artifacts,
    get_setup,
    quick_sizes,
    set_cal_cache_dir,
)
from repro.obs import CriticalPathAnalyzer, TraceTree, chrome_trace
from repro.obs.report import (
    chaos_report,
    critical_path_report,
    drift_report,
    slowest_report,
    timeline_report,
    tracing_stats_report,
)
from repro.units import MiB, parse_size


def _systems(args) -> tuple[str, ...]:
    return tuple(args.system) if args.system else ("beluga", "narval")


def _sizes(args):
    return quick_sizes() if args.quick else default_sizes()


def _grid(args):
    return dict(
        grid_steps=4 if args.quick else 6,
        chunk_menu=(1, 8) if args.quick else (1, 4, 16),
        iterations=2 if args.quick else 3,
        jobs=args.jobs,
    )


def cmd_calibrate(args):
    for system in _systems(args):
        setup = get_setup(system)
        print(f"# calibrated parameters: {system}")
        print(setup.store.to_json())


def cmd_fig4(args):
    for system in _systems(args):
        table = run_fig4(system, sizes=_sizes(args))
        print(table.render())
        print()
        print(report.render_fig4(table))


def cmd_fig5(args):
    table = run_fig5(_systems(args), sizes=_sizes(args), **_grid(args))
    print(table.render())
    print()
    print(report.render_fig5(table))
    return table


def cmd_fig6(args):
    table = run_fig6(_systems(args), sizes=_sizes(args), **_grid(args))
    print(table.render())
    print()
    print(report.render_fig6(table))
    return table


def cmd_fig7(args):
    sizes = [4 * MiB, 16 * MiB, 64 * MiB] if args.quick else None
    table = run_fig7(_systems(args), sizes=sizes, **_grid(args))
    print(table.render())
    print()
    print(report.render_fig7(table))
    return table


def cmd_conc(args):
    sizes = [64 * MiB] if args.quick else [16 * MiB, 64 * MiB, 256 * MiB]
    table = run_concurrent_pairs(_systems(args), sizes=sizes)
    print(table.render())


def cmd_errors(args):
    fig5 = run_fig5(_systems(args), sizes=_sizes(args), **_grid(args))
    err = prediction_error_table(fig5)
    print(err.render())
    print()
    print(headline_speedups(fig5).render())


def cmd_observations(args):
    fig5 = run_fig5(_systems(args), sizes=_sizes(args), **_grid(args))
    fig6 = run_fig6(_systems(args), sizes=_sizes(args), **_grid(args))
    for obs in check_observations(fig5, fig6):
        print(obs)


def cmd_all(args):
    t0 = time.time()
    systems = _systems(args)
    sizes = _sizes(args)
    grid = _grid(args)
    print(f"running full reproduction on {systems} ...", file=sys.stderr)

    fig4_tables = [run_fig4(s, sizes=sizes) for s in systems if s == "beluga"]
    fig5 = run_fig5(systems, sizes=sizes, **grid)
    fig6 = run_fig6(systems, sizes=sizes, **grid)
    coll_sizes = [4 * MiB, 16 * MiB, 64 * MiB] if args.quick else None
    fig7 = run_fig7(systems, sizes=coll_sizes, **grid)
    conc = run_concurrent_pairs(
        systems, sizes=[64 * MiB] if args.quick else [64 * MiB, 256 * MiB]
    )
    err = prediction_error_table(fig5)
    err6 = prediction_error_table(fig6)
    speedups = headline_speedups(fig5, fig7)
    observations = check_observations(fig5, fig6)

    sections = {}
    if fig4_tables:
        sections["FIG4 — θ distribution across paths (Beluga, BW)"] = (
            fig4_tables[0].render() + "\n\n" + report.render_fig4(fig4_tables[0])
        )
    sections["FIG5 — unidirectional bandwidth"] = (
        fig5.render() + "\n\n" + report.render_fig5(fig5)
    )
    sections["FIG6 — bidirectional bandwidth"] = (
        fig6.render() + "\n\n" + report.render_fig6(fig6)
    )
    sections["FIG7 — collective speedups"] = (
        fig7.render() + "\n\n" + report.render_fig7(fig7)
    )
    sections["CONC — concurrent multi-pair transfers (§3 loaded case)"] = (
        conc.render()
    )
    sections["TAB-ERR — prediction error (BW)"] = err.render()
    sections["TAB-ERR — prediction error (BIBW)"] = err6.render()
    sections["Headline speedups"] = speedups.render()
    sections["Observations 1–5"] = "\n".join(str(o) for o in observations)
    text = report.experiments_markdown(sections)
    if args.output:
        with open(args.output, "w") as f:
            f.write(text)
        print(f"wrote {args.output} ({time.time() - t0:.0f}s)", file=sys.stderr)
    else:
        print(text)


def _nbytes(args, default: int = 64 * MiB) -> int:
    try:
        return parse_size(args.size) if args.size else default
    except ValueError:
        raise SystemExit(
            f"error: invalid --size {args.size!r} (expected e.g. 64M, 4K, 1G)"
        ) from None


def _gpu_pair(args, setup) -> tuple[int, int]:
    """Validate the --src/--dst pair against the system's GPU count."""
    src = 0 if args.src is None else args.src
    dst = 1 if args.dst is None else args.dst
    n = setup.topology.num_gpus
    for flag, value in (("--src", src), ("--dst", dst)):
        if not 0 <= value < n:
            raise SystemExit(
                f"error: invalid {flag} {value} "
                f"(system {setup.name!r} has GPUs 0..{n - 1})"
            )
    if src == dst:
        raise SystemExit(
            f"error: --src and --dst must name different GPUs (both {src})"
        )
    return src, dst


def _instrumented_bw_run(args, system: str):
    """One FIG5-style instrumented osu_bw run; returns (env, result)."""
    setup = get_setup(system)
    src, dst = _gpu_pair(args, setup)
    env = setup.env(dynamic_config(), observe=True)
    result = osu_bw(
        env,
        _nbytes(args),
        window=1 if args.quick else 16,
        iterations=2 if args.quick else 4,
        src=src,
        dst=dst,
    )
    return env, result


def cmd_stats(args):
    """Run one instrumented BW point per system and print the snapshot.

    One system prints its snapshot at top level; several print a single
    JSON object keyed by system name (so the output is always one
    parseable document and ``-o`` never silently keeps only the last run).
    """
    snaps = {}
    for system in _systems(args):
        env, result = _instrumented_bw_run(args, system)
        ctx = env.last_context
        snap = ctx.obs.metrics.snapshot()
        snap["run"] = {
            "system": system,
            "nbytes": result.nbytes,
            "window": result.window,
            "iterations": result.iterations,
            "bandwidth_gbps": result.bandwidth / 1e9,
        }
        snaps[system] = snap
        if args.dump:
            prefix = args.dump if len(_systems(args)) == 1 else f"{args.dump}.{system}"
            for path in dump_artifacts(prefix, ctx):
                print(f"wrote {path}", file=sys.stderr)
    doc = next(iter(snaps.values())) if len(snaps) == 1 else snaps
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w") as f:
            f.write(text + "\n")
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(text)


def cmd_trace(args):
    """Export a Chrome-trace timeline of one instrumented BW run."""
    system = _systems(args)[0]
    env, result = _instrumented_bw_run(args, system)
    ctx = env.last_context
    trace = chrome_trace(
        ctx.tracer,
        ctx.flight,
        metadata={
            "system": system,
            "nbytes": result.nbytes,
            "window": result.window,
            "bandwidth_gbps": result.bandwidth / 1e9,
        },
    )
    out = args.output or "trace.json"
    with open(out, "w") as f:
        json.dump(trace, f)
    print(
        f"wrote {out} ({len(trace['traceEvents'])} events; load in "
        "chrome://tracing or https://ui.perfetto.dev)",
        file=sys.stderr,
    )


def cmd_drift(args):
    """Closed- vs open-loop prediction error under injected link drift."""
    system = _systems(args)[0]
    setup = get_setup(system)
    src, dst = _gpu_pair(args, setup)
    result = run_drift_recovery(
        system,
        nbytes=_nbytes(args),
        total_puts=40 if args.quick else 80,
        warmup_puts=10 if args.quick else 20,
        ramp_puts=5 if args.quick else 10,
        src=src,
        dst=dst,
        keep_contexts=True,
    )
    closed_ctx, open_ctx = result._contexts
    print(
        f"# drift scenario: {system} GPU{src}->GPU{dst} "
        f"n={result.nbytes} channel={result.channel} "
        f"beta degraded {result.degrade:.0%} after put {result.warmup_puts}"
    )
    print(
        drift_report(
            closed_ctx.obs.errors,
            open_ctx.obs.errors,
            controller=closed_ctx.obs.drift,
            recovery_window=result.recovery_window,
        )
    )


def cmd_chaos(args):
    """Fault-injection scenarios: does the put recover, and at what cost?"""
    system = _systems(args)[0]
    setup = get_setup(system)
    src, dst = _gpu_pair(args, setup)
    scenarios = [args.scenario] if args.scenario else list(SCENARIOS)
    nbytes = _nbytes(args, default=16 * MiB if args.quick else 64 * MiB)
    results = []
    for scenario in scenarios:
        result = run_chaos(
            system,
            scenario=scenario,
            nbytes=nbytes,
            seed=args.seed,
            src=src,
            dst=dst,
            keep_context=True,
        )
        results.append(result)
        if args.dump:
            ctx = result._context
            prefix = (
                f"{args.dump}.{scenario}" if len(scenarios) > 1 else args.dump
            )
            for path in dump_artifacts(prefix, ctx, faults=result.windows):
                print(f"wrote {path}", file=sys.stderr)
    print(
        f"# chaos: {system} GPU{src}->GPU{dst} n={nbytes} "
        f"seed={args.seed} scenarios={','.join(scenarios)}"
    )
    text = chaos_report(results)
    print(text)
    if args.output:
        with open(args.output, "w") as f:
            f.write(text + "\n")
        print(f"wrote {args.output}", file=sys.stderr)


def cmd_overload(args):
    """Overload scenario: 4x offered load + mid-run link fault.

    Prints the full accounting (exact shed fraction, admitted p99 vs
    bound, governor transitions, retry-budget spend) and exits non-zero
    if the queue bound, latency bound, or any sanitizer invariant is
    violated — so CI can script it directly.  ``--scenario`` picks the
    shed policy; ``-o`` writes the JSON report; ``--dump PREFIX`` writes
    the usual artifact bundle.
    """
    system = _systems(args)[0]
    setup = get_setup(system)
    src, dst = _gpu_pair(args, setup)
    policy = args.scenario or "reject-newest"
    if policy not in SHED_POLICIES:
        raise SystemExit(
            f"error: unknown shed policy {policy!r} "
            f"(have {', '.join(SHED_POLICIES)})"
        )
    result = run_overload(
        system,
        nbytes=_nbytes(args, default=4 * MiB if args.quick else 8 * MiB),
        n=24 if args.quick else 48,
        src=src,
        dst=dst,
        shed_policy=policy,
        keep_context=True,
    )
    print(result.describe())
    if args.dump:
        for path in dump_artifacts(
            args.dump, result._context, faults=result.windows
        ):
            print(f"wrote {path}", file=sys.stderr)
    if args.output:
        with open(args.output, "w") as f:
            json.dump(result.to_dict(), f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote {args.output}", file=sys.stderr)
    problems = []
    if not result.queue_bounded:
        problems.append(
            f"queue unbounded: peak {result.peak_queue_depth} > "
            f"limit {result.queue_limit}"
        )
    if not result.p99_within_bound:
        problems.append(
            f"admitted p99 {result.admitted_p99:.6g}s exceeds bound "
            f"{result.p99_bound:.6g}s"
        )
    if not result.sanitizer.ok:
        problems.append(result.sanitizer.describe())
    if problems:
        raise SystemExit("error: overload scenario failed:\n  " + "\n  ".join(problems))


def cmd_contention(args):
    """Contention-aware vs blind planning error over concurrent patterns.

    ``--scenario`` narrows to one pattern; ``-o`` writes the JSON series
    (the ``concurrent_transfers`` shape committed to
    ``benchmarks/results/concurrent_transfers.json``);
    ``--dump PREFIX`` writes the usual artifact bundle of one aware run.
    """
    system = _systems(args)[0]
    nbytes = _nbytes(args)
    patterns = None
    if args.scenario:
        if args.scenario not in CONTENTION_PATTERNS:
            raise SystemExit(
                f"error: unknown contention pattern {args.scenario!r} "
                f"(have {', '.join(sorted(CONTENTION_PATTERNS))})"
            )
        patterns = {args.scenario: CONTENTION_PATTERNS[args.scenario]}
    report_ = run_contention(system, nbytes=nbytes, patterns=patterns)
    print(f"# contention: {system} n={nbytes}")
    print(report_.to_table().render())
    for p in report_.points:
        print(
            f"{p.pattern}: aware removes {p.improvement:.1%} of the blind "
            f"error ({p.blind.mean_abs_error:.4f} -> "
            f"{p.aware.mean_abs_error:.4f}, {p.aware.samples} puts)"
        )
    if args.dump:
        name = next(iter(patterns)) if patterns else "all_to_one"
        _, ctx = measure_contention(
            get_setup(system),
            CONTENTION_PATTERNS[name],
            nbytes,
            contention_aware=True,
            keep_context=True,
        )
        for path in dump_artifacts(args.dump, ctx):
            print(f"wrote {path}", file=sys.stderr)
    if args.output:
        with open(args.output, "w") as f:
            json.dump({"concurrent_transfers": report_.to_series()}, f, indent=2)
            f.write("\n")
        print(f"wrote {args.output}", file=sys.stderr)


def _traced_scenario(args):
    """The deterministic traced chaos workload slowest/timeline replay.

    Determinism matters: two invocations (one to list trace ids via
    ``slowest``, one to expand a trace via ``timeline <id>``) see the
    same timeline and the same ids.
    """
    system = _systems(args)[0]
    setup = get_setup(system)
    src, dst = _gpu_pair(args, setup)
    return run_traced_scenario(
        system, nbytes=_nbytes(args, default=16 * MiB), src=src, dst=dst
    )


def cmd_slowest(args):
    """Slowest traced transfers of a chaos workload, with stage split."""
    scn = _traced_scenario(args)
    ctx = scn.context
    print(
        f"# traced chaos workload: {scn.system} n={scn.nbytes} "
        f"({len(scn.results)} puts, {scn.channel} fails mid-transfer; "
        f"trace {scn.trace_id} recovered)"
    )
    print(slowest_report(TraceTree(ctx.flight), n=10))
    print()
    print(tracing_stats_report(ctx.flight))
    if args.dump:
        for path in dump_artifacts(args.dump, ctx, faults=scn.windows):
            print(f"wrote {path}", file=sys.stderr)


def cmd_timeline(args):
    """One trace's parent-linked span tree (default: the recovered one)."""
    scn = _traced_scenario(args)
    ctx = scn.context
    trace_id = scn.trace_id if args.trace is None else int(args.trace)
    tree = TraceTree(ctx.flight)
    try:
        text = timeline_report(tree, trace_id)
    except KeyError as exc:
        raise SystemExit(
            f"error: {exc.args[0]} (known traces: "
            f"{', '.join(map(str, tree.trace_ids()))})"
        ) from None
    print(text)
    if args.dump:
        for path in dump_artifacts(args.dump, ctx, faults=scn.windows):
            print(f"wrote {path}", file=sys.stderr)


def cmd_graphs(args):
    """Compiled transfer-graph cache report of one instrumented BW run.

    Hit rates, invalidation counters, and the per-key amortised setup cost
    (compile wall clock spread over its replays — DESIGN.md §5g).  ``-o``
    writes the stats as JSON; ``--dump PREFIX`` writes the usual artifact
    bundle.
    """
    docs = {}
    for system in _systems(args):
        env, result = _instrumented_bw_run(args, system)
        ctx = env.last_context
        stats = ctx.graphs.stats()
        lookups = stats["hits"] + stats["misses"]
        hit_rate = stats["hits"] / lookups if lookups else 0.0
        rows = ctx.graphs.report_rows()
        docs[system] = {"stats": stats, "hit_rate": hit_rate, "graphs": rows}
        print(
            f"# graphs: {system} n={result.nbytes} window={result.window} "
            f"bw={result.bandwidth / 1e9:.1f}GB/s"
        )
        print(
            f"lookups={lookups} hit_rate={hit_rate:.1%} "
            f"compiles={stats['compiles']} replays={stats['replays']} "
            f"evictions={stats['evictions']} "
            f"compile_wall={stats['compile_wall_s'] * 1e6:.0f}us"
        )
        print(
            f"{'pair':>6} {'nbytes':>12} {'mode':>8} {'paths':>5} "
            f"{'chunks':>6} {'replays':>7} {'compile_us':>10} {'amort_us':>9}"
        )
        for row in rows:
            print(
                f"{row['src']}->{row['dst']:<3} {row['nbytes']:>12} "
                f"{row['mode']:>8} {row['paths']:>5} {row['chunks']:>6} "
                f"{row['replays']:>7} {row['compile_us']:>10.1f} "
                f"{row['amortized_us']:>9.2f}"
            )
        if args.dump:
            prefix = args.dump if len(_systems(args)) == 1 else f"{args.dump}.{system}"
            for path in dump_artifacts(prefix, ctx):
                print(f"wrote {path}", file=sys.stderr)
    doc = next(iter(docs.values())) if len(docs) == 1 else docs
    if args.output:
        with open(args.output, "w") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote {args.output}", file=sys.stderr)


def cmd_critical_path(args):
    """Per-transfer bottleneck/slack attribution of one instrumented run."""
    system = _systems(args)[0]
    env, result = _instrumented_bw_run(args, system)
    ctx = env.last_context
    analyzer = CriticalPathAnalyzer(ctx.flight)
    print(
        f"# critical path: {system} n={result.nbytes} "
        f"bw={result.bandwidth / 1e9:.1f}GB/s"
    )
    print(critical_path_report(analyzer))


COMMANDS = {
    "calibrate": cmd_calibrate,
    "stats": cmd_stats,
    "trace": cmd_trace,
    "drift": cmd_drift,
    "chaos": cmd_chaos,
    "contention": cmd_contention,
    "overload": cmd_overload,
    "critical-path": cmd_critical_path,
    "graphs": cmd_graphs,
    "slowest": cmd_slowest,
    "timeline": cmd_timeline,
    "conc": cmd_conc,
    "fig4": cmd_fig4,
    "fig5": cmd_fig5,
    "fig6": cmd_fig6,
    "fig7": cmd_fig7,
    "errors": cmd_errors,
    "observations": cmd_observations,
    "all": cmd_all,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Reproduction harness for the multi-path GPU "
        "communication performance model (SC Workshops '25).",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument(
        "trace",
        nargs="?",
        help="timeline: the trace id to expand (default: the recovered "
        "transfer of the traced chaos workload)",
    )
    parser.add_argument(
        "--system",
        action="append",
        choices=["beluga", "narval", "dgx_nvswitch", "mi250_node", "pcie_only"],
        help="restrict to one or more systems (default: beluga + narval)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="reduced sweep for fast runs"
    )
    parser.add_argument(
        "--size",
        help="message size for stats/trace/drift runs, e.g. 64M (default: 64M)",
    )
    parser.add_argument(
        "--src", type=int, help="source GPU id for stats/trace/drift (default: 0)"
    )
    parser.add_argument(
        "--dst", type=int, help="destination GPU id for stats/trace/drift (default: 1)"
    )
    parser.add_argument(
        "--scenario",
        choices=[
            "linkdown",
            "flap",
            "stall",
            *sorted(CONTENTION_PATTERNS),
            *SHED_POLICIES,
        ],
        help="chaos: run only this fault scenario; contention: run only "
        "this traffic pattern; overload: the shed policy (default: all / "
        "reject-newest)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="chaos: fault-schedule seed (flap hold times; default: 0)",
    )
    parser.add_argument(
        "--dump",
        metavar="PREFIX",
        help="stats: also write PREFIX.metrics.json / .trace.json artifacts",
    )
    parser.add_argument(
        "-o", "--output", help="output file (all: EXPERIMENTS.md; stats/trace: JSON)"
    )
    parser.add_argument(
        "-j",
        "--jobs",
        type=int,
        nargs="?",
        const=default_jobs(),
        default=None,
        metavar="N",
        help="fan sweep points across N worker processes (bare --jobs: "
        f"{default_jobs()} on this machine; default: serial)",
    )
    parser.add_argument(
        "--cal-cache",
        metavar="DIR",
        help="persist calibrated parameter stores under DIR and reuse them "
        "across runs",
    )
    args = parser.parse_args(argv)
    if args.cal_cache:
        set_cal_cache_dir(args.cal_cache)
    COMMANDS[args.command](args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
