"""Perf-regression harness for the simulator core (writes BENCH_sim.json).

Runs the :mod:`repro.bench.perfsuite` workloads once and asserts the PR's
performance floor:

* engine core >= 60k events/s on the pure event-churn
  microbenchmark (the ISSUE-6 gate: >=5x the 11.7k events/s the PR-3
  solver workload managed on the tuple-heap engine);
* incremental fluid solver >= 1.5x the full-recompute reference on the
  solver microbenchmark;
* FIG5 sweep >= 3x the pre-PR configuration (full-recompute + cold
  calibration + serial) when cores are available for ``--jobs``, and a
  serial-only floor on single-core machines (where the fan-out cannot
  contribute wall clock);
* cached planner lookups stay negligible against the transfers they plan;
* warm compiled-graph replay makes per-transfer setup (plan + pipeline
  construction, execution excluded) >=5x cheaper than the cold path
  (the ISSUE-8 gate);
* the always-on flight recorder taxes a mixed-size transfer workload by
  <3% (the ISSUE-7 gate, measured as the median of paired on/off
  latency ratios over adjacent identical transfer blocks);
* the overload scenario (4x offered load + mid-run LinkDown under a
  bounded admission queue) keeps the queue bounded, admitted p99 within
  the scenario bound, sheds a real fraction of work, and passes the
  invariant sanitizer (the ISSUE-9 gate);
* no gated series regressed >30% against the committed baseline
  (``benchmarks/results/perf_baseline.json``).
"""

from __future__ import annotations

import json

import pytest
from conftest import RESULTS_DIR, write_result

from repro.bench.perfsuite import check_regression, run_suite


@pytest.fixture(scope="module")
def suite():
    return run_suite(quick=True)


def test_engine_core_throughput_floor(suite):
    core = suite["engine_core"]
    # ISSUE 6 acceptance: >=5x the committed PR-3 baseline (~11.7k ev/s).
    # The event heap lands far above the floor; 60k keeps CI noise-proof.
    assert core["events_per_sec"] >= 60_000
    # the workload exercised every hot path it claims to cover
    assert core["events_cancelled"] > 0
    assert core["heap_compactions"] > 0
    # lazy cancellation stays lazy: the backlog never holds the churn set
    assert core["peak_queued"] < core["events_cancelled"]


def test_solver_microbench_speedup(suite):
    solver = suite["solver"]
    assert solver["speedup_vs_full_recompute"] >= 1.5
    # the fast paths (not just noise) produce the win
    assert solver["solver_fast_admits"] > 0
    assert solver["solver_fast_finishes"] > 0
    assert solver["rate_recomputes"] < solver["full_recompute_rate_recomputes"] / 2
    assert solver["events_cancelled"] > 0


def test_fig5_sweep_speedup(suite):
    fig5 = suite["fig5"]
    if fig5["cpu_count"] >= 4:
        assert fig5["speedup"] >= 3.0
    else:
        # single-core: only the solver + calibration cache can contribute
        # (no fan-out), and wall clock is scheduler-noisy — gate on parent
        # CPU time with a floor under the 1.17-1.23x observed range
        assert fig5["cpu_speedup"] >= 1.10
    assert fig5["rows"] > 0


def test_planner_overhead_negligible(suite):
    assert suite["planner"]["overhead_vs_64mib_transfer"] < 0.01


def test_planner_cold_plan_sub_series(suite):
    planner = suite["planner"]
    assert planner["cold_plans_per_sec"] > 0
    # the plan cache must be worth its complexity: a cached lookup beats a
    # full Algorithm-1 pass by a wide margin
    assert planner["cache_speedup"] >= 5.0


def test_graph_replay_speedup_floor(suite):
    replay = suite["graph_replay"]
    # ISSUE 8 acceptance: warm graph replay >=5x cheaper per transfer than
    # cold plan + pipeline setup (execution excluded)
    assert replay["speedup_replay_vs_cold"] >= 5.0
    assert replay["warm_replays_per_sec"] > replay["cold_setups_per_sec"]
    # the warm arm really replayed: every op after warmup was a cache hit
    assert replay["cache"]["hits"] >= replay["ops"]


def test_overload_scenario_gates(suite):
    overload = suite["overload"]
    # ISSUE 9 acceptance: at 4x offered load with a mid-run LinkDown the
    # admission queue stays bounded, admitted p99 holds the scenario bound
    # (headroom >= 1), work is genuinely shed (exact fraction), and every
    # invariant (byte conservation, no orphaned flows/streams) holds.
    assert overload["peak_queue_depth"] <= overload["queue_limit"]
    assert overload["p99_headroom"] >= 1.0
    assert 0.0 < overload["shed_fraction"] < 1.0
    assert overload["goodput_fraction"] > 0.0
    assert overload["sanitizer_ok"]
    assert overload["completed"] + overload["shed"] + overload["expired"] + (
        overload["rejected"]
    ) == overload["n_offered"]


def test_tracing_overhead_budget(suite):
    tracing = suite["tracing_overhead"]
    # ISSUE 7 acceptance: the always-on flight recorder costs <3% wall
    # clock on a mixed-size transfer workload (median of paired on/off
    # block ratios, pooled across fresh environments).
    assert tracing["overhead"] < 0.03
    # the recorder actually recorded the workload it claims to tax
    assert tracing["spans_recorded"] > 0
    assert tracing["spans_per_put"] > 1.0


def test_write_bench_json_and_gate_vs_baseline(suite):
    text = json.dumps(suite, indent=2, sort_keys=True)
    write_result("BENCH_sim.json", text + "\n")
    baseline_path = RESULTS_DIR / "perf_baseline.json"
    if not baseline_path.exists():  # pragma: no cover - fresh checkout only
        pytest.skip("no committed perf baseline")
    failures = check_regression(
        suite, json.loads(baseline_path.read_text()), max_regress=0.30
    )
    assert not failures, "; ".join(failures)
