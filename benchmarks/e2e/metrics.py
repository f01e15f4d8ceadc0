"""The benchmark's metric table: name -> unit, direction and kind.

``host`` metrics are the simulator's own cost, measured in CPU or wall
time and subject to machine noise.  ``sim`` metrics describe the modelled
system or count work; they repeat exactly for one seed and pass length, so
two commits compare them exactly.  ``BENCHMARK.json`` at the repository
root lists the same names, units, directions and bounds.
"""

from __future__ import annotations

#: End-to-end metrics, from the untraced pass: (unit, better, bound).
#: ``bound`` is the share of the parent's median by which the metric may
#: worsen before a change counts as a regression.
END_TO_END = {
    "puts_per_s": ("puts/CPU-s", "higher", 0.20),
    "host_op_us_p50": ("us", "lower", 0.20),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.05),
}

_SHARE, _US, _PER_PUT, _COUNT = "share", "us", "count/put", "count"

#: Per-layer metrics, from the traced pass: (unit, better, kind).  The
#: first six are the modelled system's end-to-end results.
PER_LAYER = {
    "sim_gbps": ("GB/s", "higher", "sim"),
    "sim_op_us_p50": (_US, "lower", "sim"),
    "sim_op_us_p99": (_US, "lower", "sim"),
    "sim_op_samples": (_COUNT, "higher", "sim"),
    "model_err_pct": ("%", "lower", "sim"),
    "fail_frac": (_SHARE, "lower", "sim"),
    "sim.engine.self_share": (_SHARE, "lower", "host"),
    "sim.engine.events_per_put": (_PER_PUT, "lower", "sim"),
    "sim.engine.cancelled_per_put": (_PER_PUT, "lower", "sim"),
    "sim.engine.peak_queued": (_COUNT, "lower", "sim"),
    "sim.engine.host_us_per_event": (_US, "lower", "host"),
    "sim.fabric.self_share": (_SHARE, "lower", "host"),
    "sim.fabric.copy_us": (_US, "lower", "host"),
    "sim.fabric.solve_us": (_US, "lower", "host"),
    "sim.fabric.flows_per_put": (_PER_PUT, "lower", "sim"),
    "sim.fabric.solves_per_put": (_PER_PUT, "lower", "sim"),
    "sim.fabric.fast_path_frac": (_SHARE, "higher", "sim"),
    "sim.fabric.peak_channel_concurrency": (_COUNT, "lower", "sim"),
    "sim.fabric.flows_failed": (_COUNT, "lower", "sim"),
    "core.self_share": (_SHARE, "lower", "host"),
    "core.plan_us": (_US, "lower", "host"),
    "core.plan_cache_hit_rate": (_SHARE, "higher", "sim"),
    "core.cold_plans_per_put": (_PER_PUT, "lower", "sim"),
    "core.graph_hit_rate": (_SHARE, "higher", "sim"),
    "core.graph_compiles_per_put": (_PER_PUT, "lower", "sim"),
    "core.graph_compile_us": (_US, "lower", "host"),
    "core.quarantines": (_COUNT, "lower", "sim"),
    "core.err_pct.lt4m": ("%", "lower", "sim"),
    "core.err_pct.4m_16m": ("%", "lower", "sim"),
    "core.err_pct.16m_64m": ("%", "lower", "sim"),
    "core.err_pct.ge64m": ("%", "lower", "sim"),
    "ucx.self_share": (_SHARE, "lower", "host"),
    "ucx.execute_us": (_US, "lower", "host"),
    "ucx.paths_per_put": (_PER_PUT, "lower", "sim"),
    "ucx.chunks_per_put": (_PER_PUT, "lower", "sim"),
    "ucx.replay_frac": (_SHARE, "higher", "sim"),
    "ucx.retries_per_put": (_PER_PUT, "lower", "sim"),
    "ucx.rerouted_frac": (_SHARE, "lower", "sim"),
    "ucx.paths_failed": (_COUNT, "lower", "sim"),
    "ucx.execution_us_p50": (_US, "lower", "sim"),
    "ucx.execution_us_p99": (_US, "lower", "sim"),
    "ucx.recovery_us_p50": (_US, "lower", "sim"),
    "ucx.recovery_us_p99": (_US, "lower", "sim"),
    "runtime.self_share": (_SHARE, "lower", "host"),
    "runtime.submit_us": (_US, "lower", "host"),
    "runtime.queued_frac": (_SHARE, "lower", "sim"),
    "runtime.queue_wait_us_p50": (_US, "lower", "sim"),
    "runtime.queue_wait_us_p99": (_US, "lower", "sim"),
    "runtime.peak_queue_depth": (_COUNT, "lower", "sim"),
    "runtime.shed_frac": (_SHARE, "lower", "sim"),
    "runtime.expired_frac": (_SHARE, "lower", "sim"),
    "runtime.rejected_frac": (_SHARE, "lower", "sim"),
    "runtime.peak_channel_flows": (_COUNT, "lower", "sim"),
    "runtime.retry_budget_consumed": (_COUNT, "lower", "sim"),
    "gpu.self_share": (_SHARE, "lower", "host"),
    "gpu.copies_per_put": (_PER_PUT, "lower", "sim"),
    "gpu.streams_created": (_COUNT, "lower", "sim"),
    "gpu.ipc_hit_rate": (_SHARE, "higher", "sim"),
    "obs.self_share": (_SHARE, "lower", "host"),
    "obs.spans_per_put": (_PER_PUT, "lower", "sim"),
    "obs.dropped": (_COUNT, "lower", "sim"),
    "mpi.self_share": (_SHARE, "lower", "host"),
    "mpi.messages_per_op": ("count/op", "lower", "sim"),
    "mpi.local_copies_per_op": ("count/op", "lower", "sim"),
    "other.self_share": (_SHARE, "lower", "host"),
    "trace_overhead": (_SHARE, "lower", "host"),
}

__all__ = ["END_TO_END", "PER_LAYER"]
