"""FIG7 — collective latency speedups (paper Fig. 7).

MPI_Alltoall (Bruck) and MPI_Allreduce (recursive scatter-reduce +
allgather) on both systems with 2 and 3 GPU paths, reported as latency
speedup of the static- and model-driven multi-path configurations over the
default MPI+UCC+UCX stack (single direct path).  Host staging is excluded,
as in the paper (§5.3: BIBW host contention makes it counter-productive).
"""

from __future__ import annotations

from repro.bench.collectives import COLLECTIVES
from repro.bench.omb import osu_collective_latency
from repro.bench.parallel import parallel_map
from repro.bench.runner import configs_for, default_sizes, get_setup
from repro.units import MiB
from repro.util.tables import Table

FIG7_COLUMNS = [
    "system",
    "collective",
    "paths",
    "size_mib",
    "direct_latency_us",
    "static_latency_us",
    "dynamic_latency_us",
    "static_speedup",
    "dynamic_speedup",
]


def _fig7_point(task: tuple) -> dict:
    """Measure one (system, collective, label, size) latency point.

    Module-level for pickling by the parallel runner.
    """
    (system, name, label, n, iterations, warmup, grid_steps, chunk_menu) = task
    setup = get_setup(system)
    fn = COLLECTIVES[name]
    # Static shares are tuned offline at one message size: the size of the
    # collective's dominant transfer step, roughly half the vector for
    # recursive Allreduce's first exchange and half the send vector for
    # each Bruck round.
    hint = max(1 * MiB, n // 2)
    configs = configs_for(
        setup, label, hint, grid_steps=grid_steps, chunk_menu=chunk_menu
    )
    lat = {}
    for series, cfg in configs.items():
        result = osu_collective_latency(
            setup.env(cfg),
            fn,
            n,
            iterations=iterations,
            warmup=warmup,
        )
        lat[series] = result.latency
    return dict(
        system=system,
        collective=name,
        paths=label,
        size_mib=n // MiB,
        direct_latency_us=lat["direct"] * 1e6,
        static_latency_us=lat["static"] * 1e6,
        dynamic_latency_us=lat["dynamic"] * 1e6,
        static_speedup=lat["direct"] / lat["static"],
        dynamic_speedup=lat["direct"] / lat["dynamic"],
    )


def run_fig7(
    systems: tuple[str, ...] = ("beluga", "narval"),
    *,
    collectives: tuple[str, ...] = ("alltoall", "allreduce"),
    paths_labels: tuple[str, ...] = ("2_GPUs", "3_GPUs"),
    sizes: list[int] | None = None,
    iterations: int = 2,
    warmup: int = 1,
    grid_steps: int = 6,
    chunk_menu: tuple[int, ...] = (1, 4, 16),
    jobs: int | None = None,
) -> Table:
    # Per-rank payload sizes, 2 MiB – 64 MiB.
    sizes = sizes or default_sizes(max_mib=64)
    table = Table(FIG7_COLUMNS, title="FIG7: collective latency speedup vs MPI+UCC+UCX")
    # Warm the calibration cache before forking so workers inherit it.
    for system in systems:
        get_setup(system)
    tasks = [
        (system, name, label, n, iterations, warmup,
         grid_steps, tuple(chunk_menu))
        for system in systems
        for name in collectives
        for label in paths_labels
        for n in sizes
    ]
    for row in parallel_map(_fig7_point, tasks, jobs=jobs):
        table.add(**row)
    return table


__all__ = ["run_fig7", "FIG7_COLUMNS"]
