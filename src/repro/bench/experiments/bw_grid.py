"""FIG5 / FIG6 — unidirectional and bidirectional bandwidth grids (paper
Figs. 5 and 6).

For each (system, path configuration, window) panel, sweeps message sizes
with one OSU loop and reports the four series of the paper's plots:

* ``direct_gbps``    — Direct Path baseline (single-path cuda_ipc);
* ``static_gbps``    — Static Path Distribution (offline exhaustive search);
* ``dynamic_gbps``   — Dynamic Path Distribution (the model at runtime);
* ``predicted_gbps`` — Model-Driven Prediction (analytical, no execution).

FIG5 runs the OSU BW loop.  FIG6 runs the BIBW loop: both ranks stream a
window of messages each way simultaneously.  The model assumes full-duplex
symmetric links, so its bidirectional prediction is twice the
unidirectional one.  Host-staged configurations degrade under BIBW because
opposing host-staged flows contend on the shared staging bandwidth (paper
Observation 5) — an effect the model does not capture, which is why the
predicted series overshoots in FIG6's ``_w_host`` panels.
"""

from __future__ import annotations

from repro.bench.omb import osu_bibw, osu_bw
from repro.bench.parallel import parallel_map
from repro.bench.runner import (
    PATH_CONFIGS,
    SystemSetup,
    configs_for,
    default_sizes,
    get_setup,
)
from repro.core.planner import PathPlanner
from repro.units import MiB, to_gbps
from repro.util.tables import Table

BW_COLUMNS = [
    "system",
    "paths",
    "window",
    "size_mib",
    "direct_gbps",
    "static_gbps",
    "dynamic_gbps",
    "predicted_gbps",
]

#: OSU loop name -> (measurement loop, directions the prediction counts,
#: table title).
LOOPS = {
    "bw": (osu_bw, 1.0, "FIG5: unidirectional MPI bandwidth (GB/s)"),
    "bibw": (osu_bibw, 2.0, "FIG6: bidirectional MPI bandwidth (GB/s)"),
}


def predicted_bandwidth(setup: SystemSetup, paths_label: str, nbytes: int) -> float:
    """The model's predicted optimal-configuration bandwidth (bytes/s)."""
    planner = PathPlanner(setup.topology, setup.store)
    return planner.predict_bandwidth(0, 1, nbytes, **PATH_CONFIGS[paths_label])


def _grid_point(task: tuple) -> list[dict]:
    """Measure one (loop, system, label, size) sweep point across all windows.

    Module-level so the parallel runner can pickle it; the grouping reuses
    the offline static-search result (memoised per (label, size)) across
    windows within one process.
    """
    (loop, system, label, windows, n, iterations, warmup,
     grid_steps, chunk_menu) = task
    osu_loop, directions, _title = LOOPS[loop]
    setup = get_setup(system)
    configs = configs_for(
        setup, label, n, grid_steps=grid_steps, chunk_menu=chunk_menu
    )
    predicted = to_gbps(directions * predicted_bandwidth(setup, label, n))
    rows = []
    for window in windows:
        measured = {}
        for series, cfg in configs.items():
            result = osu_loop(
                setup.env(cfg),
                n,
                window=window,
                iterations=iterations,
                warmup=warmup,
            )
            measured[series] = result.bandwidth
        rows.append(dict(
            system=system,
            paths=label,
            window=window,
            size_mib=n // MiB,
            direct_gbps=to_gbps(measured["direct"]),
            static_gbps=to_gbps(measured["static"]),
            dynamic_gbps=to_gbps(measured["dynamic"]),
            predicted_gbps=predicted,
        ))
    return rows


def run_bw_grid(
    loop: str,
    systems: tuple[str, ...] = ("beluga", "narval"),
    *,
    paths_labels: tuple[str, ...] = ("2_GPUs", "3_GPUs", "3_GPUs_w_host"),
    windows: tuple[int, ...] = (1, 16),
    sizes: list[int] | None = None,
    iterations: int = 3,
    warmup: int = 1,
    grid_steps: int = 6,
    chunk_menu: tuple[int, ...] = (1, 4, 16),
    jobs: int | None = None,
) -> Table:
    """The bandwidth grid measured with the OSU loop named ``loop``."""
    sizes = sizes or default_sizes()
    table = Table(BW_COLUMNS, title=LOOPS[loop][2])
    # Warm the calibration cache before forking so workers inherit it.
    for system in systems:
        get_setup(system)
    tasks = [
        (loop, system, label, tuple(windows), n, iterations, warmup,
         grid_steps, tuple(chunk_menu))
        for system in systems
        for label in paths_labels
        for n in sizes
    ]
    rows = {}
    for task_rows in parallel_map(_grid_point, tasks, jobs=jobs):
        for row in task_rows:
            rows[(row["system"], row["paths"], row["window"], row["size_mib"])] = row
    # Emit in the historical (system, label, window, size) order.
    for system in systems:
        for label in paths_labels:
            for window in windows:
                for n in sizes:
                    table.add(**rows[(system, label, window, n // MiB)])
    return table


def run_fig5(*args, **kwargs) -> Table:
    """FIG5: the grid with the OSU BW loop (arguments of :func:`run_bw_grid`)."""
    return run_bw_grid("bw", *args, **kwargs)


def run_fig6(*args, **kwargs) -> Table:
    """FIG6: the grid with the OSU BIBW loop (arguments of :func:`run_bw_grid`)."""
    return run_bw_grid("bibw", *args, **kwargs)


__all__ = ["run_fig5", "run_fig6", "run_bw_grid", "predicted_bandwidth", "BW_COLUMNS"]
