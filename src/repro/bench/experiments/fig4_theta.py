"""FIG4 — message-fraction (θ) distribution across paths (paper Fig. 4).

For the Beluga unidirectional BW setting, reports how much of each message
the model assigns to the direct, GPU-staged, and host-staged paths as the
message size grows — the paper's panels (a) 2 paths, (b) 3 paths,
(c) 4 paths (with host).
"""

from __future__ import annotations

from repro.bench.runner import PATH_CONFIGS, SystemSetup, default_sizes, get_setup
from repro.core.planner import PathPlanner
from repro.units import MiB
from repro.util.tables import Table


def run_fig4(
    system: str = "beluga",
    *,
    sizes: list[int] | None = None,
    setup: SystemSetup | None = None,
) -> Table:
    """θ per path per message size, one row per (panel, size, path)."""
    setup = setup or get_setup(system)
    sizes = sizes or default_sizes()
    table = Table(
        ["system", "paths", "size_mib", "path_id", "theta", "share_bytes", "chunks"],
        title=f"FIG4: theta distribution on {setup.name} (BW)",
    )
    planner = PathPlanner(setup.topology, setup.store)
    for label, kwargs in PATH_CONFIGS.items():
        for n in sizes:
            plan = planner.plan(0, 1, n, **kwargs)
            for a in plan.assignments:
                table.add(
                    system=setup.name,
                    paths=label,
                    size_mib=n // MiB,
                    path_id=a.path.path_id,
                    theta=a.theta,
                    share_bytes=a.nbytes,
                    chunks=a.chunks,
                )
    return table


__all__ = ["run_fig4"]
