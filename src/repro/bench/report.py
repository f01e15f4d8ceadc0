"""Rendering of experiment results: panel plots and EXPERIMENTS.md text."""

from __future__ import annotations

import io

from repro.util.ascii_plot import ascii_series
from repro.util.tables import Table


def render_fig_panels(
    table: Table,
    *,
    series_columns: dict[str, str],
    panel_keys: tuple[str, ...] = ("system", "paths", "window"),
    ylabel: str = "GB/s",
) -> str:
    """One ASCII chart per panel (panel = unique combination of keys),
    against ``size_mib``."""
    out = io.StringIO()
    for key, group in sorted(table.groupby(*panel_keys).items()):
        label = ", ".join(f"{k}={v}" for k, v in zip(panel_keys, key))
        sizes = sorted({r["size_mib"] for r in group})
        by_x = {r["size_mib"]: r for r in group}
        series = {
            name: [by_x[s][col] if s in by_x else None for s in sizes]
            for name, col in series_columns.items()
        }
        out.write(
            ascii_series(
                [s * 1.0 for s in sizes],
                series,
                title=f"[{label}]",
                ylabel=ylabel,
            )
        )
        out.write("\n\n")
    return out.getvalue()


def render_fig5(table: Table) -> str:
    return render_fig_panels(
        table,
        series_columns={
            "direct": "direct_gbps",
            "static": "static_gbps",
            "dynamic": "dynamic_gbps",
            "predicted": "predicted_gbps",
        },
    )


render_fig6 = render_fig5  # same column shape


def render_fig7(table: Table) -> str:
    return render_fig_panels(
        table,
        series_columns={
            "static": "static_speedup",
            "dynamic": "dynamic_speedup",
        },
        panel_keys=("system", "collective", "paths"),
        ylabel="speedup",
    )


def render_fig4(table: Table) -> str:
    out = io.StringIO()
    for (system, paths), group in sorted(table.groupby("system", "paths").items()):
        sizes = sorted({r["size_mib"] for r in group})
        path_ids = sorted({r["path_id"] for r in group})
        series = {}
        for pid in path_ids:
            by_x = {r["size_mib"]: r["theta"] for r in group if r["path_id"] == pid}
            series[pid] = [by_x.get(s) for s in sizes]
        out.write(
            ascii_series(
                [s * 1.0 for s in sizes],
                series,
                title=f"[{system}, {paths}] theta per path",
                ylabel="theta",
            )
        )
        out.write("\n\n")
    return out.getvalue()


def experiments_markdown(sections: dict[str, str]) -> str:
    """Assemble EXPERIMENTS.md from named sections."""
    out = io.StringIO()
    out.write("# EXPERIMENTS — paper vs measured\n\n")
    out.write(
        "Generated by `python -m repro.cli all` (simulated hardware; see\n"
        "DESIGN.md for the substitution table). Absolute numbers are\n"
        "simulator numbers; the comparison targets shape: who wins, by what\n"
        "factor, and where behaviour changes.\n\n"
    )
    for title, body in sections.items():
        out.write(f"## {title}\n\n")
        out.write(body.rstrip("\n"))
        out.write("\n\n")
    return out.getvalue()


__all__ = [
    "render_fig_panels",
    "render_fig4",
    "render_fig5",
    "render_fig6",
    "render_fig7",
    "experiments_markdown",
]
