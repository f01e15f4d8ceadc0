"""OBS1–5 — the paper's §5.2 observations as quantitative checks.

Each check consumes the FIG5/FIG6 tables and returns a named result with a
boolean ``holds`` plus the supporting numbers, so the test suite and
EXPERIMENTS.md can report paper-vs-measured side by side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bench.experiments.error_analysis import row_error_pct
from repro.util.tables import Table


@dataclass(frozen=True)
class ObservationResult:
    name: str
    holds: bool
    detail: str
    values: dict

    def __str__(self) -> str:  # pragma: no cover - convenience
        status = "HOLDS" if self.holds else "FAILS"
        return f"{self.name}: {status} — {self.detail}"


def _panel_errors(table: Table, *, above_mib: int, **criteria) -> list[float]:
    rows = table.where(**criteria) if criteria else table
    return [
        row_error_pct(r)
        for r in rows
        if r["size_mib"] > above_mib and not np.isnan(row_error_pct(r))
    ]


def obs1_large_message_accuracy(fig5: Table) -> ObservationResult:
    """Obs 1: BW prediction error is small (<~6 %) for large messages:
    the mean above 8 MiB is under a 10 % tolerance."""
    errors = _panel_errors(fig5, above_mib=8)
    mean_err = float(np.mean(errors)) if errors else float("nan")
    return ObservationResult(
        name="obs1_large_message_accuracy",
        holds=bool(errors) and mean_err < 10.0,
        detail=f"mean BW error >8MiB = {mean_err:.2f}% "
        "(paper: <6%; tolerance 10.0%)",
        values={"mean_error_pct": mean_err, "points": len(errors)},
    )


def obs2_window_narrows_gap(fig5: Table) -> ObservationResult:
    """Obs 2: larger windows shrink prediction error and the
    static/dynamic gap.

    Evaluated on the non-host configurations (the panels the paper cites,
    Figs. 5(h)/5(k)); host panels are dominated by the Obs-3 effect.
    """
    nohost = fig5.select(lambda r: r["paths"] != "3_GPUs_w_host")
    err_w1 = _panel_errors(nohost.where(window=1), above_mib=4)
    err_w16 = _panel_errors(nohost.where(window=16), above_mib=4)
    gap = {}
    for w in (1, 16):
        rows = [r for r in nohost.where(window=w) if r["size_mib"] > 4]
        rel = [
            abs(r["static_gbps"] - r["dynamic_gbps"])
            / max(r["static_gbps"], r["dynamic_gbps"])
            for r in rows
            if max(r["static_gbps"], r["dynamic_gbps"]) > 0
        ]
        gap[w] = float(np.mean(rel)) if rel else float("nan")
    e1, e16 = float(np.mean(err_w1)), float(np.mean(err_w16))
    holds = e16 <= e1 * 1.05 and gap[16] <= gap[1] * 1.10
    return ObservationResult(
        name="obs2_window_narrows_gap",
        holds=holds,
        detail=(
            f"error w1={e1:.2f}% vs w16={e16:.2f}%; "
            f"static-dynamic gap w1={gap[1] * 100:.2f}% vs w16={gap[16] * 100:.2f}%"
        ),
        values={"error_w1": e1, "error_w16": e16, "gap_w1": gap[1], "gap_w16": gap[16]},
    )


def obs3_host_staged_error_higher(fig5: Table) -> ObservationResult:
    """Obs 3: host-staged configurations predict worse, especially on
    Narval (extra UPI hop + narrow per-NUMA DRAM)."""
    def mean_err(system, paths):
        e = _panel_errors(fig5.where(system=system, paths=paths), above_mib=4)
        return float(np.mean(e)) if e else float("nan")

    narval_host = mean_err("narval", "3_GPUs_w_host")
    narval_nohost = mean_err("narval", "3_GPUs")
    beluga_host = mean_err("beluga", "3_GPUs_w_host")
    holds = narval_host > narval_nohost and narval_host >= beluga_host * 0.9
    return ObservationResult(
        name="obs3_host_staged_error_higher",
        holds=holds,
        detail=(
            f"narval host={narval_host:.2f}% vs no-host={narval_nohost:.2f}%; "
            f"beluga host={beluga_host:.2f}%"
        ),
        values={
            "narval_host": narval_host,
            "narval_nohost": narval_nohost,
            "beluga_host": beluga_host,
        },
    )


def obs4_small_message_overestimation(fig5: Table) -> ObservationResult:
    """Obs 4: the model over-estimates bandwidth for small messages
    (window 1)."""
    rows = [r for r in fig5.where(window=1) if r["size_mib"] <= 4]
    if not rows:
        return ObservationResult(
            "obs4_small_message_overestimation", False, "no small-size rows", {}
        )
    over = [
        r["predicted_gbps"] > max(r["static_gbps"], r["dynamic_gbps"])
        for r in rows
    ]
    frac = float(np.mean(over))
    return ObservationResult(
        name="obs4_small_message_overestimation",
        holds=frac >= 0.6,
        detail=f"model over-estimates in {frac * 100:.0f}% of small-message points",
        values={"overestimate_fraction": frac, "points": len(rows)},
    )


def obs5_bibw_host_contention(fig6: Table) -> ObservationResult:
    """Obs 5: in BIBW, enabling the host path hurts vs GPU-only paths."""
    ratios = []
    for system in sorted({r["system"] for r in fig6}):
        for window in sorted({r["window"] for r in fig6}):
            host = fig6.where(system=system, window=window, paths="3_GPUs_w_host")
            nohost = fig6.where(system=system, window=window, paths="3_GPUs")
            by_size_h = {r["size_mib"]: r["dynamic_gbps"] for r in host}
            by_size_n = {r["size_mib"]: r["dynamic_gbps"] for r in nohost}
            for size in sorted(set(by_size_h) & set(by_size_n)):
                if size > 8 and by_size_n[size] > 0:
                    ratios.append(by_size_h[size] / by_size_n[size])
    mean_ratio = float(np.mean(ratios)) if ratios else float("nan")
    return ObservationResult(
        name="obs5_bibw_host_contention",
        holds=bool(ratios) and mean_ratio < 1.02,
        detail=(
            f"BIBW with host path achieves {mean_ratio * 100:.1f}% of the "
            "no-host bandwidth (paper: host staging degrades BIBW)"
        ),
        values={"host_over_nohost_ratio": mean_ratio, "points": len(ratios)},
    )


def check_observations(fig5: Table, fig6: Table) -> list[ObservationResult]:
    """Run all five checks."""
    return [
        obs1_large_message_accuracy(fig5),
        obs2_window_narrows_gap(fig5),
        obs3_host_staged_error_higher(fig5),
        obs4_small_message_overestimation(fig5),
        obs5_bibw_host_contention(fig6),
    ]


__all__ = [
    "ObservationResult",
    "check_observations",
    "obs1_large_message_accuracy",
    "obs2_window_narrows_gap",
    "obs3_host_staged_error_higher",
    "obs4_small_message_overestimation",
    "obs5_bibw_host_contention",
]
