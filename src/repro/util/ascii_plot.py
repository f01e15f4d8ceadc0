"""Terminal line plots for the benchmark harness.

The experiment drivers print each paper figure as a small ASCII chart next to
the numeric table so the *shape* comparison (who wins, where the crossover
falls) is visible without matplotlib, which is not available offline.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence

_MARKERS = "ox+*#@%&"
#: Plot area in characters.
_WIDTH = 72
_HEIGHT = 18


def _log2_ticks(values: Sequence[float]) -> list[str]:
    return [f"2^{int(round(math.log2(v)))}" if v > 0 else "0" for v in values]


def ascii_series(
    x: Sequence[float],
    series: Mapping[str, Sequence[float]],
    *,
    title: str = "",
    ylabel: str = "",
    logx: bool = True,
) -> str:
    """Render one or more y-series against shared x values.

    ``series`` maps a label to a list of y values aligned with ``x``.
    Missing points may be ``None`` / NaN and are skipped.
    """
    if not x:
        return f"{title}\n(no data)"
    xs = [math.log2(v) if logx and v > 0 else float(v) for v in x]
    xmin, xmax = min(xs), max(xs)
    span_x = (xmax - xmin) or 1.0

    ys_all = [
        float(v)
        for vals in series.values()
        for v in vals
        if v is not None and not (isinstance(v, float) and math.isnan(v))
    ]
    if not ys_all:
        return f"{title}\n(no data)"
    ymin, ymax = min(ys_all), max(ys_all)
    if ymin == ymax:
        ymin -= 1.0
        ymax += 1.0
    span_y = ymax - ymin

    grid = [[" "] * _WIDTH for _ in range(_HEIGHT)]
    for idx, (label, vals) in enumerate(series.items()):
        marker = _MARKERS[idx % len(_MARKERS)]
        for xi, yi in zip(xs, vals):
            if yi is None or (isinstance(yi, float) and math.isnan(yi)):
                continue
            col = int(round((xi - xmin) / span_x * (_WIDTH - 1)))
            row = int(round((float(yi) - ymin) / span_y * (_HEIGHT - 1)))
            grid[_HEIGHT - 1 - row][col] = marker

    lines: list[str] = []
    if title:
        lines.append(title)
    top_label = f"{ymax:.3g}"
    bot_label = f"{ymin:.3g}"
    label_w = max(len(top_label), len(bot_label), len(ylabel))
    for i, row in enumerate(grid):
        if i == 0:
            prefix = top_label.rjust(label_w)
        elif i == _HEIGHT - 1:
            prefix = bot_label.rjust(label_w)
        elif i == _HEIGHT // 2 and ylabel:
            prefix = ylabel[:label_w].rjust(label_w)
        else:
            prefix = " " * label_w
        lines.append(f"{prefix} |{''.join(row)}")
    lines.append(" " * label_w + " +" + "-" * _WIDTH)
    ticks = _log2_ticks([x[0], x[len(x) // 2], x[-1]]) if logx else [
        f"{x[0]:.3g}",
        f"{x[len(x) // 2]:.3g}",
        f"{x[-1]:.3g}",
    ]
    axis = ticks[0].ljust(_WIDTH // 2 - len(ticks[1]) // 2) + ticks[1]
    axis = axis.ljust(_WIDTH - len(ticks[2])) + ticks[2]
    lines.append(" " * label_w + "  " + axis)
    legend = "   ".join(
        f"{_MARKERS[i % len(_MARKERS)]}={label}" for i, label in enumerate(series)
    )
    lines.append(" " * label_w + "  " + legend)
    return "\n".join(lines)


__all__ = ["ascii_series"]
