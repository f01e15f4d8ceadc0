"""Compare two sets of benchmark runs: parent (A) against change (B).

Usage::

    python3 benchmarks/e2e/compare.py A.json B.json

Each file is a results document written by ``run.py -o`` or a JSON list of
them (one per run).  Run *i* of A pairs with run *i* of B; alternate which
side runs first when making them.  Per workload and metric the verdict is:

* host metrics (end-to-end, with a noise bound):
  ``improved`` when B wins at least 9 of 10 pairs (ties count for neither)
  and the medians differ by more than A's interquartile range;
  ``unresolved`` when A's own spread is wider than the bound (or there are
  fewer than 4 runs to know it), unless every B run beats every A run;
  ``regressed`` when B's median is worse than A's by more than the bound;
  ``unchanged`` otherwise;
* simulated metrics (repeat exactly for one seed): ``unchanged`` when equal
  in every pair, else ``improved``/``regressed`` by direction, or
  ``unresolved`` when the pairs disagree in direction.

The exit code is 1 when any metric regressed.
"""

from __future__ import annotations

import json
import statistics
import sys

from metrics import END_TO_END, PER_LAYER

WIN_SHARE = 0.9


def load_runs(path: str) -> list[dict]:
    with open(path) as fh:
        doc = json.load(fh)
    return doc if isinstance(doc, list) else [doc]


def by_workload(runs: list[dict]) -> dict[str, list[dict]]:
    """workload -> one flat {metric: value} dict per run."""
    out: dict[str, list[dict]] = {}
    for run in runs:
        for r in run["results"]:
            values = {**r.get("end_to_end", {}), **r.get("per_layer", {})}
            out.setdefault(r["workload"], []).append(values)
    return out


def iqr(values: list[float]) -> float | None:
    if len(values) < 4:
        return None
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def host_verdict(a: list, b: list, better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    med_a, med_b = statistics.median(a), statistics.median(b)
    spread = iqr(a)
    gain = sign * (med_b - med_a)
    if spread is not None and wins >= WIN_SHARE * len(pairs) and gain > spread:
        return "improved"
    if spread is None or spread > bound * abs(med_a):
        if min(sign * y for y in b) > max(sign * x for x in a):
            return "unchanged"
        return "unresolved"
    if -gain > bound * abs(med_a):
        return "regressed"
    return "unchanged"


def sim_verdict(a: list, b: list, better: str) -> str:
    sign = 1.0 if better == "higher" else -1.0
    deltas = {
        (y > x) - (y < x) for x, y in zip(a, b)
    }
    deltas.discard(0)
    if not deltas:
        return "unchanged"
    if len(deltas) > 1:
        return "unresolved"
    return "improved" if sign * deltas.pop() > 0 else "regressed"


def compare(runs_a: list[dict], runs_b: list[dict]) -> list[tuple]:
    """Rows ``(workload, metric, median A, median B, verdict)``."""
    rows = []
    a_w, b_w = by_workload(runs_a), by_workload(runs_b)
    for workload in a_w:
        if workload not in b_w:
            continue
        a_runs, b_runs = a_w[workload], b_w[workload]
        for metric, (_unit, better, bound) in END_TO_END.items():
            a = [r[metric] for r in a_runs if metric in r]
            b = [r[metric] for r in b_runs if metric in r]
            if a and b:
                rows.append((workload, metric, statistics.median(a),
                             statistics.median(b), host_verdict(a, b, better, bound)))
        for metric, (_unit, better, kind) in PER_LAYER.items():
            a = [r[metric] for r in a_runs if metric in r]
            b = [r[metric] for r in b_runs if metric in r]
            if kind == "sim" and a and b:
                rows.append((workload, metric, statistics.median(a),
                             statistics.median(b), sim_verdict(a, b, better)))
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rows = compare(load_runs(argv[0]), load_runs(argv[1]))
    for workload, metric, med_a, med_b, verdict in rows:
        print(f"{workload:<17} {metric:<38} {med_a:>14.6g} {med_b:>14.6g}  {verdict}")
    return 1 if any(row[4] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
