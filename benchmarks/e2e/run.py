"""End-to-end transfer benchmark: five workloads through the public API.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace {0,1}] [--smoke] [-o results.json]

Each workload runs in a fresh single-threaded child process
(``worker.py``), one at a time.  Per workload: set-up (cold calibration,
context build, warm-up that fills the plan and graph caches), one untraced
timed pass that gives the end-to-end metrics, and one traced pass over the
same inputs that gives the per-layer metrics.  ``--trace 0`` runs only the
untraced pass and reports the end-to-end metrics; ``--trace 1`` runs both
and reports the per-layer metrics; without ``--trace`` both are reported.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is non-zero when any correctness check fails.
With ``-o FILE`` the full results are written to FILE and the traced
passes' spans to ``<workload>.spans.jsonl`` next to it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from metrics import END_TO_END, PER_LAYER

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"

WORKLOADS = ("p2p_warm", "p2p_cold", "ring_contended", "collectives", "faults_open_loop")

#: A child that runs longer than this is stopped and counts as failed.
WORKER_TIMEOUT_S = 170
SMOKE_SECONDS = 0.02


def worker_env() -> dict:
    """Child environment: the program's sources on the path, a fixed hash
    seed, and single-threaded numeric libraries."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(spec: dict) -> dict:
    """Run one workload in a fresh child; a crash yields an error record."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            stdout=subprocess.PIPE,
            env=worker_env(),
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"workload": spec["workload"], "correct": False,
                "errors": [f"timed out after {WORKER_TIMEOUT_S} s"]}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"workload": spec["workload"], "correct": False,
                "errors": [f"worker exited {proc.returncode} without a result"]}
    if proc.returncode != 0:
        result["correct"] = False
    return result


def selected_metrics(result: dict, trace: int | None) -> dict:
    """``{name: {"value", "unit"}}`` for the requested metric set."""
    out = {}
    if trace != 1:
        for name, (unit, _better, _bound) in END_TO_END.items():
            out[name] = {"value": result["end_to_end"][name], "unit": unit}
    if trace != 0:
        for name, (unit, _better, _kind) in PER_LAYER.items():
            out[name] = {"value": result["per_layer"][name], "unit": unit}
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=WORKLOADS,
                   help="workload to run (repeatable; default: all)")
    p.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    p.add_argument("--seconds", type=float, default=8.0,
                   help="length of each timed pass in reference CPU seconds")
    p.add_argument("--trace", type=int, choices=(0, 1),
                   help="0: end-to-end only; 1: per-layer only (default: both)")
    p.add_argument("--smoke", action="store_true",
                   help=f"tiny passes (--seconds {SMOKE_SECONDS}) for tests")
    p.add_argument("-o", "--output", type=Path,
                   help="write full results here (spans go next to it)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: program sources not found at {SRC}", file=sys.stderr)
        return 2
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    names = args.workload or list(WORKLOADS)
    spans_dir = None
    if args.output is not None and args.trace != 0:
        spans_dir = args.output.resolve().parent
        spans_dir.mkdir(parents=True, exist_ok=True)

    results = []
    for name in names:
        spec = {"workload": name, "seed": args.seed, "seconds": seconds,
                "trace": args.trace != 0,
                "spans_dir": None if spans_dir is None else str(spans_dir)}
        result = run_worker(spec)
        results.append(result)
        for err in result.get("errors", []):
            print(f"{name}: CHECK FAILED: {err}", file=sys.stderr)
        if "end_to_end" not in result:
            continue
        for metric, entry in selected_metrics(result, args.trace).items():
            print(f"{name:<17} {metric:<38} {entry['value']:>16.6g} {entry['unit']}")

    correct = all(r.get("correct") for r in results)
    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(json.dumps({
            "seed": args.seed,
            "seconds": seconds,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "correct": correct,
            "results": results,
        }, indent=1))
    if not all("end_to_end" in r for r in results):
        return 1
    metrics = {}
    for r in results:
        prefix = "" if len(results) == 1 else f"{r['workload']}."
        for metric, entry in selected_metrics(r, args.trace).items():
            metrics[prefix + metric] = entry
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
