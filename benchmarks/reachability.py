"""List the functions under ``src/repro`` that no production entry point runs.

Usage (from the repository root)::

    python3 benchmarks/reachability.py [--tree DIR] [--skip-tier1] [--keep]

The checkout at ``--tree`` (default: this one) is copied to a temporary
directory and everything runs there, so benchmark result files and ``cli``
outputs never land in the tree.  Each production entry point runs in a
fresh child process with ``PYTHONHASHSEED=0`` under :func:`sys.setprofile`,
which records every code object under ``src/repro`` it calls:

* the five end-to-end workloads (``benchmarks/e2e/worker.run``, seed 0,
  0.3 s passes, traced);
* every ``repro.cli`` command CI runs, with CI's flags, plus
  ``cli all --quick``; and CI's ``repro.bench.perfsuite --quick`` run,
  without ``--profile`` (cProfile would replace the recording hook);
* each ``examples/*.py``;
* ``pytest benchmarks --ignore=benchmarks/e2e --benchmark-disable``, whose
  outcomes are ignored (the profiler slows the timing gates past their
  bounds).

A last child runs tier-1 (``pytest tests``) to mark code only tests reach.
The report lists, per module, each function or method (nested ones
included) that no production entry point reached, with its line count and
whether tier-1 reaches it.  The e2e modules are imported from the copy and
not modified.  A full run takes tens of minutes on a 2-vCPU machine.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from copy_order import WORKLOADS, child_env

ROOT = Path(__file__).resolve().parent.parent

#: ``repro.cli`` invocations of ``.github/workflows/ci.yml``, with its flags.
CI_CLI = (
    "stats --system beluga --quick --size 16M --dump artifacts/osu_bw",
    "critical-path --system beluga --quick",
    "trace --system beluga --quick -o artifacts/osu_bw.flight_trace.json",
    "chaos --system beluga --quick --seed 0 -o artifacts/chaos_report.txt "
    "--dump artifacts/chaos",
    "contention --system beluga --scenario all_to_one --size 32M "
    "-o artifacts/contention_series.json --dump artifacts/contention",
    "slowest --dump artifacts/flight",
    "timeline 1",
    "graphs --system beluga --quick --size 16M -o artifacts/graph_cache.json",
    "overload --system beluga --quick -o artifacts/overload_series.json "
    "--dump artifacts/overload",
    "all -o all.md",
    "all --quick",
)
PERFSUITE = (
    "--quick -o BENCH_sim.json --baseline benchmarks/results/perf_baseline.json "
    "--max-regress 0.30"
)
BENCH_PYTEST = (
    "benchmarks --ignore=benchmarks/e2e --benchmark-disable -q -p no:cacheprovider"
)
TIER1_PYTEST = "tests -q -p no:cacheprovider"


def entry_points(tree: Path) -> list[dict]:
    """Every production entry point, as child specs."""
    specs = [{"name": f"e2e {w}", "kind": "e2e", "arg": w} for w in WORKLOADS]
    specs += [{"name": f"cli {c}", "kind": "cli", "arg": c} for c in CI_CLI]
    specs.append({"name": "perfsuite --quick", "kind": "perfsuite", "arg": PERFSUITE})
    specs += [
        {"name": f"examples/{p.name}", "kind": "example", "arg": str(p)}
        for p in sorted((tree / "examples").glob("*.py"))
    ]
    specs.append({"name": "pytest benchmarks", "kind": "pytest", "arg": BENCH_PYTEST})
    return specs


# -- the child -----------------------------------------------------------
def run_entry(spec: dict) -> None:
    """Run one entry point; ``SystemExit`` and failures are the caller's."""
    import runpy

    kind, arg = spec["kind"], spec["arg"]
    if kind == "e2e":
        sys.path.insert(0, str(Path("benchmarks") / "e2e"))
        from worker import run

        out = run({"workload": arg, "seed": 0, "seconds": 0.3, "trace": True})
        if not out["correct"]:
            sys.exit(1)
    elif kind in ("cli", "perfsuite"):
        module = "repro.cli" if kind == "cli" else "repro.bench.perfsuite"
        sys.argv = [module, *arg.split()]
        runpy.run_module(module, run_name="__main__", alter_sys=True)
    elif kind == "example":
        sys.argv = [arg]
        runpy.run_path(arg, run_name="__main__")
    else:
        import pytest

        sys.path.insert(0, os.getcwd())  # as ``python -m pytest`` does
        sys.exit(int(pytest.main(arg.split())))


def child(spec: dict) -> int:
    """Run ``spec`` under the profiler and write the code objects it called."""
    import threading

    called: set = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    status = 0
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        run_entry(spec)
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except Exception:  # noqa: BLE001 - reported, not raised
        traceback.print_exc()
        status = 1
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    src = str(Path("src", "repro").resolve())
    reached = sorted({
        (os.path.relpath(code.co_filename, src), code.co_firstlineno)
        for code in called
        if code.co_filename.startswith(src)
    })
    Path(spec["out"]).write_text(json.dumps({"status": status, "reached": reached}))
    return 0


# -- the parent ----------------------------------------------------------
def functions(src: Path) -> list[tuple[str, int, str, int]]:
    """``(module, first line, qualified name, lines)`` of every function
    and method under ``src``; the first line is a decorator's, if any,
    as in the function's code object."""
    out = []

    def walk(node, module: str, prefix: str) -> None:
        for child_node in ast.iter_child_nodes(node):
            if isinstance(child_node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child_node.name}"
                first = min(
                    [d.lineno for d in child_node.decorator_list]
                    + [child_node.lineno]
                )
                lines = child_node.end_lineno - child_node.lineno + 1
                out.append((module, first, name, lines))
                walk(child_node, module, f"{name}.")
            elif isinstance(child_node, ast.ClassDef):
                walk(child_node, module, f"{prefix}{child_node.name}.")
            else:
                walk(child_node, module, prefix)

    for path in sorted(src.rglob("*.py")):
        module = str(path.relative_to(src))
        walk(ast.parse(path.read_text()), module, "")
    return out


def run_child(tree: Path, spec: dict, out: Path) -> tuple[int, float, set]:
    """Run one child in ``tree``; returns its status, wall seconds and the
    ``(module, first line)`` of every function it called."""
    spec = {**spec, "out": str(out)}
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(tree / "benchmarks" / "reachability.py"),
         "--child", json.dumps(spec)],
        cwd=tree, env=child_env(tree), stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    elapsed = time.monotonic() - t0
    if proc.returncode != 0 or not out.exists():
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        print(f"  child failed (exit {proc.returncode}): {tail[0]}", flush=True)
        return proc.returncode or 1, elapsed, set()
    doc = json.loads(out.read_text())
    return doc["status"], elapsed, {tuple(r) for r in doc["reached"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--tree", type=Path, default=ROOT,
                   help="checkout to probe (default: this one)")
    p.add_argument("--skip-tier1", action="store_true",
                   help="do not run tier-1 (the tier-1 column then reads '?')")
    p.add_argument("--keep", action="store_true",
                   help="keep the temporary copy and print its path")
    p.add_argument("--child", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child is not None:
        return child(json.loads(args.child))
    source = args.tree.resolve()
    if not (source / "src" / "repro").is_dir():
        print(f"error: program sources not found under {source}", file=sys.stderr)
        return 2
    work = Path(tempfile.mkdtemp(prefix="reachability-")).resolve()
    tree = work / "tree"
    shutil.copytree(
        source, tree,
        ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks",
            "artifacts",
        ),
    )
    (tree / "artifacts").mkdir()
    try:
        reached: set = set()
        print("# entry points (exit status, wall seconds, functions reached)")
        for i, spec in enumerate(entry_points(tree)):
            status, elapsed, codes = run_child(tree, spec, work / f"{i}.json")
            reached |= codes
            print(f"{spec['name']:<60} exit={status} {elapsed:7.1f}s "
                  f"{len(codes):4d}", flush=True)
        tier1: set | None = None
        if not args.skip_tier1:
            spec = {"name": "pytest tests", "kind": "pytest", "arg": TIER1_PYTEST}
            status, elapsed, tier1 = run_child(tree, spec, work / "tier1.json")
            print(f"{'tier-1 (pytest tests)':<60} exit={status} {elapsed:7.1f}s "
                  f"{len(tier1):4d}", flush=True)
        report(functions(tree / "src" / "repro"), reached, tier1)
    finally:
        if args.keep:
            print(f"# kept {tree}")
        else:
            shutil.rmtree(work, ignore_errors=True)
    return 0


def report(funcs, reached: set, tier1: set | None) -> None:
    unreached = [f for f in funcs if (f[0], f[1]) not in reached]
    lines = sum(f[3] for f in unreached)
    print()
    print(f"# {len(unreached)} of {len(funcs)} functions and methods "
          f"({lines} lines) reached by no production entry point")
    if tier1 is not None:
        only_tests = [f for f in unreached if (f[0], f[1]) in tier1]
        print(f"# {len(only_tests)} of them ({sum(f[3] for f in only_tests)} "
              f"lines) reached by tier-1, {len(unreached) - len(only_tests)} "
              f"by nothing")
    module = None
    for mod, first, name, n in unreached:
        if mod != module:
            module = mod
            print(f"\n{mod}")
        if tier1 is None:
            mark = "?"
        else:
            mark = "tier-1" if (mod, first) in tier1 else "-"
        print(f"  {first:5d} {n:4d}  {mark:<6}  {name}")


if __name__ == "__main__":
    sys.exit(main())
