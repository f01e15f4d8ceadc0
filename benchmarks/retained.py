"""Report the memory every end-to-end workload's pass leaves behind.

Usage (from the repository root)::

    python3 benchmarks/retained.py [--tree DIR] [--seed N] [--seconds S]
        [--workload NAME ...]

For the checkout at ``--tree`` (default: this one), each workload of
``benchmarks/e2e`` is set up as its worker sets it up and runs one short
untraced pass, in a fresh child process with ``PYTHONHASHSEED=0`` and the
checkout's ``src`` on the path.  Per workload it prints one line with

* ``rss_setup_mb`` — ``ru_maxrss`` after set-up (calibration, context
  build, warm-up);
* ``rss_pass_mb`` — ``ru_maxrss`` after the pass;
* ``minflt_pass`` — the minor page faults the pass took (``ru_minflt``),
  memory the pass touched for the first time or the allocator handed back
  to the system and took again;
* ``puts`` — the puts the pass submitted;

then the ten object types with the most instances the pass left alive
after ``gc.collect()``, one per line as ``+count module.type``.  Objects
are counted by walking every object the collector tracks and everything
reachable from them (untracked ints, floats and strings included), after
the pass's two ``ru_maxrss`` readings.  The count before the pass comes
from a second child that only sets up: set-up is deterministic, and the
walk in the measuring child would otherwise raise its peak RSS.

Run it on two checkouts with one seed and ``diff`` the outputs to compare
their retained memory, as ``copy_order.py`` compares their copy order.
The e2e modules are imported from the checkout and not modified.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import subprocess
import sys
from collections import Counter
from pathlib import Path

from copy_order import ROOT, WORKLOADS, child_env

#: Object types listed per workload.
TOP = 10


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def census() -> Counter:
    """Live objects by type: every tracked object and all it reaches."""
    gc.collect()
    todo = gc.get_objects()
    seen = {id(obj) for obj in todo}
    counts: Counter = Counter()
    while todo:
        batch, todo = todo, []
        for obj in batch:
            kind = type(obj)
            counts[f"{kind.__module__}.{kind.__qualname__}"] += 1
        for ref in gc.get_referents(*batch):
            if id(ref) not in seen:
                seen.add(id(ref))
                todo.append(ref)
    return counts


def measure(spec: dict) -> dict:
    """Set up one workload and, with ``spec["pass"]``, run its pass; runs
    in the child, inside the checkout."""
    sys.path.insert(0, str(Path(spec["tree"]) / "benchmarks" / "e2e"))
    from worker import fresh_setup
    from workloads import WORKLOADS as ALL

    wl = ALL[spec["workload"]]
    inputs = wl.inputs(spec["seed"], wl.n_ops(spec["seconds"]))
    rig = wl.build(fresh_setup(), inputs)
    wl.warmup(rig, inputs)
    out = {"rss_setup_mb": _maxrss_mb()}
    if spec["pass"]:
        faults = _minflt()
        out["puts"] = len(wl.run_pass(rig, inputs).puts)
        out["minflt_pass"] = _minflt() - faults
        out["rss_pass_mb"] = _maxrss_mb()
    out["objects"] = census()
    return out


def _child(spec: dict) -> dict | None:
    proc = subprocess.run(
        [sys.executable, __file__, "--child", json.dumps(spec)],
        stdout=subprocess.PIPE, env=child_env(Path(spec["tree"])), text=True,
    )
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(name: str, setup: dict, passed: dict) -> str:
    """One workload's lines: the RSS readings and the top retained types."""
    left = Counter(passed["objects"])
    left.subtract(setup["objects"])
    alive = [(kind, n) for kind, n in left.items() if n > 0]
    top = sorted(alive, key=lambda kv: (-kv[1], kv[0]))[:TOP]
    lines = [
        f"{name:<17} rss_setup_mb={passed['rss_setup_mb']:.1f} "
        f"rss_pass_mb={passed['rss_pass_mb']:.1f} "
        f"minflt_pass={passed['minflt_pass']} puts={passed['puts']}"
    ]
    lines += [f"  {count:+9d} {kind}" for kind, count in top]
    return "\n".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--tree", type=Path, default=ROOT,
                   help="checkout to measure (default: this one)")
    p.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    p.add_argument("--seconds", type=float, default=2.0,
                   help="pass length in reference CPU seconds (default 2)")
    p.add_argument("--workload", action="append", choices=WORKLOADS,
                   help="workload to run (repeatable; default: all)")
    p.add_argument("--child", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child is not None:
        print(json.dumps(measure(json.loads(args.child))))
        return 0
    tree = args.tree.resolve()
    if not (tree / "src" / "repro").is_dir():
        print(f"error: program sources not found under {tree}", file=sys.stderr)
        return 2
    status = 0
    for name in args.workload or WORKLOADS:
        spec = {"tree": str(tree), "workload": name, "seed": args.seed,
                "seconds": args.seconds}
        setup = _child({**spec, "pass": False})
        passed = _child({**spec, "pass": True})
        if setup is None or passed is None:
            print(f"{name:<17} FAILED")
            status = 1
            continue
        print(report(name, setup, passed), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
