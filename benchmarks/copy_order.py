"""Fingerprint the simulated copy order of every end-to-end workload.

Usage (from the repository root)::

    python3 benchmarks/copy_order.py [--tree DIR] [--seed N] [--seconds S]
        [--workload NAME ...]

For the checkout at ``--tree`` (default: this one), each workload of
``benchmarks/e2e`` is set up as its worker sets it up and runs one short
untraced pass, in a fresh child process with ``PYTHONHASHSEED=0`` and the
checkout's ``src`` on the path.  One line per workload gives:

* ``copies`` — the ``fabric.copy`` calls the pass's context made, warm-up
  included;
* ``copy_seq`` — a sha256 over every such call's ``(now, tag, nbytes,
  hop)``, in call order, so copies issued at one instant in another order
  change it;
* ``puts`` — a sha256 over the pass's put outcomes (``worker.put_records``);
* ``counters`` — a sha256 over every counter ``worker.snapshot`` returns
  after the pass.

Run it on two checkouts with one seed and ``diff`` the outputs: a change
that keeps the simulated behaviour prints identical lines.  The e2e
modules are imported from the checkout and not modified.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("p2p_warm", "p2p_cold", "ring_contended", "collectives", "faults_open_loop")


def _sha(payload: str) -> str:
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def fingerprint(spec: dict) -> str:
    """One workload's line; runs in the child, inside the checkout."""
    sys.path.insert(0, str(Path(spec["tree"]) / "benchmarks" / "e2e"))
    from worker import fresh_setup, put_records, snapshot
    from workloads import WORKLOADS as ALL

    wl = ALL[spec["workload"]]
    inputs = wl.inputs(spec["seed"], wl.n_ops(spec["seconds"]))
    rig = wl.build(fresh_setup(), inputs)
    engine, fabric = rig.engine, rig.ctx.runtime.fabric
    copy = fabric.copy
    seq = hashlib.sha256()
    count = 0

    def tapped(hop, nbytes, **kwargs):
        nonlocal count
        count += 1
        seq.update(repr((engine.now, kwargs.get("tag", ""), nbytes, hop)).encode())
        return copy(hop, nbytes, **kwargs)

    fabric.copy = tapped
    wl.warmup(rig, inputs)
    result = wl.run_pass(rig, inputs)
    counters = sorted(snapshot(rig).items())
    return (
        f"{wl.name:<17} copies={count} copy_seq={seq.hexdigest()[:16]} "
        f"puts={_sha(repr(put_records(result.puts)))} "
        f"counters={_sha(repr(counters))}"
    )


def child_env(tree: Path) -> dict:
    """The e2e worker's environment, with ``tree``'s sources on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(tree / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--tree", type=Path, default=ROOT,
                   help="checkout to fingerprint (default: this one)")
    p.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    p.add_argument("--seconds", type=float, default=2.0,
                   help="pass length in reference CPU seconds (default 2)")
    p.add_argument("--workload", action="append", choices=WORKLOADS,
                   help="workload to run (repeatable; default: all)")
    p.add_argument("--child", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child is not None:
        print(fingerprint(json.loads(args.child)))
        return 0
    tree = args.tree.resolve()
    if not (tree / "src" / "repro").is_dir():
        print(f"error: program sources not found under {tree}", file=sys.stderr)
        return 2
    status = 0
    for name in args.workload or WORKLOADS:
        spec = {"tree": str(tree), "workload": name, "seed": args.seed,
                "seconds": args.seconds}
        proc = subprocess.run(
            [sys.executable, __file__, "--child", json.dumps(spec)],
            stdout=subprocess.PIPE, env=child_env(tree), text=True,
        )
        if proc.returncode != 0:
            print(f"{name:<17} FAILED (exit {proc.returncode})")
            status = 1
            continue
        print(proc.stdout.strip().splitlines()[-1], flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
