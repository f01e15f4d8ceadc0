"""A fixed host-speed reference, interleaved with the measured work.

On a shared machine the CPU time of the same Python work drifts by 5-15 %
between runs, and by 30-50 % for seconds at a time within one (other
tenants contend for caches, memory bandwidth and SMT siblings; no hardware
counters are exposed to count instructions instead).  The benchmark times
a short piece of this kernel ``PIECES`` times through every block of ops,
evenly spaced, and scales the block's CPU time by ``REF_CPU_S / mean piece
time in the block``: the result reads as CPU time on the reference box.  A
slow period slows the pieces and the ops around them alike and cancels,
block by block.

A piece runs with the caches as the ops before it left them, and that
refill is part of its time; a piece timed right after an untimed one
tracked the ops' slowdowns worse (10-seed spreads of 3-10 % against
1-6 % in the same period).

The kernel imitates the simulator's mix — generator coroutines driven from
a heap, small-object churn, dict lookups over a few MB — and uses no code of
the program, so a change to the program cannot move it.
"""

from __future__ import annotations

from heapq import heappop, heappush
from time import process_time

#: Median CPU seconds of ``kernel()`` between the ops of a run on the
#: reference box (2 vCPU Xeon at 2.1 GHz, Python 3.11; about 0.002 s when
#: run on its own, with warm caches).
REF_CPU_S = 0.0034

#: Kernel pieces timed per block of ops.
PIECES = 10

_POOL = [{"k": i, "v": (i, i + 1, str(i))} for i in range(20_000)]


def _proc(steps: int, pool: list):
    acc = 0
    for j in range(steps):
        x = yield (j % 7 + 1) * 1e-6
        acc += pool[(x * 7919) % len(pool)]["k"]
    return acc


def kernel() -> float:
    """Run one reference piece; returns its process CPU seconds."""
    t0 = process_time()
    heap: list = []
    seq = 0
    for _ in range(50):
        seq += 1
        heappush(heap, (0.0, seq, _proc(60, _POOL)))
    while heap:
        t, key, gen = heappop(heap)
        try:
            delay = gen.send(key) if t else next(gen)
        except StopIteration:
            continue
        seq += 1
        heappush(heap, (t + delay, seq, gen))
    return process_time() - t0


__all__ = ["PIECES", "REF_CPU_S", "kernel"]
