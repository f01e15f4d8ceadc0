"""OSU-micro-benchmark-style measurement loops (paper §5, using [6]).

* :func:`osu_bw` — unidirectional bandwidth: the sender posts ``window``
  non-blocking sends per iteration, the receiver posts matching receives
  and returns a 4-byte ack; bandwidth = moved bytes / elapsed;
* :func:`osu_bibw` — bidirectional: both ranks run the send+receive window
  simultaneously;
* :func:`osu_collective_latency` — average per-invocation latency of a
  collective over the communicator.

All loops do warmup iterations first (warming IPC handles, plan caches, and
stream pools) and time only the measured iterations, mirroring OMB.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.bench.env import BenchEnvironment
from repro.mpi.request import waitall

ACK_BYTES = 4


@dataclass(frozen=True)
class BwResult:
    nbytes: int
    window: int
    iterations: int
    elapsed: float
    bytes_moved: int

    @property
    def bandwidth(self) -> float:
        """Aggregate bandwidth in bytes/second."""
        return self.bytes_moved / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def latency(self) -> float:
        """Mean time per message."""
        msgs = self.iterations * self.window
        return self.elapsed / msgs if msgs else 0.0


def _check_loop(
    env: BenchEnvironment, nbytes: int, window: int, iterations: int,
    warmup: int, src: int, dst: int,
) -> None:
    """Reject a BW/BIBW loop's arguments before any context exists.

    A rank outside the node would otherwise fail only inside the run: a
    negative ``src`` reads as ``ANY_SOURCE`` to the receiver, which then
    waits forever.
    """
    if nbytes <= 0 or window < 1 or iterations < 1 or warmup < 0:
        raise ValueError("invalid benchmark parameters")
    if src == dst:
        raise ValueError(f"src and dst must be two ranks, got {src} twice")
    n = env.topology.num_gpus
    if not (0 <= src < n and 0 <= dst < n):
        raise ValueError(f"src and dst must be ranks in [0, {n}), got {src} and {dst}")


def osu_bw(
    env: BenchEnvironment,
    nbytes: int,
    *,
    window: int = 1,
    iterations: int = 4,
    warmup: int = 1,
    src: int = 0,
    dst: int = 1,
) -> BwResult:
    """Unidirectional bandwidth between two ranks."""
    _check_loop(env, nbytes, window, iterations, warmup, src, dst)
    engine, _ctx, comm = env.fresh()
    marks: dict[str, float] = {}

    def sender(view):
        for it in range(warmup + iterations):
            if it == warmup:
                yield from view.barrier()
                marks["start"] = engine.now
            reqs = [
                view.isend(dst, nbytes=nbytes, tag=it * window + w)
                for w in range(window)
            ]
            yield waitall(engine, reqs)
            yield from view.recv(dst, tag=1_000_000 + it)  # ack
        marks["stop"] = engine.now

    def receiver(view):
        for it in range(warmup + iterations):
            if it == warmup:
                yield from view.barrier()
            reqs = [
                view.irecv(src, tag=it * window + w) for w in range(window)
            ]
            yield waitall(engine, reqs)
            yield from view.send(src, nbytes=ACK_BYTES, tag=1_000_000 + it)

    def program(view):
        if view.rank == src:
            yield from sender(view)
        elif view.rank == dst:
            yield from receiver(view)
        else:
            # idle ranks still join the start barrier
            yield from view.barrier()

    engine.run(until=comm.run_ranks(program))
    elapsed = marks["stop"] - marks["start"]
    return BwResult(
        nbytes=nbytes,
        window=window,
        iterations=iterations,
        elapsed=elapsed,
        bytes_moved=nbytes * window * iterations,
    )


def osu_bibw(
    env: BenchEnvironment,
    nbytes: int,
    *,
    window: int = 1,
    iterations: int = 4,
    warmup: int = 1,
    src: int = 0,
    dst: int = 1,
) -> BwResult:
    """Bidirectional bandwidth: both ranks stream a window each way."""
    _check_loop(env, nbytes, window, iterations, warmup, src, dst)
    engine, _ctx, comm = env.fresh()
    marks: dict[str, float] = {}

    def pump(view, peer, record_marks):
        for it in range(warmup + iterations):
            if it == warmup:
                yield from view.barrier()
                if record_marks:
                    marks["start"] = engine.now
            sends = [
                view.isend(peer, nbytes=nbytes, tag=it * window + w)
                for w in range(window)
            ]
            recvs = [
                view.irecv(peer, tag=it * window + w) for w in range(window)
            ]
            yield waitall(engine, sends + recvs)
        if record_marks:
            marks["stop"] = engine.now

    def program(view):
        if view.rank == src:
            yield from pump(view, dst, True)
        elif view.rank == dst:
            yield from pump(view, src, False)
        else:
            yield from view.barrier()

    engine.run(until=comm.run_ranks(program))
    elapsed = marks["stop"] - marks["start"]
    return BwResult(
        nbytes=nbytes,
        window=window,
        iterations=iterations,
        elapsed=elapsed,
        bytes_moved=2 * nbytes * window * iterations,
    )


@dataclass(frozen=True)
class CollectiveResult:
    nbytes_per_rank: int
    iterations: int
    latency: float  # mean seconds per invocation


def osu_collective_latency(
    env: BenchEnvironment,
    collective: Callable,
    nbytes_per_rank: int,
    *,
    iterations: int = 3,
    warmup: int = 1,
) -> CollectiveResult:
    """Average latency of ``collective(view, data)`` over the whole node.

    ``collective`` is a generator like :func:`repro.mpi.collectives.allreduce`
    taking (view, payload), where each rank's payload is a float32 array;
    for alltoall-style collectives pass a wrapper that builds the block
    list (see :mod:`repro.bench.collectives`).  Each call's result is
    dropped at once, so a rank never holds two.
    """
    if nbytes_per_rank <= 0 or iterations < 1 or warmup < 0:
        raise ValueError("invalid benchmark parameters")
    engine, _ctx, comm = env.fresh()
    itemsize = np.dtype(np.float32).itemsize
    elems = max(comm.size, nbytes_per_rank // itemsize)
    marks: dict[str, float] = {}

    def program(view):
        data = np.zeros(elems, dtype=np.float32)
        for it in range(warmup + iterations):
            if it == warmup:
                yield from view.barrier()
                if view.rank == 0:
                    marks["start"] = engine.now
            yield from collective(view, data)
            yield from view.barrier()
        if view.rank == 0:
            marks["stop"] = engine.now

    engine.run(until=comm.run_ranks(program))
    elapsed = marks["stop"] - marks["start"]
    return CollectiveResult(
        nbytes_per_rank=elems * itemsize,
        iterations=iterations,
        latency=elapsed / iterations,
    )


__all__ = [
    "BwResult",
    "CollectiveResult",
    "osu_bw",
    "osu_bibw",
    "osu_collective_latency",
]
