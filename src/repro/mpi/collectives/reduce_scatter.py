"""Ring reduce-scatter (the first phase of ring allreduce, exposed)."""

from __future__ import annotations

import numpy as np

from repro.mpi.collectives.allreduce import ring_reduce_scatter
from repro.mpi.comm import RankView


def reduce_scatter_ring(view: RankView, array, op=np.add):
    """Each rank ends with its fully reduced block.

    Returns ``(block, (start, stop))`` where the slice bounds say which
    piece of the input vector this rank owns (the standard MPI block
    assignment: rank r owns block r).
    """
    buf = np.array(array, copy=True)
    if buf.ndim != 1:
        raise ValueError("reduce_scatter payloads must be 1-D")
    p, rank = view.size, view.rank
    if p == 1:
        return buf, (0, buf.size)
    tag = view.next_collective_tag()
    # After p-1 steps, rank owns block (rank + 1) % p fully reduced; one
    # final neighbour shift moves ownership to block == rank: block b sits
    # on rank (b - 1) % p, so ship it to rank + 1 and take mine from
    # rank - 1.  The received copy, made at delivery, is the result.
    bounds, block = yield from ring_reduce_scatter(view, buf, op, tag)
    received = yield from view.sendrecv(
        (rank + 1) % p, (rank - 1) % p, payload=block(rank + 1), tag=tag + p
    )
    return received, (int(bounds[rank]), int(bounds[rank + 1]))


__all__ = ["reduce_scatter_ring"]
