"""Alltoall algorithms.

:func:`alltoall_bruck` is the Bruck algorithm the UCP stack uses for
MPI_Alltoall (paper §5.3): ``ceil(log2 P)`` rounds, each shipping roughly
half the blocks to a rank at distance ``2^k``.  :func:`alltoall_pairwise`
(P-1 pairwise exchange rounds) is the classic large-message alternative
used as an ablation comparator.
"""

from __future__ import annotations

import numpy as np

from repro.mpi.comm import RankView


def _check_blocks(view: RankView, blocks) -> list[np.ndarray]:
    if len(blocks) != view.size:
        raise ValueError(f"need {view.size} blocks, got {len(blocks)}")
    arrs = [np.asarray(b) for b in blocks]
    first = arrs[0]
    for a in arrs:
        if a.shape != first.shape or a.dtype != first.dtype:
            raise ValueError("alltoall requires uniform block shape/dtype")
        if a.ndim != 1:
            raise ValueError("blocks must be 1-D")
    return arrs


def alltoall(view: RankView, blocks):
    """Dispatch (Bruck, matching the paper's UCC configuration)."""
    result = yield from alltoall_bruck(view, blocks)
    return result


def alltoall_bruck(view: RankView, blocks):
    """Bruck alltoall.

    ``blocks[j]`` is this rank's data destined for rank ``j``; the result
    list's entry ``j`` is the block received from rank ``j``.
    """
    arrs = _check_blocks(view, blocks)
    p, rank = view.size, view.rank
    if p == 1:
        return [arrs[0].copy()]
    tag = view.next_collective_tag()

    # Phase 1: local rotation so slot i holds data for rank (rank + i) % p.
    # Slot 0, this rank's own block, is its result and the one copy made
    # here.  Every other slot has a bit set, so a round replaces it with a
    # received block; until then it is a view of the caller's block,
    # which is copied at delivery when it ships.
    slots = [arrs[(rank + i) % p] for i in range(p)]
    slots[0] = slots[0].copy()

    # Phase 2: log rounds; round k ships the slots whose index has bit k
    # set, as one {slot: block} bundle (the wire size of their
    # concatenation).
    k = 1
    step = 0
    while k < p:
        send_to = (rank + k) % p
        recv_from = (rank - k) % p
        idx = [i for i in range(p) if i & k]
        received = yield from view.sendrecv(
            send_to, recv_from, payload={i: slots[i] for i in idx}, tag=tag + step
        )
        for i in idx:
            slots[i] = received[i]
        k <<= 1
        step += 1

    # Phase 3: final inverse rotation — slot i now holds the block that
    # originated at rank (rank - i) % p.
    result: list[np.ndarray] = [None] * p  # type: ignore[list-item]
    for i in range(p):
        result[(rank - i) % p] = slots[i]
    return result


def alltoall_pairwise(view: RankView, blocks):
    """Pairwise-exchange alltoall: P-1 rounds of sendrecv with rank ^ s or
    rotational partners (works for any P)."""
    arrs = _check_blocks(view, blocks)
    p, rank = view.size, view.rank
    tag = view.next_collective_tag()
    result: list[np.ndarray] = [None] * p  # type: ignore[list-item]
    result[rank] = arrs[rank].copy()
    for s in range(1, p):
        send_to = (rank + s) % p
        recv_from = (rank - s) % p
        received = yield from view.sendrecv(
            send_to, recv_from, payload=arrs[send_to], tag=tag + s
        )
        result[recv_from] = received
    return result


__all__ = ["alltoall", "alltoall_bruck", "alltoall_pairwise"]
