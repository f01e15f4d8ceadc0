"""Allgather algorithms: recursive doubling (power-of-two) and ring."""

from __future__ import annotations

import numpy as np

from repro.mpi.comm import RankView


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def allgather(view: RankView, array):
    """Dispatch; result is the list of every rank's contribution."""
    if _is_power_of_two(view.size):
        result = yield from allgather_recursive_doubling(view, array)
    else:
        result = yield from allgather_ring(view, array)
    return result


def allgather_recursive_doubling(view: RankView, array):
    """log2(P) rounds, doubling the gathered set each round."""
    if not _is_power_of_two(view.size):
        raise ValueError("recursive doubling requires power-of-two ranks")
    p, rank = view.size, view.rank
    contribution = np.array(array, copy=True)
    if contribution.ndim != 1:
        raise ValueError("allgather payloads must be 1-D")
    tag = view.next_collective_tag()
    gathered: dict[int, np.ndarray] = {rank: contribution}
    dist = 1
    step = 0
    while dist < p:
        partner = rank ^ dist
        # Ship everything gathered so far as one {owner: block} bundle;
        # it is read at delivery, before this rank updates it, and the
        # receiver keeps a copy.
        received = yield from view.sendrecv(
            partner, partner, payload=gathered, tag=tag + step
        )
        gathered.update(received)
        dist <<= 1
        step += 1
    return [gathered[r] for r in range(p)]


def allgather_ring(view: RankView, array):
    """P-1 neighbour shifts around the ring (any rank count)."""
    p, rank = view.size, view.rank
    contribution = np.array(array, copy=True)
    if contribution.ndim != 1:
        raise ValueError("allgather payloads must be 1-D")
    tag = view.next_collective_tag()
    result: list[np.ndarray] = [None] * p  # type: ignore[list-item]
    result[rank] = contribution
    right = (rank + 1) % p
    left = (rank - 1) % p
    current = contribution
    for s in range(p - 1):
        received = yield from view.sendrecv(right, left, payload=current, tag=tag + s)
        owner = (rank - s - 1) % p
        result[owner] = received
        current = received
    return result


__all__ = ["allgather", "allgather_recursive_doubling", "allgather_ring"]
