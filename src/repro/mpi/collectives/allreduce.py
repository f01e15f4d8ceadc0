"""Allreduce algorithms.

:func:`allreduce_recursive` is the recursive-halving scatter-reduce +
recursive-doubling allgather scheme UCP picks for large messages (paper
§5.3, "recursive K-nomial scatter-reduce followed by K-nomial allgather";
radix 2).  It requires a power-of-two rank count; :func:`allreduce_ring`
handles any count.  :func:`allreduce` dispatches.

Reduction arithmetic is performed for real on the payloads (so tests can
check numerics) *and* charged as simulated GPU time via ``view.compute``.
A step's message is reduced into the kept region as it is delivered
(``sendrecv(..., into=region, op=op)``) and the step's GPU time is charged
after the step returns; the allgather lands each region the same way.
"""

from __future__ import annotations

import numpy as np

from repro.mpi.comm import RankView


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def ring_reduce_scatter(view: RankView, buf: np.ndarray, op, tag: int):
    """Reduce ``buf``'s p blocks in place in p-1 ring steps; afterwards
    this rank holds block (rank + 1) % p fully reduced.  Returns the block
    bounds and ``block``, where ``block(i)`` is block ``i % p``."""
    p, rank = view.size, view.rank
    bounds = np.linspace(0, buf.size, p + 1).astype(int)

    def block(i):
        i %= p
        return buf[bounds[i] : bounds[i + 1]]

    for s in range(p - 1):
        target = block(rank - s - 1)
        yield from view.sendrecv(
            (rank + 1) % p,
            (rank - 1) % p,
            payload=block(rank - s),
            into=target,
            op=op,
            tag=tag + s,
        )
        yield from view.compute(target.nbytes)
    return bounds, block


def allreduce(view: RankView, array, op=np.add):
    """Dispatch to the best algorithm for the communicator size."""
    if _is_power_of_two(view.size):
        result = yield from allreduce_recursive(view, array, op)
    else:
        result = yield from allreduce_ring(view, array, op)
    return result


def allreduce_recursive(view: RankView, array, op=np.add):
    """Recursive halving (scatter-reduce) + recursive doubling (allgather)."""
    if not _is_power_of_two(view.size):
        raise ValueError("recursive allreduce requires power-of-two ranks")
    array = np.asarray(array)
    if array.ndim != 1:
        raise ValueError("allreduce payloads must be 1-D")
    p, rank = view.size, view.rank
    tag = view.next_collective_tag()
    if p == 1:
        return array.copy()

    # Phase 1: recursive halving — each step trades half of the active
    # region with the partner, which reduces it into its kept half as it
    # arrives.
    buf = np.empty_like(array)
    steps = []
    offset, count = 0, buf.size
    dist = p // 2
    step_id = 0
    while dist >= 1:
        partner = rank ^ dist
        half = count // 2
        if rank < partner:
            keep_off, keep_cnt = offset, half
            send_off, send_cnt = offset + half, count - half
        else:
            send_off, send_cnt = offset, half
            keep_off, keep_cnt = offset + half, count - half
        kept = buf[keep_off : keep_off + keep_cnt]
        source = buf
        if step_id == 0:
            # The result starts as the half of the input this rank keeps;
            # the other half ships straight from the caller's array.
            kept[:] = array[keep_off : keep_off + keep_cnt]
            source = array
        yield from view.sendrecv(
            partner,
            partner,
            payload=source[send_off : send_off + send_cnt],
            into=kept,
            op=op,
            tag=tag + step_id,
        )
        yield from view.compute(kept.nbytes)
        steps.append((send_off, send_cnt, keep_off, keep_cnt, partner))
        offset, count = keep_off, keep_cnt
        dist //= 2
        step_id += 1

    # Phase 2: recursive doubling — replay in reverse, exchanging owned
    # regions so everyone reassembles the fully reduced vector; each
    # region lands in the result where it belongs.
    for send_off, send_cnt, keep_off, keep_cnt, partner in reversed(steps):
        yield from view.sendrecv(
            partner,
            partner,
            payload=buf[keep_off : keep_off + keep_cnt],
            into=buf[send_off : send_off + send_cnt],
            tag=tag + step_id,
        )
        step_id += 1
    return buf


def allreduce_ring(view: RankView, array, op=np.add):
    """Ring reduce-scatter + ring allgather (any rank count)."""
    buf = np.array(array, copy=True)
    if buf.ndim != 1:
        raise ValueError("allreduce payloads must be 1-D")
    p, rank = view.size, view.rank
    if p == 1:
        return buf
    tag = view.next_collective_tag()
    _bounds, block = yield from ring_reduce_scatter(view, buf, op, tag)

    # Allgather: circulate the reduced blocks.
    right = (rank + 1) % p
    left = (rank - 1) % p
    for s in range(p - 1):
        send_idx = (rank - s + 1) % p
        recv_idx = (rank - s) % p
        yield from view.sendrecv(
            right,
            left,
            payload=block(send_idx),
            into=block(recv_idx),
            tag=tag + p + s,
        )
    return buf


__all__ = ["allreduce", "allreduce_recursive", "allreduce_ring"]
