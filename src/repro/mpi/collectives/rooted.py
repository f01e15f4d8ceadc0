"""Rooted collectives: scatter, gather, reduce (binomial trees).

Not evaluated in the paper, but part of any usable MPI layer — and each of
their tree edges is a P2P transfer that the multi-path engine accelerates
like any other.
"""

from __future__ import annotations

import numpy as np

from repro.mpi.comm import RankView


def _children_and_parent(vrank: int, p: int) -> tuple[list[int], int | None]:
    """Binomial-tree relations in virtual-rank space (root = 0)."""
    if vrank == 0:
        parent = None
    else:
        mask = 1
        while mask <= vrank:
            mask <<= 1
        parent = vrank - (mask >> 1)
    children = []
    mask = 1
    while mask <= vrank:
        mask <<= 1
    while mask < p:
        child = vrank + mask
        if child < p:
            children.append(child)
        mask <<= 1
    return children, parent


def _subtree(vrank: int, p: int) -> list[int]:
    """All virtual ranks in the binomial subtree rooted at ``vrank``.

    Binomial subtrees are not contiguous rank ranges (subtree(1) on 4
    ranks is {1, 3}), so membership is collected recursively.
    """
    members = [vrank]
    children, _ = _children_and_parent(vrank, p)
    for c in children:
        members.extend(_subtree(c, p))
    return members


def scatter_binomial(view: RankView, blocks=None, root: int = 0):
    """Scatter ``blocks[j]`` (given at the root) to rank ``j``.

    Internally ships subtree bundles down a binomial tree (the standard
    large-message scatter), so upper tree levels move large aggregated
    payloads that benefit from multi-path splitting.
    """
    p, rank = view.size, view.rank
    if not 0 <= root < p:
        raise ValueError("root out of range")
    tag = view.next_collective_tag()
    vrank = (rank - root) % p

    if rank == root:
        if blocks is None or len(blocks) != p:
            raise ValueError(f"root must supply {p} blocks")
        # Every block shipped is copied at delivery: copy only the root's.
        bundle = {j: blocks[(j + root) % p] for j in range(p)}
        bundle[0] = np.array(bundle[0], copy=True)
    else:
        bundle = None

    children, parent = _children_and_parent(vrank, p)
    if parent is not None:
        bundle = yield from view.recv((parent + root) % p, tag=tag)
    assert bundle is not None
    for child_v in children:
        subtree = {
            v: bundle.pop(v) for v in _subtree(child_v, p) if v in bundle
        }
        yield from view.send((child_v + root) % p, payload=subtree, tag=tag)
    return bundle[vrank]


def gather_binomial(view: RankView, array, root: int = 0):
    """Gather every rank's array at the root (binomial tree, bundled)."""
    p, rank = view.size, view.rank
    if not 0 <= root < p:
        raise ValueError("root out of range")
    tag = view.next_collective_tag()
    vrank = (rank - root) % p
    children, parent = _children_and_parent(vrank, p)

    # A non-root rank only ships its array, which is copied at delivery.
    bundle = {vrank: array if parent is not None else np.array(array, copy=True)}
    # Children report in increasing-subtree order (reverse of scatter).
    for child_v in sorted(children):
        received = yield from view.recv((child_v + root) % p, tag=tag)
        bundle.update(received)
    if parent is not None:
        yield from view.send((parent + root) % p, payload=bundle, tag=tag)
        return None
    return [bundle[(j - root) % p] for j in range(p)]


def reduce_binomial(view: RankView, array, op=np.add, root: int = 0):
    """Reduce to the root along a binomial tree, applying ``op`` per hop."""
    p, rank = view.size, view.rank
    if not 0 <= root < p:
        raise ValueError("root out of range")
    tag = view.next_collective_tag()
    vrank = (rank - root) % p
    children, parent = _children_and_parent(vrank, p)

    acc = np.array(array, copy=True)
    for child_v in sorted(children):
        # The child's partial result is reduced into ``acc`` as it arrives.
        yield from view.recv((child_v + root) % p, tag=tag, into=acc, op=op)
        yield from view.compute(acc.nbytes)
    if parent is not None:
        yield from view.send((parent + root) % p, payload=acc, tag=tag)
        return None
    return acc


__all__ = ["scatter_binomial", "gather_binomial", "reduce_binomial"]
