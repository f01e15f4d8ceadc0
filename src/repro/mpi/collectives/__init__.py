"""Collective algorithms built from non-blocking P2P (paper §5.3).

For large GPU messages the UCC/UCP stack selects:

* **Allreduce** — recursive-halving scatter-reduce followed by
  recursive-doubling allgather (the K-nomial/Rabenseifner family,
  :func:`allreduce`), with a ring fallback for non-power-of-two sizes;
* **Alltoall** — the Bruck algorithm (:func:`alltoall`).

Every step is an ``isend``/``irecv`` pair, so each hits the cuda_ipc module
and — when multi-path is enabled — is split across paths by the model,
which is how the paper's collective speedups arise.

Each message is copied once, by ``isend``'s snapshot
(:func:`~repro.mpi.datatypes.copy_payload`): a step ships views of its
buffer or the caller's blocks (several as one ``{key: block}`` bundle)
and keeps what it receives as a result block or reduces it in place,
``op(target, received, out=target)``, so ``op`` is a numpy ufunc
(``np.add``, ``np.maximum``, ...).  A rank copies the caller's data only
where it keeps it, so no result shares memory with an input.
"""

from repro.mpi.collectives.allreduce import allreduce, allreduce_recursive, allreduce_ring
from repro.mpi.collectives.alltoall import alltoall, alltoall_bruck, alltoall_pairwise
from repro.mpi.collectives.allgather import allgather, allgather_recursive_doubling, allgather_ring
from repro.mpi.collectives.reduce_scatter import reduce_scatter_ring
from repro.mpi.collectives.bcast import bcast_binomial
from repro.mpi.collectives.rooted import (
    gather_binomial,
    reduce_binomial,
    scatter_binomial,
)

__all__ = [
    "allreduce",
    "allreduce_recursive",
    "allreduce_ring",
    "alltoall",
    "alltoall_bruck",
    "alltoall_pairwise",
    "allgather",
    "allgather_recursive_doubling",
    "allgather_ring",
    "reduce_scatter_ring",
    "bcast_binomial",
    "scatter_binomial",
    "gather_binomial",
    "reduce_binomial",
]
