"""Collective algorithms built from P2P steps (paper §5.3).

For large GPU messages the UCC/UCP stack selects:

* **Allreduce** — recursive-halving scatter-reduce followed by
  recursive-doubling allgather (the K-nomial/Rabenseifner family,
  :func:`allreduce`), with a ring fallback for non-power-of-two sizes;
* **Alltoall** — the Bruck algorithm (:func:`alltoall`).

Every step posts a send and a matching receive, so each message hits the
cuda_ipc module and — when multi-path is enabled — is split across paths
by the model, which is how the paper's collective speedups arise.

Each message is read once, at delivery, where the receiving rank keeps it.
Steps are blocking (``sendrecv``, ``send``/``recv``), so a step ships
views of its buffer or the caller's blocks (several as one
``{key: block}`` bundle) with no snapshot.  The reductions and the
allreduce allgather land each message in the rank's own buffer
(``into=``): copied in, or reduced in with
``op(target, received, out=target)``, so ``op`` is a numpy ufunc
(``np.add``, ``np.maximum``, ...).
Bruck, allgather, bcast, scatter and gather keep what they receive as a
result block, a copy made at delivery
(:func:`~repro.mpi.datatypes.copy_payload`).  A rank copies the caller's
data only where it keeps it, so no result shares memory with an input.
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
