"""Payload helpers for the MPI layer.

Messages either carry a real numpy payload (collectives operate on data so
tests can verify numerics against a reference) or are size-only (bandwidth
benchmarks move "bytes" without materialising buffers).
"""

from __future__ import annotations

import numpy as np


def payload_nbytes(payload, nbytes: int | None) -> int:
    """Resolve the wire size of a message.

    Exactly one of ``payload`` / ``nbytes`` determines the size; if both
    are given they must agree (catching benchmark-harness bugs).  Dict
    payloads (bundles of blocks) count the sum of their values' sizes,
    the size of the blocks' concatenation.
    """
    if payload is None:
        if nbytes is None:
            raise ValueError("either payload or nbytes is required")
        if nbytes < 0:
            raise ValueError("negative message size")
        return int(nbytes)
    if isinstance(payload, dict):
        size = int(sum(np.asarray(v).nbytes for v in payload.values()))
    else:
        size = int(np.asarray(payload).nbytes)
    if nbytes is not None and int(nbytes) != size:
        raise ValueError(f"nbytes={nbytes} disagrees with payload ({size} bytes)")
    return size


def copy_payload(payload):
    """Snapshot a payload at ``isend``, so neither side's later writes
    reach the other.  It is the one copy a message gets: collectives ship
    views (several blocks as a dict bundle) and keep the snapshot."""
    if payload is None:
        return None
    if isinstance(payload, dict):
        return {k: np.array(v, copy=True) for k, v in payload.items()}
    return np.array(payload, copy=True)


__all__ = ["payload_nbytes", "copy_payload"]
