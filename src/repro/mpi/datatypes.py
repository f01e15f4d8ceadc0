"""Payload helpers for the MPI layer.

Messages either carry a real numpy payload (collectives operate on data so
tests can verify numerics against a reference) or are size-only (bandwidth
benchmarks move "bytes" without materialising buffers).

A message is read once, where its receiver keeps it.  ``isend`` snapshots
its payload (:func:`copy_payload`), because its caller goes on running; a
blocking send ships the caller's buffer, which the communicator reads at
delivery.  A receive either keeps the message as its own array (the
snapshot, or a copy made at delivery) or lands it in a buffer it names,
copied or reduced in (:func:`land_payload`).
"""

from __future__ import annotations

import operator

import numpy as np


def payload_nbytes(payload, nbytes: int | None) -> int:
    """Resolve the wire size of a message.

    Exactly one of ``payload`` / ``nbytes`` determines the size; if both
    are given they must agree (catching benchmark-harness bugs).  Dict
    payloads (bundles of blocks) count the sum of their values' sizes,
    the size of the blocks' concatenation.  An ``nbytes`` that is not an
    integer (``operator.index`` rejects it: a float, a string) raises
    :class:`TypeError` rather than ship its truncation.
    """
    if nbytes is not None:
        nbytes = operator.index(nbytes)
    if payload is None:
        if nbytes is None:
            raise ValueError("either payload or nbytes is required")
        if nbytes < 0:
            raise ValueError("negative message size")
        return nbytes
    if isinstance(payload, dict):
        size = int(sum(np.asarray(v).nbytes for v in payload.values()))
    else:
        size = int(np.asarray(payload).nbytes)
    if nbytes is not None and nbytes != size:
        raise ValueError(f"nbytes={nbytes} disagrees with payload ({size} bytes)")
    return size


def copy_payload(payload):
    """A copy of a payload (each block of a bundle) that its receiver
    owns: ``isend``'s snapshot, or a blocking send's buffer read at
    delivery for a receive that names no buffer."""
    if payload is None:
        return None
    if isinstance(payload, dict):
        return {k: np.array(v, copy=True) for k, v in payload.items()}
    return np.array(payload, copy=True)


def land_payload(payload, into: np.ndarray, op=None) -> np.ndarray:
    """Copy a received message into ``into``, or reduce it in with
    ``op(into, payload, out=into)`` (``op`` a numpy ufunc); returns ``into``.

    In place, numpy would broadcast a short message or cast the result to
    ``into``'s dtype (int64 ones plus float64 halves give 2), so a message
    that differs from ``into`` in size or dtype, a size-only message and a
    bundle raise ``ValueError`` and leave ``into`` untouched.
    """
    if payload is None or isinstance(payload, dict):
        got = "a size-only message" if payload is None else "a bundle"
        raise ValueError(
            f"region mismatch: received {got} into {into.size} {into.dtype}"
        )
    msg = np.asarray(payload)
    if msg.size != into.size or msg.dtype != into.dtype:
        raise ValueError(
            f"region mismatch: received {msg.size} {msg.dtype} "
            f"into {into.size} {into.dtype} (unequal payloads?)"
        )
    if msg.shape != into.shape:
        msg = msg.reshape(into.shape)
    if op is None:
        np.copyto(into, msg)
    else:
        op(into, msg, out=into)
    return into


__all__ = ["payload_nbytes", "copy_payload", "land_payload"]
