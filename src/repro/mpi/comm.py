"""Communicator: rank processes, message matching, barriers.

Ranks are generator functions driven by the simulation engine, one per GPU.
Point-to-point matching follows MPI semantics: a transfer starts once both
the send and a matching receive are posted (rendezvous — correct for the
large GPU messages this stack targets), matching on (source, tag) with
wildcards, in posting order.  A message is delivered when its put
completes: the communicator reads it then, keeps it for the receive or
lands it in the receive's ``into`` buffer, and finishes the send and then
the receive.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Generator
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.mpi.datatypes import copy_payload, land_payload, payload_nbytes
from repro.mpi.request import Request, waitall
from repro.sim.engine import Engine, Event
from repro.ucx.context import UCXContext

ANY_SOURCE = -1
ANY_TAG = -1


@dataclass(slots=True)
class _PendingSend:
    src: int
    dst: int
    tag: int
    nbytes: int
    payload: Any
    #: True for ``isend``'s snapshot, which a receive may keep as it is;
    #: False for a blocking send's own buffer, which only delivery reads.
    snapshot: bool
    request: Request


@dataclass(slots=True)
class _PostedRecv:
    dst: int
    src: int  # may be ANY_SOURCE
    tag: int  # may be ANY_TAG
    into: np.ndarray | None  # the buffer the message lands in
    op: Any  # numpy ufunc reducing the message into ``into``
    request: Request


def _check_landing(into, op) -> None:
    if op is not None and into is None:
        raise ValueError("op reduces into a buffer: pass into= as well")
    if into is not None and not isinstance(into, np.ndarray):
        raise TypeError("into must be a numpy array")


class Communicator:
    """An intra-node communicator: rank ``r`` runs on GPU ``r % num_gpus``,
    so ranks map 1:1 onto GPUs unless there are more ranks than GPUs."""

    def __init__(
        self,
        context: UCXContext,
        size: int | None = None,
        *,
        reduce_bandwidth: float = 250e9,
    ) -> None:
        topo_gpus = context.topology.num_gpus
        self.context = context
        self.engine: Engine = context.engine
        self.size = size if size is not None else topo_gpus
        if self.size < 1:
            raise ValueError("communicator needs at least one rank")
        self.rank_to_device = [r % topo_gpus for r in range(self.size)]
        if reduce_bandwidth <= 0:
            raise ValueError("reduce_bandwidth must be > 0")
        self.reduce_bandwidth = float(reduce_bandwidth)

        self._pending_sends: deque[_PendingSend] = deque()
        self._posted_recvs: deque[_PostedRecv] = deque()
        self._barrier_waiters: list[Event] = []
        self._barrier_epoch = 0
        self._coll_seq: dict[int, int] = {}
        self.messages_matched = 0
        self.bytes_transferred = 0
        self.local_copies = 0
        if context.obs is not None:
            context.obs.metrics.register_collector("mpi", self.stats_snapshot)

    # ------------------------------------------------------------------
    def view(self, rank: int) -> "RankView":
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range")
        return RankView(self, rank)

    def run_ranks(self, fn: Callable[["RankView"], Generator]) -> Event:
        """Launch ``fn(view)`` as a process per rank; barrier on them all.

        The returned event's value is the list of per-rank return values.
        """
        procs = [
            self.engine.process(fn(self.view(r)), name=f"rank{r}")
            for r in range(self.size)
        ]
        return self.engine.all_of(procs)

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    def _post_send(
        self, src: int, dst: int, tag: int, nbytes: int | None, payload: Any,
        snapshot: bool,
    ) -> Request:
        size = payload_nbytes(payload, nbytes)
        if not 0 <= dst < self.size:
            raise ValueError(f"destination rank {dst} out of range")
        req = Request(self.engine, "send", dst, tag)
        if snapshot:
            payload = copy_payload(payload)
        pend = _PendingSend(src, dst, tag, size, payload, snapshot, req)
        recv = self._match_recv(pend)
        if recv is not None:
            self._start_transfer(pend, recv)
        else:
            self._pending_sends.append(pend)
        return req

    def _post_recv(self, dst: int, src: int, tag: int, into, op) -> Request:
        if src != ANY_SOURCE and not 0 <= src < self.size:
            raise ValueError(f"source rank {src} out of range")
        req = Request(self.engine, "recv", src, tag)
        post = _PostedRecv(dst, src, tag, into, op, req)
        send = self._match_send(post)
        if send is not None:
            self._start_transfer(send, post)
        else:
            self._posted_recvs.append(post)
        return req

    def _match_recv(self, send: _PendingSend) -> _PostedRecv | None:
        for i, recv in enumerate(self._posted_recvs):
            if recv.dst != send.dst:
                continue
            if recv.src not in (ANY_SOURCE, send.src):
                continue
            if recv.tag not in (ANY_TAG, send.tag):
                continue
            del self._posted_recvs[i]
            return recv
        return None

    def _match_send(self, recv: _PostedRecv) -> _PendingSend | None:
        for i, send in enumerate(self._pending_sends):
            if send.dst != recv.dst:
                continue
            if recv.src not in (ANY_SOURCE, send.src):
                continue
            if recv.tag not in (ANY_TAG, send.tag):
                continue
            del self._pending_sends[i]
            return send
        return None

    def _start_transfer(self, send: _PendingSend, recv: _PostedRecv) -> None:
        self.messages_matched += 1
        self.bytes_transferred += send.nbytes
        src_dev = self.rank_to_device[send.src]
        dst_dev = self.rank_to_device[send.dst]
        if src_dev == dst_dev:
            # Same-device "transfer": local copy, effectively instant at
            # this modelling granularity.
            self.local_copies += 1
            self._deliver(send, recv)
            return
        # All MPI traffic (and with it every collective) goes through the
        # transfer service: admission control, load tracking, deadlines.
        put = self.context.transfers.submit(
            src_dev,
            dst_dev,
            send.nbytes,
            tag=f"r{send.src}->r{send.dst}:t{send.tag}",
        )

        def complete(ev):
            if ev.ok:
                self._deliver(send, recv)
            else:
                send.request._fail(ev._exception)
                recv.request._fail(ev._exception)

        put.add_callback(complete)

    @staticmethod
    def _deliver(send: _PendingSend, recv: _PostedRecv) -> None:
        """Read the message where the receive keeps it, then finish the
        send and then the receive.  A message that cannot land (a region
        mismatch, or an error of ``op``) fails the receive alone."""
        try:
            if recv.into is not None:
                value = land_payload(send.payload, recv.into, recv.op)
            elif send.snapshot:
                value = send.payload
            else:
                value = copy_payload(send.payload)
        except Exception as exc:
            send.request._finish(None)
            recv.request._fail(exc)
        else:
            send.request._finish(None)
            recv.request._finish(value)

    # ------------------------------------------------------------------
    def barrier_event(self) -> Event:
        """One rank arrives at the barrier; all released together."""
        ev = self.engine.event()
        self._barrier_waiters.append(ev)
        if len(self._barrier_waiters) == self.size:
            waiters, self._barrier_waiters = self._barrier_waiters, []
            self._barrier_epoch += 1
            for w in waiters:
                w.succeed(self._barrier_epoch)
        return ev

    # ------------------------------------------------------------------
    def compute_cost(self, nbytes: int) -> float:
        """Simulated duration of an element-wise reduction over nbytes."""
        return nbytes / self.reduce_bandwidth

    @property
    def unmatched(self) -> tuple[int, int]:
        """(pending sends, posted recvs) — should be (0, 0) at teardown."""
        return len(self._pending_sends), len(self._posted_recvs)

    def stats_snapshot(self) -> dict:
        """Structured run statistics, pulled by a metrics collector."""
        pending, posted = self.unmatched
        return {
            "size": self.size,
            "messages_matched": self.messages_matched,
            "bytes_transferred": self.bytes_transferred,
            "local_copies": self.local_copies,
            "barrier_epochs": self._barrier_epoch,
            "unmatched_sends": pending,
            "unmatched_recvs": posted,
        }


class RankView:
    """The per-rank handle rank programs use."""

    def __init__(self, comm: Communicator, rank: int) -> None:
        self.comm = comm
        self.rank = rank
        self.engine = comm.engine

    @property
    def size(self) -> int:
        return self.comm.size

    # ------------------------------------------------------------------
    # Non-blocking
    # ------------------------------------------------------------------
    def isend(
        self, dst: int, *, nbytes: int | None = None, payload=None, tag: int = 0
    ) -> Request:
        """Post a send and go on running.  The payload is snapshotted here,
        so the caller may change its buffer at once; the receiver gets the
        snapshot itself, or it is landed in the receive's ``into``."""
        return self.comm._post_send(self.rank, dst, tag, nbytes, payload, True)

    def irecv(
        self, src: int = ANY_SOURCE, *, tag: int = ANY_TAG, into=None, op=None
    ) -> Request:
        """Post a receive.  Without ``into`` its value is an array the
        receiver owns (``isend``'s snapshot, or a copy of a blocking send's
        buffer made at delivery).  With ``into`` (an array) the message is
        copied into it at delivery, or reduced into it with
        ``op(into, msg, out=into)`` (``op`` a numpy ufunc, allowed only with
        ``into``), and the value is ``into`` itself.  A message that
        differs from ``into`` in size or dtype, a size-only message and a
        bundle fail the receive alone with ``ValueError`` ("region
        mismatch"), leaving ``into`` untouched; the send still completes.
        """
        _check_landing(into, op)
        return self.comm._post_recv(self.rank, src, tag, into, op)

    # ------------------------------------------------------------------
    # Blocking (generator helpers: `result = yield from view.recv(...)`)
    # ------------------------------------------------------------------
    def send(self, dst: int, *, nbytes: int | None = None, payload=None, tag: int = 0):
        """Send and wait until the message is delivered.  The rank waits
        until then, so its buffer ships as it is, read at delivery, with
        no snapshot."""
        req = self.comm._post_send(self.rank, dst, tag, nbytes, payload, False)
        yield req.event
        return None

    def recv(
        self, src: int = ANY_SOURCE, *, tag: int = ANY_TAG, into=None, op=None
    ):
        """Receive and wait for the message; ``into`` and ``op`` as for
        :meth:`irecv`."""
        req = self.irecv(src, tag=tag, into=into, op=op)
        value = yield req.event
        return value

    def sendrecv(
        self,
        dst: int,
        src: int,
        *,
        nbytes: int | None = None,
        payload=None,
        tag: int = 0,
        into=None,
        op=None,
    ):
        """Concurrent exchange; returns the received payload (``into``
        when given, as for :meth:`irecv`).  The rank waits for both, so
        the payload ships as :meth:`send` ships it, read at delivery.
        ``into`` must not overlap ``payload`` (as MPI_Sendrecv's buffers
        must not): a delivery into it could change what is sent, so that
        raises ``ValueError`` before anything is posted."""
        _check_landing(into, op)
        if into is not None and payload is not None:
            blocks = payload.values() if isinstance(payload, dict) else (payload,)
            if any(np.may_share_memory(into, b) for b in blocks):
                raise ValueError("sendrecv: into overlaps the payload")
        sreq = self.comm._post_send(self.rank, dst, tag, nbytes, payload, False)
        rreq = self.comm._post_recv(self.rank, src, tag, into, op)
        yield waitall(self.engine, [sreq, rreq])
        return rreq.event.value

    def barrier(self):
        yield self.comm.barrier_event()

    def next_collective_tag(self) -> int:
        """Fresh tag base for a collective invocation.

        Ranks execute collectives in the same (SPMD) program order, so the
        per-rank counters stay aligned across ranks without communication.
        Each collective gets a 64-tag window for its internal steps.
        """
        seq = self.comm._coll_seq.get(self.rank, 0)
        self.comm._coll_seq[self.rank] = seq + 1
        return (1 << 20) + seq * 64

    def compute(self, nbytes: int):
        """Charge reduction-kernel time for nbytes of elementwise work."""
        cost = self.comm.compute_cost(nbytes)
        if cost > 0:
            yield self.engine.timeout(cost)


__all__ = ["Communicator", "RankView", "ANY_SOURCE", "ANY_TAG"]
