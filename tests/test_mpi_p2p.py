"""Tests for the MPI layer: matching, requests, barriers."""

import numpy as np
import pytest

from repro.mpi import ANY_SOURCE, ANY_TAG, Communicator, waitall
from repro.mpi.datatypes import payload_nbytes
from repro.runtime.sanitizer import check_invariants
from repro.sim import Engine
from repro.sim.faults import FaultSchedule, LinkDown
from repro.topology import systems
from repro.ucx import PathUnavailable, TransportConfig, UCXContext
from repro.units import MiB


def make_comm(topology=None, size=None, **ctx_kw):
    eng = Engine()
    ctx = UCXContext(eng, topology or systems.beluga(), **ctx_kw)
    return eng, Communicator(ctx, size=size)


class TestBasicSendRecv:
    def test_payload_delivery(self):
        eng, comm = make_comm()
        data = np.arange(1024, dtype=np.float64)
        out = {}

        def program(view):
            if view.rank == 0:
                yield from view.send(1, payload=data, tag=7)
            elif view.rank == 1:
                out["got"] = yield from view.recv(0, tag=7)
            else:
                yield from view.barrier()
                return
            yield from view.barrier()

        eng.run(until=comm.run_ranks(program))
        np.testing.assert_array_equal(out["got"], data)

    def test_payload_is_copied(self):
        eng, comm = make_comm()
        data = np.zeros(16)
        out = {}

        def program(view):
            if view.rank == 0:
                req = view.isend(1, payload=data, tag=0)
                data[:] = 99.0  # mutate after isend: receiver must not see it
                yield req.event
            elif view.rank == 1:
                out["got"] = yield from view.recv(0)
            yield from view.barrier()

        eng.run(until=comm.run_ranks(program))
        assert np.all(out["got"] == 0.0)

    def test_size_only_messages(self):
        eng, comm = make_comm()

        def program(view):
            if view.rank == 0:
                yield from view.send(1, nbytes=8 * MiB)
            elif view.rank == 1:
                got = yield from view.recv(0)
                assert got is None
            yield from view.barrier()

        eng.run(until=comm.run_ranks(program))
        assert comm.bytes_transferred == 8 * MiB

    def test_transfer_takes_time(self):
        eng, comm = make_comm()

        def program(view):
            if view.rank == 0:
                yield from view.send(1, nbytes=64 * MiB)
            elif view.rank == 1:
                yield from view.recv(0)
            yield from view.barrier()

        eng.run(until=comm.run_ranks(program))
        # 64 MiB over <=138 GB/s aggregate: at least ~0.4ms
        assert eng.now > 100e-6


class TestLanding:
    """A receive given ``into`` lands the message in that buffer at
    delivery, copied or reduced in; without it, the receiver owns what
    it gets."""

    def exchange(self, payload, **recv_kw):
        """Rank 0 sends ``payload`` to rank 1, which receives it with
        ``recv_kw``; returns what the receive returned."""
        eng, comm = make_comm()
        out = {}

        def program(view):
            if view.rank == 0:
                yield from view.send(1, payload=payload)
            elif view.rank == 1:
                out["got"] = yield from view.recv(0, **recv_kw)

        eng.run(until=comm.run_ranks(program))
        return out["got"]

    def test_recv_into_returns_the_buffer(self):
        data = np.arange(1024, dtype=np.float64)
        into = np.zeros(1024)
        got = self.exchange(data, into=into)
        assert got is into
        np.testing.assert_array_equal(into, data)

    def test_recv_into_with_op_reduces_in_place(self):
        acc = np.arange(8, dtype=np.int64) * 10
        got = self.exchange(np.full(8, 3, dtype=np.int64), into=acc, op=np.add)
        assert got is acc
        np.testing.assert_array_equal(acc, np.arange(8) * 10 + 3)
        assert acc.dtype == np.int64

    @pytest.mark.parametrize(
        "payload",
        [
            np.ones(4, dtype=np.int64),
            np.full(8, 0.5),
            None,
            {0: np.ones(8, dtype=np.int64)},
        ],
        ids=["size", "dtype", "size_only", "bundle"],
    )
    @pytest.mark.parametrize("op", [None, np.add], ids=["copy", "reduce"])
    def test_mismatch_fails_only_the_receive(self, payload, op):
        into = np.arange(8, dtype=np.int64)
        eng, comm = make_comm()
        out = {}

        def program(view):
            if view.rank == 0:
                if payload is None:
                    req = view.isend(1, nbytes=64)
                else:
                    req = view.isend(1, payload=payload)
                yield req.event
                out["send_ok"] = req.event.ok
            elif view.rank == 1:
                with pytest.raises(ValueError, match="region mismatch"):
                    yield from view.recv(0, into=into, op=op)
                out["failed"] = True

        eng.run(until=comm.run_ranks(program))
        assert out == {"send_ok": True, "failed": True}
        np.testing.assert_array_equal(into, np.arange(8))
        assert comm.unmatched == (0, 0)

    def test_op_error_fails_only_the_receive(self):
        """An ``op`` that raises at delivery fails the receive, not the
        put's completion callback."""
        into = np.zeros(8)
        eng, comm = make_comm()
        out = {}

        def program(view):
            if view.rank == 0:
                yield from view.send(1, payload=np.ones(8))
                out["sent"] = True
            elif view.rank == 1:
                with pytest.raises(TypeError):
                    yield from view.recv(0, into=into, op=np.bitwise_and)
                out["failed"] = True

        eng.run(until=comm.run_ranks(program))
        assert out == {"sent": True, "failed": True}
        np.testing.assert_array_equal(into, np.zeros(8))

    def test_op_without_into_posts_nothing(self):
        _, comm = make_comm()
        view = comm.view(0)
        with pytest.raises(ValueError, match="into"):
            view.irecv(1, op=np.add)
        with pytest.raises(ValueError, match="into"):
            next(view.sendrecv(1, 1, payload=np.zeros(4), op=np.add))
        assert comm.unmatched == (0, 0)

    def test_non_array_into_posts_nothing(self):
        _, comm = make_comm()
        with pytest.raises(TypeError, match="numpy array"):
            comm.view(0).irecv(1, into=[0.0] * 4)
        assert comm.unmatched == (0, 0)

    def test_sendrecv_into_overlapping_payload_posts_nothing(self):
        _, comm = make_comm()
        buf = np.zeros(16)
        with pytest.raises(ValueError, match="overlaps"):
            next(comm.view(0).sendrecv(1, 1, payload=buf[:8], into=buf[4:12]))
        with pytest.raises(ValueError, match="overlaps"):
            next(comm.view(0).sendrecv(1, 1, payload={3: buf[:8]}, into=buf[4:12]))
        assert comm.unmatched == (0, 0)

    @pytest.mark.parametrize("size,dst", [(4, 1), (8, 4)], ids=["put", "same_device"])
    def test_blocking_send_receiver_owns_its_array(self, size, dst):
        eng, comm = make_comm(size=size)
        data = np.arange(64, dtype=np.float64)
        out = {}

        def program(view):
            if view.rank == 0:
                yield from view.send(dst, payload=data)
            elif view.rank == dst:
                out["got"] = yield from view.recv(0)

        eng.run(until=comm.run_ranks(program))
        np.testing.assert_array_equal(out["got"], data)
        assert not np.shares_memory(out["got"], data)


class TestMatching:
    def test_tag_matching(self):
        eng, comm = make_comm()
        order = []

        def program(view):
            if view.rank == 0:
                # isend both: sends complete in rendezvous order chosen by
                # the receiver, so blocking sends here would deadlock.
                r1 = view.isend(1, payload=np.array([1.0]), tag=10)
                r2 = view.isend(1, payload=np.array([2.0]), tag=20)
                yield waitall(view.engine, [r1, r2])
            elif view.rank == 1:
                # Receive tag 20 first even though tag 10 was sent first.
                got20 = yield from view.recv(0, tag=20)
                got10 = yield from view.recv(0, tag=10)
                order.extend([got20[0], got10[0]])
            yield from view.barrier()

        eng.run(until=comm.run_ranks(program))
        assert order == [2.0, 1.0]

    def test_any_source_any_tag(self):
        eng, comm = make_comm()
        got = []

        def program(view):
            if view.rank in (0, 2):
                yield from view.send(1, payload=np.array([float(view.rank)]), tag=view.rank)
            elif view.rank == 1:
                a = yield from view.recv(ANY_SOURCE, tag=ANY_TAG)
                b = yield from view.recv(ANY_SOURCE, tag=ANY_TAG)
                got.extend(sorted([a[0], b[0]]))
            yield from view.barrier()

        eng.run(until=comm.run_ranks(program))
        assert got == [0.0, 2.0]

    def test_fifo_order_same_tag(self):
        eng, comm = make_comm()
        got = []

        def program(view):
            if view.rank == 0:
                for i in range(3):
                    yield from view.send(1, payload=np.array([float(i)]), tag=5)
            elif view.rank == 1:
                for _ in range(3):
                    v = yield from view.recv(0, tag=5)
                    got.append(v[0])
            yield from view.barrier()

        eng.run(until=comm.run_ranks(program))
        assert got == [0.0, 1.0, 2.0]

    def test_unmatched_counts(self):
        eng, comm = make_comm()
        view = comm.view(0)
        view.isend(1, nbytes=4, tag=1)
        assert comm.unmatched == (1, 0)
        comm.view(1).irecv(0, tag=1)
        eng.run()
        assert comm.unmatched == (0, 0)


class TestNonBlocking:
    def test_isend_irecv_waitall(self):
        eng, comm = make_comm()
        results = {}

        def program(view):
            if view.rank == 0:
                reqs = [
                    view.isend(1, payload=np.array([i], dtype=np.int64), tag=i)
                    for i in range(4)
                ]
                yield waitall(view.engine, reqs)
            elif view.rank == 1:
                reqs = [view.irecv(0, tag=i) for i in range(4)]
                values = yield waitall(view.engine, reqs)
                results["values"] = [v[0] for v in values]
            yield from view.barrier()

        eng.run(until=comm.run_ranks(program))
        assert results["values"] == [0, 1, 2, 3]

    def test_request_test(self):
        eng, comm = make_comm()
        req = comm.view(1).irecv(0, tag=3)
        done, _ = req.test()
        assert not done
        comm.view(0).isend(1, nbytes=4, tag=3)
        eng.run()
        done, _ = req.test()
        assert done

    def test_sendrecv_bidirectional(self):
        eng, comm = make_comm()
        out = {}

        def program(view):
            if view.rank > 1:
                return
                yield
            peer = 1 - view.rank
            got = yield from view.sendrecv(
                peer, peer, payload=np.array([view.rank * 1.0]), tag=2
            )
            out[view.rank] = got[0]

        eng.run(until=comm.run_ranks(program))
        assert out == {0: 1.0, 1: 0.0}

    def test_failed_transfer_fails_both_requests(self):
        """A put that cannot be delivered fails the send and the receive
        with the same typed error, leaving nothing matched or leaked."""
        eng, comm = make_comm(
            config=TransportConfig(
                multipath=False, include_host=False, max_path_retries=0
            )
        )
        ctx = comm.context
        FaultSchedule(LinkDown("nvl:0->1", at=0.0)).attach(ctx.runtime.fabric)
        errors = {}

        def program(view):
            if view.rank == 0:
                req = view.isend(1, nbytes=4 * MiB)
            elif view.rank == 1:
                req = view.irecv(0)
            else:
                return
            try:
                yield req.event
            except PathUnavailable as exc:
                errors[view.rank] = exc

        eng.run(until=comm.run_ranks(program))
        assert set(errors) == {0, 1}
        assert errors[0] is errors[1]
        assert comm.unmatched == (0, 0)
        assert ctx.transfers.failed == 1
        assert check_invariants(ctx).ok


class TestBarrier:
    def test_barrier_releases_all_at_once(self):
        eng, comm = make_comm()
        times = {}

        def program(view):
            yield view.engine.timeout(view.rank * 1.0)  # stagger arrivals
            yield from view.barrier()
            times[view.rank] = view.engine.now

        eng.run(until=comm.run_ranks(program))
        assert len(set(times.values())) == 1
        assert list(times.values())[0] == pytest.approx(3.0)

    def test_barrier_reusable(self):
        eng, comm = make_comm()
        log = []

        def program(view):
            yield from view.barrier()
            log.append(("a", view.rank))
            yield from view.barrier()
            log.append(("b", view.rank))

        eng.run(until=comm.run_ranks(program))
        assert [x[0] for x in log[:4]] == ["a"] * 4
        assert [x[0] for x in log[4:]] == ["b"] * 4


class TestValidation:
    def test_bad_rank(self):
        _, comm = make_comm()
        with pytest.raises(ValueError):
            comm.view(9)
        with pytest.raises(ValueError):
            comm.view(0).isend(99, nbytes=4)
        with pytest.raises(ValueError):
            comm.view(0).irecv(42)

    def test_payload_nbytes_consistency(self):
        _, comm = make_comm()
        with pytest.raises(ValueError):
            comm.view(0).isend(1, nbytes=5, payload=np.zeros(4))
        with pytest.raises(ValueError):
            comm.view(0).isend(1)

    def test_non_integer_nbytes_posts_nothing(self):
        """A fractional size is not shipped as its truncation, and a float
        size is refused even when it equals the payload's."""
        _, comm = make_comm()
        view = comm.view(0)
        with pytest.raises(TypeError):
            view.isend(1, nbytes=4.5)
        with pytest.raises(TypeError):
            next(view.send(1, payload=np.zeros(4), nbytes=32.0))
        assert comm.unmatched == (0, 0)
        assert payload_nbytes(np.zeros(4), np.int64(32)) == 32

    def test_oversubscribed_ranks_share_devices(self):
        eng, comm = make_comm(size=8)
        assert comm.rank_to_device == [0, 1, 2, 3, 0, 1, 2, 3]

        def program(view):
            # rank 0 -> rank 4 share device 0: local copy path
            if view.rank == 0:
                yield from view.send(4, payload=np.array([1.0]))
            elif view.rank == 4:
                got = yield from view.recv(0)
                assert got[0] == 1.0

        eng.run(until=comm.run_ranks(program))

    def test_reduce_bandwidth_validation(self):
        eng = Engine()
        ctx = UCXContext(eng, systems.beluga())
        with pytest.raises(ValueError):
            Communicator(ctx, reduce_bandwidth=0)


class TestMultipathEffect:
    def test_multipath_speeds_up_p2p(self):
        n = 256 * MiB

        def run(cfg):
            eng, comm = make_comm(config=cfg)

            def program(view):
                if view.rank == 0:
                    yield from view.send(1, nbytes=n)
                elif view.rank == 1:
                    yield from view.recv(0)
                yield from view.barrier()

            eng.run(until=comm.run_ranks(program))
            return eng.now

        t_single = run(TransportConfig.single_path())
        t_multi = run(TransportConfig(include_host=False))
        assert t_multi < t_single
        assert t_single / t_multi > 2.0
