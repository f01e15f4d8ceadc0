"""Correctness tests for collectives vs numpy references, plus property
tests over random sizes/values."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import Communicator, collectives
from repro.mpi import comm as comm_module
from repro.sim import Engine
from repro.topology import systems
from repro.ucx import TransportConfig, UCXContext


def run_collective(fn, size=4, topology=None, config=None, seed=0):
    """Run `fn(view, data[rank])` on all ranks; returns (results, time).

    ``fn`` receives the view and must return the collective's result.
    """
    eng = Engine()
    ctx = UCXContext(eng, topology or systems.beluga(), config=config)
    comm = Communicator(ctx, size=size)
    results = {}

    def program(view):
        out = yield from fn(view)
        results[view.rank] = out

    eng.run(until=comm.run_ranks(program))
    return results, eng.now


def make_inputs(size, elems, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=elems) for _ in range(size)]


class TestAllreduce:
    @pytest.mark.parametrize("elems", [16, 1024, 4096])
    @pytest.mark.parametrize("algo", ["recursive", "ring", "auto"])
    def test_sum_matches_numpy(self, elems, algo):
        inputs = make_inputs(4, elems)
        expected = np.sum(inputs, axis=0)
        fns = {
            "recursive": collectives.allreduce_recursive,
            "ring": collectives.allreduce_ring,
            "auto": collectives.allreduce,
        }

        def fn(view):
            result = yield from fns[algo](view, inputs[view.rank])
            return result

        results, _ = run_collective(fn)
        for r in range(4):
            np.testing.assert_allclose(results[r], expected, rtol=1e-12)

    def test_max_op(self):
        inputs = make_inputs(4, 256)
        expected = np.maximum.reduce(inputs)

        def fn(view):
            result = yield from collectives.allreduce(
                view, inputs[view.rank], op=np.maximum
            )
            return result

        results, _ = run_collective(fn)
        for r in range(4):
            np.testing.assert_allclose(results[r], expected)

    def test_ring_handles_non_power_of_two(self):
        inputs = make_inputs(3, 300)
        expected = np.sum(inputs, axis=0)

        def fn(view):
            result = yield from collectives.allreduce(view, inputs[view.rank])
            return result

        results, _ = run_collective(fn, size=3)
        for r in range(3):
            np.testing.assert_allclose(results[r], expected, rtol=1e-12)

    def test_recursive_rejects_non_power_of_two(self):
        def fn(view):
            result = yield from collectives.allreduce_recursive(
                view, np.zeros(8)
            )
            return result

        with pytest.raises(ValueError, match="power-of-two"):
            run_collective(fn, size=3)

    def test_single_rank(self):
        def fn(view):
            result = yield from collectives.allreduce(view, np.arange(8.0))
            return result

        results, _ = run_collective(fn, size=1)
        np.testing.assert_array_equal(results[0], np.arange(8.0))

    def test_2d_rejected(self):
        def fn(view):
            result = yield from collectives.allreduce_ring(view, np.zeros((2, 2)))
            return result

        with pytest.raises(ValueError, match="1-D"):
            run_collective(fn)

    @pytest.mark.parametrize(
        "fn_",
        [
            collectives.allreduce_recursive,
            collectives.allreduce_ring,
            collectives.reduce_scatter_ring,
            collectives.reduce_binomial,
        ],
        ids=["recursive", "ring", "reduce_scatter", "reduce"],
    )
    def test_mixed_dtypes_rejected(self, fn_):
        # int64 ones on rank 0, float64 halves elsewhere: the sum is 2.5,
        # but reducing into rank 0's int64 buffer would give 2
        def fn(view):
            if view.rank == 0:
                array = np.ones(64, dtype=np.int64)
            else:
                array = np.full(64, 0.5)
            result = yield from fn_(view, array)
            return result

        with pytest.raises(ValueError, match="region mismatch"):
            run_collective(fn)

    @given(
        elems=st.integers(min_value=4, max_value=2048),
        seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=10, deadline=None)
    def test_property_random_sizes(self, elems, seed):
        inputs = make_inputs(4, elems, seed)
        expected = np.sum(inputs, axis=0)

        def fn(view):
            result = yield from collectives.allreduce(view, inputs[view.rank])
            return result

        results, _ = run_collective(fn)
        for r in range(4):
            np.testing.assert_allclose(results[r], expected, rtol=1e-10)


class TestAlltoall:
    @pytest.mark.parametrize("algo", ["bruck", "pairwise", "auto"])
    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_matches_reference(self, algo, size):
        elems = 64
        rng = np.random.default_rng(1)
        # matrix[src][dst] = block sent from src to dst
        matrix = [[rng.normal(size=elems) for _ in range(size)] for _ in range(size)]
        fns = {
            "bruck": collectives.alltoall_bruck,
            "pairwise": collectives.alltoall_pairwise,
            "auto": collectives.alltoall,
        }

        def fn(view):
            result = yield from fns[algo](view, matrix[view.rank])
            return result

        results, _ = run_collective(fn, size=size)
        for dst in range(size):
            for src in range(size):
                np.testing.assert_allclose(
                    results[dst][src], matrix[src][dst], rtol=1e-12
                )

    def test_block_validation(self):
        def fn(view):
            result = yield from collectives.alltoall(view, [np.zeros(4)] * 3)
            return result

        with pytest.raises(ValueError, match="blocks"):
            run_collective(fn, size=4)

    def test_nonuniform_blocks_rejected(self):
        def fn(view):
            blocks = [np.zeros(4), np.zeros(5), np.zeros(4), np.zeros(4)]
            result = yield from collectives.alltoall(view, blocks)
            return result

        with pytest.raises(ValueError, match="uniform"):
            run_collective(fn, size=4)

    def test_single_rank(self):
        def fn(view):
            result = yield from collectives.alltoall_bruck(view, [np.arange(4.0)])
            return result

        results, _ = run_collective(fn, size=1)
        np.testing.assert_array_equal(results[0][0], np.arange(4.0))


class TestAllgather:
    @pytest.mark.parametrize("algo", ["rd", "ring", "auto"])
    def test_matches_reference(self, algo):
        inputs = make_inputs(4, 128)
        fns = {
            "rd": collectives.allgather_recursive_doubling,
            "ring": collectives.allgather_ring,
            "auto": collectives.allgather,
        }

        def fn(view):
            result = yield from fns[algo](view, inputs[view.rank])
            return result

        results, _ = run_collective(fn)
        for r in range(4):
            for o in range(4):
                np.testing.assert_allclose(results[r][o], inputs[o])

    def test_ring_non_power_of_two(self):
        inputs = make_inputs(3, 50)

        def fn(view):
            result = yield from collectives.allgather(view, inputs[view.rank])
            return result

        results, _ = run_collective(fn, size=3)
        for r in range(3):
            for o in range(3):
                np.testing.assert_allclose(results[r][o], inputs[o])


class TestReduceScatter:
    def test_blocks_match_reference(self):
        inputs = make_inputs(4, 400)
        expected = np.sum(inputs, axis=0)

        def fn(view):
            block, bounds = yield from collectives.reduce_scatter_ring(
                view, inputs[view.rank]
            )
            return block, bounds

        results, _ = run_collective(fn)
        for r in range(4):
            block, (start, stop) = results[r]
            np.testing.assert_allclose(block, expected[start:stop], rtol=1e-12)

    def test_blocks_partition_vector(self):
        inputs = make_inputs(4, 403)  # non-divisible length

        def fn(view):
            block, bounds = yield from collectives.reduce_scatter_ring(
                view, inputs[view.rank]
            )
            return bounds

        results, _ = run_collective(fn)
        spans = sorted(results.values())
        assert spans[0][0] == 0
        assert spans[-1][1] == 403
        for (a, b), (c, d) in zip(spans, spans[1:]):
            assert b == c


class TestBcast:
    @pytest.mark.parametrize("root", [0, 2])
    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_all_ranks_receive(self, root, size):
        if root >= size:
            pytest.skip("root outside communicator")
        data = np.arange(100.0)

        def fn(view):
            result = yield from collectives.bcast_binomial(
                view, data if view.rank == root else None, root=root
            )
            return result

        results, _ = run_collective(fn, size=size)
        for r in range(size):
            np.testing.assert_array_equal(results[r], data)

    def test_bad_root(self):
        def fn(view):
            result = yield from collectives.bcast_binomial(view, None, root=9)
            return result

        with pytest.raises(ValueError):
            run_collective(fn)


def _alltoall_of(fn_):
    # the caller's blocks are views of one per-rank vector
    return lambda view, array: fn_(view, np.split(array, view.size))


def _reduce_scatter(view, array):
    block, _bounds = yield from collectives.reduce_scatter_ring(view, array)
    return block


def _scatter(view, array):
    # rank 0 scatters the blocks of its vector
    blocks = np.split(array, view.size) if view.rank == 0 else None
    block = yield from collectives.scatter_binomial(view, blocks)
    return block


def _gather(view, array):
    gathered = yield from collectives.gather_binomial(view, array)
    return gathered or []  # None off the root


class TestOwnership:
    """A collective ships views of its inputs and keeps only what it
    copied itself or received: no result aliases an input."""

    CASES = {
        "allreduce_recursive": collectives.allreduce_recursive,
        "allreduce_ring": collectives.allreduce_ring,
        "alltoall_bruck": _alltoall_of(collectives.alltoall_bruck),
        "alltoall_pairwise": _alltoall_of(collectives.alltoall_pairwise),
        "allgather_rd": collectives.allgather_recursive_doubling,
        "allgather_ring": collectives.allgather_ring,
        "reduce_scatter": _reduce_scatter,
        "scatter": _scatter,
        "gather": _gather,
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_results_own_their_memory(self, name):
        inputs = make_inputs(4, 64)
        expected_input = [x.copy() for x in inputs]

        def fn(view):
            result = yield from self.CASES[name](view, inputs[view.rank])
            return result

        results, _ = run_collective(fn)
        arrays = []
        for r in range(4):
            out = results[r]
            arrays.extend(out if isinstance(out, list) else [out])
        for a in arrays:
            for x in inputs:
                assert not np.shares_memory(a, x)
        for x, want in zip(inputs, expected_input):
            np.testing.assert_array_equal(x, want)  # inputs left untouched
        before = [a.copy() for a in arrays]
        for x in inputs:
            x[:] = -1.0
        for a, want in zip(arrays, before):
            np.testing.assert_array_equal(a, want)


class TestPayloadCopies:
    """Allreduce lands every message in the result buffer at delivery, so
    the MPI layer makes no message copy for it."""

    def test_allreduce_recursive_copies_no_message(self, monkeypatch):
        copies = []
        copy_payload = comm_module.copy_payload

        def counting(payload):
            copies.append(payload)
            return copy_payload(payload)

        monkeypatch.setattr(comm_module, "copy_payload", counting)
        inputs = [np.arange(64, dtype=np.int64) * (r + 1) for r in range(4)]

        def fn(view):
            result = yield from collectives.allreduce_recursive(
                view, inputs[view.rank]
            )
            return result

        results, _ = run_collective(fn)
        for r in range(4):
            np.testing.assert_array_equal(results[r], np.arange(64) * 10)
        assert len(copies) == 0


class TestCollectiveTiming:
    def test_multipath_speeds_up_alltoall(self):
        elems = 1 << 21  # 2M doubles = 16 MiB per block
        blocks = [np.zeros(elems) for _ in range(4)]

        def fn(view):
            result = yield from collectives.alltoall(view, blocks)
            return result

        _, t_single = run_collective(fn, config=TransportConfig.single_path())
        _, t_multi = run_collective(
            fn, config=TransportConfig(include_host=False)
        )
        assert t_multi < t_single

    def test_allreduce_charges_compute(self):
        """Zero compute bandwidth config vs default: times differ."""
        elems = 1 << 20

        def fn(view):
            result = yield from collectives.allreduce(view, np.zeros(elems))
            return result

        eng = Engine()
        ctx = UCXContext(eng, systems.beluga())
        slow = Communicator(ctx, reduce_bandwidth=1e9)
        results = {}

        def program(view):
            out = yield from fn(view)
            results[view.rank] = out

        eng.run(until=slow.run_ranks(program))
        t_slow = eng.now

        _, t_fast = run_collective(fn)
        assert t_slow > t_fast
