"""The five end-to-end workloads, all on the beluga node (4 V100, NVLink).

Every workload drives the public API (``UCXContext.put`` or the MPI
collectives) on contexts built from the public constructors with the
arguments ``BenchEnvironment.fresh`` uses.  Inputs come only from the seed:
a workload turns ``(seed, n_ops)`` into a list of ops, and the program sees
nothing but those ops.

A pass runs ``n_ops`` ops in ``BLOCKS`` equal blocks and records host CPU
time per op (closed loops) or per block of arrivals (the open loop), the
host-speed reference timed through each block, and each op's simulated
completion time.  Puts are observed through a tap on
``TransferManager.submit`` installed on every context the benchmark builds,
so collectives' internal puts are seen the same way as direct ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import fmean
from time import perf_counter, process_time

import numpy as np
from hostref import PIECES

from repro.bench.baselines import dynamic_config
from repro.bench.env import (
    DEFAULT_REDUCE_BANDWIDTH,
    REDUCE_BANDWIDTH,
    default_jitter_factory,
)
from repro.mpi import collectives as coll
from repro.mpi.comm import Communicator
from repro.sim.engine import Engine
from repro.sim.faults import FaultSchedule, LinkDown
from repro.ucx.context import UCXContext
from repro.units import KiB, MiB

SYSTEM = "beluga"
#: Host CPU time is reported per block of ops, each scaled by the host
#: speed measured through it; puts_per_s is the median over these equal
#: blocks, which keeps one GC pause out of the result.
BLOCKS = 20
#: The P2P pairs: two NVLink-adjacent pairs and two that share a GPU.
PAIRS = ((0, 1), (2, 3), (1, 2), (0, 3))


@dataclass
class Rig:
    """One engine + context + communicator, with the put tap."""

    engine: Engine
    ctx: UCXContext
    comm: Communicator
    #: (submit time, put event) for every put since the last clear.
    puts: list = field(default_factory=list)
    #: Workload-specific set-up results (the open loop's T0 and channel).
    measured: dict = field(default_factory=dict)


def build_rig(setup, config, tracer=None) -> Rig:
    """Contexts as ``BenchEnvironment.fresh`` makes them (no tracer, no
    observability bundle).  With ``tracer`` the engine's scheduling calls
    are wrapped before any layer registers with it."""
    engine = Engine()
    if tracer is not None:
        tracer.instrument_engine(engine)
    ctx = UCXContext(
        engine,
        setup.topology,
        config=config,
        store=setup.store,
        jitter_factory=default_jitter_factory(setup.jitter_seed, setup.jitter_sigma),
    )
    comm = Communicator(
        ctx,
        reduce_bandwidth=REDUCE_BANDWIDTH.get(
            setup.topology.name, DEFAULT_REDUCE_BANDWIDTH
        ),
    )
    rig = Rig(engine, ctx, comm)
    submit = ctx.transfers.submit
    puts = rig.puts

    def tapped(src, dst, nbytes, **kwargs):
        ev = submit(src, dst, nbytes, **kwargs)
        puts.append((engine.now, ev))
        return ev

    ctx.transfers.submit = tapped
    if tracer is not None:
        tracer.instrument_context(ctx)
    return rig


@dataclass
class PassResult:
    """Host and simulated measurements of one pass."""

    ops: int
    op_cpu: list  # per-op CPU seconds (the block's mean for the open loop)
    block_cpu: list
    block_puts: list
    #: mean CPU seconds of the host-speed reference pieces timed through
    #: each block (empty when the pass ran without them)
    block_ref: list
    op_sim: list  # simulated completion time of each completed op
    sim_time: float  # summed op time (closed loop) or makespan (open loop)
    cpu: float  # CPU seconds inside the ops (blocks), harness excluded
    wall: float  # wall seconds of the whole pass
    puts: list  # (submit time, event)


def block_edges(n: int) -> list[tuple[int, int]]:
    """``(lo, hi)`` op index ranges of the ``BLOCKS`` blocks of a pass."""
    edges = [round(b * n / BLOCKS) for b in range(BLOCKS + 1)]
    return [(edges[b], edges[b + 1]) for b in range(BLOCKS)]


def _pieces(lo: int, hi: int) -> list[int]:
    """Op indices of a block before which a reference piece runs, evenly
    spaced (fewer than ``PIECES`` when the block is that short)."""
    return sorted({lo + p * (hi - lo) // PIECES for p in range(PIECES)})


def _log_uniform(rng, lo: int, hi: int, n: int, align: int = 256) -> np.ndarray:
    sizes = np.exp(rng.uniform(math.log(lo), math.log(hi), n))
    return np.clip((sizes // align) * align, lo, hi).astype(np.int64)


class Workload:
    """Base: a closed loop with one client, one op after the other."""

    name = ""
    #: Why the workload exists: the layer it stresses (one line).
    why = ""
    #: Ops per CPU-second on the reference box; ``n_ops(seconds)`` sizes a
    #: pass from it, so a pass length is fixed by ``--seconds`` alone and
    #: two runs with one seed see the same ops.
    rate = 1.0

    def config(self):
        return dynamic_config()

    def n_ops(self, seconds: float) -> int:
        return max(BLOCKS, int(round(seconds * self.rate)))

    def inputs(self, seed: int, n: int) -> dict:
        raise NotImplementedError

    def build(self, setup, inputs: dict, tracer=None) -> Rig:
        return build_rig(setup, self.config(), tracer)

    def warmup(self, rig: Rig, inputs: dict) -> None:
        for op in inputs["warmup"]:
            self.run_op(rig, op, inputs)

    def run_op(self, rig: Rig, op, inputs: dict) -> None:
        raise NotImplementedError

    def check_op(self, rig: Rig, op, inputs: dict, value) -> None:
        """Numerical checks of an op's result (outside its timing)."""

    def run_pass(self, rig: Rig, inputs: dict, tracer=None, ref=None) -> PassResult:
        """Run every op, one block at a time; ``ref`` (the host-speed
        kernel), when given, runs ``PIECES`` times through each block."""
        ops = inputs["ops"]
        engine = rig.engine
        rig.puts.clear()
        op_cpu, op_sim, block_ref, block_cpu, block_puts = [], [], [], [], []
        puts = rig.puts
        wall0 = perf_counter()
        for lo, hi in block_edges(len(ops)):
            marks = set(_pieces(lo, hi)) if ref is not None else ()
            pieces = []
            n0, c0 = len(puts), len(op_cpu)
            for i in range(lo, hi):
                if i in marks:
                    pieces.append(ref())
                if tracer is not None:
                    tracer.op_id = i
                s0 = engine.now
                t0 = process_time()
                value = self.run_op(rig, ops[i], inputs)
                op_cpu.append(process_time() - t0)
                op_sim.append(engine.now - s0)
                self.check_op(rig, ops[i], inputs, value)
            block_cpu.append(sum(op_cpu[c0:]))
            block_puts.append(len(puts) - n0)
            if pieces:
                block_ref.append(fmean(pieces))
        return PassResult(
            ops=len(ops),
            op_cpu=op_cpu,
            block_cpu=block_cpu,
            block_puts=block_puts,
            block_ref=block_ref,
            op_sim=op_sim,
            sim_time=sum(op_sim),
            cpu=sum(block_cpu),
            wall=perf_counter() - wall0,
            puts=list(puts),
        )


class P2PWarm(Workload):
    name = "p2p_warm"
    why = (
        "sequential multi-path puts of 2/16/64 MiB on 4 pairs replayed from "
        "the graph cache: event dispatch and the fluid fabric dominate"
    )
    rate = 850.0
    SIZES = (2 * MiB, 16 * MiB, 64 * MiB)

    def inputs(self, seed: int, n: int) -> dict:
        combos = [(s, d, size) for s, d in PAIRS for size in self.SIZES]
        rng = np.random.default_rng([seed, 1])
        return {
            "warmup": combos * 2,
            "ops": [combos[i] for i in rng.integers(0, len(combos), n)],
        }

    def run_op(self, rig: Rig, op, inputs: dict):
        src, dst, nbytes = op
        return rig.engine.run(until=rig.ctx.put(src, dst, nbytes))


class P2PCold(Workload):
    name = "p2p_cold"
    why = (
        "half eager 4-256 KiB puts, half rendezvous puts of distinct sizes: "
        "every rendezvous put plans and compiles cold"
    )
    rate = 2200.0
    WARMUP = 64

    def inputs(self, seed: int, n: int) -> dict:
        rng = np.random.default_rng([seed, 2])
        total = n + self.WARMUP
        n_rndv = total - total // 2
        # Rendezvous sizes are drawn without replacement, so no plan or
        # graph built in the warm-up or earlier in the pass is reused.
        distinct: dict[int, None] = {}
        while len(distinct) < n_rndv:
            for s in _log_uniform(rng, 512 * KiB, 8 * MiB, n_rndv).tolist():
                if len(distinct) < n_rndv:
                    distinct[s] = None
        rndv = list(distinct)
        eager = _log_uniform(rng, 4 * KiB, 256 * KiB, total // 2).tolist()
        sizes = rndv + eager
        order = rng.permutation(total)
        pairs = rng.integers(0, len(PAIRS), total)
        ops = [(*PAIRS[pairs[i]], sizes[order[i]]) for i in range(total)]
        return {"warmup": ops[: self.WARMUP], "ops": ops[self.WARMUP:]}

    def run_op(self, rig: Rig, op, inputs: dict):
        src, dst, nbytes = op
        return rig.engine.run(until=rig.ctx.put(src, dst, nbytes))


class RingContended(Workload):
    name = "ring_contended"
    why = (
        "rounds of 8 concurrent 32 MiB puts on a bidirectional 4-GPU ring, "
        "contention-aware: flows share channels, the max-min solver works"
    )
    rate = 30.0
    NBYTES = 32 * MiB
    FLOWS = tuple((g, (g + 1) % 4) for g in range(4)) + tuple(
        ((g + 1) % 4, g) for g in range(4)
    )

    def config(self):
        return dynamic_config().with_(contention_aware=True)

    def inputs(self, seed: int, n: int) -> dict:
        # The seed orders each round's submissions; contention-aware
        # planning prices every put against the ones submitted before it.
        rng = np.random.default_rng([seed, 3])
        rounds = [
            tuple(self.FLOWS[j] for j in rng.permutation(len(self.FLOWS)))
            for _ in range(n + 4)
        ]
        return {"warmup": rounds[:4], "ops": rounds[4:]}

    def run_op(self, rig: Rig, op, inputs: dict):
        ctx = rig.ctx
        events = [ctx.put(src, dst, self.NBYTES) for src, dst in op]
        return rig.engine.run(until=rig.engine.all_of(events))


class Collectives(Workload):
    name = "collectives"
    why = (
        "4-rank Allreduce then Bruck Alltoall at 1 MiB per rank, host paths "
        "off: the only workload through MPI matching and numpy payloads"
    )
    rate = 120.0
    WORDS = MiB // 8  # int64 elements per rank (1 MiB)
    PAYLOAD_SETS = 4

    def config(self):
        return dynamic_config(include_host=False)

    def inputs(self, seed: int, n: int) -> dict:
        # Integer payloads: the reduction is exact, so results compare
        # bit-for-bit with the numpy reference.
        rng = np.random.default_rng([seed, 4])
        sets = []
        for _ in range(self.PAYLOAD_SETS):
            reduce_in = rng.integers(-(2**20), 2**20, (4, self.WORDS))
            a2a_in = rng.integers(-(2**20), 2**20, (4, self.WORDS))
            sets.append((reduce_in, reduce_in.sum(axis=0), a2a_in))
        picks = rng.integers(0, self.PAYLOAD_SETS, n + 4).tolist()
        return {"sets": sets, "warmup": picks[:4], "ops": picks[4:]}

    def run_op(self, rig: Rig, op, inputs: dict):
        reduce_in, _expected, a2a_in = inputs["sets"][op]
        comm, engine = rig.comm, rig.engine
        block = self.WORDS // comm.size
        reduced = engine.run(
            until=comm.run_ranks(lambda view: coll.allreduce(view, reduce_in[view.rank]))
        )
        exchanged = engine.run(
            until=comm.run_ranks(
                lambda view: coll.alltoall(
                    view,
                    [a2a_in[view.rank][j * block:(j + 1) * block] for j in range(comm.size)],
                )
            )
        )
        return reduced, exchanged

    def check_op(self, rig: Rig, op, inputs: dict, value) -> None:
        _reduce_in, expected, a2a_in = inputs["sets"][op]
        reduced, exchanged = value
        size = rig.comm.size
        block = self.WORDS // size
        for rank in range(size):
            if not np.array_equal(reduced[rank], expected):
                raise AssertionError(f"allreduce result wrong on rank {rank}")
            for j in range(size):
                want = a2a_in[j][rank * block:(rank + 1) * block]
                if not np.array_equal(exchanged[rank][j], want):
                    raise AssertionError(
                        f"alltoall block {j} wrong on rank {rank}"
                    )


class FaultsOpenLoop(Workload):
    name = "faults_open_loop"
    why = (
        "open-loop 8 MiB puts on 4 pairs while the (0,1) NVLink goes down "
        "and heals: queueing, retries, cold replans over survivors, quarantine"
    )
    rate = 1150.0
    NBYTES = 8 * MiB
    #: Offered load per pair, as a share of one pair's idle capacity 1/T0.
    #: The four pairs' multi-path plans share staging channels, so the
    #: node saturates near 0.5; at 0.45 puts queue during outages but
    #: none is shed or expires, for any seed tried.
    LOAD = 0.45
    DEADLINE_T0 = 12.0
    DOWN_SHARE = 0.2  # share of the horizon the link is down
    #: One window per block of arrivals, all of one length: every block
    #: sees the same outage time, so the median block measures the same
    #: mix of faulted and fault-free work for every seed.
    WINDOWS = BLOCKS

    def config(self):
        return dynamic_config().with_(
            max_inflight_per_pair=1,
            admission_queue_limit=16,
            retry_budget_total=8,
            retry_budget_per_pair=4,
        )

    def inputs(self, seed: int, n: int) -> dict:
        # Fault windows are placed in units of the horizon; run_pass() turns
        # them into times once T0 is measured.  One window per slot, each
        # DOWN_SHARE / WINDOWS long, at an offset in the slot drawn from
        # the seed.
        rng = np.random.default_rng([seed, 5])
        slot = 1.0 / self.WINDOWS
        length = self.DOWN_SHARE * slot
        offsets = rng.uniform(0.0, slot - length, self.WINDOWS)
        windows = [(j * slot + offsets[j], length) for j in range(self.WINDOWS)]
        return {"n": n, "windows": windows}

    def build(self, setup, inputs: dict, tracer=None) -> Rig:
        # T0: the fault-free duration of one put, on the slowest pair, in
        # the workload's own configuration (part of set-up).
        t0 = 0.0
        for src, dst in PAIRS:
            probe = build_rig(setup, self.config())
            t0 = max(t0, probe.engine.run(
                until=probe.ctx.put(src, dst, self.NBYTES)
            ).duration)
        rig = build_rig(setup, self.config(), tracer)
        rig.measured.update(t0=t0, channel=setup.topology.direct_hop(0, 1)[0])
        return rig

    def warmup(self, rig: Rig, inputs: dict) -> None:
        for src, dst in PAIRS * 2:
            rig.engine.run(until=rig.ctx.put(src, dst, self.NBYTES))

    def run_pass(self, rig: Rig, inputs: dict, tracer=None, ref=None) -> PassResult:
        engine, ctx = rig.engine, rig.ctx
        n = inputs["n"]
        t0 = rig.measured["t0"]
        interval = t0 / (self.LOAD * len(PAIRS))
        start = engine.now
        horizon = n * interval
        due = [start + k * interval for k in range(n)]
        schedule = FaultSchedule(*(
            LinkDown(rig.measured["channel"], at=start + a * horizon, duration=d * horizon)
            for a, d in inputs["windows"]
        ))
        schedule.attach(ctx.runtime.fabric)
        timeout = self.DEADLINE_T0 * t0
        rig.puts.clear()

        # Arrivals are scheduled in simulated time, one pending at a time,
        # so the generator is never late: latency counts from the due time.
        def arrive(k: int) -> None:
            if tracer is not None:
                tracer.op_id = k
            src, dst = PAIRS[k % len(PAIRS)]
            ctx.put(src, dst, self.NBYTES, timeout=timeout)
            if k + 1 < n:
                engine.schedule_fn(due[k + 1], arrive, k + 1)

        engine.schedule_fn(due[0], arrive, 0)
        block_cpu, block_ref = [], []
        blocks = block_edges(n)
        wall0 = perf_counter()
        for lo, hi in blocks:
            # A block runs in steps up to the arrivals where reference
            # pieces go; stopping the engine in between changes nothing.
            stops = [*_pieces(lo, hi)[1:], hi]
            pieces, cpu = [], 0.0
            for k in stops:
                if ref is not None:
                    pieces.append(ref())
                c = process_time()
                engine.run(until=due[k - 1] if k < n else None)
                cpu += process_time() - c
            block_cpu.append(cpu)
            if pieces:
                block_ref.append(fmean(pieces))
        wall = perf_counter() - wall0
        puts = list(rig.puts)
        op_sim = [ev.value.end - at for at, ev in puts if ev.ok]
        ends = [ev.value.end for _at, ev in puts if ev.ok]
        sizes = [hi - lo for lo, hi in blocks]
        return PassResult(
            ops=n,
            op_cpu=[c / k for c, k in zip(block_cpu, sizes) for _ in range(k)],
            block_cpu=block_cpu,
            block_puts=sizes,
            block_ref=block_ref,
            op_sim=op_sim,
            sim_time=(max(ends) - start) if ends else 0.0,
            cpu=sum(block_cpu),
            wall=wall,
            puts=puts,
        )


WORKLOADS = {
    w.name: w
    for w in (P2PWarm(), P2PCold(), RingContended(), Collectives(), FaultsOpenLoop())
}

__all__ = [
    "BLOCKS", "PAIRS", "SYSTEM", "WORKLOADS", "PassResult", "Rig", "Workload",
    "block_edges", "build_rig",
]
