"""Failure injection: degraded links, stragglers, degenerate topologies.

The planner and pipeline must stay correct (all bytes delivered, no
deadlock) when the fabric misbehaves, and the dynamic planner should keep
its advantage when re-planned with refreshed calibration.
"""

import numpy as np

from repro.bench.baselines import direct_config, dynamic_config
from repro.bench.calibrate import calibrate
from repro.bench.env import BenchEnvironment
from repro.bench.omb import osu_bw
from repro.core.params import LinkEstimate, ParameterStore
from repro.core.planner import PathPlanner
from repro.mpi import Communicator
from repro.sim import Engine, Tracer
from repro.sim.noise import BurstSlowdown
from repro.topology import systems
from repro.topology.links import CATALOG, LinkKind
from repro.topology.node import TopologyBuilder
from repro.ucx import UCXContext
from repro.units import MiB, gbps, us
from repro.util.rng import spawn_rng


class TestDegradedLink:
    def test_transfer_completes_under_mid_flight_degradation(self):
        eng = Engine()
        tracer = Tracer()
        ctx = UCXContext(eng, systems.beluga(), tracer=tracer)
        n = 128 * MiB
        plan = ctx.planner.plan(0, 1, n, include_host=False)
        done = ctx.pipeline.execute(plan, tag="D")

        def degrade():
            yield eng.timeout(200 * us)
            ctx.runtime.fabric.set_beta("nvl:0->1", gbps(5))  # direct link sick

        eng.process(degrade())
        assert eng.run(until=done).ok  # slowed, never failed
        delivered = sum(
            r.nbytes for r in tracer.records if ":direct" in r.tag or ":h2:" in r.tag
        )
        assert delivered == n

    def test_replanning_with_degraded_calibration_shifts_shares(self):
        """If calibration says the direct link lost half its bandwidth, the
        planner moves data to the staged paths."""
        topo = systems.beluga()
        healthy = ParameterStore.ground_truth(topo)
        degraded = ParameterStore.ground_truth(topo)
        hop = topo.direct_hop(0, 1)
        est = healthy.link(hop)
        degraded.set_link(hop, LinkEstimate(alpha=est.alpha, beta=est.beta / 4))

        n = 128 * MiB
        theta_healthy = (
            PathPlanner(topo, healthy).plan(0, 1, n).assignment_for("direct").theta
        )
        theta_degraded = (
            PathPlanner(topo, degraded).plan(0, 1, n).assignment_for("direct").theta
        )
        assert theta_degraded < theta_healthy


class TestStragglers:
    def test_multipath_still_beats_direct_under_stragglers(self):
        topo = systems.beluga()

        def jitter_factory(cdef):
            return BurstSlowdown(
                spawn_rng(3, "straggler", cdef.name), prob=0.05, factor=2.5
            )

        multi = BenchEnvironment(
            topo, config=dynamic_config(include_host=False),
            jitter_factory=jitter_factory,
        )
        single = BenchEnvironment(
            topo, config=direct_config(), jitter_factory=jitter_factory
        )
        bm = osu_bw(multi, 256 * MiB, iterations=3)
        bs = osu_bw(single, 256 * MiB, iterations=3)
        assert bm.bandwidth > bs.bandwidth


class TestDegenerateTopologies:
    def make_two_gpu(self, alpha=0.0):
        b = TopologyBuilder("tiny", 2)
        spec = CATALOG[LinkKind.NVLINK2]
        b.add_gpu_link(0, 1, spec.scaled(latency_factor=0.0) if alpha == 0 else spec)
        for g in range(2):
            b.add_pcie(g, CATALOG[LinkKind.PCIE3])
        b.add_dram(0, CATALOG[LinkKind.DRAM])
        return b.build()

    def test_zero_latency_link(self):
        """alpha = 0 must not break the chunk-count formulas (div by 0)."""
        topo = self.make_two_gpu(alpha=0.0)
        plan = PathPlanner(topo).plan(0, 1, 64 * MiB)
        assert sum(a.nbytes for a in plan.assignments) == 64 * MiB

    def test_two_gpu_node_only_direct_and_host(self):
        topo = self.make_two_gpu()
        plan = PathPlanner(topo).plan(0, 1, 64 * MiB)
        ids = [a.path.path_id for a in plan.assignments]
        assert ids == ["direct", "host"]

    def test_calibrate_pcie_only_node(self):
        """Calibration must cope with a node that has no GPU links at all."""
        topo = systems.pcie_only(2)
        store = calibrate(topo)
        assert store.epsilon("host") > 0
        plan = PathPlanner(topo, store).plan(0, 1, 16 * MiB)
        assert plan.assignment_for("host").nbytes == 16 * MiB

    def test_mpi_on_two_gpu_node(self):
        topo = self.make_two_gpu()
        eng = Engine()
        ctx = UCXContext(eng, topo)
        comm = Communicator(ctx, size=2)
        out = {}

        def program(view):
            if view.rank == 0:
                yield from view.send(1, payload=np.arange(16.0))
            else:
                out["x"] = yield from view.recv(0)

        eng.run(until=comm.run_ranks(program))
        np.testing.assert_array_equal(out["x"], np.arange(16.0))


class TestPathExclusionResilience:
    def test_excluding_every_staged_path_collapses_to_direct(self):
        topo = systems.beluga()
        planner = PathPlanner(topo)
        plan = planner.plan(0, 1, 64 * MiB, exclude=("gpu:2", "gpu:3", "host"))
        assert plan.num_active_paths == 1
        assert plan.assignment_for("direct").nbytes == 64 * MiB

    def test_excluding_direct_forces_staged(self):
        topo = systems.beluga()
        planner = PathPlanner(topo)
        plan = planner.plan(0, 1, 64 * MiB, exclude=("direct",))
        ids = {a.path.path_id for a in plan.active_assignments}
        assert "direct" not in ids
        assert sum(a.nbytes for a in plan.assignments) == 64 * MiB
