"""CONTEND — contention-aware vs contention-blind planning accuracy.

The planner prices candidate paths with idle-link β values; the fabric is
a shared max-min resource.  The moment 2–4 puts overlap, every flow's real
rate drops by roughly the number of flows on its bottleneck channel, and
the contention-blind prediction under-shoots completion times by the same
factor.  The transfer service's :class:`~repro.runtime.load.LoadTracker`
plus the planner's ``β/(1 + load)`` derate (``contention_aware=True``)
closes most of that gap: each put that starts while others are executing
plans against the *current* per-channel in-flight counts.

Each pattern runs twice in fresh observed simulations — once blind, once
aware — and the per-put relative prediction error (|predicted − observed|
/ observed, via the standard closed-loop feedback path) is averaged.  The
headline assertion (``benchmarks/test_concurrent_transfers.py``): for
every pattern of ≥2 concurrent pairs the aware error is strictly lower.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.baselines import dynamic_config
from repro.bench.runner import SystemSetup, get_setup
from repro.units import MiB
from repro.util.tables import Table

#: Patterns whose concurrent puts genuinely share channels (2–4 pairs).
#: ``all_to_one`` variants collide on the sink GPU's links (each put's
#: staged hops cross the others' direct channels); the ring collides on
#: the staged detours.  A disjoint pattern would show no difference.
CONTENTION_PATTERNS: dict[str, list[tuple[int, int]]] = {
    "two_to_one": [(1, 0), (2, 0)],
    "all_to_one": [(1, 0), (2, 0), (3, 0)],
    "ring": [(0, 1), (1, 2), (2, 3), (3, 0)],
}

CONTENTION_COLUMNS = [
    "system",
    "pattern",
    "pairs",
    "size_mib",
    "blind_err",
    "aware_err",
    "improvement",
    "max_load_bucket",
]


@dataclass(frozen=True)
class ContentionMeasurement:
    """One (pattern, config) run: error statistics + service counters."""

    mean_abs_error: float
    makespan: float
    samples: int
    peak_channel_flows: int
    loaded_plans: int
    max_load_bucket: int


@dataclass(frozen=True)
class ContentionPoint:
    """Blind-vs-aware contrast for one traffic pattern."""

    system: str
    pattern: str
    pairs: int
    nbytes: int
    blind: ContentionMeasurement
    aware: ContentionMeasurement

    @property
    def improvement(self) -> float:
        """Fraction of the blind error removed by awareness (1 = all)."""
        if self.blind.mean_abs_error <= 0:
            return 0.0
        return 1.0 - self.aware.mean_abs_error / self.blind.mean_abs_error


@dataclass(frozen=True)
class ContentionReport:
    system: str
    nbytes: int
    points: tuple[ContentionPoint, ...]

    def to_table(self) -> Table:
        table = Table(
            CONTENTION_COLUMNS,
            title="CONTEND: prediction error, contention-blind vs aware",
        )
        for p in self.points:
            table.add(
                system=p.system,
                pattern=p.pattern,
                pairs=p.pairs,
                size_mib=p.nbytes // MiB,
                blind_err=f"{p.blind.mean_abs_error:.4f}",
                aware_err=f"{p.aware.mean_abs_error:.4f}",
                improvement=f"{p.improvement:.1%}",
                max_load_bucket=p.aware.max_load_bucket,
            )
        return table

    def to_series(self) -> dict:
        """The ``concurrent_transfers`` series (``concurrent_transfers.json``)."""
        return {
            "system": self.system,
            "size_mib": self.nbytes // MiB,
            "patterns": {
                p.pattern: {
                    "pairs": p.pairs,
                    "blind_mean_abs_error": p.blind.mean_abs_error,
                    "aware_mean_abs_error": p.aware.mean_abs_error,
                    "improvement": p.improvement,
                    "aware_makespan_s": p.aware.makespan,
                    "blind_makespan_s": p.blind.makespan,
                    "peak_channel_flows": p.aware.peak_channel_flows,
                }
                for p in self.points
            },
        }


def measure_contention(
    setup: SystemSetup,
    pairs: list[tuple[int, int]],
    nbytes: int,
    *,
    contention_aware: bool,
    keep_context: bool = False,
):
    """Run one concurrent pattern in a fresh observed simulation.

    All puts are submitted at t=0; each one's plan-vs-observed error is
    recorded by the closed-loop feedback hook (dynamic rendezvous puts
    with no retries), so ``nbytes`` must be at or above the rendezvous
    threshold for the measurement to produce samples.
    """
    config = dynamic_config(include_host=False).with_(
        contention_aware=contention_aware
    )
    env = setup.env(config, observe=True)
    engine, ctx, _comm = env.fresh()
    events = [
        ctx.put(src, dst, nbytes, tag=f"contend{i}")
        for i, (src, dst) in enumerate(pairs)
    ]
    engine.run(until=engine.all_of(events))
    errors = ctx.obs.errors
    service = ctx.transfers.stats_snapshot()
    # The decisions are the puts' plan spans; a plan priced against load
    # carries the load bucket it was derated by.
    buckets = [
        s.attrs.get("load_bucket", 0)
        for s in ctx.flight.iter_spans()
        if s.kind.startswith("plan")
    ]
    measurement = ContentionMeasurement(
        mean_abs_error=errors.mean_abs_error(),
        makespan=engine.now,
        samples=len(errors.records),
        peak_channel_flows=service["load"]["peak_channel_flows"],
        loaded_plans=sum(1 for b in buckets if b > 0),
        max_load_bucket=max(buckets, default=0),
    )
    return (measurement, ctx) if keep_context else (measurement, None)


def run_contention(
    system: str = "beluga",
    *,
    nbytes: int = 64 * MiB,
    patterns: dict[str, list[tuple[int, int]]] | None = None,
) -> ContentionReport:
    """Blind-vs-aware error contrast over the contended patterns."""
    patterns = patterns if patterns is not None else CONTENTION_PATTERNS
    setup = get_setup(system)
    points = []
    for name, pairs in patterns.items():
        blind, _ = measure_contention(
            setup, pairs, nbytes, contention_aware=False
        )
        aware, _ = measure_contention(
            setup, pairs, nbytes, contention_aware=True
        )
        points.append(
            ContentionPoint(
                system=system,
                pattern=name,
                pairs=len(pairs),
                nbytes=nbytes,
                blind=blind,
                aware=aware,
            )
        )
    return ContentionReport(system=system, nbytes=nbytes, points=tuple(points))


__all__ = [
    "CONTENTION_PATTERNS",
    "CONTENTION_COLUMNS",
    "ContentionMeasurement",
    "ContentionPoint",
    "ContentionReport",
    "measure_contention",
    "run_contention",
]
