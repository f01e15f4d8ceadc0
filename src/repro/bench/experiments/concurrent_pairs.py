"""CONC — concurrent multi-pair transfers (paper §3's loaded-network case).

The paper notes that intra-node interconnects are usually shared by several
processes, and that multi-path transfers still help "if there are any
under-utilized paths".  This experiment quantifies that: patterns of
simultaneous pair-wise transfers (a ring like a collective step, a pair of
disjoint exchanges, and the all-pairs worst case), measured with single-
vs multi-path configurations, alongside the pattern-aware contention
model's prediction.
"""

from __future__ import annotations

from repro.bench.baselines import direct_config, dynamic_config
from repro.bench.runner import SystemSetup, get_setup
from repro.core.contention import concurrent_pattern_rates
from repro.units import MiB, to_gbps
from repro.util.tables import Table

#: Named patterns: lists of concurrent (src, dst) transfers on a 4-GPU node.
PATTERNS: dict[str, list[tuple[int, int]]] = {
    "single_pair": [(0, 1)],
    "disjoint_pairs": [(0, 1), (2, 3)],
    "ring": [(0, 1), (1, 2), (2, 3), (3, 0)],
    "all_to_one": [(1, 0), (2, 0), (3, 0)],
}

CONC_COLUMNS = [
    "system",
    "pattern",
    "size_mib",
    "single_gbps",
    "multi_gbps",
    "speedup",
    "predicted_gbps",
]


def measure_pattern(setup: SystemSetup, config, pairs, nbytes: int) -> float:
    """Aggregate bandwidth of the concurrent transfers (fresh simulator)."""
    engine, context, _comm = setup.env(config).fresh()
    events = [
        context.put(src, dst, nbytes, tag=f"conc:{i}")
        for i, (src, dst) in enumerate(pairs)
    ]
    engine.run(until=engine.all_of(events))
    return len(pairs) * nbytes / engine.now


def run_concurrent_pairs(
    systems: tuple[str, ...] = ("beluga",),
    *,
    sizes: list[int] | None = None,
) -> Table:
    sizes = sizes or [16 * MiB, 64 * MiB, 256 * MiB]
    table = Table(CONC_COLUMNS, title="CONC: concurrent multi-pair transfers")
    for system in systems:
        setup = get_setup(system)
        for pattern, pairs in PATTERNS.items():
            for n in sizes:
                single = measure_pattern(setup, direct_config(), pairs, n)
                multi = measure_pattern(
                    setup, dynamic_config(include_host=False), pairs, n
                )
                rates = concurrent_pattern_rates(
                    setup.topology, pairs, include_host=False
                )
                predicted = sum(rates.values())
                table.add(
                    system=system,
                    pattern=pattern,
                    size_mib=n // MiB,
                    single_gbps=to_gbps(single),
                    multi_gbps=to_gbps(multi),
                    speedup=multi / single,
                    predicted_gbps=to_gbps(predicted),
                )
    return table


__all__ = ["run_concurrent_pairs", "measure_pattern", "PATTERNS", "CONC_COLUMNS"]
