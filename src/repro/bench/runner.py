"""Sweep orchestration shared by the per-figure experiment drivers."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro.bench.baselines import (
    StaticSearchResult,
    direct_config,
    dynamic_config,
    static_config,
    static_search,
)
from repro.bench.calibrate import calibrate_cached
from repro.bench.env import BenchEnvironment, default_jitter_factory
from repro.core.params import ParameterStore
from repro.topology import systems as systems_mod
from repro.topology.node import NodeTopology
from repro.units import MiB

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.faults import FaultWindow

#: The paper's three multi-path configurations (§5.2 figure labels).
PATH_CONFIGS: dict[str, dict] = {
    "2_GPUs": {"include_host": False, "max_gpu_staged": 1},
    "3_GPUs": {"include_host": False, "max_gpu_staged": 2},
    "3_GPUs_w_host": {"include_host": True, "max_gpu_staged": 2},
}


def default_sizes(min_mib: int = 2, max_mib: int = 512) -> list[int]:
    """Power-of-two message sizes, 2 MiB – 512 MiB like the paper's x-axes."""
    sizes = []
    s = min_mib
    while s <= max_mib:
        sizes.append(s * MiB)
        s *= 2
    return sizes


def quick_sizes() -> list[int]:
    """Reduced sweep for CI / pytest-benchmark runs."""
    return [4 * MiB, 16 * MiB, 64 * MiB, 256 * MiB]


@dataclass
class SystemSetup:
    """A calibrated system ready for measurement."""

    name: str
    topology: NodeTopology
    store: ParameterStore
    jitter_seed: int = 0
    jitter_sigma: float = 0.0  # systematic-only by default: deterministic

    def env(
        self,
        config,
        *,
        trace: bool = False,
        observe: bool = False,
        autotune: bool = False,
    ) -> BenchEnvironment:
        return BenchEnvironment(
            topology=self.topology,
            config=config,
            store=self.store,
            jitter_factory=default_jitter_factory(self.jitter_seed, self.jitter_sigma),
            trace=trace,
            observe=observe,
            autotune=autotune,
        )


_SETUP_CACHE: dict[tuple, SystemSetup] = {}

#: Optional on-disk calibration cache directory (see ``--cal-cache``).
#: When set, :func:`get_setup` persists/loads calibrated parameter stores
#: through :func:`repro.bench.calibrate.calibrate_cached`.
_CAL_CACHE_DIR: Path | None = None


def set_cal_cache_dir(path: str | Path | None) -> None:
    """Point calibration at an on-disk cache (None disables)."""
    global _CAL_CACHE_DIR
    _CAL_CACHE_DIR = None if path is None else Path(path)


def get_setup(
    system: str, *, jitter_seed: int = 0, jitter_sigma: float = 0.0
) -> SystemSetup:
    """Build (and memoise) topology + calibration for a system name."""
    key = (system, jitter_seed, jitter_sigma)
    cached = _SETUP_CACHE.get(key)
    if cached is not None:
        return cached
    topology = systems_mod.by_name(system)
    store = calibrate_cached(
        topology,
        jitter_seed=jitter_seed,
        jitter_sigma=jitter_sigma,
        cache_dir=_CAL_CACHE_DIR,
    )
    setup = SystemSetup(
        name=system,
        topology=topology,
        store=store,
        jitter_seed=jitter_seed,
        jitter_sigma=jitter_sigma,
    )
    _SETUP_CACHE[key] = setup
    return setup


_STATIC_CACHE: dict[tuple, StaticSearchResult] = {}


def get_static_shares(
    setup: SystemSetup,
    paths_label: str,
    nbytes: int,
    *,
    grid_steps: int = 6,
    chunk_menu: tuple[int, ...] = (1, 4, 16),
) -> StaticSearchResult:
    """Offline-tuned static distribution, memoised per (system, cfg, size)."""
    key = (setup.name, setup.jitter_seed, setup.jitter_sigma, paths_label,
           nbytes, grid_steps, chunk_menu)
    cached = _STATIC_CACHE.get(key)
    if cached is not None:
        return cached
    kwargs = PATH_CONFIGS[paths_label]
    env = setup.env(dynamic_config(**kwargs))
    result = static_search(
        env,
        nbytes,
        include_host=kwargs["include_host"],
        max_gpu_staged=kwargs["max_gpu_staged"],
        grid_steps=grid_steps,
        chunk_menu=chunk_menu,
    )
    _STATIC_CACHE[key] = result
    return result


def configs_for(setup: SystemSetup, paths_label: str, nbytes: int, **search_kw):
    """The three benchmark configurations for one panel point.

    Returns dict of label -> TransportConfig: ``direct``, ``static``,
    ``dynamic``.
    """
    kwargs = PATH_CONFIGS[paths_label]
    shares = get_static_shares(setup, paths_label, nbytes, **search_kw).shares
    return {
        "direct": direct_config(),
        "static": static_config(shares, **kwargs),
        "dynamic": dynamic_config(**kwargs),
    }


def clear_caches() -> None:
    from repro.bench.calibrate import clear_calibration_memo

    _SETUP_CACHE.clear()
    _STATIC_CACHE.clear()
    clear_calibration_memo()


def dump_artifacts(
    prefix: str | Path, context, *, faults: "Sequence[FaultWindow]" = ()
) -> list[Path]:
    """Write observability artifacts for one instrumented run.

    Given a context created by an ``observe=True`` environment (reachable
    via :attr:`BenchEnvironment.last_context` after a measurement loop),
    writes up to two files next to the experiment's results and returns
    their paths:

    * ``<prefix>.metrics.json`` — :meth:`MetricsRegistry.snapshot`;
    * ``<prefix>.trace.json`` — Chrome-trace timeline (fabric copies,
      ``faults`` windows and flight-recorder traces), loadable in
      ``chrome://tracing`` / Perfetto.  Every flight span's attrs ride
      along, so the planner's decisions (``plan*`` spans and the
      ``pipeline.path[i]`` splits beside them) are in it too.
    """
    from repro.obs import dump_chrome_trace

    prefix = Path(prefix)
    if prefix.parent != Path("."):
        prefix.parent.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    if context.obs is not None:
        metrics_path = prefix.with_name(prefix.name + ".metrics.json")
        metrics_path.write_text(
            json.dumps(context.obs.metrics.snapshot(), indent=2)
        )
        written.append(metrics_path)
    tracer = context.tracer
    if tracer is not None or len(context.flight):
        trace_path = prefix.with_name(prefix.name + ".trace.json")
        dump_chrome_trace(
            trace_path,
            tracer,
            context.flight,
            faults=faults,
            metadata={"topology": context.topology.name},
        )
        written.append(trace_path)
    return written


__all__ = [
    "PATH_CONFIGS",
    "SystemSetup",
    "default_sizes",
    "quick_sizes",
    "get_setup",
    "get_static_shares",
    "configs_for",
    "clear_caches",
    "dump_artifacts",
]
