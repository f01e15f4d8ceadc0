"""Model parameter extraction (paper Fig. 2a, Step 1).

Calibration never reads the simulator's ground-truth channel parameters —
it *measures*, exactly like the offline step on a real node:

* **(α̂, β̂) per hop** — timed single copies over a size sweep, linear
  regression ``T = α + n/β`` (slope → 1/β̂, intercept → α̂);
* **ε̂ per staging kind** — timed unpipelined (k=1) staged transfers minus
  the two calibrated hop times;
* **φ̂ per staged path** — least-squares linearisation of the optimal
  chunk-count curve over the target size window (the paper's
  topology-specific constants);
* **launch overhead** — back-to-back zero-byte puts.

The result is a :class:`~repro.core.params.ParameterStore` ready for the
planner.  :func:`calibrate_cached` memoises it per system and, with
``cache_dir``, persists it as JSON like the paper's per-node model files,
verifying the stored key on load.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.core.chunking import fit_phi_for_sizes
from repro.core.params import LinkEstimate, ParameterStore
from repro.gpu.runtime import GPURuntime
from repro.sim.engine import Engine
from repro.topology.node import NodeTopology
from repro.topology.routing import Hop, PathDescriptor, enumerate_paths
from repro.units import KiB, MiB

DEFAULT_SWEEP = tuple(int(s) for s in (256 * KiB, 1 * MiB, 4 * MiB, 16 * MiB, 64 * MiB))
DEFAULT_PHI_WINDOW = tuple(int(2**i * MiB) for i in range(1, 10))


def _time_hop(
    topology: NodeTopology, hop: Hop, nbytes: int, jitter_factory=None
) -> float:
    """Measure one isolated copy over a hop on a fresh simulator."""
    engine = Engine()
    runtime = GPURuntime(engine, topology, jitter_factory=jitter_factory)
    stream = runtime.create_stream(0)
    start = engine.now
    engine.run(until=runtime.copy_on_hop_async(hop, nbytes, stream, tag="cal"))
    return engine.now - start


def fit_hockney(sizes: np.ndarray, times: np.ndarray) -> LinkEstimate:
    """Least-squares fit of T = α + n/β; returns the estimate with R²."""
    sizes = np.asarray(sizes, dtype=float)
    times = np.asarray(times, dtype=float)
    if sizes.size < 2:
        raise ValueError("need at least two samples for the regression")
    slope, intercept = np.polyfit(sizes, times, 1)
    if slope <= 0:
        raise ValueError("non-positive fitted slope; sweep too narrow")
    predicted = intercept + slope * sizes
    ss_res = float(((times - predicted) ** 2).sum())
    ss_tot = float(((times - times.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return LinkEstimate(
        alpha=max(float(intercept), 0.0),
        beta=1.0 / float(slope),
        r_squared=r2,
        samples=int(sizes.size),
    )


def calibrate_hop(
    topology: NodeTopology, hop: Hop, jitter_factory=None
) -> LinkEstimate:
    """(α̂, β̂) of one hop from timed copies over :data:`DEFAULT_SWEEP`."""
    times = np.array(
        [_time_hop(topology, hop, n, jitter_factory) for n in DEFAULT_SWEEP]
    )
    return fit_hockney(np.asarray(DEFAULT_SWEEP, dtype=float), times)


def _measure_staged_k1(
    topology: NodeTopology, path: PathDescriptor, nbytes: int, jitter_factory=None
) -> float:
    """Timed unpipelined staged transfer: hop1, sync, hop2 in order."""
    engine = Engine()
    runtime = GPURuntime(engine, topology, jitter_factory=jitter_factory)
    s1 = runtime.create_stream(path.src)
    stage_dev = path.via if path.via is not None else path.src
    s2 = runtime.create_stream(stage_dev)
    epsilon = runtime.sync_cost(via_gpu=path.via is not None)
    hop1, hop2 = path.hops

    start = engine.now
    # the pipeline's staged copy, as one chunk
    done, _ = runtime.staged_copy_async(
        hop1, hop2, (nbytes,), s1, s2, epsilon,
        tag="cal", suffixes=((":h1",), (":h2",)),
    )
    engine.run(until=done)
    return engine.now - start


def calibrate_epsilon(
    topology: NodeTopology,
    path: PathDescriptor,
    store: ParameterStore,
    jitter_factory=None,
) -> float:
    """ε̂ = measured staged k=1 time − sum of calibrated hop times, over
    :data:`DEFAULT_SWEEP`."""
    est1 = store.link(path.hops[0])
    est2 = store.link(path.hops[1])
    residuals = []
    for n in DEFAULT_SWEEP:
        measured = _measure_staged_k1(topology, path, n, jitter_factory)
        predicted_hops = (
            est1.alpha + n / est1.beta + est2.alpha + n / est2.beta
        )
        residuals.append(measured - predicted_hops)
    return max(float(np.mean(residuals)), 0.0)


def calibrate_phi_analytic(path_params) -> float:
    """φ̂ from the calibrated (α̂, β̂, ε̂): least-squares sqrt(x) ≈ φx over
    :data:`DEFAULT_PHI_WINDOW`."""
    return fit_phi_for_sizes(path_params, DEFAULT_PHI_WINDOW)


def calibrate_launch_overhead(
    topology: NodeTopology, jitter_factory=None
) -> float:
    """Mean gap between 8 back-to-back zero-byte copies on one stream."""
    engine = Engine()
    runtime = GPURuntime(engine, topology, jitter_factory=jitter_factory)
    stream = runtime.create_stream(0)
    hop = None
    for dst in range(1, topology.num_gpus):
        if topology.has_direct(0, dst):
            hop = topology.direct_hop(0, dst)
            break
    if hop is None:
        hop = topology.host_hops(0, 1)[0]
    start = engine.now
    last = None
    for i in range(8):
        last = runtime.copy_on_hop_async(hop, 0, stream, tag=f"launch{i}")
    engine.run(until=last)
    return (engine.now - start) / 8


def calibrate(topology: NodeTopology, *, jitter_factory=None) -> ParameterStore:
    """Full Step-1 extraction for one system.

    ``jitter_factory`` must match the one the experiments run with — on a
    real node you calibrate the same hardware you measure.
    """
    store = ParameterStore(system=topology.name)

    # 1. Hop regressions over every hop any candidate path uses.
    hops: set[Hop] = set()
    gpu_staged_example: PathDescriptor | None = None
    host_example: PathDescriptor | None = None
    all_paths: list[PathDescriptor] = []
    for src in range(topology.num_gpus):
        for dst in range(topology.num_gpus):
            if src == dst:
                continue
            for path in enumerate_paths(topology, src, dst, include_host=True):
                all_paths.append(path)
                hops.update(path.hops)
                if path.via is not None and gpu_staged_example is None:
                    gpu_staged_example = path
                if path.via is None and len(path.hops) == 2 and host_example is None:
                    host_example = path
    for hop in sorted(hops):
        store.set_link(hop, calibrate_hop(topology, hop, jitter_factory))

    # 2. Staging synchronization overheads.
    if gpu_staged_example is not None:
        store.set_epsilon(
            "gpu",
            calibrate_epsilon(topology, gpu_staged_example, store, jitter_factory),
        )
    if host_example is not None:
        store.set_epsilon(
            "host",
            calibrate_epsilon(topology, host_example, store, jitter_factory),
        )

    # 3. Topology constants φ per staged path id.
    seen: set[str] = set()
    for path in all_paths:
        if len(path.hops) != 2 or path.path_id in seen:
            continue
        seen.add(path.path_id)
        params = store.path_params(path)
        store.set_phi(path.path_id, calibrate_phi_analytic(params))

    # 4. Per-transfer launch overhead (Line 18's accumulated α).
    store.launch_overhead = calibrate_launch_overhead(
        topology, jitter_factory=jitter_factory
    )
    return store


# ----------------------------------------------------------------------
# Calibration cache
# ----------------------------------------------------------------------
# Calibration is deterministic given (system, size sweeps) under the
# experiments' one noise model, so its result can be memoised in-process
# and persisted on disk.  Experiments that re-run identical ping-pong
# sweeps per figure hit the cache instead; the key captures every
# calibration input, so a different sweep invalidates naturally.

#: Bump when the calibration algorithm or the experiments' noise model
#: (:class:`repro.bench.runner.SystemSetup`'s jitter constants) changes in
#: a result-affecting way — stale on-disk entries must not be served.
CAL_CACHE_VERSION = 1

_CAL_MEMO: dict[str, str] = {}  # key -> ParameterStore JSON
cache_stats = {"memo_hits": 0, "disk_hits": 0, "misses": 0}


def calibration_cache_key(system: str) -> tuple[dict, str]:
    """(key payload, digest) identifying one calibration's full input set:
    the system and both size sweeps."""
    payload = {
        "version": CAL_CACHE_VERSION,
        "system": system,
        "sizes": list(DEFAULT_SWEEP),
        "phi_window": list(DEFAULT_PHI_WINDOW),
    }
    material = json.dumps(payload, sort_keys=True).encode()
    return payload, hashlib.sha256(material).hexdigest()[:20]


def calibrate_cached(
    topology: NodeTopology, *, cache_dir: str | Path | None = None
) -> ParameterStore:
    """Memoised :func:`calibrate` keyed by (system, sweeps).

    Calibration runs under the experiments' one noise model, built from
    :class:`repro.bench.runner.SystemSetup`'s jitter constants via
    :func:`repro.bench.env.default_jitter_factory`, so the cache key is a
    complete description of the calibration inputs.  With ``cache_dir``
    set, results are also persisted as JSON (one file per key) and shared
    across processes/runs; the stored key payload is verified on load so a
    digest collision or edited file cannot serve wrong parameters.  Each
    call returns a *fresh* store (JSON round-trip, which is float-exact),
    so callers mutating their store (e.g. online recalibration) cannot
    pollute the cache.
    """
    from repro.bench.env import default_jitter_factory
    from repro.bench.runner import SystemSetup

    payload, digest = calibration_cache_key(topology.name)
    text = _CAL_MEMO.get(digest)
    if text is not None:
        cache_stats["memo_hits"] += 1
        return ParameterStore.from_json(text)
    path = None
    if cache_dir is not None:
        path = Path(cache_dir) / f"cal_{topology.name}_{digest}.json"
        if path.exists():
            try:
                doc = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                doc = None
            if doc is not None and doc.get("key") == payload:
                text = json.dumps(doc["store"])
                _CAL_MEMO[digest] = text
                cache_stats["disk_hits"] += 1
                return ParameterStore.from_json(text)
    cache_stats["misses"] += 1
    jitter_factory = default_jitter_factory(
        SystemSetup.jitter_seed, SystemSetup.jitter_sigma
    )
    store = calibrate(topology, jitter_factory=jitter_factory)
    text = store.to_json()
    _CAL_MEMO[digest] = text
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"key": payload, "store": json.loads(text)}, indent=2)
        )
    return ParameterStore.from_json(text)


def clear_calibration_memo() -> None:
    """Drop the in-process calibration memo (not any on-disk entries)."""
    _CAL_MEMO.clear()
    for k in cache_stats:
        cache_stats[k] = 0


__all__ = [
    "calibrate",
    "calibrate_cached",
    "calibration_cache_key",
    "clear_calibration_memo",
    "cache_stats",
    "calibrate_hop",
    "calibrate_epsilon",
    "calibrate_phi_analytic",
    "calibrate_launch_overhead",
    "fit_hockney",
    "CAL_CACHE_VERSION",
    "DEFAULT_SWEEP",
    "DEFAULT_PHI_WINDOW",
]
