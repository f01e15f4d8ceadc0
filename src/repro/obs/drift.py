"""Closed-loop model telemetry: error tracking, drift detection, refit.

The paper validates its ≤6 % prediction-error claim *offline*, against
one-shot sweeps.  At runtime Algorithm 1's configuration cache happily
serves stale plans if link behaviour shifts under it (DVFS, thermal
throttling, background contention — the effects ``sim/noise.py`` models).
This module closes the loop:

* :class:`PredictionErrorTracker` joins each executed plan's
  ``predicted_time`` with the *observed* pipeline completion time and
  maintains per-(pair, size-bucket, path-set) EWMA plus a bounded window
  of recent signed errors;
* :class:`PageHinkley` watches the signed-error stream per GPU pair and
  fires when its mean shifts (two-sided Page–Hinkley test — the classic
  sequential change-point detector);
* :class:`OnlineRecalibrator` re-fits the affected hops' (α̂, β̂) from
  *live* fabric trace records — the same ``T = α + n/β`` regression the
  offline Step 1 uses, never the simulator's ground truth;
* :class:`DriftController` ties them together: on a detector firing it
  refits, writes changed estimates into the planner's parameter store,
  and invalidates exactly the cached plans that cross a changed hop
  (``Planner.refresh_params``), so the next plan is computed fresh.

Everything here is feedback-path only: nothing runs unless the run was
created with ``observe=True`` *and* autotuning enabled.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.params import LinkEstimate

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.planner import PathPlanner, TransferPlan
    from repro.sim.trace import Tracer
    from repro.topology.routing import Hop


def size_bucket(nbytes: int) -> int:
    """Power-of-two size class: 2^k ≤ nbytes < 2^(k+1) maps to k."""
    n = int(nbytes)
    return n.bit_length() - 1 if n >= 1 else 0


@dataclass(frozen=True)
class ErrorRecord:
    """One joined (prediction, observation) pair."""

    seq: int
    src: int
    dst: int
    nbytes: int
    predicted: float
    observed: float
    time: float  # simulated completion time
    path_ids: tuple[str, ...]

    @property
    def signed_error(self) -> float:
        """(observed − predicted) / predicted: positive = model optimistic."""
        return (self.observed - self.predicted) / self.predicted

    @property
    def abs_error(self) -> float:
        return abs(self.signed_error)


class _KeyStats:
    """EWMA + bounded window of signed errors for one tracking key."""

    __slots__ = ("count", "ewma_signed", "ewma_abs", "window")

    def __init__(self, window: int) -> None:
        self.count = 0
        self.ewma_signed = 0.0
        self.ewma_abs = 0.0
        self.window: deque[float] = deque(maxlen=window)

    def update(self, signed: float, alpha: float) -> None:
        self.count += 1
        if self.count == 1:
            self.ewma_signed = signed
            self.ewma_abs = abs(signed)
        else:
            self.ewma_signed += alpha * (signed - self.ewma_signed)
            self.ewma_abs += alpha * (abs(signed) - self.ewma_abs)
        self.window.append(signed)

    def percentile(self, q: float) -> float:
        if not self.window:
            return 0.0
        return float(np.percentile(np.abs(np.asarray(self.window)), q))


class PredictionErrorTracker:
    """Per-(pair, size-bucket, path-set) prediction-error statistics.

    Keys are ``(src, dst, size_bucket, path_ids)`` so a detector firing
    can be attributed to one pair, and the paper's size-resolved error
    claim (>4 MB) can be checked from live telemetry alone.
    """

    def __init__(
        self,
        *,
        ewma_alpha: float = 0.2,
        window: int = 64,
        enabled: bool = True,
    ) -> None:
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if window < 1:
            raise ValueError("window must be >= 1")
        self.ewma_alpha = ewma_alpha
        self.window = window
        self.enabled = enabled
        self.records: list[ErrorRecord] = []
        self._stats: dict[tuple, _KeyStats] = {}

    # ------------------------------------------------------------------
    def record(
        self, plan: "TransferPlan", observed: float, *, now: float = 0.0
    ) -> ErrorRecord | None:
        """Join one executed plan with its observed completion time."""
        if not self.enabled or plan.predicted_time <= 0 or observed <= 0:
            return None
        path_ids = tuple(a.path.path_id for a in plan.active_assignments)
        rec = ErrorRecord(
            seq=len(self.records),
            src=plan.src,
            dst=plan.dst,
            nbytes=plan.nbytes,
            predicted=plan.predicted_time,
            observed=observed,
            time=now,
            path_ids=path_ids,
        )
        self.records.append(rec)
        key = (plan.src, plan.dst, size_bucket(plan.nbytes), path_ids)
        stats = self._stats.get(key)
        if stats is None:
            stats = self._stats[key] = _KeyStats(self.window)
        stats.update(rec.signed_error, self.ewma_alpha)
        return rec

    # ------------------------------------------------------------------
    def mean_abs_error(
        self, *, min_bytes: int = 0, last: int | None = None
    ) -> float:
        """Mean |error| over (optionally the last N of) recorded pairs."""
        recs = [r for r in self.records if r.nbytes >= min_bytes]
        if last is not None:
            recs = recs[-last:]
        if not recs:
            return 0.0
        return float(np.mean([r.abs_error for r in recs]))

    def ewma_for_pair(self, src: int, dst: int) -> float:
        """Sample-weighted mean of per-key signed EWMAs for one pair."""
        total = weight = 0.0
        for (s, d, _, _), stats in self._stats.items():
            if s == src and d == dst:
                total += stats.ewma_signed * stats.count
                weight += stats.count
        return total / weight if weight else 0.0

    def ewma_abs_for_pair(self, src: int, dst: int) -> float:
        """Sample-weighted mean of per-key absolute EWMAs for one pair."""
        total = weight = 0.0
        for (s, d, _, _), stats in self._stats.items():
            if s == src and d == dst:
                total += stats.ewma_abs * stats.count
                weight += stats.count
        return total / weight if weight else 0.0

    def summary(self) -> dict:
        """Structured snapshot keyed by readable strings (JSON-safe)."""
        keys = {}
        for (src, dst, bucket, path_ids), stats in sorted(
            self._stats.items(), key=lambda kv: kv[0][:3]
        ):
            label = f"{src}->{dst}/2^{bucket}/{'+'.join(path_ids)}"
            keys[label] = {
                "count": stats.count,
                "ewma_signed": stats.ewma_signed,
                "ewma_abs": stats.ewma_abs,
                "p50_abs": stats.percentile(50),
                "p90_abs": stats.percentile(90),
            }
        return {
            "samples": len(self.records),
            "mean_abs_error": self.mean_abs_error(),
            "keys": keys,
        }

    def clear(self) -> None:
        self.records.clear()
        self._stats.clear()


class PageHinkley:
    """Two-sided Page–Hinkley change-point test over a scalar stream.

    Fires when the cumulative deviation from the running mean exceeds
    ``threshold`` in either direction (observed times drifting slower
    *or* faster than predicted), then resets so successive drifts can be
    caught.  ``delta`` is the magnitude of change considered noise;
    ``min_samples`` suppresses firings before the mean stabilises.
    """

    def __init__(
        self,
        *,
        delta: float = 0.005,
        threshold: float = 0.15,
        min_samples: int = 5,
    ) -> None:
        if threshold <= 0:
            raise ValueError("threshold must be > 0")
        if min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        self.delta = delta
        self.threshold = threshold
        self.min_samples = min_samples
        self.fired_count = 0
        self.reset()

    def reset(self) -> None:
        self.n = 0
        self.mean = 0.0
        self._m_up = 0.0
        self._m_dn = 0.0
        self._min_up = 0.0
        self._max_dn = 0.0

    def update(self, x: float) -> bool:
        """Feed one sample; returns True when a change point is detected."""
        self.n += 1
        self.mean += (x - self.mean) / self.n
        self._m_up += x - self.mean - self.delta
        self._m_dn += x - self.mean + self.delta
        self._min_up = min(self._min_up, self._m_up)
        self._max_dn = max(self._max_dn, self._m_dn)
        fired = self.n >= self.min_samples and (
            self._m_up - self._min_up > self.threshold
            or self._max_dn - self._m_dn > self.threshold
        )
        if fired:
            self.fired_count += 1
            self.reset()
        return fired


@dataclass(frozen=True)
class RefitResult:
    """One hop's recalibration outcome."""

    hop: "Hop"
    old: LinkEstimate
    new: LinkEstimate
    samples: int
    method: str  # "hockney" | "beta-only"

    @property
    def beta_change(self) -> float:
        return (self.new.beta - self.old.beta) / self.old.beta


class OnlineRecalibrator:
    """Incremental (α̂, β̂) re-fit from live fabric trace records.

    The offline Step 1 times isolated copies over a size sweep; at
    runtime we only get whatever the workload actually sent.  Per hop we
    take the last ``window`` trace records of its primary channel and

    * run the full Hockney regression (``bench/calibrate.fit_hockney``)
      when the window spans enough *distinct* sizes with enough spread
      for the slope to be conditioned;
    * otherwise fall back to a β-only fit that keeps the stored α̂:
      β̂ = Σn / Σ max(t − α̂, 0) — exact for a fixed-size stream, which
      is what steady workloads (OSU loops) produce.

    Estimates are written back only on material change (``change_tol``),
    so noise does not thrash the planner cache.
    """

    def __init__(
        self,
        store,
        tracer: "Tracer",
        *,
        window: int = 16,
        min_samples: int = 4,
        min_distinct: int = 3,
        spread_ratio: float = 4.0,
        change_tol: float = 0.02,
    ) -> None:
        if window < 1 or min_samples < 1:
            raise ValueError("window and min_samples must be >= 1")
        self.store = store
        self.tracer = tracer
        self.window = window
        self.min_samples = min_samples
        self.min_distinct = min_distinct
        self.spread_ratio = spread_ratio
        self.change_tol = change_tol

    # ------------------------------------------------------------------
    def _samples_for(self, hop: "Hop") -> tuple[np.ndarray, np.ndarray]:
        """(sizes, durations) of the hop's recent primary-channel copies."""
        primary = hop[0]
        recs = [
            r
            for r in self.tracer.records
            if r.channel == primary and r.nbytes > 0 and r.duration > 0
        ][-self.window:]
        sizes = np.array([r.nbytes for r in recs], dtype=float)
        times = np.array([r.duration for r in recs], dtype=float)
        return sizes, times

    def refit_hop(self, hop: "Hop") -> RefitResult | None:
        """Re-fit one hop; None when data or change is insufficient."""
        from repro.bench.calibrate import fit_hockney

        hop = tuple(hop)
        if not self.store.has_link(hop):
            return None
        old = self.store.link(hop)
        sizes, times = self._samples_for(hop)
        if sizes.size < self.min_samples:
            return None
        distinct = np.unique(sizes)
        new: LinkEstimate | None = None
        method = "beta-only"
        if (
            distinct.size >= self.min_distinct
            and float(distinct.max() / distinct.min()) >= self.spread_ratio
        ):
            try:
                new = fit_hockney(sizes, times)
                method = "hockney"
            except ValueError:
                new = None
        if new is None:
            service = np.maximum(times - old.alpha, 1e-12)
            beta = float(sizes.sum() / service.sum())
            if beta <= 0:
                return None
            new = LinkEstimate(
                alpha=old.alpha, beta=beta, r_squared=0.0, samples=int(sizes.size)
            )
        rel_beta = abs(new.beta - old.beta) / old.beta
        rel_alpha = (
            abs(new.alpha - old.alpha) / old.alpha if old.alpha > 0 else 0.0
        )
        if rel_beta < self.change_tol and rel_alpha < self.change_tol:
            return None
        self.store.set_link(hop, new)
        return RefitResult(
            hop=hop, old=old, new=new, samples=int(sizes.size), method=method
        )

    def refit_hops(self, hops) -> list[RefitResult]:
        """Re-fit several hops; returns the materially changed ones."""
        results = []
        seen: set[tuple] = set()
        for hop in hops:
            hop = tuple(hop)
            if hop in seen:
                continue
            seen.add(hop)
            out = self.refit_hop(hop)
            if out is not None:
                results.append(out)
        return results


@dataclass(frozen=True)
class DriftEvent:
    """One detector firing and what the controller did about it."""

    seq: int
    time: float
    src: int
    dst: int
    error_ewma: float
    refits: tuple[RefitResult, ...]
    plans_invalidated: int


class DriftController:
    """The closed loop: track → detect → recalibrate → invalidate.

    One controller per instrumented context.  ``observe`` is called from
    the transport with each executed dynamic plan's observed completion
    time; everything else happens inside.  A per-pair cooldown (counted
    in observations) prevents refitting again before fresh post-refit
    samples exist.

    Two triggers feed the recalibration, covering complementary failure
    shapes:

    * the Page–Hinkley test catches *shifts* in the signed-error mean —
      fast onset detection;
    * ``error_bound`` catches *sustained* error: Page–Hinkley adapts to
      a constant bias, so a first refit from a window still mixing
      pre-drift samples (hence only partially corrective) would
      otherwise leave the model stuck at a plateau.  While the pair's
      EWMA |error| exceeds the bound the controller keeps refitting
      (one refit per cooldown period) until the window is clean.
    """

    def __init__(
        self,
        planner: "PathPlanner",
        tracer: "Tracer",
        *,
        tracker: PredictionErrorTracker | None = None,
        recalibrator: OnlineRecalibrator | None = None,
        detector_factory=None,
        cooldown: int = 8,
        error_bound: float = 0.08,
    ) -> None:
        self.planner = planner
        self.tracer = tracer
        self.tracker = tracker if tracker is not None else PredictionErrorTracker()
        self.recalibrator = (
            recalibrator
            if recalibrator is not None
            else OnlineRecalibrator(planner.store, tracer)
        )
        self.detector_factory = (
            detector_factory if detector_factory is not None else PageHinkley
        )
        self.cooldown = cooldown
        self.error_bound = error_bound
        self.events: list[DriftEvent] = []
        self._detectors: dict[tuple[int, int], PageHinkley] = {}
        self._cooldown_left: dict[tuple[int, int], int] = {}
        self._pair_samples: dict[tuple[int, int], int] = {}

    # ------------------------------------------------------------------
    def observe(
        self, plan: "TransferPlan", observed: float, *, now: float = 0.0
    ) -> DriftEvent | None:
        """Feed one (plan, observed-time) pair; maybe recalibrate."""
        rec = self.tracker.record(plan, observed, now=now)
        if rec is None:
            return None
        pair = (plan.src, plan.dst)
        det = self._detectors.get(pair)
        if det is None:
            det = self._detectors[pair] = self.detector_factory()
        fired = det.update(rec.signed_error)
        self._pair_samples[pair] = self._pair_samples.get(pair, 0) + 1
        left = self._cooldown_left.get(pair, 0)
        if left > 0:
            self._cooldown_left[pair] = left - 1
            return None
        if not fired:
            # Sustained-error trigger (see class docstring).
            sustained = (
                self._pair_samples[pair] >= det.min_samples
                and self.tracker.ewma_abs_for_pair(*pair) > self.error_bound
            )
            if not sustained:
                return None
        return self._recalibrate(plan, rec)

    def _recalibrate(
        self, plan: "TransferPlan", rec: ErrorRecord
    ) -> DriftEvent | None:
        from repro.topology.routing import enumerate_paths

        hops: list[tuple] = []
        for path in enumerate_paths(
            self.planner.topology, plan.src, plan.dst, include_host=True
        ):
            hops.extend(path.hops)
        refits = self.recalibrator.refit_hops(hops)
        if not refits:
            # Fired but nothing changed materially — likely noise; the
            # detector already reset, so just arm the cooldown.
            self._cooldown_left[(plan.src, plan.dst)] = self.cooldown
            return None
        invalidated = self.planner.refresh_params([r.hop for r in refits])
        event = DriftEvent(
            seq=len(self.events),
            time=rec.time,
            src=plan.src,
            dst=plan.dst,
            error_ewma=self.tracker.ewma_for_pair(plan.src, plan.dst),
            refits=tuple(refits),
            plans_invalidated=invalidated,
        )
        self.events.append(event)
        self._cooldown_left[(plan.src, plan.dst)] = self.cooldown
        return event

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        return {
            "events": len(self.events),
            "hops_refit": sum(len(e.refits) for e in self.events),
            "plans_invalidated": sum(e.plans_invalidated for e in self.events),
            "detectors": {
                f"{s}->{d}": det.fired_count
                for (s, d), det in sorted(self._detectors.items())
            },
        }


__all__ = [
    "size_bucket",
    "ErrorRecord",
    "PredictionErrorTracker",
    "PageHinkley",
    "RefitResult",
    "OnlineRecalibrator",
    "DriftEvent",
    "DriftController",
]
