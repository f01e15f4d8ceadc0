"""Environment-variable-style transport configuration.

The paper's framework is controlled through UCX-like environment variables
(path include/exclude, §4).  :class:`TransportConfig` is the typed form;
:func:`TransportConfig.from_env` parses a string dict using the same
conventions (``y``/``n`` flags, comma-separated lists) so experiments can be
configured the way the paper's runs were.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, replace

from repro.units import KiB, parse_size, us


@dataclass(frozen=True)
class StaticShare:
    """A fixed (offline-tuned) distribution entry for the static baseline."""

    path_id: str
    fraction: float
    chunks: int = 1


@dataclass(frozen=True)
class TransportConfig:
    """All knobs of the simulated MPI+UCX transport."""

    # Multi-path engine
    multipath: bool = True  # False => always the single direct path
    include_host: bool = True
    max_gpu_staged: int | None = None
    exclude_paths: tuple[str, ...] = ()
    pipelining: bool = True
    max_chunks: int = 64
    sequential_initiation: bool = True
    # Static baseline: when set, use these fixed shares instead of the model
    static_shares: tuple[StaticShare, ...] = ()
    # Protocol thresholds / overheads
    rndv_threshold: int = 512 * KiB  # below: eager single-path
    rndv_overhead: float = 3.0 * us  # RTS/CTS handshake cost
    eager_overhead: float = 1.0 * us
    request_overhead: float = 0.4 * us  # per-request software cost
    planner_alignment: int = 256
    # Failure recovery (see DESIGN.md §5d).  max_path_retries=0 runs zero
    # recovery rounds: a put whose paths fail raises PathUnavailable.
    max_path_retries: int = 3  # replans of a put's remaining bytes
    retry_backoff: float = 25 * us  # first backoff; doubles per retry
    deadline_factor: float | None = None  # per-path watchdog: T_i x factor
    # Transfer service (see DESIGN.md §5e).  All off by default: the
    # TransferManager then dispatches synchronously and plans at idle load,
    # keeping single-transfer timelines bit-identical to a bare start_put.
    contention_aware: bool = False  # plan against live load (beta/(1+load))
    max_inflight_total: int | None = None  # global admission cap
    max_inflight_per_pair: int | None = None  # per-(src,dst) admission cap
    coalesce_threshold: int = 0  # queued same-pair puts <= this merge (0=off)
    # Flight recorder (see DESIGN.md §5f).  On by default: the span ring is
    # slab-backed and never schedules events, so timelines are unaffected
    # and the measured overhead stays under the perfsuite's 3% gate.
    flight_recorder: bool = True
    flight_capacity: int = 65_536  # span ring slots
    # Compiled transfer graphs (see DESIGN.md §5g): every put executes a
    # compiled schedule, replayed from this cache on repeated shapes.
    graph_cache_capacity: int = 256  # compiled graphs kept per context
    # Overload resilience (see DESIGN.md §5h).  All off by default: with no
    # queue limit, no overload thresholds, and no retry budgets the service
    # behaves exactly as before (bit-identical timelines).
    admission_queue_limit: int | None = None  # max queued requests (None=unbounded)
    shed_policy: str = "reject-newest"  # |"reject-cheapest"|"tenant-fair"
    overload_pressured_depth: int | None = None  # queue depth entering PRESSURED
    overload_shedding_depth: int | None = None  # queue depth entering SHEDDING
    overload_wait_pressured: float | None = None  # EWMA queue-wait entering PRESSURED
    overload_exit_fraction: float = 0.5  # hysteresis: exit at frac x enter threshold
    overload_ewma_alpha: float = 0.2  # EWMA smoothing for observed queue wait
    degrade_under_pressure: bool = True  # ask planner for cheaper plans when hot
    retry_budget_total: int | None = None  # global retry tokens (None=unlimited)
    retry_budget_per_pair: int | None = None  # per-(src,dst) retry tokens
    retry_budget_refill: float = 0.0  # tokens per simulated second

    def __post_init__(self) -> None:
        if self.rndv_threshold < 0:
            raise ValueError("rndv_threshold must be >= 0")
        if self.max_chunks < 1:
            raise ValueError("max_chunks must be >= 1")
        if any(o < 0 for o in (self.rndv_overhead, self.eager_overhead, self.request_overhead)):
            raise ValueError("overheads must be >= 0")
        if self.max_path_retries < 0:
            raise ValueError("max_path_retries must be >= 0")
        if self.retry_backoff < 0:
            raise ValueError("retry_backoff must be >= 0")
        if self.deadline_factor is not None and self.deadline_factor <= 1.0:
            raise ValueError("deadline_factor must be > 1 (or None to disable)")
        if self.max_inflight_total is not None and self.max_inflight_total < 1:
            raise ValueError("max_inflight_total must be >= 1 (or None)")
        if self.max_inflight_per_pair is not None and self.max_inflight_per_pair < 1:
            raise ValueError("max_inflight_per_pair must be >= 1 (or None)")
        if self.coalesce_threshold < 0:
            raise ValueError("coalesce_threshold must be >= 0")
        if self.flight_capacity < 1:
            raise ValueError("flight_capacity must be >= 1")
        if self.graph_cache_capacity < 1:
            raise ValueError("graph_cache_capacity must be >= 1")
        if self.admission_queue_limit is not None and self.admission_queue_limit < 1:
            raise ValueError("admission_queue_limit must be >= 1 (or None)")
        if self.shed_policy not in ("reject-newest", "reject-cheapest", "tenant-fair"):
            raise ValueError(
                "shed_policy must be one of 'reject-newest', 'reject-cheapest', "
                f"'tenant-fair'; got {self.shed_policy!r}"
            )
        if self.overload_pressured_depth is not None and self.overload_pressured_depth < 1:
            raise ValueError("overload_pressured_depth must be >= 1 (or None)")
        if self.overload_shedding_depth is not None and self.overload_shedding_depth < 1:
            raise ValueError("overload_shedding_depth must be >= 1 (or None)")
        if (
            self.overload_pressured_depth is not None
            and self.overload_shedding_depth is not None
            and self.overload_shedding_depth < self.overload_pressured_depth
        ):
            raise ValueError(
                "overload_shedding_depth must be >= overload_pressured_depth"
            )
        if self.overload_wait_pressured is not None and self.overload_wait_pressured <= 0:
            raise ValueError("overload_wait_pressured must be > 0 (or None)")
        if not 0.0 < self.overload_exit_fraction < 1.0:
            raise ValueError("overload_exit_fraction must be in (0, 1)")
        if not 0.0 < self.overload_ewma_alpha <= 1.0:
            raise ValueError("overload_ewma_alpha must be in (0, 1]")
        if self.retry_budget_total is not None and self.retry_budget_total < 0:
            raise ValueError("retry_budget_total must be >= 0 (or None)")
        if self.retry_budget_per_pair is not None and self.retry_budget_per_pair < 0:
            raise ValueError("retry_budget_per_pair must be >= 0 (or None)")
        if self.retry_budget_refill < 0:
            raise ValueError("retry_budget_refill must be >= 0")
        total = sum(s.fraction for s in self.static_shares)
        if self.static_shares and abs(total - 1.0) > 1e-6:
            raise ValueError(f"static shares must sum to 1, got {total}")

    # ------------------------------------------------------------------
    def with_(self, **changes) -> "TransportConfig":
        """Functional update (config objects are immutable)."""
        return replace(self, **changes)

    @classmethod
    def single_path(cls) -> "TransportConfig":
        """The library-default baseline: one direct path, no splitting."""
        return cls(multipath=False, include_host=False)

    @classmethod
    def from_env(cls, env: Mapping[str, str]) -> "TransportConfig":
        """Parse UCX-style variables, e.g.::

            UCX_MP_ENABLE=y UCX_MP_INCLUDE_HOST=n UCX_MP_EXCLUDE=gpu:3
            UCX_MP_MAX_CHUNKS=32 UCX_RNDV_THRESH=512K

        A ``UCX_MP_*`` variable this method does not read is rejected by
        name, so a typo or a retired knob never passes silently.
        """
        consulted: set[str] = set()

        def has(key: str) -> bool:
            consulted.add(key)
            return key in env

        def flag(key: str, default: bool) -> bool:
            if not has(key):
                return default
            raw = env[key]
            v = raw.strip().lower()
            if v in ("y", "yes", "1", "true", "on"):
                return True
            if v in ("n", "no", "0", "false", "off"):
                return False
            raise ValueError(f"{key}: cannot parse boolean {raw!r}")

        def conv(key: str, parse):
            """Parse env[key], naming the offending variable on bad input."""
            raw = env[key]
            try:
                return parse(raw)
            except ValueError as exc:
                raise ValueError(f"{key}: cannot parse {raw!r} ({exc})") from None

        cfg = cls(
            multipath=flag("UCX_MP_ENABLE", True),
            include_host=flag("UCX_MP_INCLUDE_HOST", True),
            pipelining=flag("UCX_MP_PIPELINE", True),
            sequential_initiation=flag("UCX_MP_SEQ_INIT", True),
            contention_aware=flag("UCX_MP_CONTENTION_AWARE", False),
            flight_recorder=flag("UCX_MP_FLIGHT_RECORDER", True),
        )
        if has("UCX_MP_FLIGHT_CAPACITY"):
            cfg = cfg.with_(flight_capacity=conv("UCX_MP_FLIGHT_CAPACITY", int))
        if has("UCX_MP_GRAPH_CACHE"):
            cfg = cfg.with_(graph_cache_capacity=conv("UCX_MP_GRAPH_CACHE", int))
        if has("UCX_MP_MAX_GPU_STAGED"):
            cfg = cfg.with_(max_gpu_staged=conv("UCX_MP_MAX_GPU_STAGED", int))
        if has("UCX_MP_EXCLUDE"):
            items = tuple(
                s.strip() for s in env["UCX_MP_EXCLUDE"].split(",") if s.strip()
            )
            cfg = cfg.with_(exclude_paths=items)
        if has("UCX_MP_MAX_CHUNKS"):
            cfg = cfg.with_(max_chunks=conv("UCX_MP_MAX_CHUNKS", int))
        if has("UCX_RNDV_THRESH"):
            cfg = cfg.with_(rndv_threshold=conv("UCX_RNDV_THRESH", parse_size))
        if has("UCX_MP_MAX_RETRIES"):
            cfg = cfg.with_(max_path_retries=conv("UCX_MP_MAX_RETRIES", int))
        if has("UCX_MP_DEADLINE_FACTOR"):
            raw = env["UCX_MP_DEADLINE_FACTOR"].strip().lower()
            cfg = cfg.with_(
                deadline_factor=None
                if raw in ("", "none", "off")
                else conv("UCX_MP_DEADLINE_FACTOR", float)
            )

        def cap(key: str) -> int | None:
            raw = env[key].strip().lower()
            return None if raw in ("", "none", "off", "inf") else conv(key, int)

        if has("UCX_MP_MAX_INFLIGHT"):
            cfg = cfg.with_(max_inflight_total=cap("UCX_MP_MAX_INFLIGHT"))
        if has("UCX_MP_MAX_INFLIGHT_PAIR"):
            cfg = cfg.with_(max_inflight_per_pair=cap("UCX_MP_MAX_INFLIGHT_PAIR"))
        if has("UCX_MP_COALESCE"):
            cfg = cfg.with_(coalesce_threshold=conv("UCX_MP_COALESCE", parse_size))
        if has("UCX_MP_QUEUE_LIMIT"):
            cfg = cfg.with_(admission_queue_limit=cap("UCX_MP_QUEUE_LIMIT"))
        if has("UCX_MP_SHED_POLICY"):
            cfg = cfg.with_(shed_policy=env["UCX_MP_SHED_POLICY"].strip())
        if has("UCX_MP_PRESSURED_DEPTH"):
            cfg = cfg.with_(overload_pressured_depth=cap("UCX_MP_PRESSURED_DEPTH"))
        if has("UCX_MP_SHEDDING_DEPTH"):
            cfg = cfg.with_(overload_shedding_depth=cap("UCX_MP_SHEDDING_DEPTH"))
        if has("UCX_MP_RETRY_BUDGET"):
            cfg = cfg.with_(retry_budget_total=cap("UCX_MP_RETRY_BUDGET"))
        if has("UCX_MP_RETRY_BUDGET_PAIR"):
            cfg = cfg.with_(retry_budget_per_pair=cap("UCX_MP_RETRY_BUDGET_PAIR"))
        if has("UCX_MP_RETRY_BUDGET_REFILL"):
            cfg = cfg.with_(
                retry_budget_refill=conv("UCX_MP_RETRY_BUDGET_REFILL", float)
            )
        unknown = sorted(
            k for k in env if k.startswith("UCX_MP_") and k not in consulted
        )
        if unknown:
            raise ValueError(f"unknown transport variable(s): {', '.join(unknown)}")
        return cfg


__all__ = ["TransportConfig", "StaticShare"]
