"""Environment-variable-style transport configuration.

The paper's framework is controlled through UCX-like environment variables
(path include/exclude, §4).  :class:`TransportConfig` is the typed form;
:func:`TransportConfig.from_env` parses a string dict using the same
conventions (``y``/``n`` flags, comma-separated lists) so experiments can be
configured the way the paper's runs were.

Each knob is declared once: a field of :class:`TransportConfig` plus one
row of ``_KNOBS`` giving its ``UCX_*`` variable (if any), that variable's
parser and the field's lower bound.  ``__post_init__`` checks the bounds
from the table and ``from_env`` is one loop over it; only the cross-field
rules are written out.  A context's config is fixed when the context is
built: run with other knobs by building another context.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, replace
from typing import ClassVar

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
    # Protocol threshold, then the fixed protocol costs (class constants,
    # not fields)
    rndv_threshold: int = 512 * KiB  # below: eager single-path
    rndv_overhead: ClassVar[float] = 3.0 * us  # RTS/CTS handshake cost
    eager_overhead: ClassVar[float] = 1.0 * us
    request_overhead: ClassVar[float] = 0.4 * us  # per-request software cost
    # Failure recovery (see DESIGN.md §5d).  max_path_retries=0 runs zero
    # recovery rounds: a put whose paths fail raises PathUnavailable.
    max_path_retries: int = 3  # replans of a put's remaining bytes
    deadline_factor: float | None = None  # per-path watchdog: T_i x factor
    # Transfer service (see DESIGN.md §5e).  All off by default: the
    # TransferManager then dispatches synchronously and plans at idle load,
    # keeping single-transfer timelines bit-identical to a bare start_put.
    contention_aware: bool = False  # plan against live load (beta/(1+load))
    max_inflight_total: int | None = None  # global admission cap
    max_inflight_per_pair: int | None = None  # per-(src,dst) admission cap
    # Overload resilience (see DESIGN.md §5h).  All off by default: with no
    # queue limit, no overload thresholds, and no retry budgets the service
    # behaves exactly as before (bit-identical timelines).
    admission_queue_limit: int | None = None  # max queued requests (None=unbounded)
    shed_policy: str = "reject-newest"  # |"reject-cheapest"|"tenant-fair"
    overload_pressured_depth: int | None = None  # queue depth entering PRESSURED
    overload_shedding_depth: int | None = None  # queue depth entering SHEDDING
    overload_wait_pressured: float | None = None  # EWMA queue-wait entering PRESSURED
    retry_budget_total: int | None = None  # global retry tokens (None=unlimited)
    retry_budget_per_pair: int | None = None  # per-(src,dst) retry tokens
    retry_budget_refill: float = 0.0  # tokens per simulated second

    def __post_init__(self) -> None:
        for name, (_var, _parse, bound) in _KNOBS.items():
            value = getattr(self, name)
            if bound is None or value is None:
                continue
            op, lo = bound
            if value < lo or (op == ">" and value == lo):
                raise ValueError(f"{name} must be {op} {lo}")
        # Rules the table cannot express.
        if self.deadline_factor is not None and self.deadline_factor <= 1.0:
            raise ValueError("deadline_factor must be > 1 (or None to disable)")
        if self.shed_policy not in ("reject-newest", "reject-cheapest", "tenant-fair"):
            raise ValueError(
                "shed_policy must be one of 'reject-newest', 'reject-cheapest', "
                f"'tenant-fair'; got {self.shed_policy!r}"
            )
        if (
            self.overload_pressured_depth is not None
            and self.overload_shedding_depth is not None
            and self.overload_shedding_depth < self.overload_pressured_depth
        ):
            raise ValueError(
                "overload_shedding_depth must be >= overload_pressured_depth"
            )
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

        A value that does not parse is reported with its variable's name.
        A ``UCX_MP_*`` variable this method does not read is rejected by
        name, so a typo or a retired knob never passes silently.
        """
        values = {}
        for name, (var, parse, _bound) in _KNOBS.items():
            if var is None or var not in env:
                continue
            raw = env[var]
            try:
                values[name] = parse(raw)
            except ValueError as exc:
                raise ValueError(f"{var}: cannot parse {raw!r} ({exc})") from None
        known = {var for var, _parse, _bound in _KNOBS.values()}
        unknown = sorted(k for k in env if k.startswith("UCX_MP_") and k not in known)
        if unknown:
            raise ValueError(f"unknown transport variable(s): {', '.join(unknown)}")
        return cls(**values)


_Parser = Callable[[str], object]


def _flag(raw: str) -> bool:
    v = raw.strip().lower()
    if v in ("y", "yes", "1", "true", "on"):
        return True
    if v in ("n", "no", "0", "false", "off"):
        return False
    raise ValueError("not a boolean")


def _optional(parse: _Parser, *nones: str) -> _Parser:
    """``parse``, except that a blank value or one of ``nones`` is None."""
    return lambda raw: None if raw.strip().lower() in ("", *nones) else parse(raw)


def _path_list(raw: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in raw.split(",") if s.strip())


_limit = _optional(int, "none", "off", "inf")  # an int cap; None = no cap

#: One row per TransportConfig field: its variable, the variable's parser,
#: and the field's lower bound ``(op, value)`` with op ``">="`` or ``">"``
#: (a None field value passes).  Fields without a variable are code-only.
_KNOBS: dict[str, tuple[str | None, _Parser | None, tuple[str, float] | None]] = {
    "multipath": ("UCX_MP_ENABLE", _flag, None),
    "include_host": ("UCX_MP_INCLUDE_HOST", _flag, None),
    "max_gpu_staged": ("UCX_MP_MAX_GPU_STAGED", int, None),
    "exclude_paths": ("UCX_MP_EXCLUDE", _path_list, None),
    "pipelining": ("UCX_MP_PIPELINE", _flag, None),
    "max_chunks": ("UCX_MP_MAX_CHUNKS", int, (">=", 1)),
    "sequential_initiation": ("UCX_MP_SEQ_INIT", _flag, None),
    "static_shares": (None, None, None),
    "rndv_threshold": ("UCX_RNDV_THRESH", parse_size, (">=", 0)),
    "max_path_retries": ("UCX_MP_MAX_RETRIES", int, (">=", 0)),
    "deadline_factor": ("UCX_MP_DEADLINE_FACTOR", _optional(float, "none", "off"), None),
    "contention_aware": ("UCX_MP_CONTENTION_AWARE", _flag, None),
    "max_inflight_total": ("UCX_MP_MAX_INFLIGHT", _limit, (">=", 1)),
    "max_inflight_per_pair": ("UCX_MP_MAX_INFLIGHT_PAIR", _limit, (">=", 1)),
    "admission_queue_limit": ("UCX_MP_QUEUE_LIMIT", _limit, (">=", 1)),
    "shed_policy": ("UCX_MP_SHED_POLICY", str.strip, None),
    "overload_pressured_depth": ("UCX_MP_PRESSURED_DEPTH", _limit, (">=", 1)),
    "overload_shedding_depth": ("UCX_MP_SHEDDING_DEPTH", _limit, (">=", 1)),
    "overload_wait_pressured": (None, None, (">", 0)),
    "retry_budget_total": ("UCX_MP_RETRY_BUDGET", _limit, (">=", 0)),
    "retry_budget_per_pair": ("UCX_MP_RETRY_BUDGET_PAIR", _limit, (">=", 0)),
    "retry_budget_refill": ("UCX_MP_RETRY_BUDGET_REFILL", float, (">=", 0)),
}


__all__ = ["TransportConfig", "StaticShare"]
