"""Hierarchical retry budgets: token buckets shared per-pair and globally.

PR 4's recovery loop retries each transfer independently, so N transfers
hitting the same quarantined path produce N full retry ladders — a retry
storm that piles load onto paths already struggling.  A :class:`RetryBudget`
caps the *aggregate* retry rate: every recovery replan must take a token
from both the per-(src, dst) bucket and the global bucket before it may
retry.  When either bucket is dry the transfer skips straight to its
terminal fallback (one host-staging replan, then fail-fast) instead of
burning more backoff cycles.

Budgets also make backoff *collective*: each transfer entering a backoff
sleep registers itself, and the sleep duration is scaled by the number of
transfers concurrently backing off.  A lone retrying transfer sleeps
exactly the classic ``RETRY_BACKOFF * 2**(k-1)`` (bit-identical to the
pre-budget timeline); a storm of N spreads its retries over ~N times the
window.

All state advances only through explicit ``now`` arguments fed from the
simulation clock, so behaviour is deterministic and replayable.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class TokenBucket:
    """A deterministic token bucket refilled by elapsed simulated time."""

    capacity: float
    refill_rate: float = 0.0  # tokens per simulated second
    tokens: float = field(init=False)
    _last_refill: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        self.tokens = float(self.capacity)

    def _refill(self, now: float) -> None:
        if self.refill_rate > 0.0 and now > self._last_refill:
            self.tokens = min(
                float(self.capacity),
                self.tokens + (now - self._last_refill) * self.refill_rate,
            )
        if now > self._last_refill:
            self._last_refill = now

    def peek(self, now: float) -> float:
        self._refill(now)
        return self.tokens

    def try_take(self, now: float) -> bool:
        """Take one token if the bucket holds one."""
        self._refill(now)
        if self.tokens + 1e-12 < 1.0:
            return False
        self.tokens -= 1.0
        return True


class RetryBudget:
    """Two-level retry budget: a global bucket plus one bucket per pair.

    ``try_consume`` takes a token from *both* levels atomically (a pair
    bucket hit with a dry global bucket consumes nothing).  Levels with a
    ``None`` capacity are unlimited.  ``begin_backoff``/``end_backoff``
    track how many transfers are concurrently sleeping in recovery so the
    caller can stretch its backoff collectively.
    """

    def __init__(
        self,
        *,
        total: int | None = None,
        per_pair: int | None = None,
        refill_rate: float = 0.0,
    ) -> None:
        self.total_capacity = total
        self.per_pair_capacity = per_pair
        self.refill_rate = float(refill_rate)
        self._global = (
            TokenBucket(float(total), refill_rate) if total is not None else None
        )
        self._pairs: dict[tuple[int, int], TokenBucket] = {}
        self._inflight_backoffs = 0
        self.consumed = 0
        self.denied = 0

    @property
    def enabled(self) -> bool:
        return self.total_capacity is not None or self.per_pair_capacity is not None

    def _pair_bucket(self, pair: tuple[int, int]) -> TokenBucket | None:
        if self.per_pair_capacity is None:
            return None
        bucket = self._pairs.get(pair)
        if bucket is None:
            bucket = TokenBucket(float(self.per_pair_capacity), self.refill_rate)
            self._pairs[pair] = bucket
        return bucket

    def try_consume(self, pair: tuple[int, int], now: float) -> bool:
        """Take one retry token for *pair*; both levels must have budget."""
        pair_bucket = self._pair_bucket(pair)
        if pair_bucket is not None and pair_bucket.peek(now) < 1.0 - 1e-12:
            self.denied += 1
            return False
        if self._global is not None and not self._global.try_take(now):
            self.denied += 1
            return False
        if pair_bucket is not None and not pair_bucket.try_take(now):
            # Unreachable after the peek above, but keep both levels honest.
            self.denied += 1
            return False
        self.consumed += 1
        return True

    def begin_backoff(self) -> int:
        """Register a transfer entering recovery backoff; returns the
        number now concurrently backing off (>= 1), used as the collective
        backoff scale."""
        self._inflight_backoffs += 1
        return self._inflight_backoffs

    def end_backoff(self) -> None:
        if self._inflight_backoffs > 0:
            self._inflight_backoffs -= 1

    def snapshot(self) -> dict:
        return {
            "enabled": self.enabled,
            "total_capacity": self.total_capacity,
            "per_pair_capacity": self.per_pair_capacity,
            "refill_rate": self.refill_rate,
            "global_tokens": self._global.tokens if self._global is not None else None,
            "pair_buckets": len(self._pairs),
            "inflight_backoffs": self._inflight_backoffs,
            "consumed": self.consumed,
            "denied": self.denied,
        }


__all__ = ["TokenBucket", "RetryBudget"]
