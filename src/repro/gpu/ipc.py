"""CUDA-IPC handle management with caching.

Opening a peer's memory handle (``cudaIpcOpenMemHandle``) is expensive
(tens of microseconds); UCX's cuda_ipc module caches handle translations
per (owner device, peer device, allocation) so steady-state transfers skip
it.  Each simulated device exposes one allocation, so the cache here is
keyed by the device pair.  The cache is one source of the small-message /
cold-start error the model does not capture (Observation 4): OSU-style
loops include warmup iterations, so the measured numbers are hot-cache,
but one-shot transfers pay the open cost.
"""

from __future__ import annotations

from repro.sim.engine import Engine, Event
from repro.units import us
from repro.util.cache import LRUCache

#: Default cost of a cold cudaIpcOpenMemHandle, per published measurements.
DEFAULT_OPEN_COST = 25.0 * us


class IpcHandleCache:
    """Per-process cache of up to 1024 opened IPC handles."""

    def __init__(
        self, engine: Engine, *, open_cost: float = DEFAULT_OPEN_COST
    ) -> None:
        if open_cost < 0:
            raise ValueError("open_cost must be >= 0")
        self.engine = engine
        self.open_cost = float(open_cost)
        self.cache: LRUCache = LRUCache(1024)

    def open(self, owner_device: int, peer_device: int) -> Event:
        """Event that succeeds when the mapping is usable.

        Immediate on a cache hit; costs ``open_cost`` simulated seconds on a
        miss (charged once, then cached).
        """
        key = (owner_device, peer_device)
        done = self.engine.event()
        if self.cache.get(key) is not None:
            done.succeed("hit")
            return done
        self.cache.put(key, True)
        self.engine.call_at(self.engine.now + self.open_cost).add_callback(
            lambda _ev: done.succeed("miss")
        )
        return done

    def invalidate(self, owner_device: int | None = None) -> None:
        """Drop cached handles (all, or one owner's) — free/realloc events.

        The hit/miss statistics stay: a free drops handles, not the
        lookups that already happened.
        """
        self.cache.invalidate(
            lambda key, _v: owner_device is None or key[0] == owner_device
        )


__all__ = ["IpcHandleCache", "DEFAULT_OPEN_COST"]
