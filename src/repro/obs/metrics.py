"""A pull-only metrics registry: every metric is a view.

Components keep cheap local counters (the engine's event count, a fabric
channel's byte totals, an LRU cache's stats, the flight recorder's stage
aggregates) and expose them through a *collector*: a zero-argument
callable returning a dict, invoked only at :meth:`MetricsRegistry.snapshot`
time.  Nothing is pushed on a hot path, so a run without a registry and a
run with one execute the same code.
"""

from __future__ import annotations

import json
from collections.abc import Callable


class MetricsRegistry:
    """Named pull-collectors, snapshottable to one dict."""

    def __init__(self) -> None:
        self._collectors: dict[str, Callable[[], dict]] = {}

    def register_collector(self, name: str, fn: Callable[[], dict]) -> None:
        """Register a pull source; ``fn()`` is invoked at snapshot time.

        Re-registering a name replaces the previous collector (fresh
        contexts supersede stale ones within one environment).
        """
        self._collectors[name] = fn

    def snapshot(self) -> dict:
        """One structured dict of everything the run measured."""
        return {name: fn() for name, fn in sorted(self._collectors.items())}

    def to_json(self) -> str:
        return json.dumps(self.snapshot(), indent=2, sort_keys=True)


__all__ = ["MetricsRegistry"]
