"""Tier-1 fixtures: the always-on invariant sanitizer.

Every :class:`~repro.ucx.context.UCXContext` a test builds is recorded.
After the test, each one whose engine holds no live entries (its run
reached quiescence) goes through
:func:`~repro.runtime.sanitizer.check_invariants`: byte conservation, no
orphaned fabric flows, no leaked load holds or stream-pool entries, and
an engine heap holding nothing but counted tombstones.  A
context left mid-run is skipped, since its books legitimately hold work in
flight.  A test that leaks on purpose opts out with
``@pytest.mark.no_sanitizer``.
"""

from __future__ import annotations

import pytest

from repro.runtime import check_invariants
from repro.ucx.context import UCXContext


@pytest.fixture(autouse=True)
def _sanitize_contexts(request, monkeypatch):
    if request.node.get_closest_marker("no_sanitizer") is not None:
        yield
        return
    built: list[UCXContext] = []
    init = UCXContext.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(UCXContext, "__init__", recording_init)
    yield
    for ctx in built:
        if ctx.engine._live == 0:
            check_invariants(ctx)
