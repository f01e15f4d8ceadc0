"""Golden timeline digests: committed fingerprints of simulated runs.

A digest is a sha256 over the ``repr`` of everything a run makes
observable: every tracer record ``(channel, tag, start, end, nbytes)``, the
final clock, the put results, and each channel's ``total_bytes`` /
``busy_time`` / ``completed_bytes`` in name order.  ``repr`` round-trips
floats exactly, so two runs share a digest only if their timelines are
bit-identical.

``timelines.json`` holds the digests the transport's former reference
executions produced (cold uncompiled plans, the fail-fast executor), the
chaos and traced recovery scenarios as the inline recovery loop ran them
before ``RecoveryPolicy``, and the narval, jitter, contention-aware,
collective and budgeted-outage scenarios of ``test_golden_timelines.py``
as process-driven streams ran them, and its stalled narval ring as the
fabric's global progressive filling ran it.  They are the bit-identity oracle
those in-process references used to be.  A
mismatch prints the new digest, so an intended timeline change is a
reviewed one-line edit of that file.

The ``paper_*`` entries digest (:func:`table_digest`) the reduced paper
tables ``tests/test_experiments.py`` computes: fig4–fig7, the prediction
error table, the headline speedups, the five observations and the
concurrent-pairs (CONC) table.  They pin the paper's numbers exactly, not
only within their bands.

The ``copy_order_*`` entries digest (:func:`copy_order_digest`) the
``fabric.copy`` calls of a run in the order they were made.  Tracer
records are kept in completion order, so a timeline digest can miss two
copies issued at one instant in the other order; these cannot.

``overload_quick`` and ``drift_quick`` digest the ``cli overload --quick``
and ``cli drift --quick`` experiments: the overload result's report dict
with its context's timeline, and each drift loop's error records, error
and drift summaries and timeline.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from pathlib import Path

from repro.sim.fabric import Fabric

_TIMELINES = Path(__file__).with_name("timelines.json")


def timeline_digest(engine, tracer, results, fabric) -> str:
    """sha256 of a finished run's observable timeline."""
    records = [(r.channel, r.tag, r.start, r.end, r.nbytes) for r in tracer.records]
    channels = [
        (name, ch.total_bytes, ch.busy_time, ch.completed_bytes)
        for name, ch in sorted(fabric.channels.items())
    ]
    payload = repr((records, engine.now, tuple(results), channels))
    return hashlib.sha256(payload.encode()).hexdigest()


def table_digest(rows) -> str:
    """sha256 of a result table's rows, in order (``repr`` per row)."""
    payload = repr(tuple(rows))
    return hashlib.sha256(payload.encode()).hexdigest()


@contextmanager
def copy_calls():
    """Record every ``Fabric.copy`` call made inside the block, on any
    fabric: its ``(now, tag, nbytes, hop)``, in call order.  Yields the
    list the calls are appended to."""
    calls: list[tuple] = []
    copy = Fabric.copy

    def recorded(self, channel_names, nbytes, **kwargs):
        calls.append((self.engine.now, kwargs.get("tag", ""), nbytes, channel_names))
        return copy(self, channel_names, nbytes, **kwargs)

    Fabric.copy = recorded
    try:
        yield calls
    finally:
        Fabric.copy = copy


def copy_order_digest(calls) -> str:
    """sha256 of :func:`copy_calls`' records, in call order."""
    return hashlib.sha256(repr(tuple(calls)).encode()).hexdigest()


def assert_golden(scenario: str, digest: str) -> None:
    """Fail unless ``digest`` equals the committed one for ``scenario``."""
    expected = json.loads(_TIMELINES.read_text())[scenario]
    assert digest == expected, (
        f"timeline of {scenario!r} changed: digest {digest}, golden "
        f"{expected}; if intended, update tests/golden/timelines.json"
    )
