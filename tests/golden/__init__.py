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
as process-driven streams ran them.  They are the bit-identity oracle
those in-process references used to be.  A
mismatch prints the new digest, so an intended timeline change is a
reviewed one-line edit of that file.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

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


def assert_golden(scenario: str, digest: str) -> None:
    """Fail unless ``digest`` equals the committed one for ``scenario``."""
    expected = json.loads(_TIMELINES.read_text())[scenario]
    assert digest == expected, (
        f"timeline of {scenario!r} changed: digest {digest}, golden "
        f"{expected}; if intended, update tests/golden/timelines.json"
    )
