"""Discrete-event simulation substrate.

This package is the stand-in for real hardware: a deterministic
discrete-event engine (:mod:`repro.sim.engine`), the max-min fair fluid
fabric whose channels model NVLink/PCIe/UPI wires and host-memory
bandwidth (:mod:`repro.sim.fabric`), scripted link faults
(:mod:`repro.sim.faults`), timeline tracing (:mod:`repro.sim.trace`) and
optional deterministic noise (:mod:`repro.sim.noise`).

Simulated time is in seconds, sizes in bytes (see :mod:`repro.units`).
"""

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Engine,
    Event,
    Process,
    SimError,
    Timeout,
)
from repro.sim.fabric import Fabric, FabricChannel, FabricFlow, TransferResult
from repro.sim.faults import (
    FaultSchedule,
    FaultWindow,
    FlappingLink,
    LinkDown,
    LinkFailure,
    StallInjector,
)
from repro.sim.trace import TraceRecord, Tracer

__all__ = [
    "Engine",
    "Event",
    "Process",
    "Timeout",
    "AllOf",
    "AnyOf",
    "SimError",
    "Fabric",
    "FabricChannel",
    "FabricFlow",
    "LinkFailure",
    "LinkDown",
    "FlappingLink",
    "StallInjector",
    "FaultSchedule",
    "FaultWindow",
    "TransferResult",
    "Tracer",
    "TraceRecord",
]
