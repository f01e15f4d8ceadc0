"""Discrete-event simulation substrate.

This package is the stand-in for real hardware: a deterministic
discrete-event engine (:mod:`repro.sim.engine`), fair-share bandwidth
channels modelling NVLink/PCIe/UPI wires and host-memory bandwidth
(:mod:`repro.sim.link`), auxiliary resources (:mod:`repro.sim.resources`),
timeline tracing (:mod:`repro.sim.trace`) and optional deterministic noise
(:mod:`repro.sim.noise`).

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
from repro.sim.fabric import Fabric, FabricChannel, FabricFlow
from repro.sim.faults import (
    FaultSchedule,
    FaultWindow,
    FlappingLink,
    LinkDown,
    LinkFailure,
    StallInjector,
)
from repro.sim.link import Channel, DuplexMode, LinkFlow, TransferResult
from repro.sim.resources import Semaphore, Store
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
    "Channel",
    "DuplexMode",
    "LinkFlow",
    "Semaphore",
    "Store",
    "Tracer",
    "TraceRecord",
]
