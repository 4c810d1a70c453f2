"""Discrete-event simulation substrate for desktop grids.

The paper evaluated InteGrade on real workstations at the University of
São Paulo.  This package provides the synthetic equivalent: a deterministic
discrete-event simulator of desktop machines, their owners' activity
patterns, and the network that connects them.  The middleware components in
:mod:`repro.core` run unmodified on top of this substrate, consuming the
same signal real nodes would produce (periodic resource-usage samples).
"""

from repro.sim.events import EventLoop, EventHandle, PeriodicTask
from repro.sim.machine import MachineSpec, Machine, ResourceSample
from repro.sim.network import NetworkTopology, Link, LanSegment
from repro.sim.usage import (
    UsageProfile,
    OFFICE_WORKER,
    STUDENT_LAB,
    NIGHT_OWL,
    ALWAYS_IDLE,
    ERRATIC,
    PROFILES,
)
from repro.sim.workstation import Workstation

__all__ = [
    "EventLoop",
    "EventHandle",
    "PeriodicTask",
    "MachineSpec",
    "Machine",
    "ResourceSample",
    "NetworkTopology",
    "Link",
    "LanSegment",
    "UsageProfile",
    "OFFICE_WORKER",
    "STUDENT_LAB",
    "NIGHT_OWL",
    "ALWAYS_IDLE",
    "ERRATIC",
    "PROFILES",
    "Workstation",
]
