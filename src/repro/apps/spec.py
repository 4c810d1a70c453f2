"""Application descriptors.

An :class:`ApplicationSpec` is what a user hands to the ASCT: what to run,
how many tasks, the execution prerequisites (platform), the resource
requirements (minima), the preferences (ranking), and — for parallel
applications — the virtual network topology the processes need.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Mapping, Optional

from repro.apps.constraints import Constraint, Preference

SEQUENTIAL = "sequential"
BSP = "bsp"
PARAMETRIC = "parametric"

APPLICATION_KINDS = (SEQUENTIAL, BSP, PARAMETRIC)

#: Each admission minimum and the node property it bounds from below.
_MINIMA = (
    ("min_mips", "mips"),
    ("min_ram_mb", "ram_mb"),
    ("min_disk_mb", "disk_mb"),
    ("min_net_mbps", "net_mbps"),
)


@dataclass(frozen=True)
class ResourceRequirements:
    """Per-task minima, in the paper's own vocabulary (MIPS, MB).

    ``cpu_fraction`` is the CPU share a task wants on its host node and
    ``mem_mb``/``disk_mb`` its working set; the ``min_*`` fields are node
    admission minima.  ``extra`` is a free-form constraint over node
    properties for anything the fixed fields do not cover.  Admission is
    one rule, :attr:`constraint`: the GRM hands it to the Trader and
    :meth:`satisfied_by` evaluates it.
    """

    min_mips: float = 0.0
    min_ram_mb: float = 0.0
    min_disk_mb: float = 0.0
    min_net_mbps: float = 0.0
    os: Optional[str] = None
    arch: Optional[str] = None
    cpu_fraction: float = 1.0
    mem_mb: float = 16.0
    disk_mb: float = 0.0
    extra: str = ""

    def __post_init__(self):
        if not 0.0 < self.cpu_fraction <= 1.0:
            raise ValueError(
                f"cpu_fraction must be in (0, 1], got {self.cpu_fraction}"
            )
        for name in (*(n for n, _ in _MINIMA), "mem_mb", "disk_mb"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, "
                                 f"got {value!r}")
        for name in ("os", "arch"):
            value = getattr(self, name)
            if value is not None and \
                    (not isinstance(value, str) or '"' in value):
                raise ValueError(f"{name} must be None or a string "
                                 f"without '\"', got {value!r}")
        # Parse eagerly so syntax errors surface at submission time.
        # ``extra`` must parse on its own, so the parentheses it gets in
        # :attr:`constraint` cannot change what the other terms mean, and
        # wrapped, since those parentheses nest it one level deeper.
        if self.extra:
            Constraint(self.extra)
            Constraint(self.constraint)

    @cached_property
    def constraint(self) -> str:
        """Every admission requirement as one constraint over node
        properties.

        A zero minimum, an unset ``os`` / ``arch`` and a blank ``extra``
        add no term, so the default requirements read ``""`` (every node
        matches).  Minima are written with ``repr`` and read back exactly.
        """
        terms = [
            f"{prop} >= {float(getattr(self, name))!r}"
            for name, prop in _MINIMA if getattr(self, name) > 0
        ]
        terms.extend(
            f'{prop} == "{value}"'
            for prop, value in (("os", self.os), ("arch", self.arch))
            if value is not None
        )
        if self.extra.strip():
            terms.append(f"({self.extra})")
        return " && ".join(terms)

    def satisfied_by(self, props: Mapping[str, Any]) -> bool:
        """Does a node's property dict meet :attr:`constraint`?"""
        return Constraint(self.constraint).matches(props)

    def to_dict(self) -> dict:
        """Plain-dict form, marshallable as an ORB variant."""
        return {
            "min_mips": self.min_mips,
            "min_ram_mb": self.min_ram_mb,
            "min_disk_mb": self.min_disk_mb,
            "min_net_mbps": self.min_net_mbps,
            "os": self.os,
            "arch": self.arch,
            "cpu_fraction": self.cpu_fraction,
            "mem_mb": self.mem_mb,
            "disk_mb": self.disk_mb,
            "extra": self.extra,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ResourceRequirements":
        return cls(**dict(data))


@dataclass(frozen=True)
class NodeGroupRequest:
    """One group of a virtual topology: N nodes on a fast internal network."""

    count: int
    intra_bandwidth_mbps: float
    requirements: ResourceRequirements = field(default_factory=ResourceRequirements)

    def __post_init__(self):
        if self.count <= 0:
            raise ValueError(f"group size must be positive, got {self.count}")
        if self.intra_bandwidth_mbps <= 0:
            raise ValueError("intra-group bandwidth must be positive")


@dataclass(frozen=True)
class VirtualTopologyRequest:
    """The paper's example request, as a first-class object.

    "execute application X in two groups of 50 nodes, each group connected
    internally by a 100 Mbps network and the two groups connected by a
    10 Mbps network" becomes::

        VirtualTopologyRequest(
            groups=(NodeGroupRequest(50, 100.0, reqs),
                    NodeGroupRequest(50, 100.0, reqs)),
            inter_bandwidth_mbps=10.0,
        )
    """

    groups: tuple
    inter_bandwidth_mbps: float

    def __post_init__(self):
        if not self.groups:
            raise ValueError("a virtual topology needs at least one group")
        if self.inter_bandwidth_mbps <= 0:
            raise ValueError("inter-group bandwidth must be positive")

    @property
    def total_nodes(self) -> int:
        return sum(g.count for g in self.groups)


@dataclass(frozen=True)
class ApplicationSpec:
    """Everything the ASCT needs to submit an application.

    ``work_mips`` is the per-task computational demand in
    millions-of-instructions; a 1000 MIPS machine finishes a 3.6e6 MI task
    in one idle hour.  For BSP applications ``program`` names a registered
    BSP program and ``tasks`` is the number of parallel processes.
    """

    name: str
    kind: str = SEQUENTIAL
    tasks: int = 1
    work_mips: float = 1e5
    requirements: ResourceRequirements = field(default_factory=ResourceRequirements)
    preference: str = ""
    topology: Optional[VirtualTopologyRequest] = None
    program: Optional[str] = None
    checkpoint_every_supersteps: int = 0     # 0 = no checkpointing
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in APPLICATION_KINDS:
            raise ValueError(
                f"unknown application kind {self.kind!r}; "
                f"expected one of {APPLICATION_KINDS}"
            )
        if self.tasks <= 0:
            raise ValueError(f"tasks must be positive, got {self.tasks}")
        if not (math.isfinite(self.work_mips) and self.work_mips > 0):
            raise ValueError("work_mips must be finite and positive, "
                             f"got {self.work_mips!r}")
        if self.checkpoint_every_supersteps < 0:
            raise ValueError("checkpoint interval must be >= 0")
        if self.kind == BSP and self.program is None:
            raise ValueError("BSP applications must name a registered program")
        if self.topology is not None and self.topology.total_nodes != self.tasks:
            raise ValueError(
                f"virtual topology covers {self.topology.total_nodes} nodes "
                f"but the application has {self.tasks} tasks"
            )
        if self.preference:
            Preference(self.preference)

    def preference_rank(self) -> Preference:
        """The parsed preference (constant 0 when none was given)."""
        return Preference(self.preference)

    def to_dict(self) -> dict:
        """Plain-dict form, marshallable as an ORB variant."""
        topology = None
        if self.topology is not None:
            topology = {
                "inter_bandwidth_mbps": self.topology.inter_bandwidth_mbps,
                "groups": [
                    {
                        "count": g.count,
                        "intra_bandwidth_mbps": g.intra_bandwidth_mbps,
                        "requirements": g.requirements.to_dict(),
                    }
                    for g in self.topology.groups
                ],
            }
        return {
            "name": self.name,
            "kind": self.kind,
            "tasks": self.tasks,
            "work_mips": self.work_mips,
            "requirements": self.requirements.to_dict(),
            "preference": self.preference,
            "topology": topology,
            "program": self.program,
            "checkpoint_every_supersteps": self.checkpoint_every_supersteps,
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ApplicationSpec":
        data = dict(data)
        data["requirements"] = ResourceRequirements.from_dict(
            data.get("requirements", {})
        )
        topology = data.get("topology")
        if topology is not None:
            data["topology"] = VirtualTopologyRequest(
                groups=tuple(
                    NodeGroupRequest(
                        count=g["count"],
                        intra_bandwidth_mbps=g["intra_bandwidth_mbps"],
                        requirements=ResourceRequirements.from_dict(
                            g["requirements"]
                        ),
                    )
                    for g in topology["groups"]
                ),
                inter_bandwidth_mbps=topology["inter_bandwidth_mbps"],
            )
        return cls(**data)
