"""Hardware model of a desktop machine.

A :class:`Machine` tracks two classes of load: the *owner's* (set by the
workstation activity model) and the *grid's* (set by the Local Resource
Manager when it launches tasks).  The machine itself enforces capacity
only; sharing *policy* lives in the Node Control Center.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass(frozen=True)
class MachineSpec:
    """Static hardware description of a node.

    ``mips`` follows the paper's own resource vocabulary ("a CPU of at
    least 500 MIPS").
    """

    mips: float = 1000.0
    ram_mb: float = 256.0
    disk_mb: float = 10_000.0
    net_mbps: float = 100.0
    os: str = "linux"
    arch: str = "x86"

    def __post_init__(self):
        if self.mips <= 0:
            raise ValueError(f"mips must be positive, got {self.mips}")
        if self.ram_mb <= 0:
            raise ValueError(f"ram_mb must be positive, got {self.ram_mb}")
        if self.disk_mb < 0:
            raise ValueError(f"disk_mb must be >= 0, got {self.disk_mb}")
        if self.net_mbps <= 0:
            raise ValueError(f"net_mbps must be positive, got {self.net_mbps}")


@dataclass(frozen=True)
class ResourceSample:
    """An instantaneous usage snapshot, as the LRM reports to the GRM."""

    time: float
    cpu_total: float          # fraction of CPU busy, 0..1
    cpu_owner: float          # owner's share of that
    cpu_grid: float           # grid's share of that
    mem_used_mb: float
    mem_owner_mb: float
    mem_grid_mb: float
    disk_used_mb: float
    net_owner_mbps: float     # the owner's current network traffic
    keyboard_active: bool

    @property
    def cpu_free(self) -> float:
        """Fraction of CPU not in use by anyone."""
        return max(0.0, 1.0 - self.cpu_total)


class InsufficientResources(Exception):
    """Raised when a grid allocation would exceed machine capacity."""


@dataclass
class _GridAllocation:
    cpu_fraction: float
    mem_mb: float
    disk_mb: float = 0.0


OWNER_FIRST = "owner_first"
FAIR_SHARE = "fair_share"


class Machine:
    """A desktop machine with owner and grid load accounting.

    ``scheduling`` selects how CPU contention resolves:

    * ``owner_first`` (InteGrade's careful user-level control): the owner
      always receives everything they ask for; grid tasks share what is
      left.
    * ``fair_share`` (a naive harvester running grid work at normal
      priority): when oversubscribed, owner and grid shrink
      proportionally — the owner *perceives* the grid.  Used by the
      owner-QoS experiment as the contrast case.
    """

    def __init__(
        self,
        name: str,
        spec: Optional[MachineSpec] = None,
        scheduling: str = OWNER_FIRST,
    ):
        if scheduling not in (OWNER_FIRST, FAIR_SHARE):
            raise ValueError(f"unknown scheduling mode {scheduling!r}")
        self.name = name
        self.spec = spec if spec is not None else MachineSpec()
        self.scheduling = scheduling
        self._owner_cpu = 0.0
        self._owner_mem_mb = 0.0
        self._owner_net_mbps = 0.0
        self._keyboard_active = False
        self._allocations: dict[str, _GridAllocation] = {}
        self._grid_cpu = self._grid_mem_mb = self._disk_used_mb = 0
        #: Called with no arguments after the owner's load or the grid's
        #: allocations actually change — the LRM's cue that task rates
        #: and the node's status may have moved.  One listener: a
        #: machine has one LRM.
        self.on_change: Optional[Callable[[], None]] = None

    # -- owner side --------------------------------------------------------

    def set_owner_load(
        self,
        cpu_fraction: float,
        mem_mb: float,
        keyboard_active: bool,
        net_mbps: float = 0.0,
    ) -> None:
        """Update the owner's current resource consumption.

        Called by the workstation activity model; owner load is never
        rejected — the owner always wins over the grid.
        """
        if not 0.0 <= cpu_fraction <= 1.0:
            raise ValueError(f"cpu_fraction out of range: {cpu_fraction}")
        if mem_mb < 0 or mem_mb > self.spec.ram_mb:
            raise ValueError(f"owner memory out of range: {mem_mb}")
        if net_mbps < 0:
            raise ValueError(f"owner network traffic out of range: {net_mbps}")
        net_mbps = min(net_mbps, self.spec.net_mbps)
        if (
            cpu_fraction == self._owner_cpu
            and mem_mb == self._owner_mem_mb
            and keyboard_active == self._keyboard_active
            and net_mbps == self._owner_net_mbps
        ):
            return   # the activity model re-applies an unchanged load
        self._owner_cpu = cpu_fraction
        self._owner_mem_mb = mem_mb
        self._keyboard_active = keyboard_active
        self._owner_net_mbps = net_mbps
        if self.on_change is not None:
            self.on_change()

    @property
    def owner_cpu(self) -> float:
        return self._owner_cpu

    @property
    def owner_mem_mb(self) -> float:
        return self._owner_mem_mb

    @property
    def owner_net_mbps(self) -> float:
        return self._owner_net_mbps

    def net_free_mbps(self) -> float:
        """Network headroom left after the owner's traffic."""
        return max(0.0, self.spec.net_mbps - self._owner_net_mbps)

    @property
    def keyboard_active(self) -> bool:
        return self._keyboard_active

    @property
    def disk_used_mb(self) -> float:
        """Disk currently claimed by grid task allocations."""
        return self._disk_used_mb

    # -- grid side -----------------------------------------------------------

    @property
    def grid_cpu(self) -> float:
        """Total CPU fraction currently allocated to grid tasks."""
        return self._grid_cpu

    @property
    def grid_mem_mb(self) -> float:
        """Total memory currently allocated to grid tasks."""
        return self._grid_mem_mb

    def _resum(self) -> None:
        """Re-sum the grid's totals: exactly a fresh sum, never a drift."""
        allocations = self._allocations.values()
        self._grid_cpu = sum(a.cpu_fraction for a in allocations)
        self._grid_mem_mb = sum(a.mem_mb for a in allocations)
        self._disk_used_mb = sum(a.disk_mb for a in allocations)

    @property
    def grid_task_ids(self) -> list[str]:
        return list(self._allocations)

    def cpu_available_for_grid(self, cap: float = 1.0) -> float:
        """CPU fraction the grid could still claim, under a policy ``cap``.

        The cap is the NCC's share limit (e.g. 0.3 for "30% of the CPU");
        owner load further reduces what is actually free.
        """
        free = max(0.0, 1.0 - self._owner_cpu)
        headroom = max(0.0, cap - self._grid_cpu)
        return min(free, headroom)

    def mem_available_for_grid(self, cap_mb: Optional[float] = None) -> float:
        """Memory the grid could still claim, under an optional byte cap."""
        free = max(0.0, self.spec.ram_mb - self._owner_mem_mb - self._grid_mem_mb)
        if cap_mb is None:
            return free
        headroom = max(0.0, cap_mb - self._grid_mem_mb)
        return min(free, headroom)

    def allocate(
        self,
        task_id: str,
        cpu_fraction: float,
        mem_mb: float,
        disk_mb: float = 0.0,
    ) -> None:
        """Claim resources for a grid task, or raise InsufficientResources."""
        if task_id in self._allocations:
            raise ValueError(f"task {task_id!r} already allocated on {self.name}")
        if cpu_fraction <= 0:
            raise ValueError("cpu_fraction must be positive")
        if cpu_fraction > self.cpu_available_for_grid(cap=1.0) + 1e-9:
            raise InsufficientResources(
                f"{self.name}: need cpu {cpu_fraction:.2f}, "
                f"have {self.cpu_available_for_grid(cap=1.0):.2f}"
            )
        if mem_mb > self.mem_available_for_grid() + 1e-9:
            raise InsufficientResources(
                f"{self.name}: need {mem_mb} MB, "
                f"have {self.mem_available_for_grid():.1f} MB"
            )
        free_disk = self.spec.disk_mb - self._disk_used_mb
        if disk_mb > free_disk + 1e-9:
            raise InsufficientResources(
                f"{self.name}: need {disk_mb} MB disk, have {free_disk:.1f} MB"
            )
        self._allocations[task_id] = _GridAllocation(cpu_fraction, mem_mb, disk_mb)
        self._resum()
        if self.on_change is not None:
            self.on_change()

    def release(self, task_id: str) -> None:
        """Release the resources held by a grid task."""
        alloc = self._allocations.pop(task_id, None)
        if alloc is None:
            raise KeyError(f"no allocation for task {task_id!r} on {self.name}")
        self._resum()
        if self.on_change is not None:
            self.on_change()

    def _contention(self) -> tuple:
        """(owner_scale, grid_scale) under the current scheduling mode."""
        grid_total = self._grid_cpu
        demand = self._owner_cpu + grid_total
        if self.scheduling == FAIR_SHARE:
            if demand <= 1.0:
                return 1.0, 1.0
            return 1.0 / demand, 1.0 / demand
        # owner_first: the owner is untouched; the grid gets the rest.
        if grid_total <= 0:
            return 1.0, 0.0
        available = max(0.0, 1.0 - self._owner_cpu)
        return 1.0, min(1.0, available / grid_total)

    def owner_received_cpu(self) -> float:
        """CPU fraction the owner actually receives right now."""
        owner_scale, _ = self._contention()
        return self._owner_cpu * owner_scale

    def grid_task_rate_mips(self, task_id: str, cap: float = 1.0) -> float:
        """Effective MIPS the named grid task receives right now.

        Under ``owner_first`` the owner takes absolute priority and the
        grid shares the remainder; under ``fair_share`` an oversubscribed
        CPU shrinks everyone proportionally.  The grid as a whole never
        runs above the policy ``cap`` (the NCC's share limit, as in
        :meth:`cpu_available_for_grid`).
        """
        alloc = self._allocations.get(task_id)
        if alloc is None:
            raise KeyError(f"no allocation for task {task_id!r} on {self.name}")
        grid_total = self._grid_cpu
        if grid_total <= 0:
            return 0.0
        _, grid_scale = self._contention()
        return self.spec.mips * alloc.cpu_fraction \
            * min(grid_scale, cap / grid_total)

    # -- measurement ---------------------------------------------------------

    def sample(self, now: float) -> ResourceSample:
        """Take the usage snapshot the LRM periodically reports."""
        owner = self._owner_cpu
        grid = min(self._grid_cpu, max(0.0, 1.0 - owner))
        return ResourceSample(
            time=now,
            cpu_total=min(1.0, owner + grid),
            cpu_owner=owner,
            cpu_grid=grid,
            mem_used_mb=self._owner_mem_mb + self._grid_mem_mb,
            mem_owner_mb=self._owner_mem_mb,
            mem_grid_mb=self._grid_mem_mb,
            disk_used_mb=self._disk_used_mb,
            net_owner_mbps=self._owner_net_mbps,
            keyboard_active=self._keyboard_active,
        )

    def __repr__(self) -> str:
        return (
            f"Machine({self.name!r}, {self.spec.mips:.0f} MIPS, "
            f"owner_cpu={self._owner_cpu:.2f}, grid_cpu={self.grid_cpu:.2f})"
        )
