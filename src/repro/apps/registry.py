"""Application registry.

BSP application specs name a *program* (``ApplicationSpec(program=...)``).
The registry maps those names to actual Python BSP functions so a grid
job can do more than model its cost: when the simulated execution
completes, the coordinator runs the registered program on the executable
BSP runtime (:func:`repro.bsp.run_bsp`) and delivers real per-process
results — functional simulation: *costs* from the simulator, *values*
from real code.
"""

from typing import Callable, Optional, Sequence


class UnknownProgram(Exception):
    """No program registered under that name."""


class ProgramRegistry:
    """A name -> (BSP function, default args) mapping."""

    def __init__(self):
        self._programs: dict[str, tuple] = {}

    def register(self, name: str, fn: Callable, *default_args) -> None:
        """Register a BSP program; re-registering a name overwrites it."""
        if not callable(fn):
            raise TypeError(f"program {name!r} must be callable")
        self._programs[name] = (fn, tuple(default_args))

    def unregister(self, name: str) -> None:
        self._programs.pop(name, None)

    def __contains__(self, name: str) -> bool:
        return name in self._programs

    def get(self, name: str) -> tuple:
        """(fn, default_args) or raise UnknownProgram."""
        try:
            return self._programs[name]
        except KeyError:
            raise UnknownProgram(name) from None

    @property
    def names(self) -> list:
        return sorted(self._programs)


#: The process-wide registry every BSP coordinator reads.
DEFAULT_REGISTRY = ProgramRegistry()


def register_program(name: str, fn: Callable, *default_args) -> None:
    """Register into the process-wide default registry."""
    DEFAULT_REGISTRY.register(name, fn, *default_args)
