"""DRMA — direct remote memory access over registered variables.

``put`` requests issued during superstep *s* are applied at the
synchronisation, in (writer pid, issue order); ``get`` reads the value a
variable had at the *start* of the current superstep, matching BSPlib
semantics where communication only takes effect at the barrier.  Each
put or get counts as one ORB call (``drma_calls``).
"""

import copy
from typing import Any


#: Exact types shared uncopied; subclasses and tuples are deep-copied.
_IMMUTABLE = frozenset({int, float, bool, str, bytes, type(None)})


def _private(value: Any) -> Any:
    """A copy of ``value`` no caller can mutate through."""
    return value if type(value) in _IMMUTABLE else copy.deepcopy(value)


class UnregisteredVariable(Exception):
    """A put/get referenced a name the owner never registered."""


class Registers:
    """Registered memory for ``nprocs`` processes."""

    def __init__(self, nprocs: int):
        if nprocs <= 0:
            raise ValueError("nprocs must be positive")
        self.nprocs = nprocs
        self._values: list[dict] = [{} for _ in range(nprocs)]
        self._snapshot: list[dict] = [{} for _ in range(nprocs)]
        self._pending_puts: list[list] = [[] for _ in range(nprocs)]
        self.puts_applied = 0
        #: DRMA ORB invocations: one per put/get.
        self.drma_calls = 0

    def register(self, pid: int, name: str, value: Any) -> None:
        """Declare a variable on ``pid`` and set its initial value."""
        if not 0 <= pid < self.nprocs:
            raise ValueError(f"pid {pid} out of range")
        self._values[pid][name] = value
        self._snapshot[pid][name] = _private(value)

    def local_read(self, pid: int, name: str) -> Any:
        """Read a process's own live variable."""
        try:
            return self._values[pid][name]
        except KeyError:
            raise UnregisteredVariable(f"pid {pid} has no variable {name!r}") from None

    def local_write(self, pid: int, name: str, value: Any) -> None:
        """Write a process's own live variable."""
        if name not in self._values[pid]:
            raise UnregisteredVariable(f"pid {pid} has no variable {name!r}")
        self._values[pid][name] = value

    def get(self, owner: int, name: str, reader: int = None) -> Any:
        """Remote read: the value as of the last synchronisation.

        ``reader`` names the calling process, as ``put``'s ``writer``
        does; the value read does not depend on it.
        """
        if not 0 <= owner < self.nprocs:
            raise ValueError(f"owner pid {owner} out of range")
        self.drma_calls += 1
        try:
            return _private(self._snapshot[owner][name])
        except KeyError:
            raise UnregisteredVariable(
                f"pid {owner} has no variable {name!r}"
            ) from None

    def put(self, writer: int, owner: int, name: str, value: Any) -> None:
        """Remote write: queued, applied at the next synchronisation."""
        if not 0 <= writer < self.nprocs:
            raise ValueError(f"writer pid {writer} out of range")
        if not 0 <= owner < self.nprocs:
            raise ValueError(f"owner pid {owner} out of range")
        self.drma_calls += 1
        self._pending_puts[writer].append((owner, name, _private(value)))

    def synchronize(self) -> None:
        """Apply pending puts (writer order) and refresh get-snapshots."""
        for writer in range(self.nprocs):
            for owner, name, value in self._pending_puts[writer]:
                if name not in self._values[owner]:
                    exc = UnregisteredVariable(
                        f"put to unregistered {name!r} on pid {owner}")
                    exc.pid = writer
                    raise exc
                self._values[owner][name] = value
                self.puts_applied += 1
            self._pending_puts[writer] = []
        self._snapshot = [
            {name: _private(value) for name, value in proc.items()}
            for proc in self._values
        ]
