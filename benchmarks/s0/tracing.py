"""Span tracing for the S0 benchmark, applied from outside ``src/``.

The traced pass wraps each layer's public functions with timing shims
(:meth:`SpanTracer.install` resolves the boundaries by dotted name) and
keeps one span stack per thread, so a layer's **self time** is a span's
duration minus the part its child spans cover.  Nothing in ``src/`` is
edited: a boundary that no longer resolves is recorded in
``unresolved`` and its layer reports ``None``, it never raises.

Spans are aggregated in memory per (layer, boundary, parent layer); the
first ``sample_cap`` spans are also kept raw (name, start, end, parent
id, root id — the root span of a simulated run is the event callback, so
the root id is the event's identifier).
"""

import importlib
import itertools
import threading
from time import perf_counter

#: Callbacks and functions defined outside ``repro`` (the workload
#: drivers themselves) are attributed here.
HARNESS = "harness"

#: Modules whose event-loop callbacks belong to another module's layer.
CALLBACK_LAYER_ALIASES = {
    "core.reservation": "core.lrm",        # lease expiry on the node
    "core.update_protocol": "core.lrm",
    "core.grid": "core.lupa",              # the LUPA upload lambda
    "sim.trace": "sim.workstation",        # trace-replay owner model
}


def layer_of_module(module_name) -> str:
    """Layer of a callback, from the module that defines it."""
    if not module_name or not module_name.startswith("repro."):
        return HARNESS
    layer = module_name[len("repro."):]
    return CALLBACK_LAYER_ALIASES.get(layer, layer)


def resolve(dotted: str):
    """``(owner, attribute name, value)`` for a dotted name, or None.

    The longest importable prefix is the module; the rest is an
    attribute chain.  Any failure — module gone, class renamed, method
    deleted — yields None so a refactor cannot crash the benchmark.
    """
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for name in parts[cut:-1]:
                owner = getattr(owner, name)
            return owner, parts[-1], getattr(owner, parts[-1])
        except AttributeError:
            return None
    return None


class _ThreadState:
    """One thread's span stack and aggregates (merged at report time)."""

    __slots__ = ("stack", "agg", "thread")

    def __init__(self, thread: str):
        self.stack: list = []        # frames: [layer, child seconds, id, root]
        self.agg: dict = {}          # (layer, boundary, parent) -> [n, total, self]
        self.thread = thread


class _TracedType:
    """Stands in for one operation's parameter/return ``IdlType`` so the
    top-level encode/decode is a span (nested field types stay bare)."""

    def __init__(self, inner, encode, decode):
        self.inner = inner
        self.name = getattr(inner, "name", "idl")
        self.encode = encode
        self.decode = decode

    def __repr__(self):
        return repr(self.inner)


class SpanTracer:
    """Installs timing shims and aggregates the spans they record."""

    def __init__(self, sample_cap: int = 10_000, clock=perf_counter):
        self.enabled = False
        self.clock = clock
        self.sample_cap = sample_cap
        self.samples: list = []
        self.unresolved: list = []
        #: Layers none of whose boundary rows resolved (they report None).
        self.dead_layers: set = set()
        self._sampling = sample_cap > 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: list = []
        self._states_lock = threading.Lock()
        self._patches: list = []     # (owner, name, original, via_object_setattr)

    # -- recording --------------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            with self._states_lock:
                self._states.append(state)
            return state

    def wrap(self, fn, layer: str, boundary: str):
        """``fn`` timed as one span of ``layer`` while tracing is enabled."""
        tracer = self
        get_state = self._state
        clock = self.clock

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            state = get_state()
            stack = state.stack
            parent = stack[-1] if stack else None
            span_id = next(tracer._ids) if tracer._sampling else 0
            frame = [layer, 0.0, span_id,
                     parent[3] if parent is not None else span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                    key = (layer, boundary, parent[0])
                else:
                    key = (layer, boundary, None)
                record = state.agg.get(key)
                if record is None:
                    state.agg[key] = [1, duration, duration - frame[1]]
                else:
                    record[0] += 1
                    record[1] += duration
                    record[2] += duration - frame[1]
                if span_id and tracer._sampling:
                    samples = tracer.samples
                    samples.append((
                        span_id, f"{layer}:{boundary}", start, end,
                        parent[2] if parent is not None else 0,
                        frame[3], state.thread,
                    ))
                    if len(samples) >= tracer.sample_cap:
                        tracer._sampling = False

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", boundary)
        traced.__qualname__ = getattr(fn, "__qualname__", boundary)
        traced.__module__ = getattr(fn, "__module__", None)
        return traced

    def wrap_callback(self, callback):
        """An event-loop callback as a span of its defining module's layer."""
        layer = layer_of_module(getattr(callback, "__module__", None))
        name = getattr(callback, "__qualname__", None) \
            or type(callback).__name__
        return self.wrap(callback, layer, name)

    # -- installing shims -------------------------------------------------

    def _patch(self, owner, name: str, replacement, force: bool = False):
        original = getattr(owner, name)
        if force:      # frozen dataclass field
            object.__setattr__(owner, name, replacement)
        else:
            setattr(owner, name, replacement)
        self._patches.append((owner, name, original, force))

    def patch_function(self, dotted: str, layer: str) -> bool:
        """Wrap the function or method named by ``dotted`` in place."""
        found = resolve(dotted)
        if found is None or not callable(found[2]):
            self.unresolved.append(dotted)
            return False
        owner, name, fn = found
        self._patch(owner, name, self.wrap(fn, layer, name))
        return True

    def patch_interface_ops(self, servant: str, interface: str,
                            layer: str) -> bool:
        """Wrap every operation of ``interface`` that ``servant`` defines."""
        found_servant, found_iface = resolve(servant), resolve(interface)
        if found_servant is None or found_iface is None:
            self.unresolved.append(f"{servant}[{interface}]")
            return False
        cls = found_servant[2]
        for op_name in found_iface[2].operations:
            fn = getattr(cls, op_name, None)
            if fn is None or hasattr(fn, "__wrapped__"):
                continue        # absent, or already wrapped via a facade
            self._patch(cls, op_name, self.wrap(fn, layer, op_name))
        return True

    def patch_interface_cdr(self, interface: str, layer: str) -> bool:
        """Make each operation's top-level marshalling a span of ``layer``."""
        found = resolve(interface)
        if found is None:
            self.unresolved.append(f"cdr[{interface}]")
            return False
        for operation in found[2].operations.values():
            for param in operation.params:
                self._patch(param, "idl_type", self._traced_type(
                    param.idl_type, layer), force=True)
            self._patch(operation, "returns", self._traced_type(
                operation.returns, layer), force=True)
        return True

    def _traced_type(self, idl_type, layer: str) -> _TracedType:
        return _TracedType(
            idl_type,
            self.wrap(idl_type.encode, layer, "encode"),
            self.wrap(idl_type.decode, layer, "decode"),
        )

    def patch_event_loop(self, loop_class: str) -> bool:
        """Wrap callbacks as they are registered with the event loop."""
        found = resolve(loop_class)
        if found is None:
            self.unresolved.append(loop_class)
            return False
        cls = found[2]
        tracer = self
        for name in ("every", "schedule", "schedule_at"):
            original = getattr(cls, name, None)
            if original is None:
                self.unresolved.append(f"{loop_class}.{name}")
                continue

            def register(self, *args, _original=original, **kwargs):
                # Signature is (when, callback, ...) on all three.
                if len(args) >= 2:
                    args = (args[0], tracer.wrap_callback(args[1])) + args[2:]
                elif "callback" in kwargs:
                    kwargs["callback"] = tracer.wrap_callback(
                        kwargs["callback"])
                return _original(self, *args, **kwargs)

            register.__wrapped__ = original
            self._patch(cls, name, register)
        return True

    def install(self, boundaries) -> None:
        """Apply a boundary table: ``(kind, layer, *dotted names)`` rows."""
        wanted, live = set(), set()
        for kind, layer, *names in boundaries:
            if kind == "function":
                ok = self.patch_function(names[0], layer)
            elif kind == "servant":
                ok = self.patch_interface_ops(names[0], names[1], layer)
            elif kind == "cdr":
                ok = self.patch_interface_cdr(names[0], layer)
            elif kind == "callbacks":
                ok = self.patch_event_loop(names[0])
            else:
                raise ValueError(f"unknown boundary kind {kind!r}")
            if layer is not None:
                wanted.add(layer)
                if ok:
                    live.add(layer)
        self.dead_layers = wanted - live

    def uninstall(self) -> None:
        """Restore every patched attribute (tests call this)."""
        while self._patches:
            owner, name, original, force = self._patches.pop()
            if force:
                object.__setattr__(owner, name, original)
            else:
                setattr(owner, name, original)

    # -- reporting --------------------------------------------------------

    def aggregates(self) -> dict:
        """``(layer, boundary, parent layer) -> [calls, total_s, self_s]``
        merged over every thread that recorded a span."""
        merged: dict = {}
        with self._states_lock:
            states = list(self._states)
        for state in states:
            for key, (calls, total, self_s) in list(state.agg.items()):
                record = merged.setdefault(key, [0, 0.0, 0.0])
                record[0] += calls
                record[1] += total
                record[2] += self_s
        return merged

    def layer_table(self) -> dict:
        """``layer -> {"calls", "self_s"}`` summed over its boundaries."""
        table: dict = {}
        for (layer, _boundary, _parent), (calls, _total, self_s) \
                in self.aggregates().items():
            row = table.setdefault(layer, {"calls": 0, "self_s": 0.0})
            row["calls"] += calls
            row["self_s"] += self_s
        return table

    def root_seconds(self, threads=None) -> float:
        """Seconds covered by top-level spans, on the named threads only
        when ``threads`` (a set of thread names) is given."""
        total = 0.0
        with self._states_lock:
            states = list(self._states)
        for state in states:
            if threads is not None and state.thread not in threads:
                continue
            for (_layer, _boundary, parent), record in list(state.agg.items()):
                if parent is None:
                    total += record[1]
        return total
