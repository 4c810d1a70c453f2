"""The executable BSP engine.

Runs ``nprocs`` process functions, one thread each, through supersteps
separated by a global barrier.  All communication (BSMP messages and
DRMA puts) takes effect exactly at the barrier, in deterministic order,
so results do not depend on thread interleaving.

A process that returns keeps participating in barriers ("drains") until
every process has returned, as BSP requires all processes to execute the
same number of synchronisations; the engine handles the bookkeeping so
user code does not have to pad with empty supersteps.  Any process
exception aborts the whole run.
"""

import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Optional

from repro.bsp.drma import Registers
from repro.bsp.messages import MessageBuffers
from repro.bsp.process import BspContext

DEFAULT_SYNC_TIMEOUT = 60.0


class BspError(Exception):
    """The BSP run failed (a process raised, or the barrier broke)."""


@dataclass
class BspRun:
    """Result of a completed BSP run."""

    results: list
    supersteps: int
    messages_sent: int
    comm_bytes: int
    puts_applied: int
    #: ORB invocations the BSMP plane issued (one per message).
    orb_calls: int = 0
    #: DRMA ORB invocations (one per put/get).
    drma_calls: int = 0
    #: Modelled wire bytes including per-call framing overhead.
    wire_bytes: int = 0


@dataclass
class _SharedState:
    nprocs: int
    buffers: MessageBuffers
    registers: Registers
    lock: threading.Lock = field(default_factory=threading.Lock)
    done: int = 0
    supersteps: int = 0
    errors: list = field(default_factory=list)


def run_bsp(
    nprocs: int,
    fn: Callable,
    *args,
    sync_timeout: float = DEFAULT_SYNC_TIMEOUT,
    metrics=None,
) -> BspRun:
    """Execute ``fn(bsp, *args)`` on ``nprocs`` BSP processes.

    Returns a :class:`BspRun` whose ``results`` list holds each process's
    return value, indexed by pid.  Raises :class:`BspError` if any
    process raised.

    ``metrics`` optionally takes a :class:`~repro.obs.MetricsRegistry`;
    each process's wall time waiting at the superstep barrier is then
    recorded into a ``bsp.barrier_wait_s`` histogram (the BSP cost
    model's ``l`` term, measured).  Observations are GIL-serialised
    plain attribute bumps, so concurrent waits are safe to record.
    """
    if nprocs <= 0:
        raise ValueError(f"nprocs must be positive, got {nprocs}")
    barrier_hist = None
    if metrics is not None:
        from repro.obs.metrics import LATENCY_BOUNDS_S
        barrier_hist = metrics.histogram("bsp.barrier_wait_s",
                                         LATENCY_BOUNDS_S)
    buffers = MessageBuffers(nprocs)
    registers = Registers(nprocs)
    state = _SharedState(nprocs, buffers, registers)

    def on_barrier():
        try:
            buffers.exchange()
            registers.synchronize()
            state.supersteps += 1
        except Exception as exc:   # e.g. a put to an unregistered variable
            with state.lock:   # the sender or writer, where it is known
                state.errors.append((getattr(exc, "pid", -1), exc))
            # The process that ran this action sees a broken barrier, as
            # every other one does: the failure is not its own.
            raise threading.BrokenBarrierError from exc

    barrier = threading.Barrier(nprocs, action=on_barrier)
    results: list = [None] * nprocs

    def sync_for(pid: int) -> Callable[[], None]:
        def sync():
            started = perf_counter() if barrier_hist is not None else 0.0
            try:
                barrier.wait(timeout=sync_timeout)
            except threading.BrokenBarrierError:
                with state.lock:
                    all_done = state.done >= nprocs
                if all_done:
                    return   # drain release: the run is over
                raise BspError(f"pid {pid}: run aborted at the barrier")
            finally:
                if barrier_hist is not None:
                    barrier_hist.observe(perf_counter() - started)
        return sync

    def worker(pid: int) -> None:
        context = BspContext(
            pid, nprocs, buffers, registers, sync_for(pid)
        )
        failed = False
        try:
            results[pid] = fn(context, *args)
        except BspError:
            failed = True
        except Exception as exc:
            failed = True
            with state.lock:
                state.errors.append((pid, exc))
            barrier.abort()
        with state.lock:
            state.done += 1
            last = state.done >= nprocs
        if last:
            barrier.abort()   # release any peers draining at the barrier
            return
        if failed:
            return
        # Drain: keep answering barriers until everyone has returned.
        while True:
            with state.lock:
                if state.done >= nprocs:
                    return
            try:
                barrier.wait(timeout=sync_timeout)
            except threading.BrokenBarrierError:
                with state.lock:
                    if state.done >= nprocs:
                        return
                return   # aborted run; errors reported by the raiser

    threads = [
        threading.Thread(target=worker, args=(pid,), name=f"bsp-{pid}")
        for pid in range(nprocs)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    if state.errors:
        details = "; ".join(
            f"pid {pid}: {type(exc).__name__}: {exc}"
            for pid, exc in sorted(state.errors, key=lambda error: error[0])
        )
        raise BspError(f"BSP run failed: {details}")
    return BspRun(
        results=results,
        supersteps=state.supersteps,
        messages_sent=buffers.messages_sent,
        comm_bytes=buffers.bytes_estimate,
        puts_applied=registers.puts_applied,
        orb_calls=buffers.orb_calls,
        drma_calls=registers.drma_calls,
        wire_bytes=buffers.wire_bytes,
    )
