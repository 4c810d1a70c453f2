"""S6 — communication-plane throughput (infrastructure benchmark).

The ORB has one way to do each thing — direct dispatch for collocated
calls, one CDR codec, one TCP framing with ``TCP_NODELAY`` — and this
benchmark times each on the clock, one row per plane:

* **Oneway storm** — 10k logical senders fire oneway status reports at
  one collocated sink per round: the ORB's direct-dispatch call rate
  (no frames, no bytes), with a server-side interceptor digesting
  every dispatched call.
* **CDR decode / encode** — chunk-shaped records (string + ulong +
  64 KiB octets) through :class:`CdrDecoder` / :class:`CdrEncoder`.
* **CDR variant round-trip** — ``Grm.job_status`` replies for jobs of
  1–8 tasks, each encoded and decoded again as a ``VARIANT`` (what the
  reply was before it was declared in IDL).
* **CDR JobStatus round-trip** — the same 8 replies as the typed
  ``JOB_STATUS`` struct S0 ``tcp_rpc`` sends back 4,000 times.
* **TCP oneway** — 20k oneway reports over one real loopback
  connection, timed until the server has dispatched the last one.
* **TCP two-way** — 8 client threads sharing one connection, each
  call a full request/reply exchange under the per-peer lock.
* **BSMP superstep** — 128 BSP processes each send 4 float-pair
  messages to each of 8 peers, then the buffers are exchanged: the
  execution plane's message rate (``send`` + ``exchange``, with the
  accounting the barrier does), single-threaded, cyclic GC off, best
  of 15.  The
  **mixed** row sends what ``bsp.programs`` sends instead (halo tuples,
  scalars, (pid, value) pairs, a dict), which the barrier sizes payload
  by payload.

Rows land in ``BENCH_S6.json`` with ``--bench-json``; the committed
file is the CI baseline and ``perf_smoke.py`` re-runs the storm, CDR
decode, variant and JobStatus round-trips, both TCP rows and both
BSMP rows against it.  The opt-in batch frames, zero-copy decoder,
encoder pool and pipelined framing this file used to compare against
are gone; the ledger in ``docs/performance.md`` §11 keeps why.
"""

import gc
import hashlib
import threading
import time

from repro.analysis.metrics import Table
from repro.apps.spec import ApplicationSpec
from repro.bsp.messages import MessageBuffers
from repro.core.grm import Grm
from repro.core.protocols import JOB_STATUS
from repro.orb.cdr import (
    VARIANT, CdrDecoder, CdrEncoder, Double, String, ULong,
)
from repro.orb.core import Orb
from repro.orb.idl import InterfaceDef, Operation, Parameter
from repro.orb.transport import InProcDomain
from repro.sim.events import EventLoop

from conftest import save_json, save_result

SENDERS = 10_000               # logical senders per storm round
STORM_ROUNDS = 4
CDR_RECORDS = 512
CDR_CHUNK_BYTES = 64 * 1024
VARIANT_TASKS = range(1, 9)    # one job_status reply per task count
VARIANT_ROUNDS = 250
TCP_THREADS = 8
TCP_CALLS_PER_THREAD = 250
TCP_ONEWAYS = 20_000
TCP_DRAIN_TIMEOUT_S = 30.0
BSMP_PROCS = 128
BSMP_PEERS = 8
BSMP_SUPERSTEPS = 32           # per timed run
BSMP_BEST_OF = 15              # a run is 50-130 ms: best of 3 swung ~1.8x
#: The 4 messages each process sends each peer per superstep, and their
#: modelled bytes: S0's flat float pairs (sized in one bulk pass), and
#: what ``bsp.programs`` sends (sized payload by payload): a halo tuple,
#: a broadcast scalar, a gathered (pid, value) pair, a dict.
BSMP_FLAT = ([0.5, 1.5], [2.5, 3.5], (4.5, 5.5), [6, 7.5]), 80
BSMP_MIXED = (("from_left", 0.5), 1.5, (3, 2.5), {"v": [4, 5.5]}), 74
BEST_OF = 3

SINK_INTERFACE = InterfaceDef("BenchSink", [
    Operation("report", (
        Parameter("node", String),
        Parameter("seq", ULong),
        Parameter("load", Double),
    ), oneway=True),
])

ECHO_INTERFACE = InterfaceDef("BenchEcho", [
    Operation("echo", (Parameter("text", String),), returns=String),
])


class _Sink:
    def report(self, node, seq, load):
        pass


class _Echo:
    def echo(self, text):
        return text


# -- oneway storm ------------------------------------------------------------

def measure_storm(rounds: int = STORM_ROUNDS) -> dict:
    """Drive the collocated oneway storm; returns its metric row.

    The digest folds in every dispatched call's key, operation, and
    argument tuple *in dispatch order*.
    """
    domain = InProcDomain()
    server_orb = Orb("sink-orb", domain=domain)
    client_orb = Orb("storm-orb", domain=domain)
    digest = hashlib.sha256()

    def interceptor(key, operation, args):
        digest.update(f"{key}|{operation.name}|{args!r}".encode())

    server_orb.add_server_interceptor(interceptor)
    ref = server_orb.activate(_Sink(), SINK_INTERFACE, key="bench/sink")
    stub = client_orb.stub(ref, SINK_INTERFACE)
    try:
        report = stub.report
        start = time.perf_counter()
        for r in range(rounds):
            base = float(r)
            for i in range(SENDERS):
                report(f"n{i:05}", r, base + (i % 10) * 0.01)
        elapsed = time.perf_counter() - start
        calls = rounds * SENDERS
        assert server_orb.requests_handled == calls
        assert server_orb.stats()["requests_received"] == calls
        assert server_orb.stats()["bytes_received"] == 0   # all direct
        return {
            "rounds": rounds,
            "calls": calls,
            "calls_per_wall_s": round(calls / elapsed, 1),
            "wall_s": round(elapsed, 4),
            "digest": digest.hexdigest(),
        }
    finally:
        server_orb.shutdown()
        client_orb.shutdown()


# -- CDR plane ---------------------------------------------------------------

_CHUNK_FILL = bytes(range(256)) * (CDR_CHUNK_BYTES // 256)


def _chunk_buffer() -> bytes:
    """One buffer of CDR_RECORDS chunk-shaped records."""
    enc = CdrEncoder()
    for i in range(CDR_RECORDS):
        enc.write_string(f"task-{i:04}")
        enc.write_ulong(i)
        enc.write_octets(_CHUNK_FILL)
    return enc.getvalue()


def _decode_all(buf: bytes) -> int:
    dec = CdrDecoder(buf)
    total = 0
    for _ in range(CDR_RECORDS):
        dec.read_string()
        dec.read_ulong()
        total += len(dec.read_octets())
    return total


def _encode_all() -> None:
    for i in range(CDR_RECORDS):
        enc = CdrEncoder()
        enc.write_string(f"task-{i:04}")
        enc.write_ulong(i)
        enc.write_octets(_CHUNK_FILL)
        enc.getvalue()


def measure_cdr() -> dict:
    """Best-of decode and encode throughput, one message per record."""
    buf = _chunk_buffer()
    decode = encode = 0.0
    for _ in range(BEST_OF):
        start = time.perf_counter()
        total = _decode_all(buf)
        decode = max(decode, CDR_RECORDS / (time.perf_counter() - start))
        assert total == CDR_RECORDS * CDR_CHUNK_BYTES
        start = time.perf_counter()
        _encode_all()
        encode = max(encode, CDR_RECORDS / (time.perf_counter() - start))
    return {
        "records": CDR_RECORDS,
        "chunk_bytes": CDR_CHUNK_BYTES,
        "decode_records_per_s": round(decode, 1),
        "encode_records_per_s": round(encode, 1),
    }


def job_status_replies() -> list:
    """``Grm.job_status`` of one pending job per task count in
    VARIANT_TASKS (the loop never runs, so no job is placed)."""
    orb = Orb("s6-grm", domain=InProcDomain())
    try:
        grm = Grm(EventLoop(), orb, cluster="s6")
        return [
            grm.job_status(grm.submit(ApplicationSpec(
                name=f"job-{tasks}", tasks=tasks, work_mips=1e6).to_dict()))
            for tasks in VARIANT_TASKS
        ]
    finally:
        orb.shutdown()


def _round_trips(replies: list, idl_type) -> None:
    for _ in range(VARIANT_ROUNDS):
        for reply in replies:
            enc = CdrEncoder()
            idl_type.encode(enc, reply)
            idl_type.decode(CdrDecoder(enc.getvalue()))


def measure_round_trips(idl_type) -> dict:
    """Best-of ``job_status`` round trips (encode, then decode) per
    second, marshalled as ``idl_type``."""
    replies = job_status_replies()
    sizes = []
    for reply in replies:
        enc = CdrEncoder()
        idl_type.encode(enc, reply)
        sizes.append(len(enc))
        assert idl_type.decode(CdrDecoder(enc.getvalue())) == reply
    elapsed = float("inf")
    for _ in range(BEST_OF):
        start = time.perf_counter()
        _round_trips(replies, idl_type)
        elapsed = min(elapsed, time.perf_counter() - start)
    trips = VARIANT_ROUNDS * len(replies)
    return {
        "replies": len(replies),
        "round_trips": trips,
        "mean_reply_bytes": round(sum(sizes) / len(sizes), 1),
        "round_trips_per_s": round(trips / elapsed, 1),
    }


# -- TCP ---------------------------------------------------------------------

def _tcp_pair() -> tuple:
    """Server + client ORB joined only by a real TCP socket.

    Separate in-proc domains force the client's route onto TCP (the
    servant's in-proc endpoint is not resolvable from the client's
    domain, exactly like two separate processes).
    """
    server_orb = Orb("tcp-server", domain=InProcDomain(), tcp=True)
    client_orb = Orb("tcp-client", domain=InProcDomain(), tcp=True)
    return server_orb, client_orb


def _oneway_run() -> float:
    """Seconds to deliver TCP_ONEWAYS oneways over one connection."""
    server_orb, client_orb = _tcp_pair()
    ref = server_orb.activate(_Sink(), SINK_INTERFACE, key="bench/sink")
    stub = client_orb.stub(ref, SINK_INTERFACE)
    try:
        report = stub.report
        start = time.perf_counter()
        for i in range(TCP_ONEWAYS):
            report(f"n{i % 100:03}", i, 0.5)
        # Oneways are asynchronous on the wire: wall time covers actual
        # delivery, polled on the server's dispatch counter.
        deadline = time.monotonic() + TCP_DRAIN_TIMEOUT_S
        while (server_orb.requests_handled < TCP_ONEWAYS
               and time.monotonic() < deadline):
            time.sleep(0.002)
        elapsed = time.perf_counter() - start
        assert server_orb.requests_handled == TCP_ONEWAYS
        assert server_orb.stats()["requests_received"] == TCP_ONEWAYS
        return elapsed
    finally:
        client_orb.shutdown()
        server_orb.shutdown()


def measure_tcp_oneway() -> dict:
    """Best-of oneway delivery rate over one TCP connection."""
    elapsed = min(_oneway_run() for _ in range(BEST_OF))
    return {
        "calls": TCP_ONEWAYS,
        "calls_per_wall_s": round(TCP_ONEWAYS / elapsed, 1),
        "wall_s": round(elapsed, 4),
    }


def _twoway_run() -> float:
    """Seconds for TCP_THREADS threads to finish their echo calls."""
    server_orb, client_orb = _tcp_pair()
    ref = server_orb.activate(_Echo(), ECHO_INTERFACE, key="bench/echo")
    stub = client_orb.stub(ref, ECHO_INTERFACE)
    errors: list = []

    def worker(tid: int) -> None:
        try:
            for i in range(TCP_CALLS_PER_THREAD):
                text = f"t{tid}-{i}"
                if stub.echo(text) != text:
                    raise AssertionError("echo mismatch")
        except Exception as exc:   # surfaced after join
            errors.append(exc)

    try:
        stub.echo("warm-up")   # open the connection
        threads = [
            threading.Thread(target=worker, args=(tid,))
            for tid in range(TCP_THREADS)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        if errors:
            raise errors[0]
        return elapsed
    finally:
        client_orb.shutdown()
        server_orb.shutdown()


def measure_tcp_twoway() -> dict:
    """Best-of threaded two-way call rate over one TCP connection."""
    elapsed = min(_twoway_run() for _ in range(BEST_OF))
    calls = TCP_THREADS * TCP_CALLS_PER_THREAD
    return {
        "threads": TCP_THREADS,
        "calls": calls,
        "calls_per_wall_s": round(calls / elapsed, 1),
        "wall_s": round(elapsed, 4),
    }


# -- BSMP --------------------------------------------------------------------

def _bsmp_run(payloads: tuple, size: int) -> float:
    """Seconds for BSMP_SUPERSTEPS supersteps of sends and exchanges."""
    peers = [[(pid + 1 + 16 * k) % BSMP_PROCS for k in range(BSMP_PEERS)]
             for pid in range(BSMP_PROCS)]
    buffers = MessageBuffers(BSMP_PROCS)
    send, exchange = buffers.send, buffers.exchange
    # The cyclic GC is off while timed, as in ``timeit``: its passes
    # scale with whatever else is live and made this rate swing ~2x.
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(BSMP_SUPERSTEPS):
            for pid, targets in enumerate(peers):
                for peer in targets:
                    for payload in payloads:
                        send(pid, peer, payload)
            exchange()
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    per_step = BSMP_PROCS * BSMP_PEERS * len(payloads)
    assert sum(len(buffers.inbox(pid)) for pid in range(BSMP_PROCS)) \
        == per_step
    messages = per_step * BSMP_SUPERSTEPS
    assert buffers.messages_sent == buffers.orb_calls == messages
    assert buffers.bytes_estimate \
        == BSMP_PROCS * BSMP_PEERS * BSMP_SUPERSTEPS * size
    return elapsed


def measure_bsmp(workload: tuple = BSMP_FLAT) -> dict:
    """Best-of BSMP message rate: sends plus the barrier's exchange."""
    elapsed = min(_bsmp_run(*workload) for _ in range(BSMP_BEST_OF))
    messages = BSMP_PROCS * BSMP_PEERS * len(workload[0]) * BSMP_SUPERSTEPS
    return {
        "procs": BSMP_PROCS,
        "supersteps": BSMP_SUPERSTEPS,
        "messages": messages,
        "messages_per_s": round(messages / elapsed, 1),
        "wall_s": round(elapsed, 4),
    }


# -- harness -----------------------------------------------------------------

def run_experiment():
    storm = measure_storm()
    cdr = measure_cdr()
    variant = measure_round_trips(VARIANT)
    job_status = measure_round_trips(JOB_STATUS)
    oneway = measure_tcp_oneway()
    twoway = measure_tcp_twoway()
    bsmp = measure_bsmp()
    bsmp_mixed = measure_bsmp(BSMP_MIXED)
    chunk_kib = CDR_CHUNK_BYTES // 1024
    table = Table(
        ["plane", "work", "rate (wall)"],
        title="S6: communication plane, one row per mechanism",
    )
    table.add_row(
        "collocated oneway storm",
        f"{SENDERS:,} senders x {STORM_ROUNDS} rounds",
        f"{storm['calls_per_wall_s']:,.0f} calls/s",
    )
    table.add_row(
        "CDR decode", f"{CDR_RECORDS} x {chunk_kib} KiB records",
        f"{cdr['decode_records_per_s']:,.0f} rec/s",
    )
    table.add_row(
        "CDR encode", f"{CDR_RECORDS} x {chunk_kib} KiB records",
        f"{cdr['encode_records_per_s']:,.0f} rec/s",
    )
    table.add_row(
        "CDR variant round-trip",
        f"{variant['replies']} job_status replies, 1-8 tasks",
        f"{variant['round_trips_per_s']:,.0f} replies/s",
    )
    table.add_row(
        "CDR JobStatus round-trip",
        f"{job_status['replies']} job_status replies, 1-8 tasks",
        f"{job_status['round_trips_per_s']:,.0f} replies/s",
    )
    table.add_row(
        "TCP oneway", f"{oneway['calls']:,} msgs, 1 connection",
        f"{oneway['calls_per_wall_s']:,.0f} msgs/s",
    )
    table.add_row(
        "TCP two-way",
        f"{twoway['calls']:,} calls, {TCP_THREADS} threads, 1 connection",
        f"{twoway['calls_per_wall_s']:,.0f} calls/s",
    )
    for name, row in (("BSMP superstep", bsmp),
                      ("BSMP superstep, mixed", bsmp_mixed)):
        table.add_row(
            name, f"{BSMP_PROCS} procs x {BSMP_PEERS} peers x 4 msgs",
            f"{row['messages_per_s']:,.0f} msgs/s",
        )
    return (table, storm, cdr, variant, job_status, oneway, twoway, bsmp,
            bsmp_mixed)


def test_s6_comm_plane(benchmark):
    (table, storm, cdr, variant, job_status, oneway, twoway, bsmp,
     bsmp_mixed) = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    save_result("s6_comm_plane", table.render())
    save_json("S6", {
        "experiment": "s6_comm_plane",
        "senders": SENDERS,
        "storm_rounds": STORM_ROUNDS,
        "storm": storm,
        "cdr": cdr,
        "variant": variant,
        "job_status": job_status,
        "tcp_oneway": oneway,
        "tcp_twoway": twoway,
        "bsmp": bsmp,
        "bsmp_mixed": bsmp_mixed,
    })
    # Every call was dispatched (each measure function asserts its own
    # delivery counts); rates are gated against this file's committed
    # output in perf_smoke.py, not here.
    assert storm["calls"] == SENDERS * STORM_ROUNDS
    assert oneway["calls"] == TCP_ONEWAYS
    assert twoway["calls"] == TCP_THREADS * TCP_CALLS_PER_THREAD
    for row in (bsmp, bsmp_mixed):
        assert row["messages"] == BSMP_PROCS * BSMP_PEERS * 4 * BSMP_SUPERSTEPS
