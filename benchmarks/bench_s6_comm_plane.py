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
* **TCP oneway** — 20k oneway reports over one real loopback
  connection, timed until the server has dispatched the last one.
* **TCP two-way** — 8 client threads sharing one connection, each
  call a full request/reply exchange under the per-peer lock.

Rows land in ``BENCH_S6.json`` with ``--bench-json``; the committed
file is the CI baseline and ``perf_smoke.py`` re-runs the storm, CDR
decode and both TCP rows against it.  The opt-in batch frames,
zero-copy decoder, encoder pool and pipelined framing this file used to
compare against are gone; their last measured numbers are kept in
``docs/performance.md`` §9.
"""

import hashlib
import threading
import time

from repro.analysis.metrics import Table
from repro.orb.cdr import CdrDecoder, CdrEncoder, Double, String, ULong
from repro.orb.core import Orb
from repro.orb.idl import InterfaceDef, Operation, Parameter
from repro.orb.transport import InProcDomain

from conftest import save_json, save_result

SENDERS = 10_000               # logical senders per storm round
STORM_ROUNDS = 4
CDR_RECORDS = 512
CDR_CHUNK_BYTES = 64 * 1024
TCP_THREADS = 8
TCP_CALLS_PER_THREAD = 250
TCP_ONEWAYS = 20_000
TCP_DRAIN_TIMEOUT_S = 30.0
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


# -- harness -----------------------------------------------------------------

def run_experiment():
    storm = measure_storm()
    cdr = measure_cdr()
    oneway = measure_tcp_oneway()
    twoway = measure_tcp_twoway()
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
        "TCP oneway", f"{oneway['calls']:,} msgs, 1 connection",
        f"{oneway['calls_per_wall_s']:,.0f} msgs/s",
    )
    table.add_row(
        "TCP two-way",
        f"{twoway['calls']:,} calls, {TCP_THREADS} threads, 1 connection",
        f"{twoway['calls_per_wall_s']:,.0f} calls/s",
    )
    return table, storm, cdr, oneway, twoway


def test_s6_comm_plane(benchmark):
    table, storm, cdr, oneway, twoway = \
        benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    save_result("s6_comm_plane", table.render())
    save_json("S6", {
        "experiment": "s6_comm_plane",
        "senders": SENDERS,
        "storm_rounds": STORM_ROUNDS,
        "storm": storm,
        "cdr": cdr,
        "tcp_oneway": oneway,
        "tcp_twoway": twoway,
    })
    # Every call was dispatched (each measure function asserts its own
    # delivery counts); rates are gated against this file's committed
    # output in perf_smoke.py, not here.
    assert storm["calls"] == SENDERS * STORM_ROUNDS
    assert oneway["calls"] == TCP_ONEWAYS
    assert twoway["calls"] == TCP_THREADS * TCP_CALLS_PER_THREAD
