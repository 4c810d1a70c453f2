"""S6 — communication-plane scaling (infrastructure benchmark).

The seed ORB sends one transport frame per call, copies every octet
sequence out of the receive buffer, and serialises TCP callers behind a
per-connection lock.  This benchmark measures the communication plane
as it stands:

* **Oneway storm** — 10k logical senders fire oneway status reports at
  one collocated sink per round: the ORB's direct-dispatch call rate
  (no frames, no bytes), with a server-side interceptor digesting
  every dispatched call.
* **CDR plane** — decode throughput over chunk-shaped records (string +
  ulong + 64 KiB octets): the seed decoder copies every blob out of the
  buffer, ``zero_copy=True`` returns memoryview slices.  Encode
  throughput with pooled vs per-message encoders rides along.  Output
  bytes are asserted identical.
* **Pipelined TCP** — oneway delivery over a real socket: legacy
  framing pays one frame (and one send syscall) per message, the
  pipelined connection negotiates batch capability so flushed batches
  collapse frames by the flush interval.  A threaded two-way run (8
  client threads sharing one connection, both framings) rides along as
  a correctness check; its throughput is reported, not gated — with
  per-connection dispatch serialised on both framings, loopback
  request/reply is a round-trip-latency race that pipelining is not
  built to win.

Rows land in ``BENCH_S6.json`` with ``--bench-json``; the committed
file is the CI baseline and the headline gates (collocated storm call
rate, >= 5x TCP frame reduction with identical digests, >= 2x zero-copy
decode throughput) re-run in ``perf_smoke.py``.
"""

import hashlib
import threading
import time

from repro.analysis.metrics import Table
from repro.orb.cdr import (
    CdrDecoder,
    CdrEncoder,
    acquire_encoder,
    release_encoder,
)
from repro.orb.core import Orb
from repro.orb.idl import InterfaceDef, Operation, Parameter
from repro.orb.transport import InProcDomain
from repro.orb.cdr import Double, String, ULong

from conftest import save_json, save_result

SENDERS = 10_000               # logical senders per storm round
STORM_ROUNDS = 4
CDR_RECORDS = 512
CDR_CHUNK_BYTES = 64 * 1024
TCP_THREADS = 8
TCP_CALLS_PER_THREAD = 50
TCP_ONEWAYS = 20_000
TCP_FLUSH_EVERY = 1_000
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
            "mode": "collocated",
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


def _decode_all(buf: bytes, zero_copy: bool) -> int:
    dec = CdrDecoder(buf, zero_copy=zero_copy)
    total = 0
    for _ in range(CDR_RECORDS):
        dec.read_string()
        dec.read_ulong()
        total += len(dec.read_octets())
    return total


def measure_cdr() -> dict:
    """Best-of decode and encode throughput, seed vs zero-copy/pooled."""
    buf = _chunk_buffer()
    # Equivalence: both decoders yield content-identical records.
    seed_dec = CdrDecoder(buf)
    zc_dec = CdrDecoder(buf, zero_copy=True)
    for _ in range(CDR_RECORDS):
        assert seed_dec.read_string() == zc_dec.read_string()
        assert seed_dec.read_ulong() == zc_dec.read_ulong()
        assert seed_dec.read_octets() == bytes(zc_dec.read_octets())

    rates = {"seed": 0.0, "zero_copy": 0.0}
    for _ in range(BEST_OF):
        for label, zero_copy in (("seed", False), ("zero_copy", True)):
            start = time.perf_counter()
            total = _decode_all(buf, zero_copy)
            elapsed = time.perf_counter() - start
            assert total == CDR_RECORDS * CDR_CHUNK_BYTES
            rates[label] = max(rates[label], CDR_RECORDS / elapsed)

    def encode_round(pooled: bool) -> bytes:
        last = b""
        for i in range(CDR_RECORDS):
            enc = acquire_encoder() if pooled else CdrEncoder()
            enc.write_string(f"task-{i:04}")
            enc.write_ulong(i)
            enc.write_octets(_CHUNK_FILL)
            last = enc.getvalue()
            if pooled:
                release_encoder(enc)
        return last

    assert encode_round(False) == encode_round(True)
    enc_rates = {"fresh": 0.0, "pooled": 0.0}
    for _ in range(BEST_OF):
        for label, pooled in (("fresh", False), ("pooled", True)):
            start = time.perf_counter()
            encode_round(pooled)
            elapsed = time.perf_counter() - start
            enc_rates[label] = max(enc_rates[label], CDR_RECORDS / elapsed)
    return {
        "records": CDR_RECORDS,
        "chunk_bytes": CDR_CHUNK_BYTES,
        "decode_seed_records_per_s": round(rates["seed"], 1),
        "decode_zero_copy_records_per_s": round(rates["zero_copy"], 1),
        "decode_speedup": round(rates["zero_copy"] / rates["seed"], 2),
        "encode_fresh_records_per_s": round(enc_rates["fresh"], 1),
        "encode_pooled_records_per_s": round(enc_rates["pooled"], 1),
    }


# -- pipelined TCP -----------------------------------------------------------

def _tcp_pair(pipelined: bool, batch: bool) -> tuple:
    """Server + client ORB joined only by a real TCP socket.

    Separate in-proc domains force the client's route onto TCP (the
    servant's in-proc endpoint is not resolvable from the client's
    domain, exactly like two separate processes).
    """
    server_orb = Orb("tcp-server", domain=InProcDomain(), tcp=True,
                     tcp_pipelined=pipelined, batch_oneway=batch)
    client_orb = Orb("tcp-client", domain=InProcDomain(), tcp=True,
                     tcp_pipelined=pipelined, batch_oneway=batch)
    return server_orb, client_orb


def measure_tcp_oneway(mode: str) -> dict:
    """Oneway delivery over TCP: per-call frames vs negotiated batches."""
    batch = mode == "pipelined+batched"
    pipelined = mode != "legacy"
    server_orb, client_orb = _tcp_pair(pipelined, batch)
    digest = hashlib.sha256()

    def interceptor(key, operation, args):
        digest.update(f"{key}|{operation.name}|{args!r}".encode())

    server_orb.add_server_interceptor(interceptor)
    ref = server_orb.activate(_Sink(), SINK_INTERFACE, key="bench/sink")
    stub = client_orb.stub(ref, SINK_INTERFACE)
    try:
        report = stub.report
        start = time.perf_counter()
        for i in range(TCP_ONEWAYS):
            report(f"n{i % 100:03}", i, 0.5)
            if batch and (i + 1) % TCP_FLUSH_EVERY == 0:
                client_orb.flush()
        if batch:
            client_orb.flush()
        # Oneways are asynchronous on the wire: wall time covers actual
        # delivery, polled on the server's dispatch counter.
        deadline = time.monotonic() + TCP_DRAIN_TIMEOUT_S
        while (server_orb.requests_handled < TCP_ONEWAYS
               and time.monotonic() < deadline):
            time.sleep(0.002)
        elapsed = time.perf_counter() - start
        assert server_orb.requests_handled == TCP_ONEWAYS
        return {
            "mode": mode,
            "calls": TCP_ONEWAYS,
            "frames": server_orb.stats()["requests_received"],
            "calls_per_wall_s": round(TCP_ONEWAYS / elapsed, 1),
            "wall_s": round(elapsed, 4),
            "digest": digest.hexdigest(),
        }
    finally:
        client_orb.shutdown()
        server_orb.shutdown()


def measure_tcp_twoway(pipelined: bool) -> dict:
    """Threaded two-way calls over one real TCP connection."""
    server_orb, client_orb = _tcp_pair(pipelined, batch=False)
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
        stub.echo("warm-up")   # connection + (maybe) negotiation
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
        calls = TCP_THREADS * TCP_CALLS_PER_THREAD
        return {
            "mode": "pipelined" if pipelined else "legacy",
            "threads": TCP_THREADS,
            "calls": calls,
            "calls_per_wall_s": round(calls / elapsed, 1),
            "wall_s": round(elapsed, 4),
        }
    finally:
        client_orb.shutdown()
        server_orb.shutdown()


# -- harness -----------------------------------------------------------------

def run_experiment():
    storm_table = Table(
        ["mode", "calls", "calls/s (wall)"],
        title=f"S6a: {SENDERS}-sender oneway storm, {STORM_ROUNDS} rounds",
    )
    storm_rows = [measure_storm()]
    for row in storm_rows:
        storm_table.add_row(
            row["mode"], f"{row['calls']:,}",
            f"{row['calls_per_wall_s']:,.0f}",
        )
    cdr_row = measure_cdr()
    cdr_table = Table(
        ["plane", "seed rec/s", "optimized rec/s", "speedup"],
        title=f"S6b: CDR {CDR_CHUNK_BYTES // 1024} KiB chunk records",
    )
    cdr_table.add_row(
        "decode", f"{cdr_row['decode_seed_records_per_s']:,.0f}",
        f"{cdr_row['decode_zero_copy_records_per_s']:,.0f}",
        f"{cdr_row['decode_speedup']:.1f}x",
    )
    enc_speedup = (cdr_row["encode_pooled_records_per_s"]
                   / cdr_row["encode_fresh_records_per_s"])
    cdr_table.add_row(
        "encode", f"{cdr_row['encode_fresh_records_per_s']:,.0f}",
        f"{cdr_row['encode_pooled_records_per_s']:,.0f}",
        f"{enc_speedup:.1f}x",
    )
    tcp_table = Table(
        ["mode", "calls", "frames", "msgs/s (wall)"],
        title="S6c: oneway delivery over one TCP connection",
    )
    tcp_rows = [
        measure_tcp_oneway(mode)
        for mode in ("legacy", "pipelined", "pipelined+batched")
    ]
    for row in tcp_rows:
        tcp_table.add_row(
            row["mode"], f"{row['calls']:,}", f"{row['frames']:,}",
            f"{row['calls_per_wall_s']:,.0f}",
        )
    twoway_table = Table(
        ["mode", "threads", "calls", "calls/s (wall)"],
        title="S6d: threaded two-way calls over one TCP connection",
    )
    twoway_rows = [measure_tcp_twoway(pipelined) for pipelined in (False, True)]
    for row in twoway_rows:
        twoway_table.add_row(
            row["mode"], row["threads"], row["calls"],
            f"{row['calls_per_wall_s']:,.0f}",
        )
    tables = (storm_table, cdr_table, tcp_table, twoway_table)
    return tables, storm_rows, cdr_row, tcp_rows, twoway_rows


def test_s6_comm_plane(benchmark):
    tables, storm_rows, cdr_row, tcp_rows, twoway_rows = \
        benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    save_result(
        "s6_comm_plane",
        "\n\n".join(table.render() for table in tables),
    )
    save_json("S6", {
        "experiment": "s6_comm_plane",
        "senders": SENDERS,
        "storm_rounds": STORM_ROUNDS,
        "storm_rows": storm_rows,
        "cdr": cdr_row,
        "tcp_oneway_rows": tcp_rows,
        "tcp_twoway_rows": twoway_rows,
    })
    # Every logical call of the collocated storm was dispatched.
    assert storm_rows[0]["calls"] == SENDERS * STORM_ROUNDS
    # Zero-copy decode is the headline CDR gate; pooled encode must at
    # minimum not regress.
    assert cdr_row["decode_speedup"] >= 2.0
    assert (cdr_row["encode_pooled_records_per_s"]
            >= 0.7 * cdr_row["encode_fresh_records_per_s"])
    # Over the real socket, every mode delivers the same calls in the
    # same order (server-side digest), legacy pays one frame per call,
    # and negotiated batching collapses frames by the flush interval.
    legacy = next(r for r in tcp_rows if r["mode"] == "legacy")
    piped = next(r for r in tcp_rows if r["mode"] == "pipelined")
    piped_batch = next(
        r for r in tcp_rows if r["mode"] == "pipelined+batched")
    assert legacy["digest"] == piped["digest"] == piped_batch["digest"]
    assert legacy["frames"] == TCP_ONEWAYS
    assert piped_batch["frames"] == TCP_ONEWAYS // TCP_FLUSH_EVERY
    assert legacy["frames"] / piped_batch["frames"] >= 5.0
    # Both TCP framings completed every threaded two-way call
    # (throughput is reported, not gated: loopback timings are noisy).
    for row in twoway_rows:
        assert row["calls"] == TCP_THREADS * TCP_CALLS_PER_THREAD
