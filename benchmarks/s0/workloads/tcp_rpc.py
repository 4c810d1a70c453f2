"""tcp_rpc — the ORB over real loopback sockets.

A server ``Orb(tcp=True)`` hosts a real ``Grm`` (256 registered nodes,
64 queued jobs) and one real ``Lrm``.  Two client threads, one
connection each, **closed loop**, fixed work in two phases:

1. **mixed** — both clients at once, ``MIXED_OPS`` operations each from
   a seeded mix: 70 % oneway ``send_update``, 20 % two-way
   ``job_status``, 10 % two-way ``request_reservation`` +
   ``cancel_reservation``.  Each client ends with one more two-way call,
   which the server answers only after every oneway queued before it on
   that connection has been handled, so the phase covers delivery of
   every oneway.
2. **burst** — ``BURST_CALLS`` ``job_status`` calls per client, back to
   back with no oneway in front, in ``BURST_ROUNDS`` rounds per client,
   the clients taking turns.

Every reply is verified.  A *step* is one two-way operation of either
phase.

Why two phases.  At HEAD a two-way call that follows a oneway on the
same connection waits ~44 ms: the legacy framing leaves Nagle's
algorithm on and the peer delays its ACK.  The mixed phase is therefore
a kernel timer (30 stalls per client), blind to the ORB's CPU cost until
``TCP_NODELAY`` is the default; it is what ``wall_s`` and the tail
(``orb.transport.twoway_p99_us``) show.  The burst never stalls, and its
4,000 calls are 98.5 % of the steps: ``step_p50_ms`` and ``step_p90_ms``
are marshal + framing + syscalls + thread hand-off + dispatch, and move
with them.  The clients take turns in the burst because two at once
measure how four threads queue for the interpreter lock (the quartiles
of ``step_p90_ms`` were 35 % apart over ten runs), not the ORB.  The
phase sizes are for the default path; when the stall goes, ``MIXED_OPS``
has to grow.

Why it exists: the in-process transport hides syscalls, framing and
threads; this is the only workload where they dominate.  Two-way calls
share a connection with oneways, so a oneway or batching gain that costs
request/reply latency shows up here.

The reservation pairs all come from the first client: the node-side
ledger and event loop are single-threaded by design (one GRM negotiates
with an LRM at a time), and each server connection has its own thread.
The second client sends ``job_status`` in their place, so the overall
mix is still 70/20/10.
"""

import hashlib
import random
import threading
from array import array
from time import perf_counter

from repro.apps.spec import ApplicationSpec
from repro.core.grm import Grm
from repro.core.lrm import Lrm
from repro.core.ncc import NodeControlCenter
from repro.core.protocols import GRM_INTERFACE, LRM_INTERFACE
from repro.orb.core import Orb
from repro.orb.transport import InProcDomain
from repro.sim.events import EventLoop
from repro.sim.workstation import Workstation

from support import fast_kwargs, percentile

CLIENTS = 2
NODES = 256
JOBS = 64
MIXED_OPS = 100             # per client: 30 two-way operations, 30 stalls
BURST_CALLS = 2_000         # per client, in BURST_ROUNDS equal rounds
BURST_ROUNDS = 8
BLOCK = 10                  # operations per block of the mixed plan
TWOWAY_PER_BLOCK = 3        # the other seven are oneway updates: 70 %
#: Reservation pairs per block: the first client carries all of them
#: (see the module docstring), two per block, so 10 % of all operations.
RESERVATIONS_PER_BLOCK = (2, 0)
FAST_ORB_KWARGS = ("fast_local", "batch_oneway", "zero_copy_cdr",
                   "tcp_pipelined")

UPDATE, STATUS, RESERVE = range(3)
RESERVATION_GRANTED = {"accepted": True, "reason": "ok"}


def sizes(scale: float) -> dict:
    """Workload constants at ``scale`` (1.0 is the size of record)."""
    return {"mixed_ops": BLOCK * max(1, round(MIXED_OPS * scale / BLOCK)),
            "burst_calls": BURST_ROUNDS * max(1, round(
                BURST_CALLS * scale / BURST_ROUNDS))}


def node_status(index: int, rng: random.Random, now: float) -> dict:
    """A NodeStatus record as an LRM would report it."""
    return {
        "node": f"n{index:03}", "time": now,
        "mips": 1000.0 + 10.0 * (index % 50), "ram_mb": 512.0,
        "disk_mb": 10_000.0, "os": "linux", "arch": "x86",
        "cpu_free": round(rng.random(), 3),
        "mem_free_mb": round(512.0 * rng.random(), 1),
        "disk_free_mb": 9_000.0, "net_mbps": 100.0,
        "net_free_mbps": round(100.0 * rng.random(), 1),
        "owner_active": rng.random() < 0.4, "sharing": True,
        "grid_tasks": rng.randrange(3),
    }


class TcpRpc:
    name = "tcp_rpc"
    residual_layer = "harness"

    def __init__(self, seed: int, scale: float = 1.0, profile: str = "default"):
        self.seed = seed
        self.sizes = sizes(scale)
        self.profile = profile
        self.mixed_seconds = 0.0
        self.client_seconds = [0.0] * CLIENTS
        self.twoway: list = []      # host seconds of every two-way operation
        self.errors: list = []

    def setup(self) -> None:
        rng = random.Random(self.seed)
        orb_kwargs = fast_kwargs(Orb.__init__, FAST_ORB_KWARGS, self.profile)
        loop = EventLoop()      # never run: simulated time stands still
        self.server = Orb("s0-server", domain=InProcDomain(), tcp=True,
                          **orb_kwargs)
        self.grm = Grm(loop, self.server, cluster="tcp")
        grm_ior = self.server.activate(
            self.grm, GRM_INTERFACE, key="tcp/grm").to_string()
        workstation = Workstation(loop, "host", rng=random.Random(self.seed))
        self.lrm = Lrm(loop, workstation, NodeControlCenter(loop.clock))
        lrm_ior = self.server.activate(
            self.lrm, LRM_INTERFACE, key="host/lrm").to_string()
        for index in range(NODES):
            self.grm.register_node(node_status(index, rng, 0.0), lrm_ior)
        self.job_ids = [
            self.grm.submit(ApplicationSpec(
                name=f"job-{j:02}", tasks=1 + j % 8, work_mips=1e6,
            ).to_dict())
            for j in range(JOBS)
        ]
        self.expected_status = {
            job_id: self.grm.job_status(job_id) for job_id in self.job_ids
        }
        self.clients = []
        self.plans = []
        self.bursts = []
        for c in range(CLIENTS):
            orb = Orb(f"s0-client{c}", domain=InProcDomain(), tcp=True,
                      **orb_kwargs)
            grm_stub = orb.stub(grm_ior, GRM_INTERFACE)
            lrm_stub = orb.stub(lrm_ior, LRM_INTERFACE)
            if not lrm_stub.ping():          # opens the connection
                raise RuntimeError("LRM did not answer the warm-up ping")
            self.clients.append((orb, grm_stub, lrm_stub))
            self.plans.append(self._plan(c, rng))
            self.bursts.append([rng.choice(self.job_ids)
                                for _ in range(self.sizes["burst_calls"])])
        self._handled_before = self.server.requests_handled

    def _plan(self, client: int, rng: random.Random) -> list:
        """The client's mixed operations, in blocks of ten.

        Each block holds exactly seven oneways and three two-way
        operations, the first operation is a oneway and no two two-way
        operations are adjacent.  The seed decides where they fall and
        which node or job each one names, but every two-way operation
        follows a oneway — so the number of stalls does not depend on the
        seed.  Clients update disjoint node sets, so the Trader's final
        state does not depend on thread interleaving either.
        """
        plan = []
        for block in range(self.sizes["mixed_ops"] // BLOCK):
            while True:
                twoway = sorted(rng.sample(range(1, BLOCK), TWOWAY_PER_BLOCK))
                if all(b - a > 1 for a, b in zip(twoway, twoway[1:])):
                    break
            turn = block % TWOWAY_PER_BLOCK
            reserve = set((twoway[turn:] + twoway[:turn])
                          [:RESERVATIONS_PER_BLOCK[client]])
            for slot in range(BLOCK):
                if slot not in twoway:
                    index = client + CLIENTS * rng.randrange(NODES // CLIENTS)
                    plan.append((UPDATE, node_status(
                        index, rng, float(block * BLOCK + slot))))
                elif slot in reserve:
                    plan.append((RESERVE, f"c{client}-r{block * BLOCK + slot}"))
                else:
                    plan.append((STATUS, rng.choice(self.job_ids)))
        return plan

    def _mixed(self, index: int, samples: array) -> None:
        _orb, grm, lrm = self.clients[index]
        send_update, job_status = grm.send_update, grm.job_status
        reserve, cancel = lrm.request_reservation, lrm.cancel_reservation
        expected = self.expected_status
        clock = perf_counter
        for kind, arg in self.plans[index]:
            if kind == UPDATE:
                send_update(arg)
            elif kind == STATUS:
                started = clock()
                reply = job_status(arg)
                samples.append(clock() - started)
                if reply != expected[arg]:
                    raise AssertionError(f"job_status({arg}) mismatch")
            else:
                started = clock()
                reply = reserve({
                    "task_id": arg, "cpu_fraction": 0.25, "mem_mb": 16.0,
                    "disk_mb": 0.0, "lease_seconds": 120.0,
                })
                cancel(arg)
                samples.append(clock() - started)
                if reply != RESERVATION_GRANTED:
                    raise AssertionError(f"reservation refused: {reply}")
        # Frames on one connection are served in order: this reply means
        # every oneway sent above has been handled.
        if job_status(self.job_ids[0]) != expected[self.job_ids[0]]:
            raise AssertionError("final job_status mismatch")

    def _burst(self, index: int, samples: array, first: int, last: int):
        job_status = self.clients[index][1].job_status
        expected = self.expected_status
        clock = perf_counter
        for job_id in self.bursts[index][first:last]:
            started = clock()
            reply = job_status(job_id)
            samples.append(clock() - started)
            if reply != expected[job_id]:
                raise AssertionError(f"job_status({job_id}) mismatch")

    def _client(self, phase, index: int, *args) -> None:
        began = perf_counter()
        try:
            phase(index, *args)
        except Exception as exc:       # reported by finish(), fails the run
            self.errors.append(f"client {index}: {exc!r}")
        self.client_seconds[index] += perf_counter() - began

    def _together(self, clients, phase, *args) -> array:
        """Run ``phase`` on each of ``clients`` at once; the host seconds
        of each two-way operation (one ``job_status``, or one
        reserve-then-cancel pair: two calls, one negotiation), client by
        client."""
        samples = [array("d") for _ in clients]
        threads = [
            threading.Thread(target=self._client, name=f"s0-client{c}",
                             args=(phase, c, per_client, *args))
            for c, per_client in zip(clients, samples)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        merged = array("d")
        for per_client in samples:
            merged.extend(per_client)
        self.twoway.extend(merged)
        return merged

    def run(self):
        """The mixed phase, then the burst in rounds; each part yields
        its two-way latencies as the part's steps."""
        started = perf_counter()
        latencies = self._together(range(CLIENTS), self._mixed)
        self.mixed_seconds = perf_counter() - started
        yield latencies
        per_round = self.sizes["burst_calls"] // BURST_ROUNDS
        for first in range(0, self.sizes["burst_calls"], per_round):
            for client in range(CLIENTS):
                yield self._together([client], self._burst,
                                     first, first + per_round)

    def finish(self) -> dict:
        # Every reply was compared with what the plan expects, so the
        # digest is over the plan: each call and the reply it had to get.
        sha = hashlib.sha256()
        calls = updates = 0
        last_update = {}
        for plan, burst in zip(self.plans, self.bursts):
            for kind, arg in plan:
                if kind == UPDATE:
                    reply = None
                    last_update[arg["node"]] = arg
                    updates += 1
                elif kind == STATUS:
                    reply = self.expected_status[arg]
                else:
                    reply = RESERVATION_GRANTED
                    calls += 1              # the cancel
                calls += 1
                sha.update(f"{kind}|{arg!r}|{reply!r}\n".encode())
            for job_id in burst:
                sha.update(f"{job_id}|{self.expected_status[job_id]!r}\n"
                           .encode())
            calls += 1 + len(burst)         # the call that ends the mix
        handled = self.server.requests_handled - self._handled_before
        failed = len(self.errors)
        if handled != calls:
            self.errors.append(f"server handled {handled} of {calls} calls")
            failed += 1
        offers = {
            o["properties"]["node"]: o["properties"]
            for o in self.grm.trader.query("node")
        }
        for node, status in sorted(last_update.items()):
            if offers.get(node) != status:
                self.errors.append(f"trader holds a stale {node}")
                failed += 1
            sha.update(f"{node}|{offers.get(node)!r}\n".encode())
        client_stats = [orb.stats() for orb, _g, _l in self.clients]
        server_stats = self.server.stats()
        for orb, _grm, _lrm in self.clients:
            orb.shutdown()
        self.server.shutdown()
        twoway = sorted(self.twoway)
        return {
            "digest": sha.hexdigest(),
            "attempted": calls,
            "failed": failed,
            "errors": self.errors[:5],
            "extra": {},
            "host_counters": {
                "orb.transport.twoway_p99_us": percentile(twoway, 0.99) * 1e6,
                "orb.transport.oneway_per_s": updates / self.mixed_seconds,
            },
            "counters": {
                "orb.core.requests": sum(s["requests_sent"]
                                         for s in client_stats),
                "orb.core.replies": sum(s["replies_received"]
                                        for s in client_stats),
                "orb.core.bytes_sent": server_stats["bytes_sent"] + sum(
                    s["bytes_sent"] for s in client_stats),
                "core.grm.updates_received": self.grm.stats.updates_received,
            },
            "samples": {"mixed_twoway": CLIENTS * TWOWAY_PER_BLOCK
                        * (self.sizes["mixed_ops"] // BLOCK),
                        "burst_twoway": CLIENTS * self.sizes["burst_calls"]},
            "thread_seconds": sum(self.client_seconds),
            "driver_threads": {f"s0-client{c}" for c in range(CLIENTS)},
        }
