"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.analysis.metrics import percentile
from repro.apps.constraints import (
    MAX_DEPTH,
    Constraint,
    ConstraintError,
    Preference,
    UNDEFINED,
    evaluate,
)
from repro.apps.spec import ResourceRequirements
from repro.checkpoint.serializer import (
    CheckpointCorrupted,
    deserialize,
    serialize,
)
from repro.bsp.messages import MessageBuffers
from repro.orb.cdr import (
    CdrDecoder,
    CdrEncoder,
    Double,
    Long,
    Sequence,
    String,
    Struct,
    VARIANT,
)
from repro.orb.ior import ObjectRef
from repro.sim.events import EventLoop
from repro.sim.machine import InsufficientResources, Machine, MachineSpec

from tests.oracles import constraints as constraint_oracle
from tests.oracles import requirements as requirements_oracle

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

i64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)

variant_values = st.recursive(
    st.none()
    | st.booleans()
    | i64
    | finite_floats
    | st.text(max_size=40)
    | st.binary(max_size=40),
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.text(max_size=10), children, max_size=5),
    max_leaves=20,
)

state_dicts = st.dictionaries(
    st.text(min_size=1, max_size=12), variant_values, max_size=6
)


def normalise(value):
    """Variant decoding returns lists for tuples; ints stay ints."""
    if isinstance(value, tuple):
        return [normalise(v) for v in value]
    if isinstance(value, list):
        return [normalise(v) for v in value]
    if isinstance(value, dict):
        return {k: normalise(v) for k, v in value.items()}
    return value


# ---------------------------------------------------------------------------
# CDR marshalling
# ---------------------------------------------------------------------------

class TestCdrProperties:
    @given(variant_values)
    def test_variant_roundtrip(self, value):
        enc = CdrEncoder()
        VARIANT.encode(enc, value)
        decoded = VARIANT.decode(CdrDecoder(enc.getvalue()))
        assert decoded == normalise(value)

    @given(st.text(max_size=200))
    def test_string_roundtrip(self, text):
        enc = CdrEncoder()
        enc.write_string(text)
        assert CdrDecoder(enc.getvalue()).read_string() == text

    @given(st.lists(i64, max_size=50))
    def test_sequence_roundtrip(self, values):
        seq = Sequence(Struct("Item", [("v", Double)]))
        items = [{"v": float(v % 10**12)} for v in values]
        enc = CdrEncoder()
        seq.encode(enc, items)
        assert seq.decode(CdrDecoder(enc.getvalue())) == items

    @given(st.text(max_size=30), st.text(min_size=1, max_size=30),
           finite_floats)
    def test_struct_roundtrip(self, name, key, number):
        struct = Struct("S", [("name", String), ("x", Double)])
        value = {"name": name, "x": number}
        enc = CdrEncoder()
        struct.encode(enc, value)
        decoded = struct.decode(CdrDecoder(enc.getvalue()))
        assert decoded["name"] == name
        assert decoded["x"] == number

    @given(variant_values)
    def test_encoding_is_deterministic(self, value):
        enc1, enc2 = CdrEncoder(), CdrEncoder()
        VARIANT.encode(enc1, value)
        VARIANT.encode(enc2, value)
        assert enc1.getvalue() == enc2.getvalue()


# ---------------------------------------------------------------------------
# Checkpoint serializer
# ---------------------------------------------------------------------------

class TestCheckpointProperties:
    @given(state_dicts)
    def test_roundtrip(self, state):
        assert deserialize(serialize(state)) == normalise(state)

    @given(state_dicts, st.data())
    def test_any_single_byte_corruption_detected_or_equal(self, state, data):
        blob = bytearray(serialize(state))
        index = data.draw(st.integers(0, len(blob) - 1))
        flip = data.draw(st.integers(1, 255))
        blob[index] ^= flip
        # CRC32 catches every single-byte error.
        with pytest.raises(CheckpointCorrupted):
            deserialize(bytes(blob))

    @given(state_dicts, st.integers(min_value=0, max_value=20))
    def test_truncation_detected(self, state, cut):
        blob = serialize(state)
        assume(cut > 0)
        with pytest.raises(CheckpointCorrupted):
            deserialize(blob[:-cut] if cut <= len(blob) else b"")


# ---------------------------------------------------------------------------
# Constraint language
# ---------------------------------------------------------------------------

#: Operands of every type the language has: numbers, a string, booleans,
#: and identifiers that are defined (as any of those, or as a list that
#: no number orders against) or missing.
CONSTRAINT_LEAVES = ["a", "b", "s", "t", "missing", "0", "1", "2.5",
                     "'linux'", "true", "false"]
CONSTRAINT_BINARY_OPS = ["+", "-", "*", "/", "==", "!=", "<", "<=", ">",
                         ">=", "&&", "||"]
NAN = float("nan")
CONSTRAINT_PROPS = [
    {},
    {"a": 1.5, "b": 0.0, "s": "linux", "t": 1},
    {"a": True, "b": -2.5, "s": 1.0, "t": "linux"},
    {"a": -0.0, "b": 1e308, "s": "x", "t": [1, 2]},
    {"a": NAN, "b": float("inf"), "s": "", "t": []},
    {"a": 1, "b": False, "s": float("-inf")},
]

constraint_texts = st.recursive(
    st.sampled_from(CONSTRAINT_LEAVES),
    lambda e: st.one_of(
        st.tuples(e, st.sampled_from(CONSTRAINT_BINARY_OPS), e)
        .map(lambda t: f"({t[0]}) {t[1]} ({t[2]})"),
        e.map(lambda t: f"!({t})"),
        e.map(lambda t: f"-({t})"),
    ),
    max_leaves=8,
)
constraint_props = st.fixed_dictionaries({}, optional={
    "a": st.one_of(finite_floats, st.booleans(), st.integers(-3, 3),
                   st.sampled_from([NAN, float("inf"), float("-inf")])),
    "b": st.sampled_from([0.0, 1.0, -2.5, 1e308, 0, 1, True, False]),
    "s": st.sampled_from(["linux", "x", "", 1.0]),
    "t": st.sampled_from([[1, 2], [], "linux", 1, None]),
})


def outcome(fn):
    """``repr`` of what ``fn()`` returns (so NaN, -0.0 and UNDEFINED
    compare), or the type of what it raises."""
    try:
        return repr(fn())
    except Exception as exc:          # noqa: BLE001 - compared, not hidden
        return type(exc)


class _Offer:
    def __init__(self, properties):
        self.properties = properties


def assert_agrees_with_oracle(text, props):
    """Value, match, score and scan of the compiled expression are
    exactly the seed interpreter's, and raise where it raises (an
    unorderable comparison, arithmetic on a list)."""
    constraint = Constraint(text)
    assert outcome(lambda: constraint.value(props)) \
        == outcome(lambda: constraint_oracle.value(text, props)), (text, props)
    assert outcome(lambda: constraint.matches(props)) \
        == outcome(lambda: constraint_oracle.matches(text, props)), \
        (text, props)
    assert outcome(lambda: Preference(text).score(props)) \
        == outcome(lambda: constraint_oracle.score(text, props)), (text, props)
    offers = [_Offer(props), _Offer({}), _Offer(props)]
    assert outcome(lambda: constraint.scan(offers)) == outcome(lambda: [
        offer for offer in offers
        if constraint_oracle.matches(text, offer.properties)
    ]), (text, props)


class TestConstraintProperties:
    def test_every_operator_on_every_operand_pair_agrees_with_oracle(self):
        texts = [f"{x} {op} {y}" for x in CONSTRAINT_LEAVES
                 for op in CONSTRAINT_BINARY_OPS for y in CONSTRAINT_LEAVES]
        texts += [f"{op}{x}" for op in "!-" for x in CONSTRAINT_LEAVES]
        # An operand that may raise (an unorderable comparison, negating
        # a list) is evaluated even when the other one is UNDEFINED.
        for raiser in ("(t < a)", "-t"):
            texts += [f"{x} {op} {raiser}" for x in CONSTRAINT_LEAVES
                      for op in CONSTRAINT_BINARY_OPS]
            texts += [f"{raiser} {op} {x}" for x in CONSTRAINT_LEAVES
                      for op in CONSTRAINT_BINARY_OPS]
        for text in texts:
            for props in CONSTRAINT_PROPS:
                assert_agrees_with_oracle(text, props)

    @settings(max_examples=500, deadline=None)
    @given(constraint_texts, constraint_props)
    def test_nested_expressions_agree_with_oracle(self, text, props):
        assert_agrees_with_oracle(text, props)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from(CONSTRAINT_LEAVES + ["-a", "a * b",
                                                         "!(s == t)"]),
                    min_size=2, max_size=MAX_DEPTH - 1),
           st.sampled_from(["&&", "||"]), st.booleans(), constraint_props)
    def test_flattened_chains_agree_with_oracle(self, terms, op, right,
                                                props):
        """A chain of one operator parses to one n-ary node and compiles
        flat; right-nested, or mixed with the other operator, it keeps
        its grouping."""
        text = f" {op} ".join(terms) if not right else \
            f" {op} (".join(terms) + ")" * (len(terms) - 1)
        assert_agrees_with_oracle(text, props)
        other = "||" if op == "&&" else "&&"
        assert_agrees_with_oracle(f"({text}) {other} ({text})", props)

    @pytest.mark.parametrize("depth", [1, 2, MAX_DEPTH // 2, MAX_DEPTH])
    def test_every_shape_at_the_nesting_bound_agrees(self, depth):
        shapes = [
            "-" * depth + "a", "!" * depth + "t",
            "(" * depth + "s" + ")" * depth,
            " + ".join(["a"] * depth) + " >= b",
            "a / (" * (depth - 1) + "b" + ")" * (depth - 1),
            "(t < a) - (" * (depth - 1) + "a" + ")" * (depth - 1),
            "(a != s) == (" * (depth - 1) + "b" + ")" * (depth - 1),
            "s != (" * (depth - 1) + "t" + ")" * (depth - 1),
        ]
        for text in shapes:
            for props in CONSTRAINT_PROPS:
                assert_agrees_with_oracle(text, props)

    @given(finite_floats, finite_floats)
    def test_comparisons_match_python(self, a, b):
        props = {"a": a, "b": b}
        assert evaluate("a < b", props) == (a < b)
        assert evaluate("a >= b", props) == (a >= b)
        assert evaluate("a == b", props) == (a == b)

    @given(st.booleans(), st.booleans())
    def test_boolean_identities(self, p, q):
        props = {"p": p, "q": q}
        assert evaluate("p && q", props) == (p and q)
        assert evaluate("p || q", props) == (p or q)
        assert evaluate("!(p && q)", props) == evaluate("!p || !q", props)

    @given(finite_floats)
    def test_double_negation(self, x):
        props = {"x": x}
        assert evaluate("!!(x >= 0)", props) == evaluate("x >= 0", props)

    @given(st.text(alphabet="abcdefgh", min_size=1, max_size=8))
    def test_undefined_identifier_never_matches_comparison(self, name):
        assert not evaluate(f"{name} > 0", {})
        assert not evaluate(f"{name} <= 0", {})

    @given(finite_floats, finite_floats)
    def test_arithmetic_matches_python(self, a, b):
        assume(abs(a) < 1e100 and abs(b) < 1e100)
        props = {"a": a, "b": b}
        constraint = Constraint("a + b")
        assert constraint.value(props) == a + b
        product = Constraint("a * b").value(props)
        assert product == a * b


# ---------------------------------------------------------------------------
# Event loop ordering
# ---------------------------------------------------------------------------

class TestEventLoopProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                              allow_nan=False), max_size=40))
    def test_events_fire_in_time_order(self, delays):
        loop = EventLoop()
        fired = []
        for delay in delays:
            loop.schedule(delay, lambda: fired.append(loop.now))
        loop.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(st.lists(st.tuples(
        st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
        st.booleans(),
    ), max_size=30))
    def test_cancelled_events_never_fire(self, plan):
        loop = EventLoop()
        fired = []
        expected = 0
        for delay, cancel in plan:
            handle = loop.schedule(delay, lambda d=delay: fired.append(d))
            if cancel:
                handle.cancel()
            else:
                expected += 1
        loop.run()
        assert len(fired) == expected


# ---------------------------------------------------------------------------
# Machine capacity invariants
# ---------------------------------------------------------------------------

class TestMachineProperties:
    @given(st.lists(st.tuples(
        st.sampled_from(["alloc", "release", "owner"]),
        st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
    ), max_size=60))
    def test_capacity_never_violated(self, ops):
        machine = Machine("m", MachineSpec(mips=1000, ram_mb=256))
        live = []
        counter = 0
        for op, amount in ops:
            if op == "alloc":
                counter += 1
                task_id = f"t{counter}"
                try:
                    machine.allocate(task_id, amount, amount * 10)
                    live.append(task_id)
                except InsufficientResources:
                    pass
            elif op == "release" and live:
                machine.release(live.pop())
            elif op == "owner":
                machine.set_owner_load(amount, amount * 100, True)
            # Invariants after every operation.  Owner load may arrive
            # *after* an allocation (the grid is then throttled, not
            # revoked), so the strong bound is on effective rates, not
            # on allocations.
            assert 0.0 <= machine.grid_cpu <= 1.0 + 1e-9
            assert machine.grid_mem_mb <= machine.spec.ram_mb + 1e-6
            grid_rate_total = sum(
                machine.grid_task_rate_mips(task_id) for task_id in live
            )
            available = machine.spec.mips * (1.0 - machine.owner_cpu)
            assert grid_rate_total <= available + 1e-6
            assert machine.owner_received_cpu() == machine.owner_cpu

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
           st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_fair_share_conserves_cpu(self, owner, grid):
        assume(grid > 0.01)
        machine = Machine("m", MachineSpec(), scheduling="fair_share")
        machine.set_owner_load(owner, 0.0, True)
        try:
            machine.allocate("t", grid, 1.0)
        except InsufficientResources:
            assume(False)
        total = machine.owner_received_cpu() + \
            machine.grid_task_rate_mips("t") / machine.spec.mips
        assert total <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# Misc invariants
# ---------------------------------------------------------------------------

class TestMetricProperties:
    @given(st.lists(finite_floats, min_size=1, max_size=50),
           st.floats(min_value=0, max_value=100, allow_nan=False))
    def test_percentile_bounded(self, values, q):
        result = percentile(values, q)
        assert min(values) <= result <= max(values)

    @given(st.lists(finite_floats, min_size=1, max_size=50),
           st.floats(min_value=0, max_value=99, allow_nan=False),
           st.floats(min_value=0.01, max_value=1.0, allow_nan=False))
    def test_percentile_monotone_in_q(self, values, q, dq):
        assert percentile(values, q) <= percentile(values, min(100, q + dq))


class TestIorProperties:
    names = st.text(min_size=1, max_size=30)

    @given(names, names, st.lists(
        st.tuples(st.sampled_from(["inproc", "tcp"]), names),
        min_size=1, max_size=3,
    ))
    def test_roundtrip(self, interface, key, endpoints):
        ref = ObjectRef(interface, key, tuple(endpoints))
        assert ObjectRef.from_string(ref.to_string()) == ref


class TestConstraintFuzz:
    """The parser must raise ConstraintError (never anything else) on
    arbitrary text, and evaluation must never raise at all."""

    token_soup = st.text(
        alphabet="abcxyz0123456789 +-*/()<>=!&|'\".", max_size=60
    )

    @given(token_soup)
    @settings(max_examples=300)
    def test_parse_raises_only_constraint_error(self, text):
        try:
            constraint = Constraint(text)
        except ConstraintError:
            return
        # Parsed OK: evaluating over any property set must not raise,
        # and must agree with the seed interpreter.
        for props in ({"a": 1.0, "b": "x"}, {}):
            assert constraint.matches(props) \
                == constraint_oracle.matches(text, props)

    @given(st.dictionaries(
        st.sampled_from(["mips", "ram_mb", "cpu_free", "os"]),
        st.one_of(finite_floats, st.sampled_from(["linux", "windows"])),
        max_size=4,
    ))
    def test_trader_results_always_satisfy_the_constraint(self, props):
        from repro.apps.constraints import Constraint
        from repro.orb.trading import TradingService

        trader = TradingService()
        trader.export("node", "IOR:x", props)
        constraint = "mips >= 500 && cpu_free >= 0.5"
        matcher = Constraint(constraint)
        for offer in trader.query("node", constraint=constraint):
            assert matcher.matches(offer["properties"])


# ---------------------------------------------------------------------------
# Admission rule: ResourceRequirements.constraint
# ---------------------------------------------------------------------------

#: Shared by minima and node properties, so boundaries (equal values)
#: come up often; 1e-05 and 1e+20 are written with an exponent.
ADMISSION_NUMBERS = [0.0, 1e-05, 0.5, 16.0, 500.0, 1000.0, 1500.5, 1e20]
ADMISSION_PLATFORMS = ["linux", "windows", "", "x86", "sparc", "it's"]
ADMISSION_EXTRAS = [
    "", "   ", "cpu_free >= 0.5", "mips > 1000 || ram_mb >= 512",
    '!(os == "windows")', "net_free_mbps > 10 && owner_active == false",
    "grid_tasks < 2", "mips * cpu_free >= 500", "missing > 0",
]

admission_numbers = st.one_of(
    st.sampled_from(ADMISSION_NUMBERS),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)
admission_platforms = st.one_of(
    st.sampled_from(ADMISSION_PLATFORMS),
    st.text(max_size=8).filter(lambda text: '"' not in text),
)
admission_requirements = st.builds(
    ResourceRequirements,
    min_mips=admission_numbers,
    min_ram_mb=admission_numbers,
    min_disk_mb=admission_numbers,
    min_net_mbps=admission_numbers,
    os=st.none() | admission_platforms,
    arch=st.none() | admission_platforms,
    extra=st.sampled_from(ADMISSION_EXTRAS),
)
def node_statuses(reqs: ResourceRequirements):
    """Every field of a NodeStatus, as the GRM's Trader stores it; the
    fields a requirement bounds often sit exactly on its value."""
    def near(value, pool):
        return pool if value is None else st.one_of(st.just(value), pool)

    return st.fixed_dictionaries({
        "node": st.sampled_from(["n0", "n1"]),
        "time": admission_numbers,
        "mips": near(reqs.min_mips, admission_numbers),
        "ram_mb": near(reqs.min_ram_mb, admission_numbers),
        "disk_mb": near(reqs.min_disk_mb, admission_numbers),
        "os": near(reqs.os, admission_platforms),
        "arch": near(reqs.arch, admission_platforms),
        "cpu_free": st.floats(min_value=0.0, max_value=1.0),
        "mem_free_mb": admission_numbers,
        "disk_free_mb": admission_numbers,
        "net_mbps": near(reqs.min_net_mbps, admission_numbers),
        "net_free_mbps": admission_numbers,
        "owner_active": st.booleans(),
        "sharing": st.booleans(),
        "grid_tasks": st.integers(min_value=0, max_value=4),
    })


class TestAdmissionRule:
    @settings(max_examples=500, deadline=None)
    @given(admission_requirements.flatmap(
        lambda reqs: st.tuples(st.just(reqs), node_statuses(reqs))))
    def test_constraint_match_is_the_field_by_field_check(self, case):
        reqs, props = case
        assert reqs.satisfied_by(props) \
            == requirements_oracle.satisfied_by(reqs, props), \
            (reqs.constraint, props)


class TestNetworkProperties:
    segment_names = st.lists(
        st.text(alphabet="abcdef", min_size=1, max_size=4),
        min_size=2, max_size=5, unique=True,
    )

    @given(segment_names, st.data())
    def test_link_between_is_symmetric(self, names, data):
        from repro.sim.network import NetworkTopology

        topo = NetworkTopology()
        for name in names:
            topo.add_segment(
                name,
                bandwidth_mbps=data.draw(
                    st.floats(min_value=1.0, max_value=1000.0)
                ),
            )
        # Random spanning-ish edges.
        for a, b in zip(names, names[1:]):
            topo.connect(a, b, data.draw(
                st.floats(min_value=1.0, max_value=1000.0)
            ))
        for i, name in enumerate(names):
            topo.place(f"node{i}", name)
        nodes = [f"node{i}" for i in range(len(names))]
        for a in nodes:
            for b in nodes:
                if a == b:
                    continue
                link_ab = topo.link_between(a, b)
                link_ba = topo.link_between(b, a)
                assert (link_ab is None) == (link_ba is None)
                if link_ab is not None:
                    assert link_ab.bandwidth_mbps == \
                        pytest.approx(link_ba.bandwidth_mbps)

    @given(st.integers(min_value=1, max_value=10**9),
           st.integers(min_value=1, max_value=10**9))
    def test_transfer_time_monotone_in_bytes(self, a, b):
        from repro.sim.network import Link

        link = Link(bandwidth_mbps=100.0, latency_ms=1.0)
        lo, hi = sorted((a, b))
        assert link.transfer_seconds(lo) <= link.transfer_seconds(hi)


class TestTraceProperties:
    events_strategy = st.lists(
        st.tuples(
            st.booleans(),
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            st.floats(min_value=0.0, max_value=512.0, allow_nan=False),
        ),
        min_size=1, max_size=30,
    )

    @given(events_strategy)
    def test_dump_parse_roundtrip(self, rows):
        from repro.sim.trace import TraceEvent, dump_trace, parse_trace

        events = [
            TraceEvent(
                time=float(i * 10),
                present=present,
                cpu_fraction=round(cpu, 4),
                mem_mb=round(mem, 1),
            )
            for i, (present, cpu, mem) in enumerate(rows)
        ]
        parsed = parse_trace(dump_trace(events))
        assert len(parsed) == len(events)
        for original, back in zip(events, parsed):
            assert back.present == original.present
            assert back.cpu_fraction == pytest.approx(
                original.cpu_fraction, abs=1e-4
            )
            assert back.mem_mb == pytest.approx(original.mem_mb, abs=0.1)


class TestLupaProperties:
    @given(st.floats(min_value=0.0, max_value=6.9e5, allow_nan=False),
           st.floats(min_value=1.0, max_value=1e5, allow_nan=False))
    def test_idle_probability_bounded_and_monotone(self, start, duration):
        from repro.core.lupa import Lupa
        loop = EventLoop()
        lupa = Lupa(loop, "n", probe=lambda: 0.3, min_history_days=1)
        loop.run_until(2 * 86400.0)
        assert lupa.learned
        p_short = lupa.idle_probability(start, duration)
        p_long = lupa.idle_probability(start, duration * 2)
        assert 0.0 <= p_long <= p_short <= 1.0


class TestOrbDispatchFuzz:
    """The ORB must answer *any* byte soup with a marshalled error reply,
    never crash or hang."""

    @given(st.binary(max_size=300))
    @settings(max_examples=200)
    def test_garbage_requests_yield_error_replies(self, junk):
        from repro.orb.core import Orb, _STATUS_EXCEPTION
        from repro.orb.transport import InProcDomain

        orb = Orb(domain=InProcDomain())
        try:
            reply = orb.handle_request_bytes(junk)
            dec = CdrDecoder(reply)
            assert dec.read_octet() == _STATUS_EXCEPTION
            # The reply itself must be well-formed: type + message.
            dec.read_string()
            dec.read_string()
        finally:
            orb.shutdown()

    @given(st.binary(max_size=200))
    @settings(max_examples=100)
    def test_auth_required_orb_rejects_garbage(self, junk):
        from repro.orb.core import Orb, _STATUS_EXCEPTION
        from repro.orb.transport import InProcDomain
        from repro.security.auth import KeyRing

        ring = KeyRing()
        ring.add("a", b"k")
        orb = Orb(domain=InProcDomain(), keyring=ring, require_auth=True)
        try:
            reply = orb.handle_request_bytes(junk)
            dec = CdrDecoder(reply)
            assert dec.read_octet() == _STATUS_EXCEPTION
            exc_type = dec.read_string()
            assert exc_type in ("AuthenticationError", "MarshalError")
        finally:
            orb.shutdown()


class TestBspMessageProperties:
    @given(st.integers(min_value=1, max_value=6), st.data())
    def test_exchange_delivers_everything_exactly_once(self, nprocs, data):
        buffers = MessageBuffers(nprocs)
        sends = data.draw(st.lists(st.tuples(
            st.integers(0, nprocs - 1),
            st.integers(0, nprocs - 1),
            st.integers(-1000, 1000),
        ), max_size=40))
        for sender, dest, payload in sends:
            buffers.send(sender, dest, (sender, payload))
        buffers.exchange()
        delivered = [
            message
            for pid in range(nprocs)
            for message in buffers.inbox(pid)
        ]
        assert sorted(delivered) == sorted(
            (sender, payload) for sender, dest, payload in sends
        )
        # A second exchange with no sends clears every inbox.
        buffers.exchange()
        assert all(buffers.inbox(pid) == [] for pid in range(nprocs))
