"""Unit tests for CDR marshalling."""

import collections
import enum
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.orb.cdr import (
    MAX_VARIANT_DEPTH,
    Boolean,
    CdrDecoder,
    CdrEncoder,
    Double,
    Enum,
    Long,
    LongLong,
    MarshalError,
    Octet,
    Octets,
    Sequence,
    Short,
    String,
    Struct,
    ULong,
    UShort,
    Union,
    VARIANT,
    Void,
)
from repro.core.protocols import (
    CLUSTER_SUMMARY,
    JOB_STATUS,
    NODE_STATUS,
    RESERVATION_REPLY,
    RESERVATION_REQUEST,
    TASK_LAUNCH,
)
from repro.orb.ior import _REF
from repro.orb.trading import OFFER_STRUCT
from tests.oracles import cdr as oracle


def roundtrip(idl_type, value):
    enc = CdrEncoder()
    idl_type.encode(enc, value)
    return idl_type.decode(CdrDecoder(enc.getvalue()))


class TestPrimitives:
    @pytest.mark.parametrize("idl_type,value", [
        (Boolean, True),
        (Boolean, False),
        (Octet, 0),
        (Octet, 255),
        (Short, -32768),
        (UShort, 65535),
        (Long, -2**31),
        (ULong, 2**32 - 1),
        (LongLong, -2**63),
        (Double, 3.141592653589793),
        (Double, 0.0),
        (String, "hello"),
        (String, ""),
        (String, "unicode: ação ✓"),
        (Octets, b"\x00\x01\xff"),
        (Octets, b""),
    ])
    def test_roundtrip(self, idl_type, value):
        assert roundtrip(idl_type, value) == value

    def test_void(self):
        assert roundtrip(Void, None) is None

    def test_void_rejects_values(self):
        with pytest.raises(MarshalError):
            roundtrip(Void, 42)

    def test_out_of_range_rejected(self):
        with pytest.raises(MarshalError):
            roundtrip(Octet, 256)
        with pytest.raises(MarshalError):
            roundtrip(Long, 2**40)

    def test_string_type_checked(self):
        with pytest.raises(MarshalError):
            roundtrip(String, 42)

    def test_string_must_be_utf8_encodable(self):
        with pytest.raises(MarshalError, match="not UTF-8-encodable"):
            roundtrip(String, "a\ud800")


class TestAlignment:
    def test_double_is_8_aligned(self):
        enc = CdrEncoder()
        enc.write_octet(1)
        enc.write_double(2.0)
        data = enc.getvalue()
        assert len(data) == 16   # 1 byte + 7 padding + 8
        dec = CdrDecoder(data)
        assert dec.read_octet() == 1
        assert dec.read_double() == 2.0

    def test_long_is_4_aligned(self):
        enc = CdrEncoder()
        enc.write_octet(1)
        enc.write_long(7)
        assert len(enc.getvalue()) == 8

    def test_interleaved_alignment_roundtrip(self):
        enc = CdrEncoder()
        enc.write_boolean(True)
        enc.write_short(5)
        enc.write_octet(9)
        enc.write_double(1.5)
        enc.write_string("x")
        dec = CdrDecoder(enc.getvalue())
        assert dec.read_boolean() is True
        assert dec.read_short() == 5
        assert dec.read_octet() == 9
        assert dec.read_double() == 1.5
        assert dec.read_string() == "x"


class TestComposites:
    def test_sequence_of_longs(self):
        assert roundtrip(Sequence(Long), [1, -2, 3]) == [1, -2, 3]

    def test_empty_sequence(self):
        assert roundtrip(Sequence(String), []) == []

    def test_nested_sequence(self):
        t = Sequence(Sequence(Double))
        assert roundtrip(t, [[1.0], [], [2.0, 3.0]]) == [[1.0], [], [2.0, 3.0]]

    def test_sequence_type_checked(self):
        with pytest.raises(MarshalError):
            roundtrip(Sequence(Long), "not a list")

    def test_struct(self):
        t = Struct("Point", [("x", Double), ("y", Double)])
        assert roundtrip(t, {"x": 1.0, "y": -2.0}) == {"x": 1.0, "y": -2.0}

    def test_struct_missing_field(self):
        t = Struct("Point", [("x", Double), ("y", Double)])
        with pytest.raises(MarshalError):
            roundtrip(t, {"x": 1.0})

    def test_struct_duplicate_fields_rejected(self):
        with pytest.raises(ValueError):
            Struct("Bad", [("x", Double), ("x", Long)])

    def test_struct_of_sequences(self):
        t = Struct("Box", [("names", Sequence(String)), ("id", ULong)])
        value = {"names": ["a", "b"], "id": 7}
        assert roundtrip(t, value) == value

    def test_enum(self):
        t = Enum("Color", ["red", "green", "blue"])
        assert roundtrip(t, "green") == "green"

    def test_enum_unknown_member(self):
        t = Enum("Color", ["red"])
        with pytest.raises(MarshalError):
            roundtrip(t, "pink")


class TestVariant:
    @pytest.mark.parametrize("value", [
        None,
        True,
        False,
        42,
        -7,
        2.5,
        "text",
        b"bytes",
        [1, "two", 3.0],
        {"cpu_free": 0.5, "os": "linux", "tags": ["a", "b"]},
        {"nested": {"deep": [1, {"deeper": None}]}},
    ])
    def test_roundtrip(self, value):
        assert roundtrip(VARIANT, value) == value

    def test_bool_not_confused_with_int(self):
        assert roundtrip(VARIANT, True) is True
        assert roundtrip(VARIANT, 1) == 1
        assert not isinstance(roundtrip(VARIANT, 1), bool)

    def test_unsupported_type_rejected(self):
        with pytest.raises(MarshalError):
            roundtrip(VARIANT, object())

    def test_non_string_dict_keys_rejected(self):
        with pytest.raises(MarshalError):
            roundtrip(VARIANT, {1: "x"})

    @pytest.mark.parametrize("value", ["\udfff", {"\ud800": 1},
                                       [{"k": ["ok", "\ud800"]}]],
                             ids=["value", "key", "nested"])
    def test_lone_surrogate_is_a_marshal_error_as_in_the_seed(self, value):
        ours = encoded(VARIANT.encode, value)
        assert ours[0] == "MarshalError"
        assert "not UTF-8-encodable" in ours[1]
        assert ours == encoded(oracle.encode, value, oracle.Encoder)


class TestDecoderRobustness:
    def test_underrun(self):
        with pytest.raises(MarshalError):
            CdrDecoder(b"\x01").read_double()

    def test_string_underrun(self):
        enc = CdrEncoder()
        enc.write_ulong(100)
        with pytest.raises(MarshalError):
            CdrDecoder(enc.getvalue()).read_string()

    def test_truncated_string_not_terminated(self):
        enc = CdrEncoder()
        enc.write_string("ok")
        data = bytearray(enc.getvalue())
        data[-1] = 7   # corrupt the NUL
        with pytest.raises(MarshalError):
            CdrDecoder(bytes(data)).read_string()

    def test_remaining(self):
        enc = CdrEncoder()
        enc.write_ulong(1)
        dec = CdrDecoder(enc.getvalue())
        assert dec.remaining == 4
        dec.read_ulong()
        assert dec.remaining == 0

    BLOB = b"\x00\x01\xff" * 100

    def _payload(self):
        enc = CdrEncoder()
        enc.write_string("chunk-0")
        enc.write_ulong(7)
        enc.write_octets(self.BLOB)
        enc.write_double(2.5)
        return enc.getvalue()

    @pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
    def test_any_buffer_type_decodes_in_place(self, wrap):
        dec = CdrDecoder(wrap(self._payload()))
        assert dec.read_string() == "chunk-0"
        assert dec.read_ulong() == 7
        assert dec.read_octets() == self.BLOB
        assert dec.read_double() == 2.5
        assert dec.remaining == 0

    @pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
    def test_octets_are_owning_bytes(self, wrap):
        # Whatever the buffer, octets come out as ``bytes`` — the type a
        # collocated call hands the servant — and own their storage:
        # callers stash them past the buffer's lifetime.
        backing = bytearray(self._payload())
        dec = CdrDecoder(wrap(backing))
        dec.read_string()
        dec.read_ulong()
        blob = dec.read_octets()
        backing[:] = bytes(len(backing))
        assert type(blob) is bytes
        assert blob == self.BLOB

    def test_memoryview_underrun_still_raises(self):
        with pytest.raises(MarshalError):
            CdrDecoder(memoryview(b"\x01")).read_double()


# -- the Variant codec against the seed's -------------------------------------

class Colour(enum.IntEnum):
    RED = 1
    HUGE = 2**70


class Tag(str):
    pass


class Mood(str, enum.Enum):
    CALM = "calm"


class Fraction(float):
    pass


Pair = collections.namedtuple("Pair", "left right")


def encoded(encode, value, encoder=CdrEncoder):
    """The bytes ``encode`` writes for ``value``, or what it raised."""
    enc = encoder()
    enc.write_octet(9)          # start off every alignment boundary
    try:
        encode(enc, value)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return enc.getvalue()


def decoded(decode, data, decoder=CdrDecoder):
    """``(repr(value), end)`` as ``decode`` reads ``data``, or the error."""
    dec = decoder(data)
    try:
        value = decode(dec)
    except (MarshalError, RecursionError, UnicodeDecodeError) as exc:
        return type(exc), str(exc)
    return repr(value), len(data) - dec.remaining


_leaves = st.one_of(
    st.none(), st.booleans(),
    st.integers(min_value=-2**64, max_value=2**64),       # some out of range
    st.floats(allow_nan=True), st.text(max_size=12), st.binary(max_size=12),
    st.sampled_from([Colour.RED, Colour.HUGE, Mood.CALM, Tag("tag"),
                     Fraction(0.5), object(), frozenset({1}), 1j]),
    st.builds(bytearray, st.binary(max_size=4)),
    st.builds(memoryview, st.binary(max_size=4)),
    st.builds(lambda: memoryview(b"wide").cast("H")),   # 2 items, 4 bytes
)
_keys = st.one_of(st.text(max_size=8), st.sampled_from([Tag("k"), Mood.CALM]),
                  st.integers(0, 3), st.none())
variants = st.recursive(_leaves, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.lists(inner, max_size=4).map(tuple),
    st.builds(Pair, inner, inner),
    st.dictionaries(_keys, inner, max_size=4),
    st.dictionaries(_keys, inner, max_size=4).map(collections.OrderedDict),
), max_leaves=24)


def _wire(value, idl_type=VARIANT):
    enc = CdrEncoder()
    idl_type.encode(enc, value)
    return enc.getvalue()


_valid = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2**63, 2**63 - 1),
              st.floats(), st.text(max_size=8), st.binary(max_size=8)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=6), inner,
                                            max_size=3)),
    max_leaves=12,
)


_INT_RANGES = {"octet": (0, 2**8 - 1), "short": (-2**15, 2**15 - 1),
               "ushort": (0, 2**16 - 1), "long": (-2**31, 2**31 - 1),
               "ulong": (0, 2**32 - 1), "longlong": (-2**63, 2**63 - 1)}
_SCALARS = {"boolean": st.booleans(), "double": st.floats(),
            "string": st.text(max_size=8), "octets": st.binary(max_size=8)}


def values_of(idl_type):
    """The values ``idl_type`` carries, as a strategy."""
    if isinstance(idl_type, Struct):
        return st.fixed_dictionaries(
            {fname: values_of(ftype) for fname, ftype in idl_type.fields})
    if isinstance(idl_type, Union):
        dname = idl_type.discriminator[0]
        return st.one_of([
            values_of(arm).map(lambda arm_value, label=label:
                               {dname: label, **arm_value})
            for label, arm in idl_type.arms.items()])
    if isinstance(idl_type, Sequence):
        return st.lists(values_of(idl_type.element), max_size=3)
    if idl_type is VARIANT:
        return _valid
    if idl_type.name in _INT_RANGES:
        return st.integers(*_INT_RANGES[idl_type.name])
    return _SCALARS[idl_type.name]


@st.composite
def mutated_wire(draw, idl_type=VARIANT):
    """A valid value's bytes, with bytes flipped, cut off or inserted."""
    data = bytearray(_wire(draw(values_of(idl_type)), idl_type))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(["flip", "cut", "insert"]))
        if kind == "flip" and at < len(data):
            data[at] = draw(st.integers(0, 255))
        elif kind == "cut":
            del data[at:]
        else:
            data[at:at] = draw(st.binary(min_size=1, max_size=4))
    return bytes(data)


class TestVariantAgainstOracle:
    """One encode and one decode function, held to the seed's method
    bodies (``tests/oracles/cdr.py``): the same bytes or the same
    ``MarshalError`` text, the same value and end position."""

    @settings(max_examples=400, deadline=None)
    @given(variants)
    def test_encode_writes_the_seeds_bytes_or_raises_its_error(self, value):
        assert encoded(VARIANT.encode, value) == \
            encoded(oracle.encode, value, oracle.Encoder)

    def _same_decode(self, data):
        ours, seed = decoded(VARIANT.decode, data), \
            decoded(oracle.decode, data, oracle.Decoder)
        if seed[0] in (RecursionError, UnicodeDecodeError):
            assert ours[0] is MarshalError      # the oracle lets these out
        else:
            assert ours == seed

    @settings(max_examples=400, deadline=None)
    @given(st.binary(max_size=64))
    def test_arbitrary_bytes_decode_as_the_seed_decodes_them(self, data):
        self._same_decode(data)

    @settings(max_examples=400, deadline=None)
    @given(mutated_wire())
    def test_mutated_bytes_decode_as_the_seed_decodes_them(self, data):
        self._same_decode(data)

    @pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
    def test_every_buffer_type_decodes_alike(self, wrap):
        value = {"blob": b"\x00\x01", "name": "n\u00e4me",
                 "xs": [1, 2.5, None]}
        dec = CdrDecoder(wrap(_wire(value)))
        assert VARIANT.decode(dec) == value
        assert dec.remaining == 0


def _nested(depth):
    value = None
    for _ in range(depth):
        value = [value]
    return value


def _deep_list_wire(depth):
    # Each level: tag 6, three bytes of padding, count 1; then a None.
    return b"\x06\x00\x00\x00\x01\x00\x00\x00" * depth + b"\x00"


class TestVariantHostileInput:
    """Whatever the bytes, decoding raises :class:`MarshalError` or
    returns; nothing else escapes."""

    def test_nesting_up_to_the_bound_round_trips(self):
        value = _nested(MAX_VARIANT_DEPTH)
        assert roundtrip(VARIANT, value) == value
        assert VARIANT.decode(CdrDecoder(_deep_list_wire(MAX_VARIANT_DEPTH))) \
            == value

    def test_nesting_past_the_bound_is_refused_on_encode(self):
        with pytest.raises(MarshalError, match="deeper than"):
            VARIANT.encode(CdrEncoder(), _nested(MAX_VARIANT_DEPTH + 1))
        loop = []
        loop.append(loop)
        with pytest.raises(MarshalError, match="deeper than"):
            VARIANT.encode(CdrEncoder(), loop)

    @pytest.mark.parametrize("depth", [MAX_VARIANT_DEPTH + 1, 5_000])
    def test_nesting_past_the_bound_is_refused_on_decode(self, depth):
        with pytest.raises(MarshalError, match="deeper than"):
            VARIANT.decode(CdrDecoder(_deep_list_wire(depth)))

    @pytest.mark.parametrize("wire", [
        b"\x04\x00\x00\x00" + struct.pack("<I", 3) + b"\xff\xfe\x00",
        b"\x07\x00\x00\x00" + struct.pack("<II", 1, 3) + b"\xff\xfe\x00\x00",
    ], ids=["value", "key"])
    def test_invalid_utf8_is_refused(self, wire):
        with pytest.raises(MarshalError, match="UTF-8"):
            VARIANT.decode(CdrDecoder(wire))

    def test_invalid_utf8_string_is_refused(self):
        with pytest.raises(MarshalError, match="UTF-8"):
            CdrDecoder(struct.pack("<I", 3) + b"\xc3\x28\x00").read_string()


# -- structs, unions and sequences against the seed's ------------------------

#: Every struct, union and sequence ``src/`` declares.
DECLARED = [NODE_STATUS, RESERVATION_REQUEST, RESERVATION_REPLY, TASK_LAUNCH,
            CLUSTER_SUMMARY, JOB_STATUS, OFFER_STRUCT, _REF, Sequence(String)]
_declared = pytest.mark.parametrize("idl_type", DECLARED,
                                    ids=[t.name for t in DECLARED])

#: Values no field of that type can carry (a Boolean takes anything).
_BAD = {"string": [42, None, b"bytes", "lone \ud800"],
        "double": ["x", None, [1.0]],
        "long": [2**31, -2**31 - 1, 1.5, "7"],
        "variant": [object(), {1: "int key"}, "\udfff", 2**64,
                    [{"k": "\ud800"}]],
        "boolean": [object()]}


def _break_fields(draw, struct, value):
    """``value`` with one field dropped or given a value it cannot carry."""
    fname, ftype = draw(st.sampled_from(struct.fields))
    if draw(st.booleans()):
        del value[fname]
    else:
        value[fname] = draw(broken(ftype))
    return value


@st.composite
def broken(draw, idl_type):
    """A value of ``idl_type`` with one thing wrong somewhere in it."""
    if isinstance(idl_type, Struct):
        if draw(st.integers(0, 4)) == 0:
            return list(draw(values_of(idl_type)).values())   # not a dict
        return _break_fields(draw, idl_type, draw(values_of(idl_type)))
    if isinstance(idl_type, Union):
        dname = idl_type.discriminator[0]
        label, arm = draw(st.sampled_from(list(idl_type.arms.items())))
        value = {dname: label, **draw(values_of(arm))}
        how = draw(st.sampled_from(["no discriminator", "no arm", "arm"]))
        if how == "no discriminator":
            del value[dname]
        elif how == "no arm":
            value[dname] = "maybe"
        else:
            value = {dname: label, **_break_fields(draw, arm, value)}
        return value
    if isinstance(idl_type, Sequence):
        if draw(st.integers(0, 3)) == 0:
            return "not a list"
        items = draw(st.lists(values_of(idl_type.element), max_size=2))
        items.insert(draw(st.integers(0, len(items))),
                     draw(broken(idl_type.element)))
        return items
    return draw(st.sampled_from(_BAD[idl_type.name]))


def _ours_and_seeds(idl_type, data):
    return (decoded(idl_type.decode, data),
            decoded(lambda dec: oracle.decode_as(idl_type, dec), data,
                    oracle.Decoder))


def _seed_encoded(idl_type, value):
    return encoded(lambda enc, v: oracle.encode_as(idl_type, enc, v), value,
                   oracle.Encoder)


class TestStructsAgainstOracle:
    """Structs, unions and sequences write and read through their
    members' raw-buffer ``write`` / ``read``; the seed marshalled them
    member by member through the encoder's and decoder's methods
    (``tests/oracles/cdr.py``).  Same bytes, same value and end, same
    ``MarshalError`` text — and hostile bytes raise nothing else."""

    @_declared
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_values_encode_to_the_seeds_bytes_and_decode_to_its_value(
            self, idl_type, data):
        value = data.draw(values_of(idl_type))
        assert encoded(idl_type.encode, value) == \
            _seed_encoded(idl_type, value)
        wire = _wire(value, idl_type)
        ours, seed = _ours_and_seeds(idl_type, wire)
        assert ours == seed
        assert ours[1] == len(wire)

    @_declared
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_a_broken_value_raises_the_seeds_error(self, idl_type, data):
        value = data.draw(broken(idl_type))
        assert encoded(idl_type.encode, value) == \
            _seed_encoded(idl_type, value)

    @_declared
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_hostile_bytes_raise_only_marshal_error(self, idl_type, data):
        wire = data.draw(st.one_of(st.binary(max_size=96),
                                   mutated_wire(idl_type)))
        ours, seed = _ours_and_seeds(idl_type, wire)
        assert ours[0] is not RecursionError
        assert ours == seed

    @pytest.mark.parametrize("idl_type,value,message", [
        (NODE_STATUS, {"node": "n"}, "NodeStatus missing field 'time'"),
        (JOB_STATUS, ["job"], "expected dict for struct JobStatus"),
        (TASK_LAUNCH, dict.fromkeys(
            [f for f, _ in TASK_LAUNCH.fields], 7), "expected str, got int"),
        (CLUSTER_SUMMARY, {"cluster": "c", "time": 0.0, "nodes": 2**31},
         "cannot pack 2147483648 as '<i'"),
        (Sequence(String), ["ok", "\ud800"], "not UTF-8-encodable"),
        (RESERVATION_REPLY, {"accepted": True}, "missing field 'reason'"),
    ], ids=["missing field", "not a dict", "not a str", "int out of range",
            "not UTF-8", "union arm"])
    def test_each_kind_of_bad_value_is_a_marshal_error(
            self, idl_type, value, message):
        ours = encoded(idl_type.encode, value)
        assert ours[0] == "MarshalError" and message in ours[1]
        assert ours == _seed_encoded(idl_type, value)

    def test_a_union_label_with_no_arm_is_refused_both_ways(self):
        shape = Union("Shape", ("kind", Long),
                      {0: [("r", Double)], 1: [("w", Double), ("h", Double)]})
        ours = encoded(shape.encode, {"kind": 7, "r": 1.0})
        assert ours == ("MarshalError", "union Shape has no arm 7")
        assert ours == _seed_encoded(shape, {"kind": 7, "r": 1.0})
        ours, seed = _ours_and_seeds(shape, struct.pack("<id", 7, 1.0))
        assert ours == seed == (MarshalError, "union Shape has no arm 7")

    def test_a_job_status_reply_is_a_fraction_of_its_variant(self):
        reply = {"job_id": "c-job1", "name": "job", "state": "running",
                 "progress": 0.25, "submitted_at": 60.0,
                 "completed_at": None, "tasks": [
                     {"task_id": f"c-job1.{i}", "state": "running",
                      "node": f"n{i}", "progress_mips": 10.0, "attempts": 1,
                      "evictions": 0, "result": None} for i in range(8)]}
        typed, variant = _wire(reply, JOB_STATUS), _wire(reply)
        assert JOB_STATUS.decode(CdrDecoder(typed)) == reply
        assert len(typed) * 2 < len(variant)
