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
    VARIANT,
    Void,
)
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


def encoded(encode, value):
    """The bytes ``encode`` writes for ``value``, or what it raised."""
    enc = CdrEncoder()
    enc.write_octet(9)          # start off every alignment boundary
    try:
        encode(enc, value)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return enc.getvalue()


def decoded(decode, data):
    """``(repr(value), end)`` as ``decode`` reads ``data``, or the error."""
    dec = CdrDecoder(data)
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


def _wire(value):
    enc = CdrEncoder()
    VARIANT.encode(enc, value)
    return enc.getvalue()


_valid = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2**63, 2**63 - 1),
              st.floats(), st.text(max_size=8), st.binary(max_size=8)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=6), inner,
                                            max_size=3)),
    max_leaves=12,
)


@st.composite
def mutated_wire(draw):
    """A valid Variant's bytes, with bytes flipped, cut off or inserted."""
    data = bytearray(_wire(draw(_valid)))
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
            encoded(oracle.encode, value)

    def _same_decode(self, data):
        ours, seed = decoded(VARIANT.decode, data), \
            decoded(oracle.decode, data)
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
