"""Unit tests for CDR marshalling."""

import pytest

from repro.orb.cdr import (
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
