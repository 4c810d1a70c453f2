"""The seed CDR codec: encoder and decoder methods with their own
bodies, one ``isinstance`` chain and one decoder method call per
Variant value, and structs, unions and sequences marshalled member by
member through those methods.

``repro.orb.cdr`` gives every IDL type one raw-buffer writer and one
reader, shared by :class:`~repro.orb.cdr.CdrEncoder` /
:class:`~repro.orb.cdr.CdrDecoder`, and encodes a Variant with one
function that dispatches on the exact type; ``tests/test_orb_cdr.py``
holds all of it to these bodies — the same bytes, the same value and end
position, the same ``MarshalError`` text.
"""

import struct as _struct

from repro.orb.cdr import Enum, Sequence, Struct, Union, Variant
from repro.orb.exceptions import MarshalError

_NONE, _BOOL, _LONGLONG, _DOUBLE, _STRING, _BYTES, _LIST, _DICT = range(8)

_S_OCTET = _struct.Struct("<B")
_S_SHORT = _struct.Struct("<h")
_S_USHORT = _struct.Struct("<H")
_S_LONG = _struct.Struct("<i")
_S_ULONG = _struct.Struct("<I")
_S_LONGLONG = _struct.Struct("<q")
_S_DOUBLE = _struct.Struct("<d")


def _underrun(size, pos, data):
    return MarshalError(
        f"buffer underrun: need {size} bytes at {pos}, have {len(data) - pos}")


class Encoder:
    """The seed ``CdrEncoder``: pad, then pack, one method per primitive."""

    def __init__(self):
        self._buf = bytearray()

    def _pack(self, packer, size, value):
        buf = self._buf
        remainder = len(buf) % size
        if remainder:
            buf.extend(bytes(size - remainder))
        try:
            buf.extend(packer.pack(value))
        except _struct.error as exc:
            raise MarshalError(
                f"cannot pack {value!r} as {packer.format!r}: {exc}"
            ) from exc

    def write_octet(self, value):
        try:
            self._buf.extend(_S_OCTET.pack(value))
        except _struct.error as exc:
            raise MarshalError(
                f"cannot pack {value!r} as '<B': {exc}"
            ) from exc

    def write_boolean(self, value):
        self.write_octet(1 if value else 0)

    def write_short(self, value):
        self._pack(_S_SHORT, 2, value)

    def write_ushort(self, value):
        self._pack(_S_USHORT, 2, value)

    def write_long(self, value):
        self._pack(_S_LONG, 4, value)

    def write_ulong(self, value):
        self._pack(_S_ULONG, 4, value)

    def write_longlong(self, value):
        self._pack(_S_LONGLONG, 8, value)

    def write_double(self, value):
        self._pack(_S_DOUBLE, 8, float(value))

    def write_string(self, value):
        if not isinstance(value, str):
            raise MarshalError(f"expected str, got {type(value).__name__}")
        try:
            data = value.encode()
        except UnicodeEncodeError as exc:
            raise MarshalError(
                f"string is not UTF-8-encodable: {exc}") from None
        # CDR counts the terminating NUL in the length prefix.
        self.write_ulong(len(data) + 1)
        self._buf.extend(data)
        self._buf.append(0)

    def write_octets(self, value):
        if not isinstance(value, (bytes, bytearray, memoryview)):
            raise MarshalError(f"expected bytes, got {type(value).__name__}")
        self.write_ulong(len(value))
        self._buf.extend(value)

    def getvalue(self):
        return bytes(self._buf)


class Decoder:
    """The seed ``CdrDecoder``: align, check, ``unpack_from``."""

    def __init__(self, data):
        self._data = data
        self._pos = 0

    def _unpack(self, packer, size):
        pos = self._pos
        remainder = pos % size
        if remainder:
            pos += size - remainder
        end = pos + size
        if end > len(self._data):
            raise _underrun(size, pos, self._data)
        (value,) = packer.unpack_from(self._data, pos)
        self._pos = end
        return value

    def read_octet(self):
        return self._unpack(_S_OCTET, 1)

    def read_boolean(self):
        return bool(self._unpack(_S_OCTET, 1))

    def read_short(self):
        return self._unpack(_S_SHORT, 2)

    def read_ushort(self):
        return self._unpack(_S_USHORT, 2)

    def read_long(self):
        return self._unpack(_S_LONG, 4)

    def read_ulong(self):
        return self._unpack(_S_ULONG, 4)

    def read_longlong(self):
        return self._unpack(_S_LONGLONG, 8)

    def read_double(self):
        return self._unpack(_S_DOUBLE, 8)

    def read_string(self):
        length = self.read_ulong()
        if length == 0:
            raise MarshalError("string length must include the NUL terminator")
        pos = self._pos
        end = pos + length
        if end > len(self._data):
            raise MarshalError("buffer underrun reading string body")
        if self._data[end - 1] != 0:
            raise MarshalError("string is not NUL-terminated")
        self._pos = end
        try:
            return str(self._data[pos:end - 1], "utf-8")
        except UnicodeDecodeError as exc:
            raise MarshalError(f"string is not valid UTF-8: {exc}") from None

    def read_octets(self):
        length = self.read_ulong()
        end = self._pos + length
        if end > len(self._data):
            raise MarshalError("buffer underrun reading octet sequence")
        raw = self._data[self._pos:end]
        self._pos = end
        return bytes(raw)

    @property
    def remaining(self):
        return len(self._data) - self._pos


def encode(enc, value) -> None:
    """The seed ``Variant.encode``."""
    if value is None:
        enc.write_octet(_NONE)
    elif isinstance(value, bool):
        enc.write_octet(_BOOL)
        enc.write_boolean(value)
    elif isinstance(value, int):
        enc.write_octet(_LONGLONG)
        enc.write_longlong(value)
    elif isinstance(value, float):
        enc.write_octet(_DOUBLE)
        enc.write_double(value)
    elif isinstance(value, str):
        enc.write_octet(_STRING)
        enc.write_string(value)
    elif isinstance(value, (bytes, bytearray, memoryview)):
        enc.write_octet(_BYTES)
        enc.write_octets(bytes(value))
    elif isinstance(value, (list, tuple)):
        enc.write_octet(_LIST)
        enc.write_ulong(len(value))
        for item in value:
            encode(enc, item)
    elif isinstance(value, dict):
        enc.write_octet(_DICT)
        enc.write_ulong(len(value))
        for key, item in value.items():
            if not isinstance(key, str):
                raise MarshalError("variant dict keys must be strings")
            enc.write_string(key)
            encode(enc, item)
    else:
        raise MarshalError(
            f"variant cannot carry {type(value).__name__} values"
        )


def decode(dec):
    """The seed ``Variant.decode``."""
    tag = dec.read_octet()
    if tag == _NONE:
        return None
    if tag == _BOOL:
        return dec.read_boolean()
    if tag == _LONGLONG:
        return dec.read_longlong()
    if tag == _DOUBLE:
        return dec.read_double()
    if tag == _STRING:
        return dec.read_string()
    if tag == _BYTES:
        return dec.read_octets()
    if tag == _LIST:
        count = dec.read_ulong()
        return [decode(dec) for _ in range(count)]
    if tag == _DICT:
        count = dec.read_ulong()
        return {dec.read_string(): decode(dec) for _ in range(count)}
    raise MarshalError(f"unknown variant tag {tag}")


def encode_as(idl_type, enc, value) -> None:
    """The seed ``idl_type.encode(enc, value)``."""
    if isinstance(idl_type, Struct):
        if not isinstance(value, dict):
            raise MarshalError(
                f"expected dict for struct {idl_type.name}, "
                f"got {type(value).__name__}"
            )
        for fname, ftype in idl_type.fields:
            if fname not in value:
                raise MarshalError(
                    f"struct {idl_type.name} missing field {fname!r}"
                )
            encode_as(ftype, enc, value[fname])
    elif isinstance(idl_type, Sequence):
        if not isinstance(value, (list, tuple)):
            raise MarshalError(
                f"expected list/tuple for {idl_type.name}, "
                f"got {type(value).__name__}"
            )
        enc.write_ulong(len(value))
        for item in value:
            encode_as(idl_type.element, enc, item)
    elif isinstance(idl_type, Union):
        dname, dtype = idl_type.discriminator
        if not isinstance(value, dict) or dname not in value:
            raise MarshalError(f"union {idl_type.name} needs field {dname!r}")
        label = value[dname]
        arm = idl_type.arms.get(label)
        if arm is None:
            raise MarshalError(f"union {idl_type.name} has no arm {label!r}")
        encode_as(dtype, enc, label)
        encode_as(arm, enc, value)
    elif isinstance(idl_type, Enum):
        if value not in idl_type._index:
            raise MarshalError(
                f"{value!r} is not a member of enum {idl_type.name}")
        enc.write_ulong(idl_type._index[value])
    elif isinstance(idl_type, Variant):
        encode(enc, value)
    elif idl_type.name == "void":
        if value is not None:
            raise MarshalError(f"void cannot carry {value!r}")
    elif idl_type.name == "boolean":
        enc.write_boolean(bool(value))
    else:
        getattr(enc, f"write_{idl_type.name}")(value)


def decode_as(idl_type, dec):
    """The seed ``idl_type.decode(dec)``."""
    if isinstance(idl_type, Struct):
        return {fname: decode_as(ftype, dec)
                for fname, ftype in idl_type.fields}
    if isinstance(idl_type, Sequence):
        count = dec.read_ulong()
        return [decode_as(idl_type.element, dec) for _ in range(count)]
    if isinstance(idl_type, Union):
        dname, dtype = idl_type.discriminator
        label = decode_as(dtype, dec)
        arm = idl_type.arms.get(label)
        if arm is None:
            raise MarshalError(f"union {idl_type.name} has no arm {label!r}")
        result = {dname: label}
        result.update(decode_as(arm, dec))
        return result
    if isinstance(idl_type, Enum):
        index = dec.read_ulong()
        if index >= len(idl_type.members):
            raise MarshalError(f"enum {idl_type.name} has no member #{index}")
        return idl_type.members[index]
    if isinstance(idl_type, Variant):
        return decode(dec)
    if idl_type.name == "void":
        return None
    return getattr(dec, f"read_{idl_type.name}")()
