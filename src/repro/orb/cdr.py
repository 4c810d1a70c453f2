"""CDR-flavoured binary marshalling.

Implements the parts of CORBA's Common Data Representation the middleware
needs: aligned little-endian primitives, length-prefixed strings and
sequences, structs, enums, and a tagged ``Variant`` (standing in for the
CORBA ``any``) used by the Trading service's property lists.

Types are objects, so an operation signature is simply a list of type
objects and marshalling is table-driven.  Every type is one raw-buffer
writer, ``write(buf, value)``, which appends to a ``bytearray``, and one
reader, ``read(data, pos) -> (value, end)``; ``encode(enc, value)`` /
``decode(dec)`` run them on a :class:`CdrEncoder`'s or
:class:`CdrDecoder`'s buffer.  A primitive's writer puts the padding
and the value in one pack of a precompiled :class:`struct.Struct`, and
the encoder's and decoder's methods call the same functions: one body
per primitive.  Structs, unions and sequences loop over their members'
writers and readers.

One decoder: :class:`CdrDecoder` reads ``bytes`` / ``bytearray`` /
``memoryview`` buffers in place with ``unpack_from``, and octet
sequences always come out as fresh ``bytes`` — the same type a
collocated (unmarshalled) call hands the servant.

The ``Variant`` is one encode function, dispatching on the exact type and
packing each tag with its padding and value in one ``Struct`` call (other
types — ``IntEnum``, ``bytearray`` — take the seed's ``isinstance`` chain to
the same bytes), and one decode function, ``(data, pos) -> (value, end)``.
Both refuse nesting past :data:`MAX_VARIANT_DEPTH`, and no string decodes
unless it is UTF-8: hostile bytes raise :class:`MarshalError`, nothing else.
"""

import struct as _struct
from typing import Sequence as _SequenceT

from repro.orb.exceptions import MarshalError

_S_ULONG = _struct.Struct("<I")
_S_LONGLONG = _struct.Struct("<q")
_S_DOUBLE = _struct.Struct("<d")

_V_NONE, _V_BOOL, _V_LONGLONG, _V_DOUBLE, _V_STRING, _V_BYTES, _V_LIST, \
    _V_DICT = range(8)
# A tag octet, the padding it leaves before the aligned value, and the
# value, in one pack; indexed by that padding.
_TAG_ULONG = tuple(_struct.Struct(f"<B{n}xI").pack for n in range(4))
_TAG_LONGLONG = tuple(_struct.Struct(f"<B{n}xq").pack for n in range(8))
_TAG_DOUBLE = tuple(_struct.Struct(f"<B{n}xd").pack for n in range(8))
_PAD_ULONG = tuple(_struct.Struct(f"<{n}xI").pack for n in range(4))
_PAD = (b"", b"\x00", b"\x00\x00", b"\x00\x00\x00",
        b"\x00\x00\x00\x00", b"\x00\x00\x00\x00\x00",
        b"\x00\x00\x00\x00\x00\x00", b"\x00\x00\x00\x00\x00\x00\x00")


def _underrun(size: int, pos: int, data) -> MarshalError:
    return MarshalError(
        f"buffer underrun: need {size} bytes at {pos}, have {len(data) - pos}")


def _not_utf8(exc: UnicodeEncodeError) -> MarshalError:
    return MarshalError(f"string is not UTF-8-encodable: {exc}")


def _fixed(code: str) -> tuple:
    """``(write, read)`` of the aligned little-endian primitive ``code``."""
    size = _struct.calcsize(code)
    packs = tuple(_struct.Struct(f"<{n}x{code}").pack for n in range(size))
    unpack_from = _struct.Struct("<" + code).unpack_from
    mask = size - 1

    def write(buf: bytearray, value) -> None:
        try:
            buf += packs[-len(buf) & mask](value)
        except _struct.error as exc:
            raise MarshalError(
                f"cannot pack {value!r} as '<{code}': {exc}") from exc

    def read(data, pos: int) -> tuple:
        pos += -pos & mask
        end = pos + size
        if end > len(data):
            raise _underrun(size, pos, data)
        return unpack_from(data, pos)[0], end

    return write, read


_write_octet, _read_octet = _fixed("B")
_write_short, _read_short = _fixed("h")
_write_ushort, _read_ushort = _fixed("H")
_write_long, _read_long = _fixed("i")
_write_ulong, _read_ulong = _fixed("I")
_write_longlong, _read_longlong = _fixed("q")
_pack_double, _read_double = _fixed("d")


def _write_boolean(buf: bytearray, value) -> None:
    buf.append(1 if value else 0)


def _read_boolean(data, pos: int) -> tuple:
    value, end = _read_octet(data, pos)
    return value != 0, end


def _write_double(buf: bytearray, value) -> None:
    _pack_double(buf, float(value))


def _write_string(buf: bytearray, value) -> None:
    if not isinstance(value, str):
        raise MarshalError(f"expected str, got {type(value).__name__}")
    try:
        data = value.encode()
    except UnicodeEncodeError as exc:   # a lone surrogate
        raise _not_utf8(exc) from None
    # CDR counts the terminating NUL in the length prefix.
    buf += _PAD_ULONG[-len(buf) & 3](len(data) + 1)
    buf += data
    buf.append(0)


def _string_at(data, pos: int) -> tuple:
    """``(string, end)`` of the CDR string aligned at or after ``pos``."""
    pos += -pos & 3
    if pos + 4 > len(data):
        raise _underrun(4, pos, data)
    (length,) = _S_ULONG.unpack_from(data, pos)
    pos += 4
    if length == 0:
        raise MarshalError("string length must include the NUL terminator")
    end = pos + length
    if end > len(data):
        raise MarshalError("buffer underrun reading string body")
    if data[end - 1] != 0:
        raise MarshalError("string is not NUL-terminated")
    try:
        # str(buf, "utf-8") decodes bytes and memoryview slices alike.
        return str(data[pos:end - 1], "utf-8"), end
    except UnicodeDecodeError as exc:
        raise MarshalError(f"string is not valid UTF-8: {exc}") from None


def _write_octets(buf: bytearray, value) -> None:
    if not isinstance(value, (bytes, bytearray, memoryview)):
        raise MarshalError(f"expected bytes, got {type(value).__name__}")
    # bytearray.extend consumes bytes/bytearray/memoryview directly,
    # so no intermediate copy is made for buffer-backed values.
    _write_ulong(buf, len(value))
    buf.extend(value)


def _read_octets(data, pos: int) -> tuple:
    length, pos = _read_ulong(data, pos)
    end = pos + length
    if end > len(data):
        raise MarshalError("buffer underrun reading octet sequence")
    return bytes(data[pos:end]), end


def _write_void(buf: bytearray, value) -> None:
    if value is not None:
        raise MarshalError(f"void cannot carry {value!r}")


def _read_void(data, pos: int) -> tuple:
    return None, pos


class CdrEncoder:
    """Append-only aligned binary writer."""

    def __init__(self):
        self._buf = bytearray()

    def align(self, boundary: int) -> None:
        remainder = len(self._buf) % boundary
        if remainder:
            self._buf.extend(_PAD[boundary - remainder])

    def write_octet(self, value: int) -> None:
        _write_octet(self._buf, value)

    def write_boolean(self, value: bool) -> None:
        _write_boolean(self._buf, value)

    def write_short(self, value: int) -> None:
        _write_short(self._buf, value)

    def write_ushort(self, value: int) -> None:
        _write_ushort(self._buf, value)

    def write_long(self, value: int) -> None:
        _write_long(self._buf, value)

    def write_ulong(self, value: int) -> None:
        _write_ulong(self._buf, value)

    def write_longlong(self, value: int) -> None:
        _write_longlong(self._buf, value)

    def write_double(self, value: float) -> None:
        _write_double(self._buf, value)

    def write_string(self, value: str) -> None:
        _write_string(self._buf, value)

    def write_octets(self, value: bytes) -> None:
        _write_octets(self._buf, value)

    def getvalue(self) -> bytes:
        return bytes(self._buf)

    def __len__(self) -> int:
        return len(self._buf)


class CdrDecoder:
    """Aligned binary reader matching :class:`CdrEncoder`.

    Accepts ``bytes``, ``bytearray``, or ``memoryview`` buffers; every
    primitive reads straight out of the buffer with ``unpack_from``.
    """

    def __init__(self, data):
        self._data = data
        self._pos = 0

    def align(self, boundary: int) -> None:
        remainder = self._pos % boundary
        if remainder:
            self._pos += boundary - remainder

    def read_octet(self) -> int:
        value, self._pos = _read_octet(self._data, self._pos)
        return value

    def read_boolean(self) -> bool:
        value, self._pos = _read_boolean(self._data, self._pos)
        return value

    def read_short(self) -> int:
        value, self._pos = _read_short(self._data, self._pos)
        return value

    def read_ushort(self) -> int:
        value, self._pos = _read_ushort(self._data, self._pos)
        return value

    def read_long(self) -> int:
        value, self._pos = _read_long(self._data, self._pos)
        return value

    def read_ulong(self) -> int:
        value, self._pos = _read_ulong(self._data, self._pos)
        return value

    def read_longlong(self) -> int:
        value, self._pos = _read_longlong(self._data, self._pos)
        return value

    def read_double(self) -> float:
        value, self._pos = _read_double(self._data, self._pos)
        return value

    def read_string(self) -> str:
        value, self._pos = _string_at(self._data, self._pos)
        return value

    def read_octets(self) -> bytes:
        value, self._pos = _read_octets(self._data, self._pos)
        return value

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos


# ---------------------------------------------------------------------------
# IDL type objects
# ---------------------------------------------------------------------------

class IdlType:
    """Base class: one IDL type is one writer and one reader."""

    name = "idl"

    def write(self, buf: bytearray, value) -> None:
        """Append ``value``'s CDR bytes to ``buf``."""
        raise NotImplementedError

    def read(self, data, pos: int) -> tuple:
        """``(value, end)`` of the value at ``pos`` in ``data``."""
        raise NotImplementedError

    def encode(self, enc: CdrEncoder, value) -> None:
        self.write(enc._buf, value)

    def decode(self, dec: CdrDecoder):
        value, dec._pos = self.read(dec._data, dec._pos)
        return value

    def __repr__(self):
        return self.name


class _Primitive(IdlType):
    """A primitive: its writer and reader are the functions that
    :class:`CdrEncoder` and :class:`CdrDecoder` call."""

    def __init__(self, name: str, write, read):
        self.name = name
        self.write = write
        self.read = read


Void = _Primitive("void", _write_void, _read_void)
Boolean = _Primitive("boolean", _write_boolean, _read_boolean)
Octet = _Primitive("octet", _write_octet, _read_octet)
Short = _Primitive("short", _write_short, _read_short)
UShort = _Primitive("ushort", _write_ushort, _read_ushort)
Long = _Primitive("long", _write_long, _read_long)
ULong = _Primitive("ulong", _write_ulong, _read_ulong)
LongLong = _Primitive("longlong", _write_longlong, _read_longlong)
Double = _Primitive("double", _write_double, _read_double)
String = _Primitive("string", _write_string, _string_at)
Octets = _Primitive("octets", _write_octets, _read_octets)


class Sequence(IdlType):
    """A length-prefixed homogeneous sequence."""

    def __init__(self, element: IdlType):
        self.element = element
        self.name = f"sequence<{element.name}>"

    def write(self, buf, value):
        if not isinstance(value, (list, tuple)):
            raise MarshalError(
                f"expected list/tuple for {self.name}, got {type(value).__name__}"
            )
        _write_ulong(buf, len(value))
        write = self.element.write
        for item in value:
            write(buf, item)

    def read(self, data, pos):
        count, pos = _read_ulong(data, pos)
        read = self.element.read
        items = []
        for _ in range(count):
            item, pos = read(data, pos)
            items.append(item)
        return items, pos


class Struct(IdlType):
    """A named struct; Python-side values are plain dicts, marshalled
    field by field in declaration order."""

    def __init__(self, name: str, fields: _SequenceT):
        self.name = name
        self.fields = list(fields)
        field_names = [fname for fname, _ in self.fields]
        if len(set(field_names)) != len(field_names):
            raise ValueError(f"duplicate field in struct {name!r}")
        self._writers = [(fname, ftype.write) for fname, ftype in self.fields]
        self._readers = [(fname, ftype.read) for fname, ftype in self.fields]

    def write(self, buf, value):
        if not isinstance(value, dict):
            raise MarshalError(
                f"expected dict for struct {self.name}, got {type(value).__name__}"
            )
        for fname, write in self._writers:
            if fname not in value:
                raise MarshalError(
                    f"struct {self.name} missing field {fname!r}"
                )
            write(buf, value[fname])

    def read(self, data, pos):
        value = {}
        for fname, read in self._readers:
            value[fname], pos = read(data, pos)
        return value, pos


class Union(IdlType):
    """A discriminated union; Python-side values are flat dicts.

    The CORBA ``union ... switch``: a leading discriminator field picks
    which struct of fields follows it, and the dict holds the
    discriminator and that arm's fields side by side.  An arm's wire
    encoding is the one a struct of the discriminator and the arm's
    fields would have, so a union can grow an arm without changing the
    bytes of the others.
    """

    def __init__(self, name: str, discriminator: tuple, arms: dict):
        self.name = name
        self.discriminator = discriminator
        self.arms = {
            label: Struct(f"{name}[{label!r}]", fields)
            for label, fields in arms.items()
        }

    def write(self, buf, value):
        dname, dtype = self.discriminator
        if not isinstance(value, dict) or dname not in value:
            raise MarshalError(f"union {self.name} needs field {dname!r}")
        label = value[dname]
        arm = self.arms.get(label)
        if arm is None:
            raise MarshalError(f"union {self.name} has no arm {label!r}")
        dtype.write(buf, label)
        arm.write(buf, value)

    def read(self, data, pos):
        dname, dtype = self.discriminator
        label, pos = dtype.read(data, pos)
        arm = self.arms.get(label)
        if arm is None:
            raise MarshalError(f"union {self.name} has no arm {label!r}")
        fields, pos = arm.read(data, pos)
        return {dname: label, **fields}, pos


class Enum(IdlType):
    """A named enum; Python-side values are the member strings."""

    def __init__(self, name: str, members: _SequenceT):
        self.name = name
        self.members = list(members)
        self._index = {m: i for i, m in enumerate(self.members)}

    def write(self, buf, value):
        if value not in self._index:
            raise MarshalError(f"{value!r} is not a member of enum {self.name}")
        _write_ulong(buf, self._index[value])

    def read(self, data, pos):
        index, pos = _read_ulong(data, pos)
        if index >= len(self.members):
            raise MarshalError(f"enum {self.name} has no member #{index}")
        return self.members[index], pos


#: The most lists and dicts a Variant value may sit inside: far above any
#: interface's (two in a ``job_status`` reply), far below the recursion limit.
MAX_VARIANT_DEPTH = 100

_VARIANT_KINDS = frozenset(
    (type(None), bool, int, float, str, bytes, list, tuple, dict))
#: The seed's ``isinstance`` chain, in its order: ``(types, kind)``.
_SEED_CHAIN = ((int, int), (float, float), (str, str),
               ((bytes, bytearray, memoryview), bytes),
               ((list, tuple), list), (dict, dict))


def _variant_kind(value) -> tuple:
    """``(kind, value as that kind writes it)`` for any other type."""
    for types, kind in _SEED_CHAIN:
        if isinstance(value, types):
            return kind, kind(value) if kind in (float, bytes) else value
    raise MarshalError(f"variant cannot carry {type(value).__name__} values")


def _encode_variant(buf: bytearray, value, depth: int) -> None:
    """Append ``value``'s tag and body to ``buf``; ``depth`` counts the
    lists and dicts around it."""
    if depth > MAX_VARIANT_DEPTH:
        raise MarshalError(f"variant nests deeper than {MAX_VARIANT_DEPTH}")
    kind = type(value)
    if kind not in _VARIANT_KINDS:
        kind, value = _variant_kind(value)
    if kind is str:
        data = value.encode()
        buf += _TAG_ULONG[-(len(buf) + 1) & 3](_V_STRING, len(data) + 1)
        buf += data
        buf.append(0)
    elif kind is dict:
        buf += _TAG_ULONG[-(len(buf) + 1) & 3](_V_DICT, len(value))
        for key, item in value.items():
            if not isinstance(key, str):
                raise MarshalError("variant dict keys must be strings")
            data = key.encode()
            buf += _PAD_ULONG[-len(buf) & 3](len(data) + 1)
            buf += data
            buf.append(0)
            _encode_variant(buf, item, depth + 1)
    elif kind is float:
        buf += _TAG_DOUBLE[-(len(buf) + 1) & 7](_V_DOUBLE, value)
    elif kind is int:
        try:
            buf += _TAG_LONGLONG[-(len(buf) + 1) & 7](_V_LONGLONG, value)
        except _struct.error as exc:
            raise MarshalError(
                f"cannot pack {value!r} as '<q': {exc}") from exc
    elif value is None:
        buf.append(_V_NONE)
    elif kind is list or kind is tuple:
        buf += _TAG_ULONG[-(len(buf) + 1) & 3](_V_LIST, len(value))
        for item in value:
            _encode_variant(buf, item, depth + 1)
    elif kind is bool:
        buf += b"\x01\x01" if value else b"\x01\x00"
    else:   # bytes
        buf += _TAG_ULONG[-(len(buf) + 1) & 3](_V_BYTES, len(value))
        buf += value


def _decode_variant(data, pos: int, depth: int) -> tuple:
    """``(value, end)`` of the Variant at ``pos``; ``depth`` counts the
    lists and dicts around it."""
    if depth > MAX_VARIANT_DEPTH:
        raise MarshalError(f"variant nests deeper than {MAX_VARIANT_DEPTH}")
    if pos >= len(data):
        raise _underrun(1, pos, data)
    tag = data[pos]
    pos += 1
    if tag == _V_STRING:
        return _string_at(data, pos)
    if tag == _V_NONE:
        return None, pos
    if tag == _V_DOUBLE or tag == _V_LONGLONG:
        pos += -pos & 7
        if pos + 8 > len(data):
            raise _underrun(8, pos, data)
        unpack = _S_DOUBLE if tag == _V_DOUBLE else _S_LONGLONG
        return unpack.unpack_from(data, pos)[0], pos + 8
    if tag == _V_BOOL:
        if pos >= len(data):
            raise _underrun(1, pos, data)
        return data[pos] != 0, pos + 1
    if tag > _V_DICT:
        raise MarshalError(f"unknown variant tag {tag}")
    pos += -pos & 3
    if pos + 4 > len(data):
        raise _underrun(4, pos, data)
    (count,) = _S_ULONG.unpack_from(data, pos)
    pos += 4
    if tag == _V_BYTES:
        end = pos + count
        if end > len(data):
            raise MarshalError("buffer underrun reading octet sequence")
        return bytes(data[pos:end]), end
    depth += 1
    if tag == _V_LIST:
        items = []
        for _ in range(count):
            item, pos = _decode_variant(data, pos, depth)
            items.append(item)
        return items, pos
    fields = {}
    for _ in range(count):
        key, pos = _string_at(data, pos)
        fields[key], pos = _decode_variant(data, pos, depth)
    return fields, pos


class Variant(IdlType):
    """A tagged dynamic value (the role CORBA's ``any`` plays).

    Supports None, bool, int, float, str, bytes, and lists/dicts thereof —
    enough for Trader property lists and LUPA pattern uploads.
    """

    name = "variant"

    def write(self, buf, value):
        try:
            _encode_variant(buf, value, 0)
        except UnicodeEncodeError as exc:   # a str value or dict key
            raise _not_utf8(exc) from None

    def read(self, data, pos):
        return _decode_variant(data, pos, 0)


VARIANT = Variant()
