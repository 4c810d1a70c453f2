"""CDR-flavoured binary marshalling.

Implements the parts of CORBA's Common Data Representation the middleware
needs: aligned little-endian primitives, length-prefixed strings and
sequences, structs, enums, and a tagged ``Variant`` (standing in for the
CORBA ``any``) used by the Trading service's property lists.

Types are objects with ``encode``/``decode`` methods, so an operation
signature is simply a list of type objects and marshalling is table-driven.
There is one codec per type: each primitive packs through a module-level
precompiled :class:`struct.Struct`, and structs and sequences marshal
their members one at a time.

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
from typing import Any, Sequence as _SequenceT

from repro.orb.exceptions import MarshalError

_S_OCTET = _struct.Struct("<B")
_S_SHORT = _struct.Struct("<h")
_S_USHORT = _struct.Struct("<H")
_S_LONG = _struct.Struct("<i")
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


class CdrEncoder:
    """Append-only aligned binary writer."""

    def __init__(self):
        self._buf = bytearray()

    def align(self, boundary: int) -> None:
        remainder = len(self._buf) % boundary
        if remainder:
            self._buf.extend(_PAD[boundary - remainder])

    def _pack(self, packer: _struct.Struct, size: int, value) -> None:
        buf = self._buf
        remainder = len(buf) % size
        if remainder:
            buf.extend(_PAD[size - remainder])
        try:
            buf.extend(packer.pack(value))
        except _struct.error as exc:
            raise MarshalError(
                f"cannot pack {value!r} as {packer.format!r}: {exc}"
            ) from exc

    def write_octet(self, value: int) -> None:
        try:
            self._buf.extend(_S_OCTET.pack(value))
        except _struct.error as exc:
            raise MarshalError(
                f"cannot pack {value!r} as '<B': {exc}"
            ) from exc

    def write_boolean(self, value: bool) -> None:
        self.write_octet(1 if value else 0)

    def write_short(self, value: int) -> None:
        self._pack(_S_SHORT, 2, value)

    def write_ushort(self, value: int) -> None:
        self._pack(_S_USHORT, 2, value)

    def write_long(self, value: int) -> None:
        self._pack(_S_LONG, 4, value)

    def write_ulong(self, value: int) -> None:
        self._pack(_S_ULONG, 4, value)

    def write_longlong(self, value: int) -> None:
        self._pack(_S_LONGLONG, 8, value)

    def write_double(self, value: float) -> None:
        self._pack(_S_DOUBLE, 8, float(value))

    def write_string(self, value: str) -> None:
        if not isinstance(value, str):
            raise MarshalError(f"expected str, got {type(value).__name__}")
        data = value.encode()
        buf = self._buf
        # CDR counts the terminating NUL in the length prefix.
        buf += _PAD_ULONG[-len(buf) & 3](len(data) + 1)
        buf += data
        buf.append(0)

    def write_octets(self, value: bytes) -> None:
        if not isinstance(value, (bytes, bytearray, memoryview)):
            raise MarshalError(f"expected bytes, got {type(value).__name__}")
        # bytearray.extend consumes bytes/bytearray/memoryview directly,
        # so no intermediate copy is made for buffer-backed values.
        self.write_ulong(len(value))
        self._buf.extend(value)

    def getvalue(self) -> bytes:
        return bytes(self._buf)

    def getbuffer(self) -> memoryview:
        return memoryview(self._buf)

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

    def _unpack(self, packer: _struct.Struct, size: int):
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

    def read_octet(self) -> int:
        return self._unpack(_S_OCTET, 1)

    def read_boolean(self) -> bool:
        return bool(self._unpack(_S_OCTET, 1))

    def read_short(self) -> int:
        return self._unpack(_S_SHORT, 2)

    def read_ushort(self) -> int:
        return self._unpack(_S_USHORT, 2)

    def read_long(self) -> int:
        return self._unpack(_S_LONG, 4)

    def read_ulong(self) -> int:
        return self._unpack(_S_ULONG, 4)

    def read_longlong(self) -> int:
        return self._unpack(_S_LONGLONG, 8)

    def read_double(self) -> float:
        return self._unpack(_S_DOUBLE, 8)

    def read_string(self) -> str:
        value, self._pos = _string_at(self._data, self._pos)
        return value

    def read_octets(self) -> bytes:
        length = self.read_ulong()
        end = self._pos + length
        if end > len(self._data):
            raise MarshalError("buffer underrun reading octet sequence")
        raw = self._data[self._pos:end]
        self._pos = end
        return bytes(raw)

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos


# ---------------------------------------------------------------------------
# IDL type objects
# ---------------------------------------------------------------------------

class IdlType:
    """Base class; subclasses implement encode/decode for one IDL type."""

    name = "idl"

    def encode(self, enc: CdrEncoder, value) -> None:
        raise NotImplementedError

    def decode(self, dec: CdrDecoder):
        raise NotImplementedError

    def __repr__(self):
        return self.name


class _Void(IdlType):
    name = "void"

    def encode(self, enc, value):
        if value is not None:
            raise MarshalError(f"void cannot carry {value!r}")

    def decode(self, dec):
        return None


class _Boolean(IdlType):
    name = "boolean"

    def encode(self, enc, value):
        enc.write_boolean(bool(value))

    def decode(self, dec):
        return dec.read_boolean()


class _Octet(IdlType):
    name = "octet"

    def encode(self, enc, value):
        enc.write_octet(value)

    def decode(self, dec):
        return dec.read_octet()


class _Short(IdlType):
    name = "short"

    def encode(self, enc, value):
        enc.write_short(value)

    def decode(self, dec):
        return dec.read_short()


class _UShort(IdlType):
    name = "ushort"

    def encode(self, enc, value):
        enc.write_ushort(value)

    def decode(self, dec):
        return dec.read_ushort()


class _Long(IdlType):
    name = "long"

    def encode(self, enc, value):
        enc.write_long(value)

    def decode(self, dec):
        return dec.read_long()


class _ULong(IdlType):
    name = "ulong"

    def encode(self, enc, value):
        enc.write_ulong(value)

    def decode(self, dec):
        return dec.read_ulong()


class _LongLong(IdlType):
    name = "longlong"

    def encode(self, enc, value):
        enc.write_longlong(value)

    def decode(self, dec):
        return dec.read_longlong()


class _Double(IdlType):
    name = "double"

    def encode(self, enc, value):
        enc.write_double(value)

    def decode(self, dec):
        return dec.read_double()


class _String(IdlType):
    name = "string"

    def encode(self, enc, value):
        enc.write_string(value)

    def decode(self, dec):
        return dec.read_string()


class _Octets(IdlType):
    name = "octets"

    def encode(self, enc, value):
        enc.write_octets(value)

    def decode(self, dec):
        return dec.read_octets()


Void = _Void()
Boolean = _Boolean()
Octet = _Octet()
Short = _Short()
UShort = _UShort()
Long = _Long()
ULong = _ULong()
LongLong = _LongLong()
Double = _Double()
String = _String()
Octets = _Octets()

class Sequence(IdlType):
    """A length-prefixed homogeneous sequence."""

    def __init__(self, element: IdlType):
        self.element = element
        self.name = f"sequence<{element.name}>"

    def encode(self, enc, value):
        if not isinstance(value, (list, tuple)):
            raise MarshalError(
                f"expected list/tuple for {self.name}, got {type(value).__name__}"
            )
        enc.write_ulong(len(value))
        for item in value:
            self.element.encode(enc, item)

    def decode(self, dec):
        count = dec.read_ulong()
        return [self.element.decode(dec) for _ in range(count)]


class Struct(IdlType):
    """A named struct; Python-side values are plain dicts, marshalled
    field by field in declaration order."""

    def __init__(self, name: str, fields: _SequenceT):
        self.name = name
        self.fields = list(fields)
        field_names = [fname for fname, _ in self.fields]
        if len(set(field_names)) != len(field_names):
            raise ValueError(f"duplicate field in struct {name!r}")

    def encode(self, enc, value):
        if not isinstance(value, dict):
            raise MarshalError(
                f"expected dict for struct {self.name}, got {type(value).__name__}"
            )
        for fname, ftype in self.fields:
            if fname not in value:
                raise MarshalError(
                    f"struct {self.name} missing field {fname!r}"
                )
            ftype.encode(enc, value[fname])

    def decode(self, dec):
        return {fname: ftype.decode(dec) for fname, ftype in self.fields}


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

    def encode(self, enc, value):
        dname, dtype = self.discriminator
        if not isinstance(value, dict) or dname not in value:
            raise MarshalError(f"union {self.name} needs field {dname!r}")
        label = value[dname]
        arm = self.arms.get(label)
        if arm is None:
            raise MarshalError(f"union {self.name} has no arm {label!r}")
        dtype.encode(enc, label)
        arm.encode(enc, value)

    def decode(self, dec):
        dname, dtype = self.discriminator
        label = dtype.decode(dec)
        arm = self.arms.get(label)
        if arm is None:
            raise MarshalError(f"union {self.name} has no arm {label!r}")
        result = {dname: label}
        result.update(arm.decode(dec))
        return result


class Enum(IdlType):
    """A named enum; Python-side values are the member strings."""

    def __init__(self, name: str, members: _SequenceT):
        self.name = name
        self.members = list(members)
        self._index = {m: i for i, m in enumerate(self.members)}

    def encode(self, enc, value):
        if value not in self._index:
            raise MarshalError(f"{value!r} is not a member of enum {self.name}")
        enc.write_ulong(self._index[value])

    def decode(self, dec):
        index = dec.read_ulong()
        if index >= len(self.members):
            raise MarshalError(f"enum {self.name} has no member #{index}")
        return self.members[index]


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

    def encode(self, enc, value):
        _encode_variant(enc._buf, value, 0)

    def decode(self, dec):
        value, dec._pos = _decode_variant(dec._data, dec._pos, 0)
        return value


VARIANT = Variant()
