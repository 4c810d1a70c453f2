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

_PAD = (b"", b"\x00", b"\x00\x00", b"\x00\x00\x00",
        b"\x00\x00\x00\x00", b"\x00\x00\x00\x00\x00",
        b"\x00\x00\x00\x00\x00\x00", b"\x00\x00\x00\x00\x00\x00\x00")


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
        data = value.encode("utf-8")
        buf = self._buf
        remainder = len(buf) % 4
        if remainder:
            buf.extend(_PAD[4 - remainder])
        # CDR counts the terminating NUL in the length prefix.
        buf.extend(_S_ULONG.pack(len(data) + 1))
        buf.extend(data)
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
            raise MarshalError(
                f"buffer underrun: need {size} bytes at {pos}, "
                f"have {len(self._data) - pos}"
            )
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
        data = self._data
        pos = self._pos
        remainder = pos % 4
        if remainder:
            pos += 4 - remainder
        if pos + 4 > len(data):
            raise MarshalError(
                f"buffer underrun: need 4 bytes at {pos}, "
                f"have {len(data) - pos}"
            )
        (length,) = _S_ULONG.unpack_from(data, pos)
        pos += 4
        if length == 0:
            raise MarshalError("string length must include the NUL terminator")
        end = pos + length
        if end > len(data):
            raise MarshalError("buffer underrun reading string body")
        if data[end - 1] != 0:
            raise MarshalError("string is not NUL-terminated")
        self._pos = end
        # str(buf, "utf-8") decodes bytes and memoryview slices alike.
        return str(data[pos:end - 1], "utf-8")

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


class Variant(IdlType):
    """A tagged dynamic value (the role CORBA's ``any`` plays).

    Supports None, bool, int, float, str, bytes, and lists/dicts thereof —
    enough for Trader property lists and LUPA pattern uploads.
    """

    name = "variant"

    _NONE, _BOOL, _LONGLONG, _DOUBLE, _STRING, _BYTES, _LIST, _DICT = range(8)

    def encode(self, enc, value):
        if value is None:
            enc.write_octet(self._NONE)
        elif isinstance(value, bool):
            enc.write_octet(self._BOOL)
            enc.write_boolean(value)
        elif isinstance(value, int):
            enc.write_octet(self._LONGLONG)
            enc.write_longlong(value)
        elif isinstance(value, float):
            enc.write_octet(self._DOUBLE)
            enc.write_double(value)
        elif isinstance(value, str):
            enc.write_octet(self._STRING)
            enc.write_string(value)
        elif isinstance(value, (bytes, bytearray, memoryview)):
            enc.write_octet(self._BYTES)
            enc.write_octets(bytes(value))
        elif isinstance(value, (list, tuple)):
            enc.write_octet(self._LIST)
            enc.write_ulong(len(value))
            for item in value:
                self.encode(enc, item)
        elif isinstance(value, dict):
            enc.write_octet(self._DICT)
            enc.write_ulong(len(value))
            for key, item in value.items():
                if not isinstance(key, str):
                    raise MarshalError("variant dict keys must be strings")
                enc.write_string(key)
                self.encode(enc, item)
        else:
            raise MarshalError(
                f"variant cannot carry {type(value).__name__} values"
            )

    def decode(self, dec):
        tag = dec.read_octet()
        if tag == self._NONE:
            return None
        if tag == self._BOOL:
            return dec.read_boolean()
        if tag == self._LONGLONG:
            return dec.read_longlong()
        if tag == self._DOUBLE:
            return dec.read_double()
        if tag == self._STRING:
            return dec.read_string()
        if tag == self._BYTES:
            return dec.read_octets()
        if tag == self._LIST:
            count = dec.read_ulong()
            return [self.decode(dec) for _ in range(count)]
        if tag == self._DICT:
            count = dec.read_ulong()
            return {dec.read_string(): self.decode(dec) for _ in range(count)}
        raise MarshalError(f"unknown variant tag {tag}")


VARIANT = Variant()
