"""CDR-flavoured binary marshalling.

Implements the parts of CORBA's Common Data Representation the middleware
needs: aligned little-endian primitives, length-prefixed strings and
sequences, structs, enums, and a tagged ``Variant`` (standing in for the
CORBA ``any``) used by the Trading service's property lists.

Types are objects with ``encode``/``decode`` methods, so an operation
signature is simply a list of type objects and marshalling is table-driven.

Hot-path layout: every primitive uses a module-level precompiled
:class:`struct.Struct`, and each message :class:`Struct` compiles — once,
on first use — a *plan* that fuses consecutive fixed-size primitive
fields into a single pack/unpack call.  Because CDR alignment is relative
to the start of the whole buffer, each fused run is compiled into eight
variants, one per possible starting offset mod 8, with the inter-field
padding baked into the format string as ``x`` bytes.  Plans are shared
across message types through a cache keyed by the run's field signature.
The wire format is bit-identical to the naive field-at-a-time encoder.

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

# Fixed-size primitives that can be fused into a single (un)pack call.
# type class -> (format char, size, needs 0/1 bool normalization)
_FIXED_PRIMS = {
    _Boolean: ("B", 1, True),
    _Octet: ("B", 1, False),
    _Short: ("h", 2, False),
    _UShort: ("H", 2, False),
    _Long: ("i", 4, False),
    _ULong: ("I", 4, False),
    _LongLong: ("q", 8, False),
    _Double: ("d", 8, False),
}


class _Run:
    """A maximal run of fixed-size primitive fields, compiled per alignment.

    ``variants[a]`` holds ``(packer, total_bytes)`` for a run starting at
    buffer offset ``a`` (mod 8); inter-field CDR padding is baked into the
    format string as ``x`` bytes, so one pack/unpack handles the whole run
    at that alignment.
    """

    __slots__ = ("names", "bool_indices", "variants", "field_types")

    def __init__(self, names, specs, field_types):
        self.names = names
        self.field_types = field_types   # for the slow error-reporting path
        self.bool_indices = tuple(
            i for i, (_c, _s, is_bool) in enumerate(specs) if is_bool
        )
        self.variants = []
        for start in range(8):
            fmt = ["<"]
            pos = start
            for char, size, _is_bool in specs:
                pad = (-pos) % size
                if pad:
                    fmt.append("x" * pad)
                fmt.append(char)
                pos += pad + size
            packer = _struct.Struct("".join(fmt))
            self.variants.append((packer, pos - start))


# Shared across message types: run signature -> compiled _Run variants.
_RUN_CACHE: dict = {}


def _compile_plan(fields):
    """Split a struct's fields into fused runs and residual fields.

    Returns a list of segments: ``("run", _Run)`` or ``("field", name,
    idl_type)``.  Runs are shared through :data:`_RUN_CACHE` keyed by the
    (name, format) signature.
    """
    plan = []
    pending = []   # (name, spec, idl_type) of the run under construction

    def flush():
        if not pending:
            return
        if len(pending) == 1:
            name, _spec, ftype = pending[0]
            plan.append(("field", name, ftype))
        else:
            key = tuple((name, spec[0], spec[2]) for name, spec, _t in pending)
            run = _RUN_CACHE.get(key)
            if run is None:
                run = _Run(
                    tuple(name for name, _s, _t in pending),
                    tuple(spec for _n, spec, _t in pending),
                    tuple(ftype for _n, _s, ftype in pending),
                )
                _RUN_CACHE[key] = run
            plan.append(("run", run))
        pending.clear()

    for fname, ftype in fields:
        spec = _FIXED_PRIMS.get(type(ftype))
        if spec is not None:
            pending.append((fname, spec, ftype))
        else:
            flush()
            plan.append(("field", fname, ftype))
    flush()
    return plan


class Sequence(IdlType):
    """A length-prefixed homogeneous sequence.

    Sequences of fixed-size primitives marshal the whole payload with a
    single pack/unpack call.
    """

    def __init__(self, element: IdlType):
        self.element = element
        self.name = f"sequence<{element.name}>"
        self._prim = _FIXED_PRIMS.get(type(element))

    def encode(self, enc, value):
        if not isinstance(value, (list, tuple)):
            raise MarshalError(
                f"expected list/tuple for {self.name}, got {type(value).__name__}"
            )
        enc.write_ulong(len(value))
        if self._prim is not None and value:
            char, size, is_bool = self._prim
            buf = enc._buf
            pad = (-len(buf)) % size
            if pad:
                buf.extend(_PAD[pad])
            if is_bool:
                value = [1 if v else 0 for v in value]
            try:
                buf.extend(_struct.pack(f"<{len(value)}{char}", *value))
            except _struct.error:
                pass   # fall through to per-element for the exact error
            else:
                return
        for item in value:
            self.element.encode(enc, item)

    def decode(self, dec):
        count = dec.read_ulong()
        if self._prim is not None and count:
            char, size, is_bool = self._prim
            pos = dec._pos
            pos += (-pos) % size
            total = count * size
            if pos + total > len(dec._data):
                raise MarshalError(
                    f"buffer underrun: need {total} bytes at {pos}, "
                    f"have {len(dec._data) - pos}"
                )
            values = _struct.unpack_from(f"<{count}{char}", dec._data, pos)
            dec._pos = pos + total
            if is_bool:
                return [bool(v) for v in values]
            return list(values)
        return [self.element.decode(dec) for _ in range(count)]


class Struct(IdlType):
    """A named struct; Python-side values are plain dicts.

    Marshalling is driven by a compiled plan (see :func:`_compile_plan`)
    that fuses consecutive fixed-size primitive fields into single
    pack/unpack calls; the wire format is identical to encoding each
    field on its own.
    """

    def __init__(self, name: str, fields: _SequenceT):
        self.name = name
        self.fields = list(fields)
        field_names = [fname for fname, _ in self.fields]
        if len(set(field_names)) != len(field_names):
            raise ValueError(f"duplicate field in struct {name!r}")
        self._plan = None

    def _encode_run_slow(self, enc, run: "_Run", value) -> None:
        """Field-at-a-time re-run after a fused pack failed, for the
        exact per-field MarshalError the naive encoder raises."""
        for fname, ftype in zip(run.names, run.field_types):
            ftype.encode(enc, value[fname])
        raise MarshalError(
            f"fused pack failed for struct {self.name} but the per-field "
            "encoding succeeded"
        )

    def encode(self, enc, value):
        if not isinstance(value, dict):
            raise MarshalError(
                f"expected dict for struct {self.name}, got {type(value).__name__}"
            )
        plan = self._plan
        if plan is None:
            plan = self._plan = _compile_plan(self.fields)
        buf = enc._buf
        for segment in plan:
            if segment[0] == "run":
                run = segment[1]
                try:
                    values = [value[n] for n in run.names]
                except KeyError as exc:
                    raise MarshalError(
                        f"struct {self.name} missing field {exc.args[0]!r}"
                    ) from None
                for i in run.bool_indices:
                    values[i] = 1 if values[i] else 0
                packer, _total = run.variants[len(buf) % 8]
                try:
                    buf.extend(packer.pack(*values))
                except _struct.error:
                    self._encode_run_slow(enc, run, value)
            else:
                _tag, fname, ftype = segment
                if fname not in value:
                    raise MarshalError(
                        f"struct {self.name} missing field {fname!r}"
                    )
                ftype.encode(enc, value[fname])

    def decode(self, dec):
        plan = self._plan
        if plan is None:
            plan = self._plan = _compile_plan(self.fields)
        result = {}
        for segment in plan:
            if segment[0] == "run":
                run = segment[1]
                pos = dec._pos
                packer, total = run.variants[pos % 8]
                if pos + total > len(dec._data):
                    raise MarshalError(
                        f"buffer underrun: need {total} bytes at {pos}, "
                        f"have {len(dec._data) - pos}"
                    )
                values = packer.unpack_from(dec._data, pos)
                dec._pos = pos + total
                names = run.names
                for i, name in enumerate(names):
                    result[name] = values[i]
                for i in run.bool_indices:
                    result[names[i]] = bool(result[names[i]])
            else:
                result[segment[1]] = segment[2].decode(dec)
        return result


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
