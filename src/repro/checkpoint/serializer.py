"""Architecture-neutral checkpoint serialization.

Format::

    magic   "IGCP"           (4 bytes)
    version u16              (format revision)
    length  u32              (payload byte count)
    payload variant-encoded state dict (CDR, fixed little-endian)
    crc32   u32              (over magic..payload)

The payload reuses the ORB's :class:`~repro.orb.cdr.Variant` encoding, so
any state expressible as nested dicts/lists/numbers/strings/bytes moves
between nodes byte-identically regardless of host platform.

The CRC is ``zlib.crc32``'s: same polynomial, same chaining.  Every CRC
here goes through :func:`_crc32`, which hands a ``bytes`` or
``bytearray`` buffer of at least ``KERNEL_MIN_BYTES`` to libdeflate's
SIMD ``libdeflate_crc32`` through ``ctypes`` (5-7x faster than
``zlib`` 1.2.13's table CRC on a 128 KiB state) and everything else to
``zlib``: smaller buffers, other buffer types, a platform without the
library, and a library that fails the known-answer check at load.  The
library loads on the first buffer over the cutover, never at import, so
a process whose checkpoints are all small never imports ``ctypes``.
Either path gives the same CRC, so every envelope is the same bytes.
"""

import struct
import zlib

from repro.orb.cdr import CdrDecoder, CdrEncoder, VARIANT
from repro.orb.exceptions import MarshalError

MAGIC = b"IGCP"
VERSION = 1

_HEADER = struct.Struct("<4sHxxI")   # magic, version, pad, payload length
_CRC = struct.Struct("<I")

# The measured crossover (2-vCPU Xeon, best of 9): at 1 KiB of bytes
# zlib takes 1.05 us and the kernel, with its ctypes call, 1.52 us; at
# 2 KiB, 1.79 us against 1.60 us.  A bytearray's export adds ~0.8 us,
# which a 4 KiB buffer repays (3.21 us against 2.61 us).
KERNEL_MIN_BYTES = 2048
_LIBDEFLATE = "libdeflate.so.0"
_UNLOADED = object()
_kernel = _UNLOADED   # _load_kernel()'s answer, once it has been asked


def _open_library():
    """``libdeflate_crc32(crc, buffer, length)`` through ctypes, or None."""
    try:
        import ctypes
        fn = ctypes.CDLL(_LIBDEFLATE).libdeflate_crc32
    except (ImportError, OSError, AttributeError):
        return None
    fn.argtypes = (ctypes.c_uint32, ctypes.c_void_p, ctypes.c_size_t)
    fn.restype = ctypes.c_uint32
    return fn


def _load_kernel():
    """The kernel as ``crc(buffer, length, value)``, or None when the
    library is missing or disagrees with ``zlib`` on the known answer
    or on a chained split."""
    fn = _open_library()
    if fn is None:
        return None
    # One fixed ctypes type for every buffer: ``c_char * len(buffer)``
    # would create and cache a new array type per distinct length.
    from ctypes import addressof, c_char

    def crc(buffer, length, value):
        if type(buffer) is bytes:
            return fn(value, buffer, length)    # bytes pass their pointer
        view = c_char.from_buffer(buffer)       # the bytearray, exported
        try:
            return fn(value, addressof(view), length)
        finally:
            del view                            # ... and released

    head = b"123456789"
    tail = bytearray(range(256)) * 12
    if (crc(head, len(head), 0) != 0xCBF43926
            or crc(tail, 3000, crc(head, len(head), 0))
            != zlib.crc32(memoryview(tail)[:3000], zlib.crc32(head))):
        return None
    return crc


def _crc32(buffer, length: int, value: int) -> int:
    """``zlib.crc32(buffer[:length], value)``, without the slice.  The
    kernel never reads past ``len(buffer)``: a longer ``length`` takes
    zlib, whose slice stops at the end."""
    global _kernel
    if (KERNEL_MIN_BYTES <= length <= len(buffer)
            and type(buffer) in (bytes, bytearray)):
        if _kernel is _UNLOADED:
            _kernel = _load_kernel()
        if _kernel is not None:
            return _kernel(buffer, length, value)
    if length != len(buffer):
        buffer = memoryview(buffer)[:length]
    return zlib.crc32(buffer, value)


class CheckpointCorrupted(Exception):
    """The checkpoint bytes fail validation and must not be restored."""


def serialize(state: dict) -> bytes:
    """Encode a state dict into the portable checkpoint format."""
    if not isinstance(state, dict):
        raise TypeError(f"checkpoint state must be a dict, got {type(state).__name__}")
    enc = CdrEncoder()
    try:
        VARIANT.encode(enc, state)
    except MarshalError as exc:
        raise TypeError(f"state is not checkpointable: {exc}") from exc
    payload = enc._buf   # the encoder's own bytearray, uncopied
    header = _HEADER.pack(MAGIC, VERSION, len(payload))
    crc = _crc32(payload, len(payload), _crc32(header, _HEADER.size, 0))
    return b"".join((header, payload, _CRC.pack(crc)))


def deserialize(data: bytes) -> dict:
    """Decode and validate checkpoint bytes; raises CheckpointCorrupted.

    Validation is header-first: the declared payload length must account
    for *exactly* the bytes between the header and the CRC — a truncated
    file, a length field that disagrees with the payload, and garbage
    appended after the CRC are all rejected before (and regardless of)
    the CRC check, so a forged trailer cannot smuggle extra bytes past a
    recomputed checksum.  The payload decode must also consume every
    declared byte.
    """
    if len(data) < _HEADER.size + _CRC.size:
        raise CheckpointCorrupted("checkpoint shorter than its envelope")
    magic, version, length = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise CheckpointCorrupted(f"bad magic {magic!r}")
    if version != VERSION:
        raise CheckpointCorrupted(f"unsupported checkpoint version {version}")
    expected_size = _HEADER.size + length + _CRC.size
    if len(data) != expected_size:
        raise CheckpointCorrupted(
            f"checkpoint is {len(data)} bytes but the declared payload "
            f"length {length} requires exactly {expected_size}"
        )
    body = len(data) - _CRC.size
    (expected_crc,) = _CRC.unpack_from(data, body)
    if _crc32(data, body, 0) != expected_crc:
        raise CheckpointCorrupted("CRC mismatch")
    dec = CdrDecoder(memoryview(data)[_HEADER.size:body])
    try:
        state = VARIANT.decode(dec)
    except MarshalError as exc:
        raise CheckpointCorrupted(f"payload undecodable: {exc}") from exc
    if dec.remaining:
        raise CheckpointCorrupted(
            f"{dec.remaining} undecoded bytes inside the declared payload"
        )
    if not isinstance(state, dict):
        raise CheckpointCorrupted("checkpoint payload is not a state dict")
    return state
