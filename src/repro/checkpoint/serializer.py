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
"""

import struct
import zlib

from repro.orb.cdr import CdrDecoder, CdrEncoder, VARIANT
from repro.orb.exceptions import MarshalError

MAGIC = b"IGCP"
VERSION = 1

_HEADER = struct.Struct("<4sHxxI")   # magic, version, pad, payload length
_CRC = struct.Struct("<I")


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
    payload = enc.getvalue()
    body = _HEADER.pack(MAGIC, VERSION, len(payload)) + payload
    return body + _CRC.pack(zlib.crc32(body))


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
    body = data[:-_CRC.size]
    (expected_crc,) = _CRC.unpack_from(data, len(body))
    if zlib.crc32(body) != expected_crc:
        raise CheckpointCorrupted("CRC mismatch")
    dec = CdrDecoder(data[_HEADER.size:len(body)])
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
