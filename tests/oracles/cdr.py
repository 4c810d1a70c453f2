"""The seed Variant codec: one ``isinstance`` chain and one decoder
method call per value.

``repro.orb.cdr.Variant`` encodes with one function that dispatches on
the exact type and writes straight into the encoder's buffer, and
decodes with one function that threads the read position through
locals; ``tests/test_orb_cdr.py`` holds both to these bodies — the same
bytes, the same value and end position, the same ``MarshalError`` text.
"""

from repro.orb.cdr import CdrDecoder, CdrEncoder
from repro.orb.exceptions import MarshalError

_NONE, _BOOL, _LONGLONG, _DOUBLE, _STRING, _BYTES, _LIST, _DICT = range(8)


def encode(enc: CdrEncoder, value) -> None:
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


def decode(dec: CdrDecoder):
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
