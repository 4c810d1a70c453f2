"""The checkpoint CRC: libdeflate's kernel and ``zlib`` give the same bytes.

Every CRC in :mod:`repro.checkpoint.serializer` goes through
``_crc32(buffer, length, value)``: a ``bytes`` or ``bytearray`` of at
least ``KERNEL_MIN_BYTES`` takes libdeflate's ``libdeflate_crc32``
through ``ctypes`` when the library is present and passes its check at
load, anything else ``zlib.crc32``.  Both must equal
``zlib.crc32(buffer[:length], value)``, so an envelope is the same
bytes, and a corrupted one is refused, whichever path ran.
"""

import random
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import serializer
from repro.checkpoint.serializer import (
    KERNEL_MIN_BYTES,
    CheckpointCorrupted,
    _crc32,
    deserialize,
    serialize,
)

CUTOVER = KERNEL_MIN_BYTES
ENVELOPE_BYTES = serializer._HEADER.size + serializer._CRC.size
STATE_BYTES = 128 * 1024
HAS_LIBRARY = serializer._open_library() is not None
needs_library = pytest.mark.skipif(
    not HAS_LIBRARY, reason="libdeflate is not installed")


def rand_bytes(seed: int, n: int) -> bytes:
    return random.Random(seed).randbytes(n)


def blob_state(payload_bytes: int) -> dict:
    """A state whose CDR payload is exactly ``payload_bytes`` long."""
    overhead = len(serialize({"blob": b""})) - ENVELOPE_BYTES
    return {"blob": bytes(payload_bytes - overhead)}


def big_state(seed: int = 0) -> dict:
    """A state whose envelope is a little over 128 KiB, like S0's."""
    return {"superstep": 7, "pid": seed,
            "blob": rand_bytes(seed, STATE_BYTES)}


def load_kernel():
    """The real kernel, which an installed library must yield."""
    if not HAS_LIBRARY:
        pytest.skip("libdeflate is not installed")
    kernel = serializer._load_kernel()
    assert kernel is not None, "libdeflate is installed but failed its check"
    return kernel


def both_paths():
    """The module's ``_kernel`` for each path this platform has."""
    return ((load_kernel(),) if HAS_LIBRARY else ()) + (None,)


@pytest.fixture
def kernel(monkeypatch):
    """The real kernel, loaded; the module's cache is restored after."""
    monkeypatch.setattr(serializer, "_kernel", load_kernel())


@pytest.fixture
def no_kernel(monkeypatch):
    """A platform without the library: the loader finds nothing."""
    monkeypatch.setattr(serializer, "_open_library", lambda: None)
    monkeypatch.setattr(serializer, "_kernel", serializer._UNLOADED)


@pytest.fixture(params=["kernel", "zlib"])
def path(request):
    """Run a test on each path."""
    request.getfixturevalue("kernel" if request.param == "kernel"
                            else "no_kernel")
    return request.param


def recording_kernel(monkeypatch):
    """Wrap the loaded kernel; returns the lengths it was called with."""
    real = load_kernel()
    lengths = []

    def crc(buffer, length, value):
        lengths.append(length)
        return real(buffer, length, value)

    monkeypatch.setattr(serializer, "_kernel", crc)
    return lengths


# -- _crc32 is zlib.crc32 over buffer[:length] ------------------------------

class TestCrcEqualsZlib:
    def test_every_length_up_to_three_cutovers_on_bytes(self, path):
        data = rand_bytes(1, 3 * CUTOVER + 17)
        for length in range(3 * CUTOVER + 1):
            value = length * 2_654_435_761 % 2 ** 32
            assert _crc32(data, length, value) == zlib.crc32(
                data[:length], value), length

    def test_a_bytearray_grown_by_appends(self, path):
        data = rand_bytes(2, 3 * CUTOVER)
        grown = bytearray()
        for length, byte in enumerate(data, 1):
            grown.append(byte)     # raises BufferError if an export leaked
            value = length * 40_503 % 2 ** 32
            assert _crc32(grown, length, value) == zlib.crc32(
                data[:length], value), length

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2 ** 32),
        extra=st.integers(0, 4 * 1024),
        tail=st.integers(0, 9),
        value=st.integers(0, 2 ** 32 - 1),
        kind=st.sampled_from([bytes, bytearray]),
    )
    def test_128_kib_plus_k_any_chaining_value(
        self, seed, extra, tail, value, kind
    ):
        length = STATE_BYTES + extra
        data = rand_bytes(seed, length + tail)
        expected = zlib.crc32(data[:length], value)
        for kernel in both_paths():
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(serializer, "_kernel", kernel)
                assert _crc32(kind(data), length, value) == expected

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        data=st.binary(max_size=3 * CUTOVER),
        cut=st.integers(0, 3 * CUTOVER),
        value=st.integers(0, 2 ** 32 - 1),
    )
    def test_a_chain_of_two_equals_one_pass(self, data, cut, value):
        cut = min(cut, len(data))
        head = _crc32(data, cut, value)
        assert _crc32(data[cut:], len(data) - cut, head) == zlib.crc32(
            data, value)

    def test_other_buffer_types_take_zlib(self, kernel, monkeypatch):
        lengths = recording_kernel(monkeypatch)
        data = rand_bytes(3, 2 * CUTOVER)
        for buffer in (memoryview(data), memoryview(bytearray(data))):
            assert _crc32(buffer, len(data), 5) == zlib.crc32(data, 5)
        assert lengths == []


class TestCutover:
    def test_the_cutover_is_the_first_length_the_kernel_takes(
        self, kernel, monkeypatch
    ):
        lengths = recording_kernel(monkeypatch)
        data = rand_bytes(4, CUTOVER + 1)
        for length in (CUTOVER - 1, CUTOVER, CUTOVER + 1):
            for buffer in (data, bytearray(data)):
                assert _crc32(buffer, length, 9) == zlib.crc32(
                    data[:length], 9)
        assert lengths == [CUTOVER, CUTOVER, CUTOVER + 1, CUTOVER + 1]

    def test_a_small_checkpoint_never_loads_the_library(self, monkeypatch):
        monkeypatch.setattr(serializer, "_kernel", serializer._UNLOADED)
        opened = []
        monkeypatch.setattr(serializer, "_open_library",
                            lambda: opened.append(1))
        state = blob_state(CUTOVER - serializer._HEADER.size - 1)
        envelope = serialize(state)
        assert len(envelope) == CUTOVER + serializer._CRC.size - 1
        assert deserialize(envelope) == state
        assert opened == [] and serializer._kernel is serializer._UNLOADED

    def test_the_library_loads_once(self, monkeypatch):
        monkeypatch.setattr(serializer, "_kernel", serializer._UNLOADED)
        opened = []

        def open_library():
            opened.append(1)
            return None

        monkeypatch.setattr(serializer, "_open_library", open_library)
        for seed in range(3):
            deserialize(serialize(big_state(seed)))
        assert opened == [1] and serializer._kernel is None


# -- the envelope is the same bytes on either path --------------------------

def zlib_envelope(state: dict) -> bytes:
    """The envelope built by hand with zlib: the format's definition."""
    from repro.orb.cdr import VARIANT, CdrEncoder
    enc = CdrEncoder()
    VARIANT.encode(enc, state)
    payload = enc.getvalue()
    body = serializer._HEADER.pack(
        serializer.MAGIC, serializer.VERSION, len(payload)) + payload
    return body + zlib.crc32(body).to_bytes(4, "little")


STATES = [
    {},
    {"progress_mips": 1234.5},
    blob_state(CUTOVER - 1),     # serialize: zlib; deserialize: kernel
    blob_state(CUTOVER),         # both: the kernel
    {"regs": list(range(2000)), "name": "x" * 3000},
    big_state(5),
]


@pytest.mark.parametrize("state", STATES, ids=range(len(STATES)))
def test_envelopes_are_identical_with_and_without_the_kernel(state, path):
    envelope = serialize(state)
    assert envelope == zlib_envelope(state)
    assert deserialize(envelope) == state


# -- a library that fails its check at load is never called -----------------

def install_fake_library(monkeypatch, fn):
    calls = []

    def library(value, buffer, length):
        calls.append(length)
        return fn(value, buffer, length)

    monkeypatch.setattr(serializer, "_open_library", lambda: library)
    monkeypatch.setattr(serializer, "_kernel", serializer._UNLOADED)
    return calls


def read(buffer, length) -> bytes:
    """What a C function sees at ``buffer``: bytes, or an address."""
    if isinstance(buffer, bytes):
        return buffer[:length]
    import ctypes
    return ctypes.string_at(buffer, length)


@pytest.mark.parametrize("fn", [
    lambda value, buffer, length: 0,                       # wrong answer
    lambda value, buffer, length: zlib.crc32(              # drops chaining
        read(buffer, length)),
    lambda value, buffer, length: zlib.crc32(              # wrong length
        read(buffer, max(length - 1, 0)), value),
], ids=["wrong-answer", "drops-chaining", "short-by-one"])
def test_a_library_failing_the_check_is_never_called(monkeypatch, fn):
    calls = install_fake_library(monkeypatch, fn)
    state = big_state(6)
    envelope = serialize(state)
    assert serializer._kernel is None
    checked = len(calls)
    assert checked > 0        # the check ran on the fake ...
    assert envelope == zlib_envelope(state)
    assert deserialize(envelope) == state
    serialize(state)
    assert len(calls) == checked          # ... and nothing else did


@needs_library
def test_the_real_library_passes_the_check(monkeypatch):
    monkeypatch.setattr(serializer, "_kernel", serializer._UNLOADED)
    serialize(big_state(7))
    assert callable(serializer._kernel)


# -- corruption is refused on both paths ------------------------------------

BIG_ENVELOPE = serialize(big_state(8))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(bit=st.integers(0, len(BIG_ENVELOPE) * 8 - 1))
def test_one_bit_flip_anywhere_is_refused_on_both_paths(bit):
    flipped = bytearray(BIG_ENVELOPE)
    flipped[bit // 8] ^= 1 << (bit % 8)
    for kernel in both_paths():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(serializer, "_kernel", kernel)
            for data in (bytes(flipped), flipped):
                with pytest.raises(CheckpointCorrupted):
                    deserialize(data)


# -- buffer types in, and no buffer export left behind ----------------------

@pytest.mark.parametrize("state", [STATES[1], STATES[3], STATES[5]],
                         ids=["small", "at-cutover", "128KiB"])
def test_deserialize_agrees_on_bytes_bytearray_and_memoryview(state, path):
    envelope = serialize(state)
    for data in (envelope, bytearray(envelope), memoryview(envelope),
                 memoryview(bytearray(envelope))):
        assert deserialize(data) == state
    bad = bytearray(envelope)
    bad[-1] ^= 1
    for data in (bytes(bad), bad, memoryview(bad)):
        with pytest.raises(CheckpointCorrupted, match="CRC mismatch"):
            deserialize(data)


def test_a_bytearray_resizes_after_a_kernel_crc(kernel, monkeypatch):
    lengths = recording_kernel(monkeypatch)
    envelope = bytearray(BIG_ENVELOPE)
    assert deserialize(envelope) == big_state(8)
    assert lengths == [len(envelope) - 4]   # the kernel took it
    envelope.extend(b"more")                # BufferError if still exported
    del envelope[-4:]
    assert _crc32(envelope, len(envelope), 0) == zlib.crc32(envelope)
    envelope.clear()
