"""Equivalence suite: the BSMP plane vs the seed sizer and dense mailboxes.

``repro.bsp.messages`` counts and sizes messages once per superstep, at
the barrier: a superstep of exact lists and tuples of exact ``int`` /
``float`` items in one bulk pass, any other mix payload by payload
through a sizer that takes exact scalars from a table.  It keeps only
the mailboxes that received mail.  ``tests/oracles/bsp.py`` sizes every
payload on ``send`` through one recursive ``isinstance`` chain and scans
every (sender, destination) pair.  The product claims the same size for
every payload and every batch of payloads, the same inboxes after every
superstep — the very same objects, in the same order — and the same
``messages_sent``, ``bytes_estimate``, ``orb_calls`` and ``wire_bytes``
after every ``send`` and every ``exchange``.
"""

import enum

import pytest
from hypothesis import given, settings, strategies as st

from repro.bsp.messages import MessageBuffers, _bulk_size, _payload_size
from repro.bsp.runtime import BspError, run_bsp

from tests.oracles import bsp as oracle


class Colour(enum.IntEnum):
    RED = 1
    GREEN = 2


class Tagged(list):
    """A list subclass: sized by the ``isinstance`` chain, not the table."""


SCALARS = st.one_of(
    st.booleans(),
    st.integers(-(2 ** 70), 2 ** 70),
    st.floats(),
    st.sampled_from(list(Colour)),
    st.none(),
    st.text(),                       # non-ASCII included: sized as UTF-8
    st.binary(max_size=16),
    st.binary(max_size=16).map(bytearray),
    st.builds(object),               # unknown to the sizer: 16
)

KEYS = st.one_of(
    st.booleans(), st.integers(-5, 5), st.text(max_size=4),
    st.sampled_from(list(Colour)), st.none(), st.binary(max_size=4),
)

PAYLOADS = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(children, max_size=5).map(Tagged),
        st.dictionaries(KEYS, children, max_size=4),
    ),
    max_leaves=20,
)

NUMBERS = st.one_of(st.floats(), st.integers(-(2 ** 70), 2 ** 70))

#: What the bulk pass sizes: exact lists and tuples of exact ints and floats.
FLAT = st.one_of(
    st.lists(NUMBERS, max_size=4),
    st.lists(NUMBERS, max_size=4).map(tuple),
)

#: One step off the bulk pass each: a list subclass, ``bool`` or
#: ``IntEnum`` items, a nested list, a halo tuple, a dict, bytes.
NEAR_FLAT = st.one_of(
    st.lists(NUMBERS, max_size=4).map(Tagged),
    st.tuples(st.sampled_from(["from_left", "from_right"]), NUMBERS),
    st.lists(st.one_of(NUMBERS, st.booleans(), st.sampled_from(list(Colour))),
             min_size=1, max_size=4),
    st.lists(st.one_of(NUMBERS, st.lists(NUMBERS, max_size=2)),
             min_size=1, max_size=4),
    st.dictionaries(st.text(max_size=2), NUMBERS, max_size=2),
    st.binary(max_size=8),
)

#: A superstep's payloads: all flat (bulk pass), flat with some a step
#: off it (one type test fails), or any mix (fallback).
SUPERSTEPS = st.sampled_from([
    FLAT, st.one_of(FLAT, NEAR_FLAT), st.one_of(FLAT, NEAR_FLAT, PAYLOADS),
])


@settings(max_examples=300, derandomize=True)
@given(PAYLOADS)
def test_sizes_match_the_seed_sizer(payload):
    assert _payload_size(payload) == oracle.payload_size(payload)


@settings(max_examples=300, derandomize=True)
@given(st.data())
def test_batch_sizes_match_the_seed_sizer(data):
    payloads = data.draw(st.lists(data.draw(SUPERSTEPS), max_size=12))
    assert _bulk_size(payloads) == sum(map(oracle.payload_size, payloads))


def counters(buffers) -> tuple:
    return (buffers.messages_sent, buffers.bytes_estimate,
            buffers.orb_calls, buffers.wire_bytes)


@settings(max_examples=100, derandomize=True)
@given(st.integers(1, 6), st.data())
def test_send_scripts_match_the_dense_mailboxes(nprocs, data):
    pids = st.integers(0, nprocs - 1)
    script = data.draw(st.lists(
        SUPERSTEPS.flatmap(
            lambda payloads: st.lists(st.tuples(pids, pids, payloads),
                                      max_size=12)),
        min_size=1, max_size=5,
    ))
    product, seed = MessageBuffers(nprocs), oracle.MessageBuffers(nprocs)
    for superstep in script:
        for sender, dest, payload in superstep:
            product.send(sender, dest, payload)
            seed.send(sender, dest, payload)
            assert counters(product) == counters(seed)
        product.exchange()
        seed.exchange()
        assert counters(product) == counters(seed)
        for pid in range(nprocs):
            assert ([id(m) for m in product.inbox(pid)]
                    == [id(m) for m in seed.inbox(pid)])
    # A superstep with no sends empties every inbox on both sides.
    product.exchange()
    assert all(product.inbox(pid) == [] for pid in range(nprocs))


def test_an_unsizable_payload_fails_the_barrier_and_delivers_nothing():
    # The seed sizes on send and raises there; the product sizes at the
    # barrier, before it delivers or counts anything.
    buffers = MessageBuffers(2)
    buffers.send(0, 1, [1.0, 2.0])
    buffers.exchange()
    buffers.send(0, 1, "ok")
    buffers.send(1, 0, "\ud800")          # a lone surrogate: no UTF-8
    with pytest.raises(UnicodeEncodeError) as excinfo:
        buffers.exchange()
    assert excinfo.value.pid == 1         # the sender, found on failure
    assert (buffers.inbox(0), buffers.inbox(1)) == ([], [[1.0, 2.0]])
    assert (buffers._delivered, buffers._delivered_bytes) == (1, 20)
    assert (buffers.messages_sent, buffers.orb_calls) == (3, 3)
    with pytest.raises(UnicodeEncodeError):
        buffers.wire_bytes

    # Run under the engine, the failure names the process that sent it.
    def program(bsp):
        if bsp.pid == 1:
            bsp.send(0, "\ud800")
        bsp.sync()
    with pytest.raises(BspError, match=r"^BSP run failed: pid 1: "
                                       r"UnicodeEncodeError: [^;]*$"):
        run_bsp(2, program)
