"""Equivalence suite: the BSMP plane vs the seed sizer and dense mailboxes.

``repro.bsp.messages`` sizes exact ``bool`` / ``int`` / ``float`` values
(alone or as list and tuple items) from a table and keeps only the
mailboxes that received mail; ``tests/oracles/bsp.py`` sizes everything
through one recursive ``isinstance`` chain and scans every
(sender, destination) pair.  The product claims the same size for every
payload, and after every superstep the same inboxes — the very same
objects, in the same order — and the same ``messages_sent``,
``bytes_estimate``, ``orb_calls`` and ``wire_bytes``.
"""

import enum

from hypothesis import given, settings, strategies as st

from repro.bsp.messages import MessageBuffers, _payload_size

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


@settings(max_examples=300, derandomize=True)
@given(PAYLOADS)
def test_sizes_match_the_seed_sizer(payload):
    assert _payload_size(payload) == oracle.payload_size(payload)


def counters(buffers) -> tuple:
    return (buffers.messages_sent, buffers.bytes_estimate,
            buffers.orb_calls, buffers.wire_bytes)


@settings(max_examples=100, derandomize=True)
@given(st.integers(1, 6), st.data())
def test_send_scripts_match_the_dense_mailboxes(nprocs, data):
    pids = st.integers(0, nprocs - 1)
    script = data.draw(st.lists(
        st.lists(st.tuples(pids, pids, PAYLOADS), max_size=12),
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
        for pid in range(nprocs):
            assert ([id(m) for m in product.inbox(pid)]
                    == [id(m) for m in seed.inbox(pid)])
    # A superstep with no sends empties every inbox on both sides.
    product.exchange()
    assert all(product.inbox(pid) == [] for pid in range(nprocs))
