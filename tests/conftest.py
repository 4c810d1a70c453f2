"""Fixtures shared by the tier-1 tests."""

import pytest

from repro.apps.registry import DEFAULT_REGISTRY


@pytest.fixture
def programs():
    """The process-wide program registry every BSP coordinator reads;
    whatever a test registers in it is unregistered afterwards."""
    before = set(DEFAULT_REGISTRY.names)
    yield DEFAULT_REGISTRY
    for name in set(DEFAULT_REGISTRY.names) - before:
        DEFAULT_REGISTRY.unregister(name)
