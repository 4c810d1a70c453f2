"""Metrics exporter, and the file helper the journal's exporter shares."""

import json
from typing import IO, Union

PathOrFile = Union[str, IO]


def _open_for_write(target: PathOrFile):
    if isinstance(target, str):
        return open(target, "w"), True
    return target, False


def export_metrics_json(registry, target: PathOrFile) -> dict:
    """Write a registry snapshot as JSON; returns the snapshot."""
    snapshot = registry.snapshot()
    f, owned = _open_for_write(target)
    try:
        json.dump(snapshot, f, indent=2, sort_keys=True, default=str)
    finally:
        if owned:
            f.close()
    return snapshot
