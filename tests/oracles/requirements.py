"""The seed admission check: one Python test per requirement field.

``ResourceRequirements.satisfied_by`` evaluates the one constraint text
the GRM also hands to its Trader (``ResourceRequirements.constraint``);
``tests/test_property_based.py`` holds it to this field-by-field check
over NodeStatus-shaped property dicts.
"""

from typing import Any, Mapping

from repro.apps.constraints import Constraint
from repro.apps.spec import ResourceRequirements


def satisfied_by(reqs: ResourceRequirements, props: Mapping[str, Any]) -> bool:
    """Check a node's property dict against all requirements."""
    if props.get("mips", 0.0) < reqs.min_mips:
        return False
    if props.get("ram_mb", 0.0) < reqs.min_ram_mb:
        return False
    if props.get("disk_mb", 0.0) < reqs.min_disk_mb:
        return False
    if reqs.min_net_mbps > 0.0 and \
            props.get("net_mbps", 0.0) < reqs.min_net_mbps:
        return False
    if reqs.os is not None and props.get("os") != reqs.os:
        return False
    if reqs.arch is not None and props.get("arch") != reqs.arch:
        return False
    if reqs.extra and not Constraint(reqs.extra).matches(props):
        return False
    return True
