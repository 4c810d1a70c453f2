"""The original wide-area ranking: scan every child, filter, stable sort.

``ParentGrm._candidates`` walks an index instead; the hypothesis suite in
``tests/test_hierarchy_scaling.py`` holds it to this order.
"""

from repro.apps.spec import ApplicationSpec


def rank_candidates(parent, spec: ApplicationSpec, origin: str) -> list:
    """Eligible live children of ``parent``, most spare CPU first,
    registration order within ties (dict order + stable sort)."""
    reqs = spec.requirements
    needed_cpu = spec.tasks * reqs.cpu_fraction
    eligible = []
    for record in parent._children.values():
        if record.cluster == origin:
            continue
        if not record.alive:
            continue
        summary = record.summary
        if summary["sharing_nodes"] < spec.tasks:
            continue
        if summary["free_cpu_total"] < needed_cpu:
            continue
        if reqs.min_mips > 0 and summary["max_node_mips"] < reqs.min_mips:
            continue
        eligible.append(record)
    eligible.sort(key=lambda r: r.summary["free_cpu_total"], reverse=True)
    return eligible
