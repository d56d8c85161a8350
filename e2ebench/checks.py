"""Plan checks and the plan-cost yardstick of the end-to-end benchmark."""

from __future__ import annotations

import heapq
from typing import Optional

__all__ = ["verify_plan", "reference_plan"]


def verify_plan(query, plan) -> Optional[str]:
    """``None`` when ``plan`` is a valid plan of ``query``, else the problem.

    The plan must pass ``Plan.validate()`` (disjoint children, union bitmaps,
    leaf indices), join only sides that a join-graph edge connects (no cross
    products), cover every relation of the query, and equal its re-costing
    by the query's own estimator and cost model node by node, bit for bit.
    """
    try:
        plan.validate()
    except ValueError as error:
        return f"invalid plan: {error}"
    edges = [(1 << edge.left, 1 << edge.right) for edge in query.graph.edges]
    for node in plan.iter_joins():
        left, right = node.left.relations, node.right.relations
        if not any((a & left and b & right) or (a & right and b & left)
                   for a, b in edges):
            return (f"the join over {node.relations:#x} has no edge between "
                    f"its sides (cross product)")
    if plan.relations != query.all_relations_mask:
        return (f"plan covers {plan.relations:#x}, the query has "
                f"{query.all_relations_mask:#x}")
    for node, expected in zip(plan.iter_nodes(), query.recost(plan).iter_nodes()):
        if (float(expected.rows).hex() != float(node.rows).hex()
                or float(expected.cost).hex() != float(node.cost).hex()
                or expected.method != node.method):
            return (f"node over {node.relations:#x} re-costs to "
                    f"{expected.method} rows={expected.rows!r} "
                    f"cost={expected.cost!r}, the plan says {node.method} "
                    f"rows={node.rows!r} cost={node.cost!r}")
    return None


def reference_plan(query):
    """A greedy left-deep plan that no optimizer of the program builds.

    It starts at the relation with the fewest rows and then, like Prim's
    algorithm, joins the not-yet-joined neighbour whose connecting edge fans
    out least (rows of the edge's two-relation join per row of the joined
    end), each join built with ``query.join``.  ``plan_cost_vs_greedy``
    divides the returned plans' costs by this plan's cost, so a better
    optimizer lowers the metric and no optimizer change moves the yardstick.
    A fixed (breadth-first) order would do that too, but its cost varies
    with the seed about twice as much.
    """
    neighbours = [[] for _ in range(query.n_relations)]
    for edge in query.graph.edges:
        neighbours[edge.left].append(edge.right)
        neighbours[edge.right].append(edge.left)
    start = min(range(query.n_relations), key=lambda v: (query.rows(1 << v), v))
    plan, mask, frontier = query.leaf_plan(start), 1 << start, []
    vertex = start
    while True:
        for neighbour in neighbours[vertex]:
            if not mask >> neighbour & 1:
                fan_out = (query.rows(1 << vertex | 1 << neighbour)
                           / query.rows(1 << vertex))
                heapq.heappush(frontier, (fan_out, neighbour))
        while frontier and mask >> frontier[0][1] & 1:
            heapq.heappop(frontier)
        if not frontier:
            return plan
        vertex = heapq.heappop(frontier)[1]
        plan = query.join(mask, 1 << vertex, plan, query.leaf_plan(vertex))
        mask |= 1 << vertex
