"""IKKBZ — optimal left-deep join ordering (Ibaraki/Kameda, Krishnamurthy/Boral/Zaniolo).

IKKBZ computes, in polynomial time, the cost-optimal *left-deep* join order
without cross products for acyclic query graphs under an ASI (adjacent
sequence interchange) cost function — here the classic ``C_out`` function, as
in the paper (Section 7.3: "It uses the C_out cost function to estimate the
best left-deep join order").  For cyclic graphs the standard practice, also
followed by LinDP, is to first reduce the graph to its minimum spanning tree
under the edge selectivities and run IKKBZ on that tree.

The algorithm considers every relation as the first (root) relation: it roots
the precedence tree there, normalises every subtree into a chain of compound
nodes ordered by *rank* ``(T - 1) / C``, merges sibling chains by rank, and
finally flattens the chain into a linear order.  The cheapest order across all
roots (measured with ``C_out``) wins.  The returned plan is the corresponding
left-deep tree costed under the query's own cost model, so its cost is
directly comparable with every other optimizer in the repository.

A subtree's normalised chain does not depend on the root.  Whatever the root,
the subtree behind the *directed* tree edge from parent ``p`` to child ``c``
is ``c`` with every other tree neighbour of ``c`` as its children, in
adjacency order, and ``c``'s ASI factor is ``sel(p, c) * rows(c)``.  So one
call builds the chain of each of the spanning tree's ``2(n - 1)`` directed
edges once — downward edges in post-order, upward edges in pre-order, with
explicit stacks rather than recursion, so 1000-relation chains plan — and
shares them, unmutated, between roots.  Each root then only merges its
neighbours' chains by rank and costs the flattened order from per-vertex
neighbour lists and a position array.  Chain building moves
``O(n * depth)`` nodes (``O(n^2)`` on a path, where rebuilding the chains for
every root took ``O(n^3)``); the roots add ``O(n log n + E)`` each.

Besides being one of the heuristic baselines of Tables 1 and 2, IKKBZ is the
substrate of linearized DP: :meth:`IKKBZ.linear_order` exposes the ordering
for :mod:`repro.heuristics.lindp`.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

from ..core import bitmapset as bms
from ..core.counters import OptimizerStats
from ..core.memo import MemoTable
from ..core.plan import Plan
from ..core.query import QueryInfo
from ..core.unionfind import UnionFind
from ..optimizers.base import JoinOrderOptimizer, OptimizationError

__all__ = ["IKKBZ", "left_deep_cout_cost", "build_left_deep_plan"]


class _Chain:
    """A compound node: a fixed sub-sequence of relations with ASI statistics.

    ``T`` is the product of the members' ``n_i`` factors and ``C`` the ASI
    cost of the sub-sequence; the rank ``(T - 1) / C``, computed once here,
    drives the merge order.  Nodes are shared between roots, so they are
    never mutated.
    """

    __slots__ = ("relations", "T", "C", "rank")

    def __init__(self, relations: List[int], T: float, C: float):
        self.relations = relations
        self.T = T
        self.C = C
        self.rank = 0.0 if C == 0 else (T - 1.0) / C

    def followed_by(self, other: "_Chain") -> "_Chain":
        """ASI concatenation: ``C(AB) = C(A) + T(A) * C(B)``."""
        return _Chain(self.relations + other.relations,
                      self.T * other.T, self.C + self.T * other.C)


_rank = attrgetter("rank")

#: vertex -> [(neighbour, edge selectivity)].
_Adjacency = Dict[int, List[Tuple[int, float]]]


def _spanning_tree_edges(query: QueryInfo, subset: int) -> List[Tuple[int, int, float]]:
    """Edges of a minimum spanning tree of the induced subgraph.

    Edge weight is the join selectivity (more selective edges are kept), which
    is the conventional reduction used before applying IKKBZ to cyclic graphs.
    For already-acyclic graphs this returns every edge.
    """
    edges = sorted(
        ((edge.selectivity, edge.left, edge.right) for edge in query.graph.edges_within(subset)),
    )
    uf = UnionFind(query.graph.n_relations)
    tree: List[Tuple[int, int, float]] = []
    for selectivity, left, right in edges:
        if uf.union(left, right):
            tree.append((left, right, selectivity))
    return tree


def _normalize(prefix: _Chain, chain: List[_Chain]) -> List[_Chain]:
    """IKKBZ normalisation: merge nodes whose rank violates the ascending order."""
    result = [prefix]
    for node in chain:
        while result and node.rank < result[-1].rank:
            node = result.pop().followed_by(node)
        result.append(node)
    return result


def _edge_chains(query: QueryInfo,
                 tree: _Adjacency) -> Dict[Tuple[int, int], List[_Chain]]:
    """The normalised chain behind every directed tree edge.

    ``chains[c, p]`` is the chain of the subtree hanging off ``c`` when the
    tree is entered from ``p``: ``c``'s own node normalised with the
    rank-merged chains of its other neighbours.  The tree is walked once
    from an arbitrary vertex; its post-order builds every edge pointing back
    to that vertex (children before parents) and its pre-order every edge
    pointing away (a parent's upward chain before its children's), so each
    chain's inputs exist when it is built.
    """
    start = next(iter(tree))
    parent: Dict[int, Tuple[int, float]] = {start: (-1, 0.0)}
    preorder: List[int] = []
    stack = [start]
    while stack:
        vertex = stack.pop()
        preorder.append(vertex)
        for neighbour, selectivity in tree[vertex]:
            if neighbour not in parent:
                parent[neighbour] = (vertex, selectivity)
                stack.append(neighbour)

    base_rows = query.cardinality.base_rows
    chains: Dict[Tuple[int, int], List[_Chain]] = {}

    def build(vertex: int, towards: int, selectivity: float) -> None:
        n_i = max(selectivity * base_rows(vertex), 1e-12)
        merged = [node for child, _ in tree[vertex] if child != towards
                  for node in chains[child, vertex]]
        merged.sort(key=_rank)
        chains[vertex, towards] = _normalize(_Chain([vertex], n_i, n_i), merged)

    for vertex in reversed(preorder):
        up, selectivity = parent[vertex]
        if up >= 0:
            build(vertex, up, selectivity)
    for vertex in preorder:
        up = parent[vertex][0]
        for child, selectivity in tree[vertex]:
            if child != up:
                build(vertex, child, selectivity)
    return chains


def _cout_inputs(query: QueryInfo, mask: int) -> Tuple[Dict[int, float], _Adjacency]:
    """Per-vertex base rows and ``(neighbour, selectivity)`` lists over ``mask``.

    Each list holds the vertex's neighbours inside ``mask`` in ascending
    order — the order in which :func:`_order_cout` multiplies their
    selectivities in.
    """
    base_rows = query.cardinality.base_rows
    rows = {vertex: base_rows(vertex) for vertex in bms.iter_bits(mask)}
    neighbours: _Adjacency = {vertex: [] for vertex in rows}
    for edge in query.graph.edges_within(mask):
        neighbours[edge.left].append((edge.right, edge.selectivity))
        neighbours[edge.right].append((edge.left, edge.selectivity))
    for adjacent in neighbours.values():
        adjacent.sort()
    return rows, neighbours


def _order_cout(order: Sequence[int], rows_of: Dict[int, float],
                neighbours: _Adjacency, bound: float) -> float:
    """``C_out`` of the left-deep plan joining ``order``, one step per relation.

    Each step multiplies in the new relation's rows, then the selectivities
    of its edges into the prefix in ascending neighbour order, and clamps
    the result at one row.  Every step so adds at least one row, so once the
    running sum reaches ``bound`` the full cost cannot fall below it, and
    the partial sum is returned.
    """
    position = dict(zip(order, range(len(order))))
    rows = rows_of[order[0]]
    cost = 0.0
    for index in range(1, len(order)):
        relation = order[index]
        rows *= rows_of[relation]
        for neighbour, selectivity in neighbours[relation]:
            if position[neighbour] < index:
                rows *= selectivity
        if rows < 1.0:
            rows = 1.0
        cost += rows
        if cost >= bound:
            break
    return cost


def left_deep_cout_cost(query: QueryInfo, order: Sequence[int]) -> float:
    """``C_out`` cost of the left-deep plan that joins relations in ``order``.

    Computed incrementally (each step multiplies in the new relation's
    cardinality and the selectivities of its edges into the prefix) so that
    evaluating one order is ``O(n + E)`` even for 1000-relation queries.
    """
    if not order:
        raise ValueError("order must contain at least one relation")
    rows_of, neighbours = _cout_inputs(query, bms.from_indices(order))
    return _order_cout(order, rows_of, neighbours, math.inf)


def build_left_deep_plan(query: QueryInfo, order: Sequence[int]) -> Plan:
    """Build the left-deep plan for ``order`` under the query's cost model."""
    prefix_mask = bms.bit(order[0])
    plan = query.leaf_plan(order[0])
    for relation in order[1:]:
        right = query.leaf_plan(relation)
        plan = query.join(prefix_mask, bms.bit(relation), plan, right)
        prefix_mask |= bms.bit(relation)
    return plan


class IKKBZ(JoinOrderOptimizer):
    """Optimal left-deep ordering under ``C_out`` on the (spanning) tree."""

    name = "IKKBZ"
    parallelizability = "sequential"
    exact = False
    execution_style = "sequential"

    def linear_order(self, query: QueryInfo, subset: Optional[int] = None) -> List[int]:
        """The best IKKBZ linear order for the (sub)query, as a vertex list.

        Every relation is tried as the root, in ascending order, and the
        first order of lowest ``C_out`` wins — the lowest-numbered root's
        when every order's ``C_out`` overflows to infinity.
        """
        if subset is None:
            subset = query.all_relations_mask
        vertices = bms.to_indices(subset)
        if len(vertices) == 1:
            return vertices
        tree_edges = _spanning_tree_edges(query, subset)
        if len(tree_edges) != len(vertices) - 1:
            raise OptimizationError("IKKBZ requires a connected join graph")
        tree: _Adjacency = {v: [] for v in vertices}
        for left, right, selectivity in tree_edges:
            tree[left].append((right, selectivity))
            tree[right].append((left, selectivity))

        chains = _edge_chains(query, tree)
        rows_of, neighbours = _cout_inputs(query, subset)
        best_order: Optional[List[int]] = None
        best_cost = float("inf")
        for root in vertices:
            # Normalising behind the root would only group nodes, never
            # reorder them, so the rank-merged neighbour chains are the order.
            merged = [node for child, _ in tree[root] for node in chains[child, root]]
            merged.sort(key=_rank)
            order = [root]
            for node in merged:
                order.extend(node.relations)
            cost = _order_cout(order, rows_of, neighbours, best_cost)
            if best_order is None or cost < best_cost:
                best_cost = cost
                best_order = order
        assert best_order is not None
        return best_order

    def _run(self, query: QueryInfo, subset: int,
             memo: MemoTable, stats: OptimizerStats) -> Plan:
        order = self.linear_order(query, subset)
        stats.extra["linear_order_cout_cost"] = left_deep_cout_cost(query, order)
        stats.evaluated_pairs += len(order) - 1
        stats.ccp_pairs += len(order) - 1
        return build_left_deep_plan(query, order)
