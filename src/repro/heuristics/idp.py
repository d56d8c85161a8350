"""Iterative Dynamic Programming — IDP1 and IDP2 (Kossmann & Stocker 2000).

IDP makes exact DP applicable to queries far beyond its exponential limit by
running it on bounded-size pieces:

* **IDP1** (``IDP1``): run the exact algorithm bottom-up but stop at plans of
  ``k`` relations; pick the cheapest ``k``-relation plan, freeze it as a
  single temporary table, and restart on the reduced query.  Complexity
  ``O(n^k)``, so only small ``k`` are practical — the paper uses it only as a
  point of comparison.

* **IDP2** (``IDP2``): first build a tentative plan with a cheap heuristic
  (GOO here, as in the paper's Section 7.3), then repeatedly select the most
  expensive subtree with at most ``k`` leaves, re-optimize exactly that
  fragment with the exact algorithm, and replace it by a temporary table.
  Complexity ``O(n^3)`` for ``n >> k``.

The exact algorithm is pluggable; the paper's contribution is to plug in MPDP
(``IDP2-MPDP (k)`` in Tables 1 and 2), whose GPU-parallel efficiency allows a
much larger ``k`` (up to 25) than a CPU DP could afford within the same time
budget.  Temporary tables are modelled with :meth:`QueryInfo.contract`, which
keeps cardinalities consistent with the root query so costs remain comparable
across iterations.

Both drivers follow the kernelized-ladder contract (see
:mod:`repro.heuristics.common`): ``backend=``/``workers=`` configure the
inner exact optimizer's kernel execution backend, **one** inner instance is
built per driver by ``exact_factory(backend=..., workers=...)`` and reused
for every fragment of every ``optimize()`` call (so per-query caches such
as the enumeration context and the kernel snapshot state warm up across
fragments), and every fragment — at any graph width — runs subset-scoped
against the full-width graph through :func:`optimize_fragment`: the kernels
carry multi-word bitmap columns (:mod:`repro.core.widebitmap`).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..core import bitmapset as bms
from ..core.counters import OptimizerStats
from ..core.enumeration import EnumerationContext
from ..core.memo import MemoTable
from ..core.plan import Plan
from ..core.query import QueryInfo
from ..optimizers.base import JoinOrderOptimizer, OptimizationError, PlanResult
from ..optimizers.mpdp import MPDP
from .common import HeuristicBackendMixin
from .goo import GOO

__all__ = ["IDP1", "IDP2", "optimize_fragment"]


def optimize_fragment(exact: JoinOrderOptimizer, query: QueryInfo,
                      fragment: int) -> PlanResult:
    """Run ``exact`` on one fragment of ``query``, subset-scoped.

    A one-line wrapper over ``exact.optimize(query, subset=fragment)``.  It
    stays a named function of this module because the end-to-end
    benchmark's tracer (``e2ebench/tracing.py``) wraps
    ``repro.heuristics.idp.optimize_fragment`` by name to time each IDP
    fragment for its ``heuristics.fragment*`` metrics; inlining it means
    changing that tracer in the same commit.
    """
    return exact.optimize(query, subset=fragment)


class IDP1(HeuristicBackendMixin, JoinOrderOptimizer):
    """IDP1: iterate exact DP up to ``k`` relations, materialise, repeat."""

    name = "IDP1"
    parallelizability = "high"
    exact = False
    execution_style = "level_parallel"

    def __init__(self, k: int = 8,
                 exact_factory: Callable[..., JoinOrderOptimizer] = MPDP,
                 backend: str = "scalar", workers: Optional[int] = None):
        if k < 2:
            raise ValueError("IDP1 needs k >= 2")
        self.k = k
        self._init_backend(backend, workers)
        #: The shared inner exact optimizer (one instance for every fragment).
        self.exact_optimizer = exact_factory(backend=backend, workers=workers)
        self.name = f"IDP1({k})"

    def _run(self, query: QueryInfo, subset: int,
             memo: MemoTable, stats: OptimizerStats) -> Plan:
        if subset != query.all_relations_mask:
            raise OptimizationError("IDP1 optimizes whole queries only")
        current = query
        while True:
            n = current.n_relations
            if n <= self.k:
                result = self.exact_optimizer.optimize(current)
                stats.merge(result.stats)
                return result.plan
            # Find the cheapest plan covering exactly k vertices: run the exact
            # algorithm level-by-level by optimizing every connected k-subset
            # would be O(n^k); instead we follow the common practical variant
            # and take the cheapest connected k-neighbourhood seeded greedily.
            best_fragment, best_plan = self._cheapest_fragment(current)
            partitions: List[int] = [best_fragment]
            plans: List[Plan] = [best_plan]
            for vertex in bms.iter_bits(current.all_relations_mask & ~best_fragment):
                partitions.append(bms.bit(vertex))
                plans.append(current.leaf_plan(vertex))
            current = current.contract(partitions, plans)

    def _cheapest_fragment(self, query: QueryInfo) -> tuple[int, Plan]:
        """Pick a connected fragment of up to ``k`` vertices and optimize it.

        The fragment is grown greedily from the most selective edge (the pair
        with the smallest join output), always absorbing the neighbour that
        keeps the intermediate result smallest — the classic IDP1 "balanced"
        variant's seeding strategy.
        """
        graph = query.graph
        context = EnumerationContext.of(graph)
        best_edge = min(
            graph.edges,
            key=lambda e: query.rows(bms.bit(e.left) | bms.bit(e.right)),
        )
        fragment = bms.bit(best_edge.left) | bms.bit(best_edge.right)
        while bms.popcount(fragment) < self.k:
            neighbours = context.neighbours_of_set(fragment)
            if neighbours == 0:
                break
            best_vertex = min(
                bms.iter_bits(neighbours),
                key=lambda v: query.rows(fragment | bms.bit(v)),
            )
            fragment |= bms.bit(best_vertex)
        result = optimize_fragment(self.exact_optimizer, query, fragment)
        return fragment, result.plan


class IDP2(HeuristicBackendMixin, JoinOrderOptimizer):
    """IDP2: GOO initial plan, then exact re-optimization of costly subtrees."""

    name = "IDP2"
    parallelizability = "high"
    exact = False
    execution_style = "level_parallel"

    def __init__(self, k: int = 15,
                 exact_factory: Callable[..., JoinOrderOptimizer] = MPDP,
                 initial_heuristic: Optional[JoinOrderOptimizer] = None,
                 max_iterations: Optional[int] = None,
                 backend: str = "scalar", workers: Optional[int] = None):
        if k < 2:
            raise ValueError("IDP2 needs k >= 2")
        self.k = k
        self._init_backend(backend, workers)
        #: The shared inner exact optimizer (one instance for every fragment
        #: of every iteration).
        self.exact_optimizer = exact_factory(backend=backend, workers=workers)
        self.initial_heuristic = initial_heuristic or GOO()
        self.max_iterations = max_iterations
        self.name = f"IDP2-{self.exact_optimizer.name} ({k})"

    # ------------------------------------------------------------------ #
    def _run(self, query: QueryInfo, subset: int,
             memo: MemoTable, stats: OptimizerStats) -> Plan:
        if subset != query.all_relations_mask:
            raise OptimizationError("IDP2 optimizes whole queries only")
        current = query
        iterations = 0
        while True:
            n = current.n_relations
            if n <= self.k:
                result = self.exact_optimizer.optimize(current)
                stats.merge(result.stats)
                return result.plan

            tentative = self.initial_heuristic.optimize(current)
            stats.merge(tentative.stats)

            fragment_vertices = self._most_expensive_fragment(current, tentative.plan)
            exact = optimize_fragment(self.exact_optimizer, current,
                                      fragment_vertices)
            stats.merge(exact.stats)

            partitions: List[int] = [fragment_vertices]
            plans: List[Plan] = [exact.plan]
            for vertex in bms.iter_bits(current.all_relations_mask & ~fragment_vertices):
                partitions.append(bms.bit(vertex))
                plans.append(current.leaf_plan(vertex))
            current = current.contract(partitions, plans)

            iterations += 1
            if self.max_iterations is not None and iterations >= self.max_iterations:
                final = self.initial_heuristic.optimize(current)
                stats.merge(final.stats)
                return final.plan

    # ------------------------------------------------------------------ #
    def _most_expensive_fragment(self, query: QueryInfo, plan: Plan) -> int:
        """Vertex set of the most expensive subtree with 2..k leaves.

        Candidate subtrees are join nodes of the tentative plan whose leaf
        count does not exceed ``k``; the one with the highest cost wins
        (cost being cumulative, this is the costliest fragment that exact DP
        is allowed to rebuild).  The chosen leaf set always induces a
        connected subgraph because the tentative plan never uses cross
        products.
        """
        best_mask = 0
        best_cost = -1.0
        context = EnumerationContext.of(query.graph)
        for node in plan.iter_joins():
            vertex_mask = query.vertices_covering(node.relations)
            if vertex_mask is None:
                # Interior node of an already-frozen temporary table.
                continue
            size = bms.popcount(vertex_mask)
            if size > self.k or size < 2:
                continue
            if not context.is_connected(vertex_mask):
                continue
            if node.cost > best_cost:
                best_cost = node.cost
                best_mask = vertex_mask
        if best_mask == 0 or bms.popcount(best_mask) < 2:
            # Fall back to the cheapest edge's endpoints; guarantees progress.
            edge = next(iter(query.graph.edges))
            best_mask = bms.bit(edge.left) | bms.bit(edge.right)
        return best_mask
