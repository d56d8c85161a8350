"""UnionDP — the paper's novel graph-partitioning heuristic (Section 4.2).

UnionDP handles queries far beyond MPDP's exact limit by exploiting the join
graph's topology: it partitions the graph into fragments of at most ``k``
relations, solves each fragment *optimally* with MPDP, collapses every
fragment into a composite node, and recurses on the resulting contracted
graph until the whole query fits in one MPDP invocation (Algorithm 4).

The partition phase balances two requirements the paper spells out:

1. partitions should be as close to ``k`` relations as possible (small
   fragments waste optimization opportunities), and
2. the *cut* edges left between partitions should be as expensive as
   possible, so that costly joins end up near the root of the final plan.

Both are served by the same greedy rule: edges are considered in increasing
order of the combined size of the partitions at their endpoints (ties broken
by increasing edge weight, where the weight is the cost-model cost of joining
across the edge), and an edge's endpoints are unioned whenever the merged
partition would not exceed ``k``.  A Union-Find structure maintains the
partitions.

Kernelized-ladder contract (see :mod:`repro.heuristics.common`):
``backend=``/``workers=`` thread down to the shared inner exact optimizer —
**one** instance reused for every fragment of every round, so its per-query
caches warm across fragments — and, for non-scalar backends, the greedy
partition scan runs as the batched
:func:`~repro.exec.heuristic_kernels.greedy_union_partition` kernel.
All fragment optimizations of one round run against the *same* join graph
with different ``within=`` scopes — at any width, since the kernels carry
multi-word bitmap columns (:mod:`repro.core.widebitmap`) — so they share
the graph's :class:`~repro.core.enumeration.EnumerationContext` (see
PERFORMANCE.md).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..core import bitmapset as bms
from ..core.counters import OptimizerStats
from ..core.memo import MemoTable
from ..core.plan import Plan
from ..core.query import QueryInfo
from ..core.unionfind import UnionFind
from ..optimizers.base import JoinOrderOptimizer, OptimizationError
from ..optimizers.mpdp import MPDP
from .common import HeuristicBackendMixin

__all__ = ["UnionDP"]


class UnionDP(HeuristicBackendMixin, JoinOrderOptimizer):
    """Partition the join graph, optimize fragments with MPDP, recurse."""

    name = "UnionDP"
    parallelizability = "high"
    exact = False
    execution_style = "level_parallel"

    def __init__(self, k: int = 15,
                 exact_factory: Callable[..., JoinOrderOptimizer] = MPDP,
                 max_rounds: int = 64,
                 backend: str = "scalar", workers: Optional[int] = None):
        if k < 2:
            raise ValueError("UnionDP needs k >= 2")
        self.k = k
        self._init_backend(backend, workers)
        #: The shared inner exact optimizer (one instance for every fragment
        #: of every round).
        self.exact_optimizer = exact_factory(backend=backend, workers=workers)
        self.max_rounds = max_rounds
        self.name = f"UnionDP-{self.exact_optimizer.name} ({k})"

    # ------------------------------------------------------------------ #
    def _run(self, query: QueryInfo, subset: int,
             memo: MemoTable, stats: OptimizerStats) -> Plan:
        if subset != query.all_relations_mask:
            raise OptimizationError("UnionDP optimizes whole queries only")
        current = query
        for _ in range(self.max_rounds):
            if current.n_relations <= self.k:
                result = self.exact_optimizer.optimize(current)
                stats.merge(result.stats)
                return result.plan

            partitions = self._partition(current)
            partition_plans: List[Plan] = []
            # Every fragment below is optimized with the shared inner
            # optimizer: all fragments run on ``current``'s graph with
            # different ``within=`` scopes and share its EnumerationContext
            # (the kernels' multi-word columns handle any graph width).
            for partition in partitions:
                if bms.popcount(partition) == 1:
                    partition_plans.append(current.leaf_plan(bms.lowest_bit_index(partition)))
                    continue
                result = self.exact_optimizer.optimize(current, subset=partition)
                stats.merge(result.stats)
                partition_plans.append(result.plan)
            if len(partitions) == current.n_relations:
                # No union was possible (every edge would overflow k); force
                # progress by merging the two smallest adjacent partitions.
                raise OptimizationError(
                    "UnionDP could not reduce the query; k is too small for this graph"
                )
            current = current.contract(partitions, partition_plans)
        raise OptimizationError("UnionDP did not converge within max_rounds")

    # ------------------------------------------------------------------ #
    def _partition(self, query: QueryInfo) -> List[int]:
        """Partition phase of Algorithm 4: greedy unions bounded by ``k``."""
        graph = query.graph
        uf = UnionFind(graph.n_relations)
        # Pre-compute edge weights once (cost of joining across the edge).
        weighted_edges: List[Tuple[float, int, int]] = []
        for edge in graph.edges:
            weight = query.rows(bms.bit(edge.left) | bms.bit(edge.right))
            weighted_edges.append((weight, edge.left, edge.right))

        if self._use_heuristic_kernels(graph.n_edges):
            # Batched greedy min-edge scan (bit-identical to the loop below).
            from ..exec import greedy_union_partition

            greedy_union_partition(uf, self.k, weighted_edges)
            return uf.sets()

        # Repeatedly pick the admissible edge with the smallest combined
        # partition size (ties by increasing weight).  The combined sizes
        # change as unions happen, so the choice is re-evaluated every round.
        active = list(weighted_edges)
        while True:
            best_key: Tuple[int, float] | None = None
            best_index = -1
            for index, (weight, left, right) in enumerate(active):
                if uf.connected(left, right):
                    continue
                combined = uf.set_size(left) + uf.set_size(right)
                if combined > self.k:
                    continue
                key = (combined, weight)
                if best_key is None or key < best_key:
                    best_key = key
                    best_index = index
            if best_index < 0:
                break
            _, left, right = active.pop(best_index)
            uf.union(left, right)

        return uf.sets()
