"""GOO — Greedy Operator Ordering (Fegaras 1998).

GOO builds a bushy join tree bottom-up: at every step it joins the pair of
current subtrees whose join produces the *smallest intermediate result*, among
pairs connected by at least one join edge (no cross products).  It is the
cheapest-to-compute heuristic in the paper's comparison and also the
"initial join order" component the paper plugs into IDP2 (Section 7.3: "For
all IDP2 variants, we use GOO for the heuristic step").

Candidate joins wait in a heap keyed on estimated output cardinality; entries
that became stale after a merge are discarded lazily.  Each merge pushes one
candidate per neighbour vertex of the merged group, so a query of ``n``
relations estimates up to ``O(n^2)`` candidates (a star's hub group meets
every remaining dimension at every merge), and each estimate of a set ``S``
costs ``O(|S| + |E(S)|)``.  That, not the heap, is GOO's cost on large
queries.

With ``backend != "scalar"`` the candidates of one merge are estimated as a
single :meth:`~repro.core.query.QueryInfo.rows_batch` call (under ``auto``
once the merge has at least ``AUTO_VECTORIZE_MIN_RELATIONS`` candidates).
The batch estimates equal ``query.rows`` bit for bit and the heap entries,
their push order and their keys do not change, so plans are bit-identical
across backends.  The greedy merge itself is sequential; ``workers`` is
accepted for the standard knob and unused.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from ..core import bitmapset as bms
from ..core.counters import OptimizerStats
from ..core.memo import MemoTable
from ..core.plan import Plan
from ..core.query import QueryInfo
from ..optimizers.base import JoinOrderOptimizer
from .common import HeuristicBackendMixin

__all__ = ["GOO"]


class GOO(HeuristicBackendMixin, JoinOrderOptimizer):
    """Greedy Operator Ordering: repeatedly join the smallest-result pair."""

    name = "GOO"
    parallelizability = "sequential"
    exact = False
    execution_style = "sequential"

    def __init__(self, backend: str = "scalar", workers: Optional[int] = None):
        self._init_backend(backend, workers)

    def _run(self, query: QueryInfo, subset: int,
             memo: MemoTable, stats: OptimizerStats) -> Plan:
        graph = query.graph

        # Current forest: representative vertex -> (vertex mask, plan, the
        # group's neighbours inside ``subset``).
        groups: Dict[int, Tuple[int, Plan, int]] = {}
        representative: Dict[int, int] = {}
        for vertex in bms.iter_bits(subset):
            groups[vertex] = (bms.bit(vertex), query.leaf_plan(vertex),
                              graph.adjacency(vertex) & subset)
            representative[vertex] = vertex

        def find(vertex: int) -> int:
            root = vertex
            while representative[root] != root:
                root = representative[root]
            while representative[vertex] != root:
                representative[vertex], vertex = root, representative[vertex]
            return root

        # Batched candidate estimates; the scalar branch's estimates are
        # memoised by the estimator itself.
        estimates: Dict[int, float] = {}

        def rows_of(mask: int) -> float:
            rows = estimates.get(mask)
            return query.rows(mask) if rows is None else rows

        # Candidate heap keyed on estimated join output cardinality.
        # Entries are (rows, tie_breaker, left_vertex, right_vertex).
        heap: List[Tuple[float, int, int, int]] = []
        for edge in graph.edges_within(subset):
            rows = query.rows(bms.bit(edge.left) | bms.bit(edge.right))
            heap.append((rows, len(heap), edge.left, edge.right))
        counter = len(heap)
        heapq.heapify(heap)

        remaining = len(groups)
        while remaining > 1:
            if not heap:
                raise RuntimeError("GOO ran out of connected candidate pairs")
            rows, _, left_vertex, right_vertex = heapq.heappop(heap)
            left_root = find(left_vertex)
            right_root = find(right_vertex)
            if left_root == right_root:
                continue
            left_mask, left_plan, left_adjacent = groups[left_root]
            right_mask, right_plan, right_adjacent = groups[right_root]
            merged_mask = left_mask | right_mask
            current_rows = rows_of(merged_mask)
            if current_rows > rows * (1 + 1e-9):
                # Stale entry: one of the groups has grown since it was pushed.
                heapq.heappush(heap, (current_rows, counter, left_vertex, right_vertex))
                counter += 1
                continue
            stats.record_pair(bms.popcount(merged_mask), is_ccp=True)
            plan = query.cost_model.join(left_plan, right_plan, current_rows)
            representative[right_root] = left_root
            neighbours = (left_adjacent | right_adjacent) & ~merged_mask
            groups[left_root] = (merged_mask, plan, neighbours)
            del groups[right_root]
            memo.put(merged_mask, plan)
            remaining -= 1
            # Push refreshed candidates for every edge leaving the merged
            # group: one per neighbour vertex, in ascending vertex order.
            pushes = list(bms.iter_bits(neighbours))
            masks = [merged_mask | groups[find(neighbour)][0] for neighbour in pushes]
            if self._use_heuristic_kernels(len(masks)):
                batch = query.rows_batch(masks).tolist()
                estimates.update(zip(masks, batch))
            else:
                batch = [query.rows(mask) for mask in masks]
            for neighbour, candidate_rows in zip(pushes, batch):
                heapq.heappush(heap, (candidate_rows, counter, left_vertex, neighbour))
                counter += 1

        final_root = find(bms.lowest_bit_index(subset))
        return groups[final_root][1]
