"""DPsize — size-driven dynamic programming (Selinger, System R).

DPsize builds plans in increasing result size: to plan every set of ``s``
relations it pairs every memoised plan of size ``s1`` with every memoised plan
of size ``s - s1``.  This is the algorithm PostgreSQL's standard join search
uses and the paper's ``Postgres (1CPU)`` baseline.

Its weakness, highlighted throughout the paper, is that most of the evaluated
pairs are invalid: the two operands frequently overlap or are not connected by
a join predicate, so the EvaluatedCounter is orders of magnitude larger than
the CCP-Counter (Figure 2).  On the plus side the evaluation of every pair at
one size is independent, which is what PDP and DPsize-GPU parallelize — and
what the kernel backends (:mod:`repro.exec`) exploit here: each size level is
emitted as one batch, executed either as the historical scalar loop or as a
vectorized cross-product grid with mask filters and one ``cost_batch`` call
(``backend="scalar" | "vectorized" | "multicore" | "auto"``; the multicore
backend runs DPsize levels in-process; bit-identical results).
"""

from __future__ import annotations

from typing import Optional

from ..core import bitmapset as bms
from ..core.counters import OptimizerStats
from ..core.enumeration import EnumerationContext
from ..core.memo import MemoTable
from ..core.plan import Plan
from ..core.query import QueryInfo
from ..exec import KernelOptimizerMixin, KernelState
from .base import JoinOrderOptimizer

__all__ = ["DPSize"]


class DPSize(KernelOptimizerMixin, JoinOrderOptimizer):
    """Size-driven DP over cross-product-free join pairs."""

    name = "DPsize"
    parallelizability = "medium"
    exact = True
    execution_style = "level_parallel"
    max_relations = 14

    def __init__(self, backend: str = "scalar", workers: Optional[int] = None):
        self._init_backend(backend, workers)

    def _run(self, query: QueryInfo, subset: int,
             memo: MemoTable, stats: OptimizerStats) -> Plan:
        # The backend's per-level kernels look operand neighbourhoods up
        # through memoized bitmaps (the context's caches or the arena
        # snapshot's neighbour column), computed once per distinct mask.
        context = EnumerationContext.of(query.graph)
        backend = self._resolve_backend(query, subset)
        state = KernelState(query=query, context=context, memo=memo,
                            stats=stats, scope=subset)
        n = bms.popcount(subset)

        # Level iteration runs over the table's size-bucketed key index
        # (O(bucket) per lookup); the leaves were seeded by ``_init_leaves``.
        for _key in memo.keys_of_size(1):
            stats.record_set(1, connected=True)

        for size in range(2, n + 1):
            backend.run_size_level(state, size)

        return memo[subset]
