"""Linearized DP and the adaptive LinDP optimizer (Neumann & Radke 2018).

Linearized DP shrinks the DP search space by first computing IKKBZ's optimal
left-deep *linear order* and then running dynamic programming only over
contiguous intervals of that order.  The DP can still produce bushy plans —
any split of an interval into two connected sub-intervals is considered — but
the number of planned sets drops from exponential to ``O(n^2)`` and the whole
algorithm runs in ``O(n^3)``.

``AdaptiveLinDP`` reproduces the full adaptive technique the paper compares
against (named simply "LinDP" in Tables 1 and 2): exact DPccp for small
queries, linearized DP for medium ones, and IDP2 with linearized DP as the
inner algorithm for very large ones.  The default thresholds (14 and 100
relations) are the ones reported in the original paper and quoted in
Section 6 of the MPDP paper.

Kernelized-ladder contract (see :mod:`repro.heuristics.common`): with
``backend != "scalar"``, :class:`LinearizedDP`'s quadratic interval-merge
loop executes as the batched :func:`~repro.exec.heuristic_kernels.lindp_merge`
kernel — one prefix-sum-filtered ``cost_batch`` evaluation per DP length
instead of one Python iteration (and one throwaway ``Plan``) per candidate
split.  The kernel works in linear-order *position* space; the exact-DP
kernels it rides alongside are width-free too (multi-word bitmap columns,
see :mod:`repro.core.widebitmap`), so the paper's 100-300-relation LinDP
band runs natively end to end.  :class:`AdaptiveLinDP`
threads ``backend=``/``workers=`` into all three of its rungs, reusing one
inner optimizer per rung across calls.
"""

from __future__ import annotations

from itertools import accumulate
from operator import or_
from typing import Dict, Optional, Tuple

from ..core import bitmapset as bms
from ..core.counters import OptimizerStats
from ..core.enumeration import EnumerationContext
from ..core.memo import MemoTable
from ..core.plan import Plan
from ..core.query import QueryInfo
from ..optimizers.base import JoinOrderOptimizer, OptimizationError
from ..optimizers.dpccp import DPCcp
from .common import HeuristicBackendMixin
from .idp import IDP2
from .ikkbz import IKKBZ

__all__ = ["LinearizedDP", "AdaptiveLinDP"]


class LinearizedDP(HeuristicBackendMixin, JoinOrderOptimizer):
    """DP over contiguous intervals of the IKKBZ linear order."""

    name = "LinearizedDP"
    parallelizability = "medium"
    exact = False
    execution_style = "level_parallel"
    max_relations = 300

    def __init__(self, ikkbz: Optional[IKKBZ] = None,
                 backend: str = "scalar", workers: Optional[int] = None):
        self.ikkbz = ikkbz or IKKBZ()
        self._init_backend(backend, workers)

    def _run(self, query: QueryInfo, subset: int,
             memo: MemoTable, stats: OptimizerStats) -> Plan:
        order = self.ikkbz.linear_order(query, subset)
        n = len(order)

        if self._use_heuristic_kernels(n):
            from ..exec import lindp_merge

            plan = lindp_merge(query, order, stats)
            if plan is None:
                raise OptimizationError(
                    "linearized DP found no connected plan for the full order")
            return plan

        # Interval masks recur across splits, so the cross-edge checks below
        # hit the context's memoized neighbour bitmaps.
        context = EnumerationContext.of(query.graph)

        # Prefix masks of the linear order: its bits are disjoint, so
        # interval [i, j] is prefix_mask[j + 1] ^ prefix_mask[i].
        prefix_mask = list(accumulate(map(bms.bit, order), or_, initial=0))

        best: Dict[Tuple[int, int], Plan] = {}
        for i, vertex in enumerate(order):
            best[(i, i)] = query.leaf_plan(vertex)

        for length in range(2, n + 1):
            for i in range(0, n - length + 1):
                j = i + length - 1
                best_plan: Optional[Plan] = None
                for split in range(i, j):
                    left = best.get((i, split))
                    right = best.get((split + 1, j))
                    if left is None or right is None:
                        continue
                    left_mask = prefix_mask[split + 1] ^ prefix_mask[i]
                    right_mask = prefix_mask[j + 1] ^ prefix_mask[split + 1]
                    stats.record_pair(length, is_ccp=False)
                    if not context.is_connected_to(left_mask, right_mask):
                        continue
                    stats.record_ccp(length)
                    plan = query.join(left_mask, right_mask, left, right)
                    if best_plan is None or plan.cost < best_plan.cost:
                        best_plan = plan
                if best_plan is not None:
                    best[(i, j)] = best_plan
                    stats.record_set(length, connected=True)

        final = best.get((0, n - 1))
        if final is None:
            raise OptimizationError("linearized DP found no connected plan for the full order")
        return final


class AdaptiveLinDP(HeuristicBackendMixin, JoinOrderOptimizer):
    """The adaptive optimizer: DPccp / linearized DP / IDP2(linearized DP).

    Thresholds follow the original paper: exact DP below ``exact_threshold``
    relations, linearized DP up to ``linearized_threshold`` relations, and
    IDP2 with linearized DP as its inner algorithm beyond that.  Each rung's
    inner optimizer is built once and reused across ``optimize()`` calls,
    with ``backend=``/``workers=`` threaded into the linearized rungs.
    """

    name = "LinDP"
    parallelizability = "medium"
    exact = False
    execution_style = "level_parallel"

    def __init__(self, exact_threshold: int = 14, linearized_threshold: int = 100,
                 idp_k: int = 100,
                 backend: str = "scalar", workers: Optional[int] = None):
        self.exact_threshold = exact_threshold
        self.linearized_threshold = linearized_threshold
        self.idp_k = idp_k
        self._init_backend(backend, workers)
        #: Shared per-rung inner optimizers (DPccp has no kernel pipeline —
        #: it is a producer/consumer enumerator — so it takes no backend).
        self._exact_inner = DPCcp()
        self._linearized_inner = LinearizedDP(backend=backend, workers=workers)
        self._idp_inner = IDP2(k=idp_k, exact_factory=LinearizedDP,
                               backend=backend, workers=workers)

    def _run(self, query: QueryInfo, subset: int,
             memo: MemoTable, stats: OptimizerStats) -> Plan:
        n = bms.popcount(subset)
        if n < self.exact_threshold:
            result = self._exact_inner.optimize(query, subset=subset)
        elif n <= self.linearized_threshold:
            result = self._linearized_inner.optimize(query, subset=subset)
        else:
            result = self._idp_inner.optimize(query, subset=subset)
        stats.merge(result.stats)
        return result.plan
