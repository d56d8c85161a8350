"""DPsub — subset-driven dynamic programming (Algorithm 1 of the paper).

DPsub iterates over subset sizes; at size ``i`` it enumerates every connected
subset ``S`` of ``i`` relations and, for each, walks the *entire* powerset of
``S`` as candidate left operands, applying the CCP checks of Section 2.1 to
each ``(S_left, S \\ S_left)`` pair.  All pairs of one level are independent,
so the level is massively parallelizable (which DPsub-GPU exploits); the price
is that the overwhelming majority of enumerated pairs fail the CCP checks
(Figure 4: up to ~2800x more evaluated than valid pairs on a 25-relation
star query).

The per-level pair work is *emitted as a batch* to a kernel backend
(:mod:`repro.exec`): ``backend="scalar"`` runs the historical per-pair loop,
``"vectorized"`` executes the level as numpy array stages (batched submask
unranking, mask-filtered CCP checks, one ``cost_batch`` call, scatter-min),
``"multicore"`` shards those stages across worker processes, ``"auto"``
picks by query size.  Plans, costs and counters are bit-identical
across backends.

Two candidate-set enumeration modes are provided:

* ``unrank_filter=True`` follows the paper's GPU formulation literally —
  unrank all ``C(n, i)`` subsets, count them, and filter out the disconnected
  ones; the number of unranked sets is recorded in ``stats.sets_considered``.
* ``unrank_filter=False`` (default) enumerates connected subsets directly,
  which is what a reasonable CPU implementation does and keeps wall-clock
  times usable in tests; the evaluated-pair counters are identical either way.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..core import bitmapset as bms
from ..core.counters import OptimizerStats
from ..core.enumeration import EnumerationContext
from ..core.memo import MemoTable
from ..core.plan import Plan
from ..core.query import QueryInfo
from ..exec import KernelOptimizerMixin, KernelState
from .base import JoinOrderOptimizer

__all__ = ["DPSub"]


class DPSub(KernelOptimizerMixin, JoinOrderOptimizer):
    """Subset-driven DP with the paper's CCP-check block (Algorithm 1)."""

    name = "DPsub"
    parallelizability = "high"
    exact = True
    execution_style = "level_parallel"
    max_relations = 16

    def __init__(self, unrank_filter: bool = False, backend: str = "scalar",
                 workers: Optional[int] = None):
        self.unrank_filter = unrank_filter
        self._init_backend(backend, workers)

    def _level_targets(self, query: QueryInfo, subset: int, size: int,
                       stats: OptimizerStats,
                       context: EnumerationContext) -> Tuple[int, ...]:
        """The level's connected target sets, with candidate-set accounting."""
        if self.unrank_filter and subset == query.all_relations_mask:
            # GPU-style: unrank every combination, then filter connectivity
            # (the pipeline's unrank + filter phases); the connectivity check
            # is served by the context's memoized grow results.
            connected = []
            for candidate in _iter_subsets_of_size(subset, size):
                is_connected = context.is_connected(candidate)
                stats.record_set(size, is_connected)
                if is_connected:
                    connected.append(candidate)
            return tuple(connected)
        targets = context.connected_subsets(size, within=subset)
        stats.record_sets(size, len(targets))
        return targets

    def _run(self, query: QueryInfo, subset: int,
             memo: MemoTable, stats: OptimizerStats) -> Plan:
        context = EnumerationContext.of(query.graph)
        backend = self._resolve_backend(query, subset)
        state = KernelState(query=query, context=context, memo=memo,
                            stats=stats, scope=subset)
        n = bms.popcount(subset)

        for size in range(2, n + 1):
            targets = self._level_targets(query, subset, size, stats, context)
            backend.run_subset_level(state, size, targets)

        return memo[subset]


def _iter_subsets_of_size(universe: int, size: int):
    """All subsets of ``universe`` with ``size`` members (Gosper over members)."""
    yield from bms.iter_submasks_of_size(universe, size)
