"""MPDP — Massively Parallel Dynamic Programming (the paper's contribution).

MPDP keeps DPsub's outer structure (iterate over subset sizes; every connected
set of one size can be planned independently, hence massive parallelism) but
replaces the powerset walk inside each set ``S`` with a *hybrid* enumeration
(Section 3.2):

1. decompose the subgraph induced by ``S`` into biconnected components
   (*blocks*) with ``Find-Blocks``;
2. perform vertex-based enumeration only *within* each block — all subsets
   ``lb`` of the block, with the usual CCP checks against ``rb = block \\ lb``;
3. lift a block-level pair to a pair of ``S`` with the *grow* function along
   the cut edges: ``S_left = grow(lb, S \\ rb)``, ``S_right = S \\ S_left``.

The number of evaluated pairs per set therefore drops from ``2^|S|`` to
``O(#blocks * 2^{max block size})`` (Lemma 7); on tree join graphs every block
is a single edge and EvaluatedCounter equals CCP-Counter exactly (Theorem 3),
and the same holds whenever every block is a clique (Lemma 9).

Both classes *emit per-level batches*: the outer loop enumerates each level's
connected target sets and hands them to a kernel backend
(:mod:`repro.exec`), which executes the split / filter / evaluate /
scatter-min stages — as the historical scalar loops
(:class:`~repro.exec.backend.ScalarBackend`), as batched numpy kernels
(:class:`~repro.exec.vectorized.VectorizedBackend`) or as those kernels
sharded across worker processes
(:class:`~repro.exec.multicore.MulticoreBackend`).  Select with
``backend="scalar" | "vectorized" | "multicore" | "auto"``; results are
bit-identical.

Two classes are exported:

* :class:`MPDPTree` — Algorithm 2, the specialised tree-join-graph version
  that enumerates pairs by removing each edge of the induced subtree.
* :class:`MPDP` — Algorithm 3, the general version with block decomposition;
  it handles trees as a degenerate case (every block is one edge) and is the
  algorithm used everywhere else in the repository.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..core import bitmapset as bms
from ..core.counters import OptimizerStats
from ..core.enumeration import EnumerationContext
from ..core.memo import MemoTable
from ..core.plan import Plan
from ..core.query import QueryInfo
from ..core.shapes import ACYCLIC_SHAPES
from ..exec import KernelOptimizerMixin, KernelState
from .base import JoinOrderOptimizer, OptimizationError

__all__ = ["MPDP", "MPDPTree"]


class MPDP(KernelOptimizerMixin, JoinOrderOptimizer):
    """The general MPDP algorithm (Algorithm 3): block-based hybrid enumeration."""

    name = "MPDP"
    parallelizability = "high"
    exact = True
    execution_style = "level_parallel"
    max_relations = 25

    def __init__(self, backend: str = "scalar", workers: Optional[int] = None):
        self._init_backend(backend, workers)

    def _level_targets(self, query: QueryInfo, subset: int, size: int,
                       context: EnumerationContext) -> Tuple[int, ...]:
        return context.connected_subsets(size, within=subset)

    def _run(self, query: QueryInfo, subset: int,
             memo: MemoTable, stats: OptimizerStats) -> Plan:
        context = EnumerationContext.of(query.graph)
        backend = self._resolve_backend(query, subset)
        state = KernelState(query=query, context=context, memo=memo,
                            stats=stats, scope=subset)
        n = bms.popcount(subset)

        for size in range(2, n + 1):
            targets = self._level_targets(query, subset, size, context)
            stats.record_sets(size, len(targets))
            backend.run_block_level(state, size, targets)

        return memo[subset]


class MPDPTree(KernelOptimizerMixin, JoinOrderOptimizer):
    """MPDP specialised to tree join graphs (Algorithm 2).

    Every connected subset ``S`` of a tree induces a subtree with exactly
    ``|S| - 1`` edges; removing any one edge splits ``S`` into a valid
    CCP-Pair, and every CCP-Pair of ``S`` arises this way (Lemmas 1-2).  Both
    orientations of each split are costed so the counters follow the
    symmetric-pair convention.

    Raises :class:`OptimizationError` if the induced join graph is cyclic.
    """

    name = "MPDP:Tree"
    parallelizability = "high"
    exact = True
    execution_style = "level_parallel"
    supported_shapes = ACYCLIC_SHAPES
    max_relations = 30

    def __init__(self, backend: str = "scalar", workers: Optional[int] = None):
        self._init_backend(backend, workers)

    def _run(self, query: QueryInfo, subset: int,
             memo: MemoTable, stats: OptimizerStats) -> Plan:
        graph = query.graph
        context = EnumerationContext.of(graph)
        backend = self._resolve_backend(query, subset)
        state = KernelState(query=query, context=context, memo=memo,
                            stats=stats, scope=subset)
        n = bms.popcount(subset)
        n_edges_within = len(graph.edges_within(subset))
        if n_edges_within != n - 1:
            raise OptimizationError(
                "MPDP:Tree requires an acyclic (tree) join graph; "
                f"got {n_edges_within} edges over {n} relations"
            )

        for size in range(2, n + 1):
            targets = context.connected_subsets(size, within=subset)
            stats.record_sets(size, len(targets))
            backend.run_tree_level(state, size, targets)

        return memo[subset]
