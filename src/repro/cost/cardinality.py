"""System-R style cardinality estimation over the join graph.

The estimated cardinality of the join of a relation set ``S`` is

    |S| = (product of base-relation cardinalities in S)
          * (product of the selectivities of every join edge inside S)

which is the textbook independence-assumption estimator and the one the
paper's simplified cost model relies on.  Base cardinalities can be scaled
per-relation to model selections pushed below the join (the star-schema
workload in Table 2 "generates queries with selections so that different join
orders would result in different costs").

Estimates are memoised per relation set because every DP algorithm asks for
the same sets over and over while evaluating alternative splits.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core import bitmapset as bms
from ..core.contracts import kernel
from ..core.joingraph import JoinGraph

__all__ = ["CardinalityEstimator", "estimator_overrides_rows"]


def estimator_overrides_rows(estimator: "CardinalityEstimator") -> bool:
    """True when a subclass replaced :meth:`CardinalityEstimator.rows`.

    The batched estimates (:meth:`repro.core.query.QueryInfo.rows_batch` and
    the interval estimates of :func:`repro.exec.heuristic_kernels.lindp_merge`)
    add the estimator's ``log10`` terms through
    :meth:`CardinalityEstimator.fold_schedule` and
    :meth:`CardinalityEstimator.fold_rows` — bit-identical to the *base*
    scalar path, but blind to any subclass override such as
    :class:`repro.execution.perturb.PerturbedEstimator`.  Both call sites
    consult this predicate and fall back to per-mask ``rows()`` calls for
    overriding estimators, so custom estimation is never silently bypassed
    by a kernel backend.
    """
    return type(estimator).rows is not CardinalityEstimator.rows


class CardinalityEstimator:
    """Estimates the output cardinality of joining any subset of relations."""

    def __init__(self, graph: JoinGraph, base_cardinalities: Sequence[float],
                 min_rows: float = 1.0):
        if len(base_cardinalities) != graph.n_relations:
            raise ValueError("need one base cardinality per relation")
        for rows in base_cardinalities:
            if not 0 < rows < math.inf:
                raise ValueError(
                    f"base cardinalities must be positive and finite, got {rows!r}")
        self.graph = graph
        self.base_cardinalities = list(base_cardinalities)
        self.min_rows = min_rows
        self._cache: Dict[int, float] = {}
        self._terms: Optional[Tuple[List[float], List[float]]] = None
        self._schedules: Dict[tuple, tuple] = {}

    def base_rows(self, relation: int) -> float:
        """Cardinality of a single base relation (after pushed-down selections)."""
        return self.base_cardinalities[relation]

    def cache_key(self) -> str:
        """Stable identifier of the estimator's *configuration*.

        Folded into the planner's structural signature alongside the
        per-vertex base cardinalities and edge selectivities (which the
        signature hashes separately).  Subclasses that add estimation
        parameters beyond ``min_rows`` must extend this, or structurally
        identical queries under differently-configured estimators would
        share cached plans.
        """
        return f"{type(self).__name__}|min_rows={self.min_rows!r}"

    #: Estimates are capped here so that queries whose true estimate exceeds
    #: the double-precision range (e.g. near-cross-products over hundreds of
    #: relations) still produce finite, comparable costs.
    MAX_ROWS = 1e300

    def rows(self, relations: int) -> float:
        """Estimated cardinality of the join of the relation set ``relations``.

        The product of base cardinalities over hundreds of relations overflows
        IEEE doubles long before the selectivities bring it back down, so the
        estimate is accumulated in log space and only exponentiated at the
        end (capped at :data:`MAX_ROWS`).  The terms come from
        :meth:`log10_terms` and are added relations ascending, then edges in
        graph order; the batched paths (:meth:`fold_rows`) add them in the
        same order, which is what keeps every backend bit-identical.
        """
        if relations == 0:
            raise ValueError("cannot estimate cardinality of the empty set")
        cached = self._cache.get(relations)
        if cached is not None:
            return cached
        vertex_terms, edge_terms = self.log10_terms()
        log_estimate = 0.0
        rest = relations & (relations - 1)
        if rest != 0 and rest & (rest - 1) == 0:
            # Two-relation fast path: at most one edge can lie inside the
            # pair (duplicate predicates merge on insertion), so the O(|E|)
            # edges_within scan reduces to one edge_between lookup.  The
            # log-space accumulation order is unchanged (vertices ascending,
            # then the edge), keeping the estimate bit-identical.  The greedy
            # heuristics (GOO's candidate scan, IDP1's seed edge, UnionDP's
            # edge weighting) estimate every edge's pair, which made this
            # path quadratic in edges on clique-shaped 1000-relation queries.
            left = bms.lowest_bit_index(relations)
            right = rest.bit_length() - 1
            log_estimate += vertex_terms[left]
            log_estimate += vertex_terms[right]
            edge = self.graph.edge_between(left, right)
            if edge is not None:
                log_estimate += edge_terms[edge.index]
        else:
            for relation in bms.iter_bits(relations):
                log_estimate += vertex_terms[relation]
            for edge in self.graph.edges_within(relations):
                log_estimate += edge_terms[edge.index]
        estimate = self.from_log10(log_estimate)
        self._cache[relations] = estimate
        return estimate

    def log10_terms(self) -> Tuple[List[float], List[float]]:
        """``log10`` of every base cardinality and of every edge selectivity.

        The terms every estimate adds, indexed by relation and by
        :attr:`JoinEdge.index <repro.core.joingraph.JoinEdge.index>`.  Built
        on first use and dropped by :meth:`invalidate`; no other code takes
        these logarithms, so the scalar and batched paths add the same
        floats.
        """
        terms = self._terms
        if terms is None:
            terms = self._terms = (
                [math.log10(rows) for rows in self.base_cardinalities],
                [math.log10(edge.selectivity) for edge in self.graph.edges])
        return terms

    def fold_schedule(self, local_roots: Sequence[int]):
        """The terms of :meth:`rows` laid onto a local bit layout.

        ``local_roots[i]`` is the mask of root relations that local bit
        ``i`` stands for: ``1 << i`` in a root query's identity layout,
        ``1 << spec[i]`` under a bit-remap spec, a composite vertex's
        relations in a contracted query, or the vertex at position ``i`` of
        LinDP's linear order.  Returns ``(values, near, far)`` with one
        term per relation of the layout's span (ascending), then one per
        edge inside the span (graph order) — the order in which
        :meth:`rows` adds them.  ``near <= far`` (int64) are the local bits
        holding the term's relations (equal for a relation and for an edge
        inside one composite); a local set's estimate adds the terms whose
        two bits it holds.  Cached per layout and dropped by
        :meth:`invalidate`.
        """
        key = tuple(local_roots)
        schedule = self._schedules.get(key)
        if schedule is not None:
            return schedule
        vertex_terms, edge_terms = self.log10_terms()
        local_of: Dict[int, int] = {}
        span = 0
        for local, roots in enumerate(key):
            span |= roots
            for relation in bms.iter_bits(roots):
                local_of[relation] = local
        values: List[float] = []
        near: List[int] = []
        far: List[int] = []
        for relation in bms.iter_bits(span):
            values.append(vertex_terms[relation])
            near.append(local_of[relation])
            far.append(local_of[relation])
        for edge in self.graph.edges_within(span):
            ends = sorted((local_of[edge.left], local_of[edge.right]))
            values.append(edge_terms[edge.index])
            near.append(ends[0])
            far.append(ends[1])
        schedule = (np.array(values, dtype=np.float64),
                    np.array(near, dtype=np.int64),
                    np.array(far, dtype=np.int64))
        if len(self._schedules) >= 256:
            self._schedules.clear()
        self._schedules[key] = schedule
        return schedule

    @kernel
    def fold_rows(self, values, select, count):
        """Estimates of ``count`` local sets from schedule terms ``values``.

        ``select(start, stop)`` returns the ``(stop - start, len(values))``
        bool matrix of the terms sets ``start .. stop - 1`` hold (see
        :meth:`fold_schedule`).  Unselected terms become 0.0 and every row
        is summed left to right with ``np.add.accumulate``: adding 0.0 leaves
        a float unchanged, and so does starting from the first term instead
        of from 0.0 (``log10`` never returns -0.0), so each set gets exactly
        the IEEE-754 sum :meth:`rows` computes for it.  ``np.sum`` adds
        pairwise and, from Python 3.12, builtin ``sum`` compensates, so
        neither may replace it.  Rows go in chunks of about a million terms
        to bound the float64 temporaries, and sums finish through
        :meth:`from_log10`.
        """
        log_estimates = np.zeros(count, dtype=np.float64)
        if len(values):
            chunk = max(1, (1 << 20) // len(values))
            for start in range(0, count, chunk):  # loop: chunks — bounds the (rows, terms) temporaries
                stop = min(start + chunk, count)
                terms = np.where(select(start, stop), values, 0.0)
                log_estimates[start:stop] = np.add.accumulate(terms, axis=1)[:, -1]
        return np.array([self.from_log10(log_estimate)
                         for log_estimate in log_estimates.tolist()],
                        dtype=np.float64)

    def from_log10(self, log_estimate: float) -> float:
        """Exponentiate and clamp a log-space estimate, exactly as
        :meth:`rows` does.

        The single home of the overflow-cap / ``min_rows`` tail, shared by
        :meth:`rows` and :meth:`fold_rows`, so the scalar/kernel
        bit-identity contract cannot drift on a one-sided clamp change.
        """
        estimate = (self.MAX_ROWS if log_estimate >= 300.0
                    else 10.0 ** log_estimate)
        return max(estimate, self.min_rows)

    def join_rows(self, left: int, right: int) -> float:
        """Cardinality of joining two disjoint relation sets.

        Equivalent to ``rows(left | right)`` but kept as a separate entry
        point because cost models conceptually ask for the output of a join.
        """
        if left & right:
            raise ValueError("join inputs must be disjoint")
        return self.rows(left | right)

    def selectivity_between(self, left: int, right: int) -> float:
        """Combined selectivity of every edge crossing two disjoint sets."""
        selectivity = 1.0
        for edge in self.graph.edges_between(left, right):
            selectivity *= edge.selectivity
        return selectivity

    def invalidate(self) -> None:
        """Drop the memoised estimates and the ``log10`` terms (used after
        adding edges or mutating selectivities)."""
        self._cache.clear()
        self._terms = None
        self._schedules.clear()
