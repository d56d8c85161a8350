"""PostgreSQL-like cost model.

The paper replaces PostgreSQL's full cost model with a simplified one that
"returns nearly the same cost as PostgreSQL (within 5% in the worst case)" for
the inner equi-join queries it considers (Section 7.1).  This module follows
the same approach: it keeps PostgreSQL's cost *structure* and default
constants (``seq_page_cost``, ``cpu_tuple_cost``, ``cpu_operator_cost``, ...)
for sequential scans and for the three join operators PostgreSQL picks from —
hash join, nested-loop join and sort-merge join — but only for inner
equi-joins with no parallel workers.

The model is deliberately deterministic and monotone in its inputs so that
optimizers disagree only when their search spaces genuinely differ.

:meth:`PostgresCostModel.cost_batch` is the model's array kernel: the three
operator formulas and the cheapest-operator pick as elementwise float64
numpy, bit-identical to :meth:`PostgresCostModel.join` lane by lane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.contracts import kernel
from ..core.plan import JoinMethod, Plan, join_plan, scan_plan
from .base import CostModel

__all__ = ["PostgresCostParameters", "PostgresCostModel"]


@dataclass(frozen=True)
class PostgresCostParameters:
    """Cost constants, defaulting to PostgreSQL 12's planner defaults."""

    seq_page_cost: float = 1.0
    cpu_tuple_cost: float = 0.01
    cpu_operator_cost: float = 0.0025
    cpu_index_tuple_cost: float = 0.005
    #: Tuples assumed to fit on one heap page when the catalog gives no pages.
    tuples_per_page: float = 100.0
    #: Work-mem driven multiplier applied when a hash build side is huge and
    #: would spill to disk; keeps hash joins from being a universal winner.
    hash_spill_threshold: float = 1e7
    hash_spill_penalty: float = 2.0


class PostgresCostModel(CostModel):
    """Cost model mimicking PostgreSQL's planner for inner equi-joins."""

    name = "postgres"

    def __init__(self, parameters: PostgresCostParameters | None = None):
        self.parameters = parameters or PostgresCostParameters()

    # ------------------------------------------------------------------ #
    # Scans
    # ------------------------------------------------------------------ #
    def scan(self, relation_index: int, rows: float) -> Plan:
        """Sequential scan: page I/O plus per-tuple CPU cost."""
        p = self.parameters
        pages = max(1.0, rows / p.tuples_per_page)
        cost = pages * p.seq_page_cost + rows * p.cpu_tuple_cost
        return scan_plan(relation_index, rows, cost)

    # ------------------------------------------------------------------ #
    # Joins
    # ------------------------------------------------------------------ #
    def join(self, left: Plan, right: Plan, output_rows: float) -> Plan:
        """Return the cheapest of hash, nested-loop and merge join."""
        best_cost, best_method = self._best_join(left, right, output_rows)
        return join_plan(left, right, output_rows, best_cost, best_method)

    @kernel
    def cost_batch(self, left_rows, left_costs, right_rows, right_costs,
                   output_rows):
        """Array kernel: the three operator costs and the cheapest per lane.

        Each expression repeats the float64 operation order of
        :meth:`_hash_join_cost`, :meth:`_nested_loop_cost` and
        :meth:`_merge_join_cost`, and the pick is :meth:`_best_join`'s
        strict ``<`` over the same operator order, so every lane equals
        ``join(...).cost`` bit for bit (the
        :class:`~repro.core.arena.PlanArena` contract).  The merge-join
        ``log2`` factor comes from :func:`math.log2`, once per distinct rows
        value: numpy's ``log2`` is not guaranteed to round the same way.
        """
        p = self.parameters
        left_rows = np.asarray(left_rows, dtype=np.float64)
        right_rows = np.asarray(right_rows, dtype=np.float64)
        n = len(left_rows)
        # Overflow to inf (rows near CardinalityEstimator.MAX_ROWS) is what
        # the scalar formulas produce too; numpy would only add a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            # The hash build side is the nested loop's outer side, and the
            # probe side its inner side.
            left_first = left_rows <= right_rows
            small = np.where(left_first, left_rows, right_rows)
            large = np.where(left_first, right_rows, left_rows)
            startup = np.asarray(left_costs, dtype=np.float64) + right_costs
            output_cost = np.multiply(output_rows, p.cpu_tuple_cost)
            probe_cost = large * p.cpu_operator_cost

            hash_cost = (startup
                         + small * (p.cpu_operator_cost + p.cpu_tuple_cost)
                         + probe_cost + output_cost)
            hash_cost = np.where(small > p.hash_spill_threshold,
                                 hash_cost * p.hash_spill_penalty, hash_cost)
            nested_cost = startup + small * probe_cost + output_cost

            distinct, inverse = np.unique(
                np.concatenate([left_rows, right_rows]), return_inverse=True)
            factors: list[float] = []
            for rows in distinct.tolist():  # loop: distinct rows values — math.log2, as numpy's log2 may round differently
                factors.append(max(1.0, math.log2(max(rows, 2.0))))
            factor = np.array(factors)[inverse]
            sort_cost = (
                (0.0 + left_rows * factor[:n] * p.cpu_operator_cost)
                + right_rows * factor[n:] * p.cpu_operator_cost)
            merge_cost = (startup + sort_cost
                          + (left_rows + right_rows) * p.cpu_operator_cost
                          + output_cost)

            best = np.full(n, math.inf)
            for cost in (hash_cost, nested_cost, merge_cost):  # loop: join operators, in _best_join's order
                best = np.where(cost < best, cost, best)
        return best

    def _best_join(self, left: Plan, right: Plan, output_rows: float):
        """Cheapest ``(cost, method)`` over the three physical operators."""
        best_cost = math.inf
        best_method = JoinMethod.HASH_JOIN
        for method, cost in (
            (JoinMethod.HASH_JOIN, self._hash_join_cost(left, right, output_rows)),
            (JoinMethod.NESTED_LOOP, self._nested_loop_cost(left, right, output_rows)),
            (JoinMethod.MERGE_JOIN, self._merge_join_cost(left, right, output_rows)),
        ):
            if cost < best_cost:
                best_cost = cost
                best_method = method
        return best_cost, best_method

    def _hash_join_cost(self, left: Plan, right: Plan, output_rows: float) -> float:
        """Hash join: build the smaller side, probe with the larger."""
        p = self.parameters
        build, probe = (left, right) if left.rows <= right.rows else (right, left)
        build_cost = build.rows * (p.cpu_operator_cost + p.cpu_tuple_cost)
        probe_cost = probe.rows * p.cpu_operator_cost
        output_cost = output_rows * p.cpu_tuple_cost
        startup = left.cost + right.cost
        total = startup + build_cost + probe_cost + output_cost
        if build.rows > p.hash_spill_threshold:
            total *= p.hash_spill_penalty
        return total

    def _nested_loop_cost(self, left: Plan, right: Plan, output_rows: float) -> float:
        """Nested loop: rescan the inner side once per outer tuple.

        The inner rescan is charged at CPU cost only (PostgreSQL would use a
        materialised inner or an index; we model the materialised case).
        """
        p = self.parameters
        outer, inner = (left, right) if left.rows <= right.rows else (right, left)
        rescan_cost = inner.rows * p.cpu_operator_cost
        total = (
            left.cost
            + right.cost
            + outer.rows * rescan_cost
            + output_rows * p.cpu_tuple_cost
        )
        return total

    def _merge_join_cost(self, left: Plan, right: Plan, output_rows: float) -> float:
        """Sort-merge join: sort both inputs then a linear merge."""
        p = self.parameters
        sort_cost = 0.0
        for side in (left, right):
            comparisons = side.rows * max(1.0, math.log2(max(side.rows, 2.0)))
            sort_cost += comparisons * p.cpu_operator_cost
        merge_cost = (left.rows + right.rows) * p.cpu_operator_cost
        output_cost = output_rows * p.cpu_tuple_cost
        return left.cost + right.cost + sort_cost + merge_cost + output_cost
