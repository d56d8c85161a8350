"""The C_out cost model.

``C_out`` charges every join exactly its output cardinality; the cost of a
plan is the sum of the sizes of all intermediate results.  It is the model
used by IKKBZ and by Neumann & Radke's linearized DP (the paper's Section 7.1
notes that recent work uses ``c_out`` while this paper prefers a
PostgreSQL-like model).  Base-relation scans are free under ``C_out``.
"""

from __future__ import annotations

from ..core.contracts import kernel
from ..core.plan import JoinMethod, Plan, join_plan, scan_plan
from .base import CostModel

__all__ = ["CoutCostModel"]


class CoutCostModel(CostModel):
    """Sum-of-intermediate-results cost model."""

    name = "cout"

    def scan(self, relation_index: int, rows: float) -> Plan:
        """Base relations cost nothing under C_out."""
        return scan_plan(relation_index, rows, 0.0)

    def join(self, left: Plan, right: Plan, output_rows: float) -> Plan:
        """Charge the join its output size on top of the children's cost."""
        cost = left.cost + right.cost + output_rows
        return join_plan(left, right, output_rows, cost, JoinMethod.HASH_JOIN)

    @kernel
    def cost_batch(self, left_rows, left_costs, right_rows, right_costs,
                   output_rows):
        """True array kernel: elementwise float64 adds in ``join``'s order.

        ``(left + right) + output`` per lane is the exact IEEE-754 sequence
        the scalar path performs, so batched and per-pair costs are
        bit-identical (the :class:`~repro.core.arena.PlanArena` contract).
        """
        return (left_costs + right_costs) + output_rows
