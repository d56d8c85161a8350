"""Cost model interface shared by every optimizer.

A cost model turns cardinalities into plan costs.  Optimizers only ever call
two methods — :meth:`CostModel.scan` to build a leaf plan and
:meth:`CostModel.join` to build the cheapest join of two subplans — so
swapping the PostgreSQL-like model for ``C_out`` (as IKKBZ / LinDP do) is a
one-argument change.

The kernel backends (:mod:`repro.exec`) additionally need to cost a whole
batch of candidate pairs without materialising a ``Plan`` per pair; that is
:meth:`CostModel.cost_batch`.  Both shipped models override it with a numpy
array kernel (:class:`~repro.cost.cout.CoutCostModel` and
:class:`~repro.cost.postgres.PostgresCostModel`).  The default is a scalar
fallback loop over :meth:`CostModel.join_cost_from_stats`, which routes each
pair through :meth:`join` with throwaway stub plans, so a model without a
kernel still works on every backend.

The hard contract, enforced by :class:`~repro.core.arena.PlanArena` during
plan materialization, is **bit-identity**: for every pair,
``cost_batch(...)[i]`` must equal ``join(left, right, rows).cost`` down to
the last IEEE-754 bit, because the batched value is what the DP compared and
the ``join()`` value is what the materialized plan carries.  Overrides must
therefore replicate the exact floating-point operation order of ``join``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from ..core.plan import JoinMethod, Plan

__all__ = ["CostModel"]


@dataclass(frozen=True)
class _StubPlan:
    """Minimal stand-in carrying just the statistics ``join`` reads.

    ``relations`` values 1 and 2 keep the children disjoint so
    ``join_plan``'s overlap check passes.
    """

    relations: int
    rows: float
    cost: float
    method: str = JoinMethod.SCAN
    left: None = None
    right: None = None
    relation_index: int = 0


class CostModel(ABC):
    """Abstract cost model: builds scan and join plans with costs attached."""

    #: Short identifier used in benchmark reports.
    name: str = "abstract"

    @abstractmethod
    def scan(self, relation_index: int, rows: float) -> Plan:
        """Build the access plan for a base relation with ``rows`` tuples."""

    @abstractmethod
    def join(self, left: Plan, right: Plan, output_rows: float) -> Plan:
        """Build the cheapest join of two disjoint subplans.

        ``output_rows`` is the estimated cardinality of the join result; the
        model picks the cheapest physical operator and returns the resulting
        plan (whose cost includes both children).
        """

    def join_cost_only(self, left: Plan, right: Plan, output_rows: float) -> float:
        """Convenience: cost of the cheapest join without materialising a Plan."""
        return self.join(left, right, output_rows).cost

    # ------------------------------------------------------------------ #
    # Batched costing (the kernel backends' contract)
    # ------------------------------------------------------------------ #
    def join_cost_from_stats(self, left_rows: float, left_cost: float,
                             right_rows: float, right_cost: float,
                             output_rows: float) -> float:
        """Cost of the cheapest join of two subplans known only by statistics.

        Must return exactly ``join(left, right, output_rows).cost`` for
        subplans with those ``rows``/``cost`` values.  The default builds
        two stub plans and calls :meth:`join`, which is correct for every
        model whose join cost depends on the children only through their
        statistics (all models in this repository do).
        """
        left = _StubPlan(relations=1, rows=left_rows, cost=left_cost)
        right = _StubPlan(relations=2, rows=right_rows, cost=right_cost)
        return self.join(left, right, output_rows).cost  # type: ignore[arg-type]

    def cost_batch(self, left_rows, left_costs, right_rows, right_costs,
                   output_rows):
        """Vectorized join costing over parallel arrays of pair statistics.

        Args are 1-D array-likes of equal length (numpy arrays on the hot
        path); the result is a ``float64`` array of per-pair costs,
        bit-identical to calling :meth:`join` per pair.

        The default is the documented *scalar fallback*: a Python loop over
        :meth:`join_cost_from_stats`.  Models with elementwise-expressible
        arithmetic override this with real array kernels, as ``C_out`` and
        the PostgreSQL-like model do.
        """
        import numpy as np

        return np.array([
            self.join_cost_from_stats(float(lr), float(lc), float(rr),
                                      float(rc), float(out))
            for lr, lc, rr, rc, out in zip(left_rows, left_costs, right_rows,
                                           right_costs, output_rows)
        ], dtype=np.float64)

    def cache_key(self) -> str:
        """Stable identifier of this model *and its configuration*.

        Used by the planner's structural signature: two queries may share a
        cached plan only when their cost models would cost every plan
        identically, so the key must change whenever a costing parameter
        does.  The default covers the name plus every public instance
        attribute (parameter dataclasses render deterministically through
        ``repr``); override for models whose state lives elsewhere.
        """
        state = vars(self)
        parts = [self.name] + [
            f"{key}={state[key]!r}" for key in sorted(state)
            if not key.startswith("_")
        ]
        return "|".join(parts)
