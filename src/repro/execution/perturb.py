"""Seeded q-error injection for cardinality estimates.

Optimizers are only as good as their cardinality estimator, and the standard
way to quantify estimator damage is the *q-error*: the factor by which an
estimate is off, ``max(est / true, true / est)``.  :class:`PerturbedEstimator`
wraps any :class:`~repro.cost.cardinality.CardinalityEstimator` and multiplies
every join estimate by a log-uniform error factor drawn from ``[1/q, q]`` —
so ``q`` bounds the injected q-error — letting robustness suites plan every
rung of the ladder under controlled misestimation and then *execute* the
chosen plans to measure true runtime regret.

Contract:

* **q = 1 is a bit-identical no-op**: every estimate is returned exactly as
  the base estimator produced it (no multiplication by 1.0, no re-rounding).
* **Base relations are never perturbed**: leaf cardinalities stay exact, so
  scan plans, generated datasets and the planning problem's structural
  signature prefix all match the unperturbed query — only join estimates move.
* **Deterministic per (seed, relation set)**: the error factor of a relation
  set is a pure function of the wrapper's seed and the set's bitmap, drawn
  from a dedicated :class:`numpy.random.Generator` per set.  Re-planning the
  same query under the same ``(q, seed)`` sees identical estimates, in any
  order, from any backend.
* **Backend-agnostic**: both callers of the batched fold
  (:meth:`~repro.core.query.QueryInfo.rows_batch` and ``lindp_merge``'s
  interval estimates) detect estimators that override
  :meth:`~repro.cost.cardinality.CardinalityEstimator.rows` and route every
  mask through it, so scalar and vectorized planning under perturbation stay
  bit-identical.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.query import QueryInfo
from ..cost.cardinality import CardinalityEstimator

__all__ = ["PerturbedEstimator", "perturbed_query", "q_error"]


def q_error(true_rows: float, estimated_rows: float) -> float:
    """The q-error of an estimate: ``max(est / true, true / est)`` (>= 1)."""
    if true_rows <= 0 or estimated_rows <= 0:
        raise ValueError("q-error is defined for positive cardinalities")
    ratio = estimated_rows / true_rows
    return max(ratio, 1.0 / ratio)


class PerturbedEstimator(CardinalityEstimator):
    """A cardinality estimator with seeded multiplicative q-error injected.

    Args:
        base: the exact estimator to wrap (shares its graph and base
            cardinalities; the wrapper keeps its own memo, so the base
            estimator's cached exact values are never overwritten).
        q: error bound, >= 1.  Every join estimate is multiplied by
            ``q ** u`` with ``u`` uniform in ``[-1, 1)``, so the injected
            q-error never exceeds ``q``.  ``q = 1`` returns base estimates
            bit-identically.
        seed: perturbation seed; the error factor of a relation set is a
            pure function of ``(seed, set)``.
    """

    def __init__(self, base: CardinalityEstimator, q: float = 1.0, seed: int = 0):
        if q < 1.0:
            raise ValueError(
                f"q must be >= 1 (got {q!r}); q = 1 is the exact no-op and "
                "larger q injects up to that factor of error either way")
        super().__init__(base.graph, base.base_cardinalities,
                         min_rows=base.min_rows)
        self.base = base
        self.q = float(q)
        self.seed = int(seed)

    def rows(self, relations: int) -> float:
        true_rows = self.base.rows(relations)
        # Exact passthrough for q = 1 and for single relations: scans and
        # datasets must see the catalog's statistics unmodified.
        if self.q == 1.0 or relations & (relations - 1) == 0:
            return true_rows
        cached = self._cache.get(relations)
        if cached is not None:
            return cached
        estimate = true_rows * self.error_factor(relations)
        estimate = max(min(estimate, self.MAX_ROWS), self.min_rows)
        self._cache[relations] = estimate
        return estimate

    def error_factor(self, relations: int) -> float:
        """The multiplicative error applied to one relation set (in [1/q, q])."""
        if self.q == 1.0:
            return 1.0
        return float(self.q ** self._unit_draw(relations))

    def _unit_draw(self, relations: int) -> float:
        """Deterministic uniform draw in [-1, 1) keyed by (seed, bitmap).

        The bitmap is split into 64-bit words so arbitrarily wide relation
        sets seed the generator exactly (no hash truncation).
        """
        words = []
        mask = relations
        while mask:
            words.append(mask & 0xFFFFFFFFFFFFFFFF)
            mask >>= 64
        rng = np.random.default_rng([self.seed, len(words)] + words)
        return float(rng.uniform(-1.0, 1.0))

    def cache_key(self) -> str:
        """Folds q and seed into the planner's structural signature.

        Two queries differing only in perturbation must never share cached
        plans, and a q = 1 wrapper is still tagged (its plans are identical
        to the unperturbed query's, but keeping the keys distinct means the
        cache never has to know that).
        """
        return (f"{type(self).__name__}|q={self.q!r}|seed={self.seed}|"
                f"base={self.base.cache_key()}")

    def invalidate(self) -> None:
        super().invalidate()
        self.base.invalidate()


def perturbed_query(query: QueryInfo, q: float, seed: int = 0,
                    name: Optional[str] = None) -> QueryInfo:
    """A copy of ``query`` whose estimator injects q-error at bound ``q``.

    The copy shares the join graph and cost model; only the cardinality
    estimator is replaced (see :meth:`~repro.core.query.QueryInfo.with_estimator`
    for the restrictions on contracted queries).  ``perturbed_query(q=1, ...)``
    plans bit-identically to ``query`` itself.
    """
    estimator = PerturbedEstimator(query.cardinality, q=q, seed=seed)
    renamed = name if name is not None else (
        f"{query.name}@q{q:g}s{seed}" if query.name else f"perturbed@q{q:g}s{seed}")
    return query.with_estimator(estimator, name=renamed)
