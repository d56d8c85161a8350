"""AdaptivePlanner: the paper's routing policy as a front-door service.

The paper's end-to-end story (Sections 6-7) is a *policy*, not one
algorithm: run exact MPDP while the query is small enough, switch to the
tree specialisation when the join graph is acyclic, and degrade gracefully
through IDP2-MPDP, LinDP and GOO as queries grow past what exact DP can
afford.  :class:`AdaptivePlanner` implements that policy behind a single
``plan()`` call:

1. **classify** the query's join graph (shape, size, block structure) with
   :class:`~repro.planner.classifier.QueryClassifier`;
2. **route** it down the exact -> IDP2 -> LinDP -> GOO ladder, consulting the
   :class:`~repro.planner.registry.OptimizerRegistry` for shape support and
   practical size ceilings;
3. **enforce the time budget** with the benchmark harness's timeout
   semantics: a rung whose measured time exceeds the budget falls through to
   the next rung, and is skipped outright for every future query of that
   size or larger (the paper's one-minute-timeout protocol);
4. **cache** the outcome under the query's canonical structural signature,
   and deduplicate structurally identical queries inside ``plan_many()``
   batches before any planning happens.

The planner never changes what a chosen optimizer produces: the returned
plan and cost are bit-identical to invoking that optimizer directly.

**Thread safety.**  One ``AdaptivePlanner`` may serve concurrent threads
(this is how :class:`~repro.planner.server.PlannerService` uses it):

* the plan cache is striped and internally synchronized
  (:class:`~repro.planner.cache.PlanCache`);
* the budget memory (``_budget_exceeded``) is read and written under the
  planner lock only;
* every ``plan()`` call builds its *own* optimizer instances
  (:meth:`_create_rung` never shares a rung across calls — the heuristic
  drivers' shared inner exact optimizer is shared per *driver instance*,
  which here means per call), so optimizer state is never crossed between
  threads;
* cacheable cache misses are **single-flighted** per cache key: the first
  thread plans while structurally identical concurrent requests wait on a
  per-key lock and are then served from the cache.  This both prevents the
  thundering-herd duplicate planning a service would otherwise do on a cold
  popular signature, and guarantees the *same* :class:`QueryInfo` object is
  never optimized by two threads at once when caching is enabled (the
  per-graph :class:`~repro.core.enumeration.EnumerationContext` memo tables
  are not internally synchronized).

The one unsupported pattern: concurrently planning the same ``QueryInfo``
*object* with caching disabled (or the same non-cacheable — contracted /
custom-leaf — object).  Regenerate per-thread query objects, or enable the
cache.  ``tests/test_planner_service.py`` hammers one planner from eight
threads and pins outcomes bit-identical to serial planning.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..core.counters import OptimizerStats
from ..core.plan import Plan
from ..core.query import QueryInfo
from ..core.shapes import SHAPE_DISCONNECTED
from ..cost.cardinality import CardinalityEstimator
from ..exec import validate_backend
from ..optimizers.base import JoinOrderOptimizer, OptimizationError, PlanResult
from .cache import PlanCache
from .classifier import QueryClassifier, QueryProfile, structural_signature
from .registry import DEFAULT_REGISTRY, OptimizerRegistry

__all__ = ["PlannerDecision", "PlanningOutcome", "AdaptivePlanner"]

#: The fallback ladder, best rung first (exact rungs are chosen per shape).
_LADDER_EXACT_TREE = "MPDP:Tree"
_LADDER_EXACT = "MPDP"
_LADDER_IDP = "IDP2"
_LADDER_LINDP = "LinDP"
_LADDER_GOO = "GOO"


@dataclass(frozen=True)
class PlannerDecision:
    """Why the planner returned the plan it returned."""

    #: Registry key of the optimizer that produced the plan.
    algorithm: str
    #: Canonical structural signature (the plan-cache key).
    signature: str
    #: Join-graph shape from the classifier.
    shape: str
    n_relations: int
    #: The planner's kernel-backend policy (``scalar``/``vectorized``/
    #: ``multicore``/``auto``) handed to backend-capable rungs.  Backends
    #: never change plans or counters, only where the optimization time goes.
    backend: str = "scalar"
    #: Worker-process count handed to the multicore backend (``None`` = one
    #: per usable CPU; irrelevant to the in-process backends).
    workers: Optional[int] = None
    #: The full ladder considered for this query, best rung first.
    ladder: Tuple[str, ...] = ()
    #: Rungs skipped before running because they blew the budget on an
    #: earlier query of this size or smaller (harness timeout semantics).
    skipped: Tuple[str, ...] = ()
    #: Rungs that ran for *this* query but exceeded the budget and fell
    #: through to the next rung.
    fallbacks: Tuple[str, ...] = ()
    #: True when the outcome came from the plan cache.
    cache_hit: bool = False
    #: True when a ``plan_many`` batch deduplicated this query onto an
    #: earlier structurally identical one.
    deduplicated: bool = False
    #: True when even the rung that produced the plan exceeded the budget
    #: (every rung fell through; the last result is returned regardless).
    over_budget: bool = False
    #: Total wall-clock seconds spent planning, including rungs that ran
    #: but fell through on budget (0.0 on cache hits and dedup shares).
    elapsed_seconds: float = 0.0
    #: Human-readable routing rationale.
    reason: str = ""


@dataclass(frozen=True)
class PlanningOutcome:
    """A :class:`PlanResult` plus the routing decision that produced it.

    Planner results never carry the optimizer's DP memo
    (``result.memo is None``): the serving path only needs plan/cost/stats,
    and cached results must not pin memo tables.  Invoke the optimizer
    directly when the memo is needed.
    """

    result: PlanResult
    decision: PlannerDecision

    @property
    def plan(self) -> Plan:
        return self.result.plan

    @property
    def cost(self) -> float:
        return self.result.cost

    @property
    def stats(self) -> OptimizerStats:
        return self.result.stats

    @property
    def algorithm(self) -> str:
        return self.decision.algorithm


class AdaptivePlanner:
    """Classify, route, budget, cache: the optimizer-service front door.

    Args:
        registry: optimizer catalog (defaults to the shared
            :data:`~repro.planner.registry.DEFAULT_REGISTRY`).
        classifier: query classifier (a default one is created).
        cache: plan cache; pass an explicit :class:`PlanCache` to share one
            across planners (safe even across differently-configured
            planners — every key carries the planner's policy tag), or set
            ``enable_cache=False`` to plan every query from scratch.
        enable_cache: disable caching entirely when False.
        time_budget_seconds: per-query optimization budget.  ``None`` means
            unbounded.  A rung that exceeds the budget falls through to the
            next rung and is remembered as timed out for every query of that
            size or larger, mirroring the benchmark harness's protocol.
        exact_threshold: largest cyclic query exact MPDP plans.
        tree_threshold: largest acyclic query exact MPDP:Tree plans (the
            tree specialisation evaluates only valid pairs — Theorem 3 — so
            it stretches further than the general algorithm).
        idp_threshold: largest query IDP2-MPDP plans.
        lindp_threshold: largest query LinDP plans; beyond this only GOO.
        idp_k: fragment size handed to IDP2's exact re-optimization step.
        backend: kernel execution backend handed to rungs that support one
            (the level-parallel exact algorithms): ``"scalar"`` forces the
            reference loops, ``"vectorized"`` the batched numpy kernels,
            ``"multicore"`` the sharded worker-process kernels, and
            ``"auto"`` (default) lets each run pick by query size and
            machine (see :data:`repro.exec.AUTO_VECTORIZE_MIN_RELATIONS`
            and :data:`repro.exec.AUTO_MULTICORE_MIN_RELATIONS`; the
            multicore backend additionally falls back to the in-process
            kernels for levels below its break-even batch size).  Plans,
            costs and counters are bit-identical across backends, so this
            knob only moves optimization time.
        workers: worker-process count for the multicore backend (``None``
            = one per usable CPU).  Must be a positive integer.
        estimator_wrapper: optional callable mapping a query's
            :class:`~repro.cost.cardinality.CardinalityEstimator` to a
            replacement (e.g. ``lambda est:``
            :class:`~repro.execution.perturb.PerturbedEstimator`
            ``(est, q=4)``), applied to every query before classification.
            This is how robustness suites plan the whole ladder under
            injected q-error without touching workload definitions.  Plan
            caching stays safe automatically: the wrapped estimator's
            ``cache_key()`` is part of the structural signature, so
            perturbed and exact plans never share cache entries.  Returning
            the estimator unchanged leaves the query object untouched.
            Incompatible with contracted queries and queries carrying
            custom leaf plans (``QueryInfo.with_estimator`` rejects them).
        clock: monotonic time source for budget enforcement (defaults to
            :func:`time.perf_counter`; injectable for deterministic tests).
            Budget accounting is strictly *per tier*: a rung that overruns
            and falls through does not charge its elapsed time against the
            next rung's budget — each tier is measured against the full
            budget on its own wall-clock only.
    """

    def __init__(
        self,
        registry: Optional[OptimizerRegistry] = None,
        classifier: Optional[QueryClassifier] = None,
        cache: Optional[PlanCache] = None,
        enable_cache: bool = True,
        time_budget_seconds: Optional[float] = None,
        exact_threshold: int = 14,
        tree_threshold: int = 16,
        idp_threshold: int = 100,
        lindp_threshold: int = 300,
        idp_k: int = 10,
        backend: str = "auto",
        workers: Optional[int] = None,
        estimator_wrapper: Optional[
            Callable[["CardinalityEstimator"], "CardinalityEstimator"]] = None,
        clock: Optional[Callable[[], float]] = None,
    ):
        if not (2 <= exact_threshold <= tree_threshold <= idp_threshold <= lindp_threshold):
            raise ValueError(
                "thresholds must satisfy 2 <= exact <= tree <= idp <= lindp")
        validate_backend(backend, workers)
        self.registry = registry if registry is not None else DEFAULT_REGISTRY
        missing = [rung for rung in (_LADDER_EXACT_TREE, _LADDER_EXACT,
                                     _LADDER_IDP, _LADDER_LINDP, _LADDER_GOO)
                   if rung not in self.registry]
        if missing:
            raise ValueError(
                "registry is missing the planner's ladder rungs "
                f"{missing}; register them (see repro.planner.registry."
                "build_default_registry) or use the default registry")
        self.classifier = classifier or QueryClassifier()
        self.cache: Optional[PlanCache] = (
            cache if cache is not None else PlanCache()) if enable_cache else None
        self.time_budget_seconds = time_budget_seconds
        self.exact_threshold = exact_threshold
        self.tree_threshold = tree_threshold
        self.idp_threshold = idp_threshold
        self.lindp_threshold = lindp_threshold
        self.idp_k = idp_k
        if estimator_wrapper is not None and not callable(estimator_wrapper):
            raise ValueError("estimator_wrapper must be callable (estimator -> "
                             "estimator) or None")
        self.backend = backend
        self.workers = workers
        self.estimator_wrapper = estimator_wrapper
        self._clock = clock if clock is not None else time.perf_counter
        #: Folded into every cache key: two planners may share a PlanCache,
        #: and entries must never cross routing policies (a heuristic-leaning
        #: planner's GOO plan is the wrong answer for a default planner).
        #: The backend knob is deliberately NOT part of the tag — backends
        #: are bit-identical by contract, so planners differing only in
        #: backend share cache entries (the cached decision records which
        #: backend produced the entry).
        self._policy_tag = (f"x{exact_threshold}t{tree_threshold}"
                            f"i{idp_threshold}l{lindp_threshold}k{idp_k}")
        #: rung -> smallest query size at which it blew the budget.
        self._budget_exceeded: Dict[str, int] = {}  # guarded-by: _lock
        self._lock = threading.Lock()
        #: cache key -> lock held by the thread currently planning that key
        #: (singleflight).  Entries are created/removed under ``_lock``.
        self._inflight: Dict[str, threading.Lock] = {}  # guarded-by: _lock
        #: Requests that waited behind another thread planning the same key
        #: and were then served from the cache (service observability).
        self.coalesced_plans = 0  # guarded-by: _lock

    def _cache_key(self, signature: str) -> str:
        return f"{signature}|{self._policy_tag}"

    # ------------------------------------------------------------------ #
    # Routing policy
    # ------------------------------------------------------------------ #
    def ladder_for(self, profile: QueryProfile) -> List[str]:
        """The fallback ladder for a profile, best rung first.

        The policy table (see ARCHITECTURE.md): exact MPDP:Tree for acyclic
        queries up to ``tree_threshold``, exact MPDP for cyclic queries up
        to ``exact_threshold``, then IDP2-MPDP up to ``idp_threshold``,
        LinDP up to ``lindp_threshold``, and GOO beyond.  Rungs whose
        registry capabilities reject the shape or size are left out.
        """
        n = profile.n_relations
        rungs: List[str] = []
        if profile.is_acyclic and n <= self.tree_threshold:
            rungs.append(_LADDER_EXACT_TREE)
        elif n <= self.exact_threshold:
            rungs.append(_LADDER_EXACT)
        if n <= self.idp_threshold and n > 2:
            rungs.append(_LADDER_IDP)
        if n <= self.lindp_threshold:
            rungs.append(_LADDER_LINDP)
        rungs.append(_LADDER_GOO)

        usable: List[str] = []
        for rung in rungs:
            capabilities = self.registry.capabilities(rung)
            if not capabilities.supports_shape(profile.shape):
                continue
            if rung in (_LADDER_EXACT, _LADDER_EXACT_TREE) and not capabilities.supports_size(n):
                continue
            usable.append(rung)
        return usable

    def _create_rung(self, rung: str) -> JoinOrderOptimizer:
        kwargs = {}
        if self.registry.capabilities(rung).supports_backend("vectorized"):
            # Every backend-capable rung gets the knob — the exact rungs AND
            # the heuristic tiers, whose inner exact optimizers used to be
            # re-instantiated with defaults and silently ran scalar for
            # every query past the exact thresholds (exactly the regime the
            # kernels were built for).
            kwargs.update(backend=self.backend, workers=self.workers)
        if rung == _LADDER_IDP:
            kwargs.update(k=self.idp_k)
        elif rung == _LADDER_LINDP:
            # As a fallback rung LinDP must genuinely degrade: AdaptiveLinDP's
            # default re-runs exact DPccp below 14 relations, which would make
            # a budget fallback from exact MPDP run a *second* exponential DP.
            # exact_threshold=0 keeps it on the linearized O(n^3) path (and
            # on IDP2-over-linearized beyond its linearized threshold).
            kwargs.update(exact_threshold=0)
        return self.registry.create(rung, **kwargs)

    # ------------------------------------------------------------------ #
    # Planning
    # ------------------------------------------------------------------ #
    def _wrap_query(self, query: QueryInfo) -> QueryInfo:
        """Apply the planner's ``estimator_wrapper`` (no-op when unset)."""
        if self.estimator_wrapper is None:
            return query
        estimator = self.estimator_wrapper(query.cardinality)
        if estimator is query.cardinality:
            return query
        return query.with_estimator(estimator)

    def plan(self, query: QueryInfo) -> PlanningOutcome:
        """Plan one query through classification, routing, budget and cache."""
        query = self._wrap_query(query)
        profile = self.classifier.classify(query)
        signature = structural_signature(query, shape=profile.shape)
        return self._plan(query, profile, signature)

    def plan_many(self, queries: Iterable[QueryInfo],
                  on_error: str = "raise") -> List[Optional[PlanningOutcome]]:
        """Plan a batch, deduplicating structurally identical queries first.

        Every query gets an outcome (in input order); structurally identical
        queries after the first share its result object, with
        ``decision.deduplicated`` set.  With the cache enabled, repeats
        across batches hit the cache as well.

        Args:
            on_error: ``"raise"`` (default) propagates the first
                :class:`OptimizationError` (e.g. a disconnected join graph),
                discarding the batch; ``"none"`` records ``None`` for the
                failing queries and keeps planning the rest — the serving
                behaviour, where one bad query must not sink the batch.
        """
        if on_error not in ("raise", "none"):
            raise ValueError("on_error must be 'raise' or 'none'")
        outcomes: List[Optional[PlanningOutcome]] = []
        seen: Dict[str, PlanningOutcome] = {}
        for query in queries:
            try:
                query = self._wrap_query(query)
                profile = self.classifier.classify(query)
                signature = structural_signature(query, shape=profile.shape)
                shareable = not query.is_contracted and not query.has_custom_leaf_plans
                base = seen.get(signature) if shareable else None
                if base is not None:
                    outcomes.append(PlanningOutcome(
                        result=base.result,
                        decision=dataclasses.replace(base.decision,
                                                     deduplicated=True,
                                                     elapsed_seconds=0.0),
                    ))
                    continue
                outcome = self._plan(query, profile, signature)
            except OptimizationError:
                if on_error == "raise":
                    raise
                outcomes.append(None)
                continue
            # Mirror the cache rule: budget-degraded outcomes are transient
            # and must not be shared with later twins in the batch (a re-plan
            # skips the remembered rung and produces the steady-state plan).
            degraded = (outcome.decision.over_budget
                        or outcome.decision.fallbacks)
            if shareable and not degraded:
                seen[signature] = outcome
            outcomes.append(outcome)
        return outcomes

    def _plan(self, query: QueryInfo, profile: QueryProfile,
              signature: str) -> PlanningOutcome:
        if profile.shape == SHAPE_DISCONNECTED:
            raise OptimizationError(
                f"cannot plan {query.name or 'query'}: the join graph is "
                "disconnected (cross products are not supported)")
        # Contracted queries and queries with pre-built leaf plans carry cost
        # state the structural signature cannot see; never share cache
        # entries for them (plan_many's dedup applies the same rule).
        cacheable = (self.cache is not None and not query.is_contracted
                     and not query.has_custom_leaf_plans)
        if not cacheable:
            return self._plan_uncached(query, profile, signature, cacheable)
        key = self._cache_key(signature)
        cached = self.cache.get(key)
        if cached is not None:
            return self._as_cache_hit(cached)
        # Singleflight the miss: one thread plans the key, structurally
        # identical concurrent requests wait here and get the cached
        # outcome.  peek() is stat-free — the admission get() above already
        # recorded this request's lookup as a miss.
        flight = self._flight_lock(key)
        with flight:
            cached = self.cache.peek(key)
            if cached is not None:
                with self._lock:
                    self.coalesced_plans += 1
                return self._as_cache_hit(cached)
            try:
                return self._plan_uncached(query, profile, signature,
                                           cacheable)
            finally:
                with self._lock:
                    if self._inflight.get(key) is flight:
                        del self._inflight[key]

    def _flight_lock(self, key: str) -> threading.Lock:
        with self._lock:
            flight = self._inflight.get(key)
            if flight is None:
                flight = threading.Lock()
                self._inflight[key] = flight
            return flight

    @staticmethod
    def _as_cache_hit(cached: "PlanningOutcome") -> "PlanningOutcome":
        return PlanningOutcome(
            result=cached.result,
            decision=dataclasses.replace(cached.decision,
                                         cache_hit=True,
                                         deduplicated=False,
                                         elapsed_seconds=0.0),
        )

    def _plan_uncached(self, query: QueryInfo, profile: QueryProfile,
                       signature: str, cacheable: bool) -> PlanningOutcome:
        ladder = self.ladder_for(profile)
        n = profile.n_relations
        skipped: List[str] = []
        runnable: List[str] = []
        with self._lock:
            for rung in ladder:
                exceeded_at = self._budget_exceeded.get(rung)
                if exceeded_at is not None and n >= exceeded_at:
                    skipped.append(rung)
                else:
                    runnable.append(rung)
        if not runnable:
            # Every rung is remembered as over budget; run the cheapest one
            # anyway — the service must return *a* plan.
            runnable = [ladder[-1]]
            skipped.remove(ladder[-1])

        budget = self.time_budget_seconds
        fallbacks: List[str] = []
        result: Optional[PlanResult] = None
        chosen = runnable[-1]
        total_elapsed = 0.0
        over_budget = False
        for index, rung in enumerate(runnable):
            optimizer = self._create_rung(rung)
            # Per-tier charging: the clock restarts for every rung, so time
            # burned by an over-budget tier that fell through is never
            # double-charged against the tiers below it (it still counts
            # toward the decision's total elapsed_seconds).
            start = self._clock()
            result = optimizer.optimize(query)
            elapsed = self._clock() - start
            total_elapsed += elapsed
            exceeded = budget is not None and elapsed > budget
            if exceeded:
                with self._lock:
                    known = self._budget_exceeded.get(rung)
                    if known is None or n < known:
                        self._budget_exceeded[rung] = n
            if exceeded and index < len(runnable) - 1:
                fallbacks.append(rung)
                continue
            chosen = rung
            over_budget = exceeded
            break
        assert result is not None  # runnable is never empty
        # Planner results never carry the DP memo — neither fresh nor cached
        # (the cache must not pin thousands of Plan objects per entry, and
        # result shape must not depend on cache warmth).  Callers that need
        # the memo invoke the optimizer directly.
        result = dataclasses.replace(result, memo=None)

        decision = PlannerDecision(
            algorithm=chosen,
            signature=signature,
            backend=self.backend,
            workers=self.workers,
            shape=profile.shape,
            n_relations=n,
            ladder=tuple(ladder),
            skipped=tuple(skipped),
            fallbacks=tuple(fallbacks),
            over_budget=over_budget,
            elapsed_seconds=total_elapsed,
            reason=self._reason(profile, chosen, skipped, fallbacks),
        )
        outcome = PlanningOutcome(result=result, decision=decision)
        # Outcomes whose chosen rung itself blew the budget (or that fell
        # through rungs mid-flight) are not cached — they reflect transient
        # pressure and would pin the weaker plan for this signature.
        # Outcomes that merely *skipped* remembered-over-budget rungs are the
        # planner's steady-state answer under the current budget, so they are
        # cached for throughput; reset_budget_memory() evicts them again.
        degraded = over_budget or bool(fallbacks)
        if cacheable and not degraded:
            self.cache.put(self._cache_key(signature), outcome)
        return outcome

    def _reason(self, profile: QueryProfile, chosen: str,
                skipped: List[str], fallbacks: List[str]) -> str:
        n = profile.n_relations
        if chosen == _LADDER_EXACT_TREE:
            base = (f"acyclic {profile.shape} with {n} relations "
                    f"<= tree_threshold={self.tree_threshold}: exact tree MPDP")
        elif chosen == _LADDER_EXACT:
            base = (f"{profile.shape} with {n} relations "
                    f"<= exact_threshold={self.exact_threshold}: exact MPDP "
                    f"(max block size {profile.max_block_size})")
        elif chosen == _LADDER_IDP:
            base = (f"{n} relations <= idp_threshold={self.idp_threshold}: "
                    f"IDP2-MPDP (k={self.idp_k})")
        elif chosen == _LADDER_LINDP:
            base = f"{n} relations <= lindp_threshold={self.lindp_threshold}: LinDP"
        else:
            base = f"{n} relations beyond every DP threshold: greedy GOO"
        notes = []
        if skipped:
            notes.append(f"skipped {'+'.join(skipped)} (earlier budget overruns)")
        if fallbacks:
            notes.append(f"fell back past {'+'.join(fallbacks)} (over budget)")
        return base + (f" [{'; '.join(notes)}]" if notes else "")

    # ------------------------------------------------------------------ #
    # Cache management
    # ------------------------------------------------------------------ #
    def signature_of(self, query: QueryInfo) -> str:
        """The canonical structural signature of ``query``.

        Note this is not the raw cache key: the planner appends its policy
        tag before touching the cache, so use :meth:`invalidate` (not
        ``cache.invalidate(signature_of(q))``) to drop a cached plan.
        """
        return structural_signature(query)

    def invalidate(self, query: QueryInfo) -> bool:
        """Drop this planner's cached plan of one query; True when it existed."""
        if self.cache is None:
            return False
        return self.cache.invalidate(self._cache_key(self.signature_of(query)))

    def reset_budget_memory(self) -> None:
        """Forget recorded budget overruns (rungs become eligible again).

        Cached outcomes that were planned with rungs skipped under the old
        budget memory are evicted, so the newly eligible rungs get their
        chance on the next structurally identical query.
        """
        with self._lock:
            self._budget_exceeded.clear()
        if self.cache is not None:
            tag = f"|{self._policy_tag}"
            self.cache.invalidate_if(
                lambda key, outcome: key.endswith(tag)
                and bool(outcome.decision.skipped))

    def cache_info(self) -> Dict[str, float]:
        """The plan cache's counters (empty when caching is disabled)."""
        return self.cache.cache_info() if self.cache is not None else {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"AdaptivePlanner(exact<={self.exact_threshold}, "
                f"tree<={self.tree_threshold}, idp<={self.idp_threshold}, "
                f"lindp<={self.lindp_threshold}, backend={self.backend!r}, "
                f"budget={self.time_budget_seconds}, cache={self.cache!r})")
