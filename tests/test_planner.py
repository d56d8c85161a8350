"""Planner service layer: registry, classifier, cache, routing, batching.

Covers ISSUE 2's acceptance criteria:

* the capability registry replaces ad-hoc class attributes / string matching
  (and the GPU-simulated optimizers participate as real
  :class:`JoinOrderOptimizer` subclasses);
* shape classification and canonical structural signatures;
* plan-cache hit / miss / invalidation and ``plan_many`` deduplication;
* the routing policy sends every workload shape to the policy's algorithm
  and returns plans/costs bit-identical to invoking that optimizer directly;
* the time budget falls down the exact -> IDP2 -> LinDP -> GOO ladder with
  the harness's timeout semantics;
* ``ParallelCPUModel.simulate`` dispatches on registry execution styles
  and rejects unregistered names;
* the ``plan_sql`` front door and the ``repro-plan`` CLI.
"""

import json

import pytest

from repro.catalog import Catalog
from repro.core.shapes import (
    SHAPE_CHAIN,
    SHAPE_CLIQUE,
    SHAPE_CYCLE,
    SHAPE_CYCLIC,
    SHAPE_DISCONNECTED,
    SHAPE_SINGLE,
    SHAPE_SNOWFLAKE,
    SHAPE_STAR,
    classify_shape,
)
from repro.core.joingraph import JoinGraph
from repro.core.query import QueryInfo
from repro.gpu import DPSizeGpu, DPSubGpu, GPUSimulatedOptimizer, MPDPGpu
from repro.heuristics import GOO, IDP2, AdaptiveLinDP
from repro.optimizers import DPE, DPCcp, JoinOrderOptimizer, MPDP, MPDPTree
from repro.parallel import ParallelCPUModel
from repro.planner import (
    DEFAULT_REGISTRY,
    AdaptivePlanner,
    OptimizerRegistry,
    PlanCache,
    QueryClassifier,
    structural_signature,
)
from repro.planner.cli import main as cli_main
from repro.sql import plan_sql, plan_sql_many
from repro.workloads import (
    chain_query,
    clique_query,
    cycle_query,
    random_connected_query,
    snowflake_query,
    star_query,
)


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #
class TestOptimizerRegistry:
    def test_default_registry_has_every_shipped_optimizer(self):
        for name in ["DPsize", "DPsub", "DPccp", "PDP", "DPE", "MPDP", "MPDP:Tree",
                     "GE-QO", "GOO", "IKKBZ", "LinDP", "IDP1", "IDP2", "UnionDP",
                     "LinearizedDP", "MPDP (GPU)", "DPsub (GPU)", "DPsize (GPU)"]:
            assert name in DEFAULT_REGISTRY

    def test_capabilities_come_from_describe(self):
        capabilities = DEFAULT_REGISTRY.capabilities("MPDP")
        assert capabilities.exact is True
        assert capabilities.parallelizability == "high"
        assert capabilities.execution_style == "level_parallel"
        assert capabilities == MPDP().describe()

    def test_tree_specialisation_declares_acyclic_shapes_only(self):
        capabilities = DEFAULT_REGISTRY.capabilities("MPDP:Tree")
        assert capabilities.supports_shape(SHAPE_STAR)
        assert capabilities.supports_shape(SHAPE_SNOWFLAKE)
        assert not capabilities.supports_shape(SHAPE_CLIQUE)
        assert not capabilities.supports_shape(SHAPE_CYCLIC)

    def test_producer_consumer_styles(self):
        assert DEFAULT_REGISTRY.capabilities("DPE").execution_style == "producer_consumer"
        assert DEFAULT_REGISTRY.capabilities("DPccp").execution_style == "producer_consumer"
        assert DEFAULT_REGISTRY.capabilities("GOO").execution_style == "sequential"

    def test_lookup_is_alias_and_case_insensitive(self):
        assert DEFAULT_REGISTRY.get("mpdp").key == "MPDP"
        assert DEFAULT_REGISTRY.get("ge-qo").key == "GE-QO"
        assert DEFAULT_REGISTRY.get("GEQO").key == "GE-QO"
        assert DEFAULT_REGISTRY.get("mpdp:tree").key == "MPDP:Tree"

    def test_unknown_name_raises_with_known_names(self):
        with pytest.raises(KeyError, match="unknown optimizer"):
            DEFAULT_REGISTRY.get("NoSuchAlgorithm")
        assert DEFAULT_REGISTRY.find("NoSuchAlgorithm") is None
        assert DEFAULT_REGISTRY.execution_style_of("NoSuchAlgorithm") is None

    def test_create_builds_fresh_configured_instances(self):
        idp = DEFAULT_REGISTRY.create("IDP2", k=7)
        assert isinstance(idp, IDP2)
        assert idp.k == 7
        assert DEFAULT_REGISTRY.create("MPDP") is not DEFAULT_REGISTRY.create("MPDP")

    def test_custom_registry_register_by_probe(self):
        registry = OptimizerRegistry()
        entry = registry.register(MPDP)
        assert entry.key == "MPDP"
        assert registry.get("MPDP").capabilities.exact

    def test_kinds_partition_the_catalog(self):
        assert "MPDP" in DEFAULT_REGISTRY.names("exact")
        assert "GOO" in DEFAULT_REGISTRY.names("heuristic")
        assert "MPDP (GPU)" in DEFAULT_REGISTRY.names("gpu-simulated")
        assert len(DEFAULT_REGISTRY) == len(DEFAULT_REGISTRY.names())


# --------------------------------------------------------------------- #
# GPU wrappers are real JoinOrderOptimizer subclasses
# --------------------------------------------------------------------- #
class TestGpuOptimizerSubclass:
    def test_isinstance_uniformity(self):
        for optimizer in (MPDPGpu(), DPSubGpu(), DPSizeGpu()):
            assert isinstance(optimizer, JoinOrderOptimizer)
            assert isinstance(optimizer, GPUSimulatedOptimizer)

    def test_metadata_mirrors_inner(self):
        gpu = MPDPGpu()
        capabilities = gpu.describe()
        assert capabilities.exact is True
        assert capabilities.parallelizability == "high"
        assert capabilities.max_relations == MPDP.max_relations

    def test_gpu_result_matches_cpu_plan(self):
        query = star_query(8, seed=3)
        gpu = MPDPGpu().optimize(query)
        cpu = MPDP().optimize(query)
        assert gpu.cost == cpu.cost
        assert "gpu_total_seconds" in gpu.stats.extra

    def test_registry_serves_gpu_and_cpu_uniformly(self):
        for name in ("MPDP", "MPDP (GPU)"):
            optimizer = DEFAULT_REGISTRY.create(name)
            assert isinstance(optimizer, JoinOrderOptimizer)
            assert optimizer.describe().exact


# --------------------------------------------------------------------- #
# Shape classification
# --------------------------------------------------------------------- #
class TestShapeClassification:
    @pytest.mark.parametrize("factory,expected", [
        (lambda: star_query(10, seed=1), SHAPE_STAR),
        (lambda: snowflake_query(12, seed=1), SHAPE_SNOWFLAKE),
        (lambda: chain_query(8, seed=1), SHAPE_CHAIN),
        (lambda: cycle_query(8, seed=1), SHAPE_CYCLE),
        (lambda: clique_query(8, seed=1), SHAPE_CLIQUE),
        (lambda: random_connected_query(9, seed=3), SHAPE_CYCLIC),
    ])
    def test_generator_shapes(self, factory, expected):
        query = factory()
        assert classify_shape(query.graph) == expected

    def test_single_vertex_and_two_relation_edge(self):
        graph = JoinGraph(1)
        assert classify_shape(graph) == SHAPE_SINGLE
        graph = JoinGraph(2)
        graph.add_edge(0, 1, 0.5)
        assert classify_shape(graph) == SHAPE_CHAIN

    def test_triangle_is_clique(self):
        graph = JoinGraph(3)
        for a, b in [(0, 1), (1, 2), (0, 2)]:
            graph.add_edge(a, b, 0.5)
        assert classify_shape(graph) == SHAPE_CLIQUE

    def test_disconnected_mask(self):
        graph = JoinGraph(4)
        graph.add_edge(0, 1, 0.5)
        graph.add_edge(2, 3, 0.5)
        assert classify_shape(graph) == SHAPE_DISCONNECTED
        assert classify_shape(graph, 0b0011) == SHAPE_CHAIN

    def test_classifier_profile(self):
        profile = QueryClassifier().classify(clique_query(8, seed=1))
        assert profile.shape == SHAPE_CLIQUE
        assert profile.n_relations == 8
        assert profile.n_edges == 28
        assert not profile.is_acyclic
        assert profile.max_block_size == 8
        tree_profile = QueryClassifier().classify(star_query(8, seed=1))
        assert tree_profile.is_acyclic
        assert tree_profile.max_block_size == 2


# --------------------------------------------------------------------- #
# Canonical signatures
# --------------------------------------------------------------------- #
class TestStructuralSignature:
    def test_regenerated_query_hashes_equal(self):
        a = star_query(10, seed=4)
        b = star_query(10, seed=4)
        assert a is not b
        assert structural_signature(a) == structural_signature(b)

    def test_signature_prefix_is_self_describing(self):
        signature = structural_signature(snowflake_query(12, seed=0))
        assert signature.startswith("snowflake:n12:e11:")

    def test_different_statistics_hash_differently(self):
        assert structural_signature(star_query(10, seed=4)) != \
            structural_signature(star_query(10, seed=5))

    def test_edge_insertion_order_is_canonicalised(self):
        def build(order):
            graph = JoinGraph(3)
            for a, b in order:
                graph.add_edge(a, b, 0.25)
            return QueryInfo(graph, [100.0, 200.0, 300.0])

        forward = build([(0, 1), (1, 2)])
        backward = build([(1, 2), (0, 1)])
        assert structural_signature(forward) == structural_signature(backward)

    def test_edge_orientation_is_canonicalised(self):
        # Join edges are undirected: "a.x = b.x" vs "b.x = a.x".
        def build(flipped):
            graph = JoinGraph(2)
            graph.add_edge(*((1, 0) if flipped else (0, 1)), selectivity=0.25)
            return QueryInfo(graph, [100.0, 200.0])

        assert structural_signature(build(False)) == structural_signature(build(True))

    def test_relabelled_twin_hashes_differently(self):
        # Isomorphic but relabelled: a cached plan's leaf indices would not
        # transfer, so the signatures must differ.
        def build(hub):
            graph = JoinGraph(3)
            spokes = [v for v in range(3) if v != hub]
            for spoke in spokes:
                graph.add_edge(hub, spoke, 0.25)
            rows = [100.0, 100.0, 100.0]
            rows[hub] = 1000.0
            return QueryInfo(graph, rows)

        assert structural_signature(build(0)) != structural_signature(build(1))

    def test_cost_model_is_part_of_the_signature(self):
        from repro.cost import CoutCostModel, PostgresCostModel

        graph = JoinGraph(2)
        graph.add_edge(0, 1, 0.5)
        postgres = QueryInfo(graph, [10.0, 20.0], PostgresCostModel())
        cout = QueryInfo(graph, [10.0, 20.0], CoutCostModel())
        assert structural_signature(postgres) != structural_signature(cout)

    def test_cost_model_parameters_are_part_of_the_signature(self):
        from repro.cost import PostgresCostModel
        from repro.cost.postgres import PostgresCostParameters

        graph = JoinGraph(2)
        graph.add_edge(0, 1, 0.5)
        default = QueryInfo(graph, [10.0, 20.0], PostgresCostModel())
        tuned = QueryInfo(graph, [10.0, 20.0], PostgresCostModel(
            PostgresCostParameters(seq_page_cost=50.0, cpu_tuple_cost=5.0)))
        # Same name ("postgres"), different costing: a shared cache entry
        # would serve a plan costed under the wrong parameters.
        assert structural_signature(default) != structural_signature(tuned)

    def test_estimator_floor_is_part_of_the_signature(self):
        from repro.cost.cardinality import CardinalityEstimator

        graph = JoinGraph(2)
        graph.add_edge(0, 1, 0.5)
        default = QueryInfo(graph, [10.0, 20.0])
        floored = QueryInfo(graph, cardinality=CardinalityEstimator(
            graph, [10.0, 20.0], min_rows=100.0))
        assert structural_signature(default) != structural_signature(floored)

    def test_custom_estimator_cache_key_hook_is_honoured(self):
        from repro.cost.cardinality import CardinalityEstimator

        class TunedEstimator(CardinalityEstimator):
            def __init__(self, graph, base, factor):
                super().__init__(graph, base)
                self.factor = factor

            def cache_key(self):
                return f"{super().cache_key()}|factor={self.factor!r}"

        graph = JoinGraph(2)
        graph.add_edge(0, 1, 0.5)
        one = QueryInfo(graph, cardinality=TunedEstimator(graph, [10.0, 20.0], 1.0))
        two = QueryInfo(graph, cardinality=TunedEstimator(graph, [10.0, 20.0], 2.0))
        assert structural_signature(one) != structural_signature(two)

    def test_contracted_queries_never_share_cache_entries(self):
        planner = AdaptivePlanner()
        query = chain_query(6, seed=0)
        base = MPDPTree().optimize(query)
        partitions = [0b000011, 0b000100, 0b001000, 0b010000, 0b100000]
        plans = [base.plan.subplan_for(partitions[0])] + [
            query.leaf_plan(v) for v in (2, 3, 4, 5)]
        contracted = query.contract(partitions, plans)
        first = planner.plan(contracted)
        second = planner.plan(contracted)
        assert not first.decision.cache_hit
        assert not second.decision.cache_hit

    def test_custom_leaf_plans_never_share_cache_entries(self):
        # Same graph + base cardinalities, but one query carries a pre-built
        # leaf plan whose cost the structural signature cannot see.
        from repro.core.plan import scan_plan

        def build(custom):
            graph = JoinGraph(2)
            graph.add_edge(0, 1, 0.5)
            leaf_plans = [scan_plan(0, 10.0, 1e9), None] if custom else None
            return QueryInfo(graph, [10.0, 20.0], leaf_plans=leaf_plans)

        planner = AdaptivePlanner()
        plain = planner.plan(build(custom=False))
        custom = planner.plan(build(custom=True))
        assert not custom.decision.cache_hit
        assert custom.cost != plain.cost
        # Nor the other direction: the custom-leaf outcome is not cached.
        assert planner.plan(build(custom=True)).decision.cache_hit is False


# --------------------------------------------------------------------- #
# Plan cache
# --------------------------------------------------------------------- #
class TestPlanCache:
    def test_hit_miss_and_counters(self):
        cache = PlanCache(max_entries=4)
        assert cache.get("a") is None
        cache.put("a", "plan-a")
        assert cache.get("a") == "plan-a"
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_lru_eviction(self):
        cache = PlanCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")           # refresh a; b is now LRU
        cache.put("c", 3)
        assert "b" not in cache
        assert "a" in cache and "c" in cache
        assert cache.evictions == 1

    def test_invalidate(self):
        cache = PlanCache()
        cache.put("star:n3:e2:abc", 1)
        assert cache.invalidate("star:n3:e2:abc")
        assert not cache.invalidate("star:n3:e2:abc")
        assert cache.invalidations == 1

    def test_invalidate_where_prefix(self):
        cache = PlanCache()
        cache.put("star:n3:e2:abc", 1)
        cache.put("star:n4:e3:def", 2)
        cache.put("clique:n4:e6:ghi", 3)
        assert cache.invalidate_where("star:") == 2
        assert len(cache) == 1

    def test_clear_keeps_counters(self):
        cache = PlanCache()
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0 and cache.hits == 1

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            PlanCache(max_entries=0)


# --------------------------------------------------------------------- #
# Routing policy: every shape to the policy's algorithm, bit-identical
# --------------------------------------------------------------------- #
class TestRoutingPolicy:
    @pytest.mark.parametrize("factory,expected_algorithm,direct_factory", [
        (lambda: star_query(10, seed=1), "MPDP:Tree", MPDPTree),
        (lambda: snowflake_query(12, seed=1), "MPDP:Tree", MPDPTree),
        (lambda: chain_query(9, seed=1), "MPDP:Tree", MPDPTree),
        (lambda: cycle_query(9, seed=1), "MPDP", MPDP),
        (lambda: clique_query(8, seed=1), "MPDP", MPDP),
        (lambda: random_connected_query(10, seed=3), "MPDP", MPDP),
        (lambda: random_connected_query(30, seed=2), "IDP2",
         lambda: IDP2(k=10)),
        (lambda: snowflake_query(30, seed=2), "IDP2", lambda: IDP2(k=10)),
    ])
    def test_routing_is_bit_identical_to_direct_invocation(
            self, factory, expected_algorithm, direct_factory):
        query = factory()
        outcome = AdaptivePlanner().plan(query)
        assert outcome.decision.algorithm == expected_algorithm
        direct = direct_factory().optimize(factory())
        assert outcome.cost == direct.cost
        assert outcome.plan.structure() == direct.plan.structure()

    def test_large_queries_route_to_lindp_then_goo(self):
        planner = AdaptivePlanner(idp_threshold=20, lindp_threshold=40)
        medium = random_connected_query(30, seed=1)
        assert planner.plan(medium).decision.algorithm == "LinDP"
        direct = AdaptiveLinDP().optimize(random_connected_query(30, seed=1))
        assert planner.plan(medium).decision.cache_hit  # second call
        assert planner.plan(random_connected_query(30, seed=1)).cost == direct.cost

        huge = random_connected_query(60, seed=1)
        outcome = planner.plan(huge)
        assert outcome.decision.algorithm == "GOO"
        assert outcome.cost == GOO().optimize(random_connected_query(60, seed=1)).cost

    def test_acyclic_beyond_tree_threshold_uses_idp(self):
        planner = AdaptivePlanner(tree_threshold=16)
        outcome = planner.plan(star_query(20, seed=1))
        assert outcome.decision.algorithm == "IDP2"
        assert "MPDP:Tree" not in outcome.decision.ladder

    def test_cyclic_never_ladders_through_tree_specialisation(self):
        outcome = AdaptivePlanner().plan(clique_query(8, seed=2))
        assert "MPDP:Tree" not in outcome.decision.ladder
        assert outcome.decision.ladder[0] == "MPDP"

    def test_ladder_respects_thresholds(self):
        planner = AdaptivePlanner(exact_threshold=6, tree_threshold=6,
                                  idp_threshold=12, lindp_threshold=20)
        profile = QueryClassifier().classify(clique_query(8, seed=1))
        assert planner.ladder_for(profile) == ["IDP2", "LinDP", "GOO"]
        tree_profile = QueryClassifier().classify(star_query(6, seed=1))
        assert planner.ladder_for(tree_profile)[0] == "MPDP:Tree"

    def test_invalid_threshold_ordering_rejected(self):
        with pytest.raises(ValueError):
            AdaptivePlanner(exact_threshold=20, tree_threshold=10)

    def test_custom_registry_must_contain_ladder_rungs(self):
        registry = OptimizerRegistry()
        registry.register(MPDP)
        with pytest.raises(ValueError, match="missing the planner's ladder"):
            AdaptivePlanner(registry=registry)

    def test_lindp_rung_never_reruns_exact_dp(self):
        # As a budget fallback the LinDP rung must degrade, not dispatch
        # back to exact DPccp the way a default AdaptiveLinDP would for
        # n < 14.
        planner = AdaptivePlanner()
        rung = planner._create_rung("LinDP")
        assert isinstance(rung, AdaptiveLinDP)
        assert rung.exact_threshold == 0
        query = clique_query(8, seed=1)
        result = rung.optimize(query)
        from repro.heuristics.lindp import LinearizedDP

        assert result.cost == LinearizedDP().optimize(
            clique_query(8, seed=1)).cost

    def test_decision_reason_mentions_policy(self):
        outcome = AdaptivePlanner().plan(star_query(8, seed=0))
        assert "tree_threshold" in outcome.decision.reason
        assert outcome.decision.shape == SHAPE_STAR


# --------------------------------------------------------------------- #
# Plan cache integration and invalidation through the planner
# --------------------------------------------------------------------- #
class TestPlannerCaching:
    def test_repeat_is_served_from_cache_with_identical_result(self):
        planner = AdaptivePlanner()
        first = planner.plan(star_query(9, seed=2))
        second = planner.plan(star_query(9, seed=2))
        assert not first.decision.cache_hit
        assert second.decision.cache_hit
        assert second.plan is first.plan         # shared, bit-identical
        assert second.cost == first.cost
        # Planner results never carry the DP memo — uniformly, so result
        # shape does not depend on cache warmth, and the cache pins no memos.
        assert first.result.memo is None
        assert second.result.memo is None
        assert planner.cache.hits == 1

    def test_invalidate_forces_replanning(self):
        planner = AdaptivePlanner()
        planner.plan(star_query(9, seed=2))
        assert planner.invalidate(star_query(9, seed=2))
        third = planner.plan(star_query(9, seed=2))
        assert not third.decision.cache_hit
        assert not planner.invalidate(chain_query(5, seed=0))  # never planned

    def test_cache_can_be_disabled(self):
        planner = AdaptivePlanner(enable_cache=False)
        planner.plan(star_query(8, seed=1))
        repeat = planner.plan(star_query(8, seed=1))
        assert planner.cache is None
        assert not repeat.decision.cache_hit
        assert planner.cache_info() == {}

    def test_shared_cache_across_planners(self):
        shared = PlanCache()
        a = AdaptivePlanner(cache=shared)
        b = AdaptivePlanner(cache=shared)
        a.plan(star_query(8, seed=1))
        assert b.plan(star_query(8, seed=1)).decision.cache_hit

    def test_shared_cache_never_crosses_policies(self):
        # A heuristic-leaning planner's GOO plan must not be served to a
        # default planner for the same signature: keys carry the policy tag.
        shared = PlanCache()
        greedy = AdaptivePlanner(cache=shared, exact_threshold=2,
                                 tree_threshold=2, idp_threshold=2,
                                 lindp_threshold=2)
        default = AdaptivePlanner(cache=shared)
        query = star_query(8, seed=1)
        degraded = greedy.plan(query)
        assert degraded.decision.algorithm == "GOO"
        fresh = default.plan(star_query(8, seed=1))
        assert not fresh.decision.cache_hit
        assert fresh.decision.algorithm == "MPDP:Tree"


# --------------------------------------------------------------------- #
# plan_many deduplication
# --------------------------------------------------------------------- #
class TestPlanMany:
    def test_batch_deduplicates_by_signature(self):
        planner = AdaptivePlanner(enable_cache=False)  # dedup must not need the cache
        batch = [star_query(8, seed=seed % 2) for seed in range(6)]
        outcomes = planner.plan_many(batch)
        assert len(outcomes) == 6
        flags = [outcome.decision.deduplicated for outcome in outcomes]
        assert flags == [False, False, True, True, True, True]
        # Duplicates share the planned result object.
        assert outcomes[2].result is outcomes[0].result
        assert outcomes[3].result is outcomes[1].result
        assert outcomes[2].cost == outcomes[0].cost

    def test_batch_preserves_input_order_and_costs(self):
        planner = AdaptivePlanner()
        batch = [chain_query(6, seed=0), clique_query(6, seed=0), chain_query(6, seed=0)]
        outcomes = planner.plan_many(batch)
        assert [outcome.decision.shape for outcome in outcomes] == \
            [SHAPE_CHAIN, SHAPE_CLIQUE, SHAPE_CHAIN]
        direct = MPDPTree().optimize(chain_query(6, seed=0))
        assert outcomes[0].cost == direct.cost
        assert outcomes[2].cost == direct.cost

    def test_batch_does_not_share_budget_degraded_outcomes(self):
        # Matches the cache rule: a plan produced after mid-flight fallbacks
        # is transient and must not be deduplicated onto later twins.
        planner = AdaptivePlanner(time_budget_seconds=1e-9, enable_cache=False)
        outcomes = planner.plan_many([clique_query(7, seed=9),
                                      clique_query(7, seed=9)])
        assert outcomes[0].decision.fallbacks          # degraded first run
        assert not outcomes[1].decision.deduplicated   # re-planned, not shared

    def test_second_batch_hits_cache(self):
        planner = AdaptivePlanner()
        planner.plan_many([star_query(8, seed=1)])
        outcomes = planner.plan_many([star_query(8, seed=1)])
        assert outcomes[0].decision.cache_hit
        assert not outcomes[0].decision.deduplicated

    def test_unplannable_query_raises_or_yields_none(self):
        disconnected_graph = JoinGraph(3)
        disconnected_graph.add_edge(0, 1, 0.5)
        bad = QueryInfo(disconnected_graph, [10.0, 20.0, 30.0])
        good = star_query(6, seed=0)

        from repro.optimizers import OptimizationError

        planner = AdaptivePlanner()
        with pytest.raises(OptimizationError, match="disconnected"):
            planner.plan(bad)
        with pytest.raises(OptimizationError):
            planner.plan_many([good, bad])
        outcomes = planner.plan_many([good, bad, star_query(6, seed=0)],
                                     on_error="none")
        assert outcomes[1] is None
        assert outcomes[0] is not None and outcomes[2] is not None
        assert outcomes[2].decision.cache_hit or outcomes[2].decision.deduplicated
        with pytest.raises(ValueError):
            planner.plan_many([good], on_error="ignore")


# --------------------------------------------------------------------- #
# Time budget: harness timeout semantics
# --------------------------------------------------------------------- #
class TestTimeBudget:
    def test_over_budget_rungs_fall_through_to_goo(self):
        planner = AdaptivePlanner(time_budget_seconds=1e-9, enable_cache=False)
        outcome = planner.plan(clique_query(9, seed=1))
        assert outcome.decision.algorithm == "GOO"
        assert outcome.decision.fallbacks == ("MPDP", "IDP2", "LinDP")
        assert outcome.decision.over_budget
        assert outcome.cost == GOO().optimize(clique_query(9, seed=1)).cost

    def test_overruns_are_remembered_for_equal_or_larger_sizes(self):
        planner = AdaptivePlanner(time_budget_seconds=1e-9, enable_cache=False)
        planner.plan(clique_query(9, seed=1))
        second = planner.plan(clique_query(9, seed=5))
        assert "MPDP" in second.decision.skipped
        assert second.decision.algorithm == "GOO"
        # A *smaller* query still gets its full ladder.
        smaller = planner.plan(clique_query(6, seed=1))
        assert "MPDP" not in smaller.decision.skipped

    def test_all_rungs_skipped_reports_consistent_decision(self):
        planner = AdaptivePlanner(time_budget_seconds=1e-9, enable_cache=False)
        planner.plan(clique_query(8, seed=1))   # records every rung, GOO included
        outcome = planner.plan(clique_query(8, seed=2))
        assert outcome.decision.algorithm == "GOO"
        # The rung that actually ran must not also be reported as skipped.
        assert "GOO" not in outcome.decision.skipped
        assert set(outcome.decision.skipped) == {"MPDP", "IDP2", "LinDP"}

    def test_elapsed_includes_fallback_rungs(self):
        planner = AdaptivePlanner(time_budget_seconds=1e-9, enable_cache=False)
        outcome = planner.plan(clique_query(8, seed=4))
        # Every rung ran; the reported time covers all of them, so it must
        # exceed the final (cheap GOO) rung's own wall time.
        assert outcome.decision.fallbacks
        assert outcome.decision.elapsed_seconds > outcome.stats.wall_time_seconds

    def test_reset_budget_memory(self):
        planner = AdaptivePlanner(time_budget_seconds=1e-9, enable_cache=False)
        planner.plan(clique_query(8, seed=1))
        planner.reset_budget_memory()
        outcome = planner.plan(clique_query(8, seed=2))
        assert not outcome.decision.skipped

    def test_skip_routed_outcomes_are_cached_until_budget_reset(self):
        # Rungs skipped from *remembered* overruns are the steady-state
        # answer under the current budget: cache them for throughput, but
        # evict on reset_budget_memory() so eligible rungs get re-tried.
        # Budget 50ms: on the scalar kernels exact MPDP (and IDP2, whose
        # k=10 fragment is the whole query) takes ~300ms on a 10-clique,
        # LinDP ~2ms.  ``auto`` would vectorize it to within a few tens of
        # milliseconds of the budget, so the backend is pinned.
        planner = AdaptivePlanner(time_budget_seconds=0.05, backend="scalar")
        warmup = planner.plan(clique_query(10, seed=6))
        assert warmup.decision.fallbacks      # degraded mid-flight: not cached
        first = planner.plan(clique_query(10, seed=7))   # skip-routed
        assert first.decision.skipped and not first.decision.fallbacks
        assert first.decision.algorithm == "LinDP"
        repeat = planner.plan(clique_query(10, seed=7))
        assert repeat.decision.cache_hit
        planner.time_budget_seconds = None
        planner.reset_budget_memory()
        fresh = planner.plan(clique_query(10, seed=7))
        assert not fresh.decision.cache_hit
        assert fresh.decision.algorithm == "MPDP"

    def test_degraded_outcomes_are_not_cached(self):
        # A budget fallback must not pin the heuristic plan for the
        # signature: once the pressure is gone, the policy's algorithm wins.
        planner = AdaptivePlanner(time_budget_seconds=1e-9)
        degraded = planner.plan(clique_query(8, seed=3))
        assert degraded.decision.algorithm == "GOO"
        assert len(planner.cache) == 0
        planner.time_budget_seconds = None
        planner.reset_budget_memory()
        recovered = planner.plan(clique_query(8, seed=3))
        assert not recovered.decision.cache_hit
        assert recovered.decision.algorithm == "MPDP"

    def test_generous_budget_never_falls_back(self):
        planner = AdaptivePlanner(time_budget_seconds=300.0)
        outcome = planner.plan(star_query(9, seed=1))
        assert outcome.decision.algorithm == "MPDP:Tree"
        assert not outcome.decision.fallbacks
        assert not outcome.decision.over_budget


# --------------------------------------------------------------------- #
# ParallelCPUModel: registry-driven execution-style dispatch
# --------------------------------------------------------------------- #
class TestParallelModelDispatch:
    @pytest.fixture(scope="class")
    def stats(self):
        return DPCcp().optimize(star_query(8, seed=1)).stats

    def test_explicit_execution_style(self, stats):
        model = ParallelCPUModel()
        assert model.simulate(stats, 8, execution_style="producer_consumer") == \
            pytest.approx(model.producer_consumer_time(stats, 8))
        assert model.simulate(stats, 8, execution_style="level_parallel") == \
            pytest.approx(model.level_parallel_time(stats, 8))

    def test_registered_names_resolve_without_warning(self, stats):
        import warnings

        model = ParallelCPUModel()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dpe = model.simulate(stats, 8, "DPE")
            mpdp = model.simulate(stats, 8, "MPDP")
        assert dpe == pytest.approx(model.producer_consumer_time(stats, 8))
        assert mpdp == pytest.approx(model.level_parallel_time(stats, 8))

    def test_unknown_name_raises(self, stats):
        model = ParallelCPUModel()
        for name in ("DPE-experimental", "SomethingElse"):
            with pytest.raises(ValueError, match="DEFAULT_REGISTRY"):
                model.simulate(stats, 8, name)

    def test_requires_algorithm_or_style(self, stats):
        with pytest.raises(ValueError, match="algorithm name or"):
            ParallelCPUModel().simulate(stats, 8)

    def test_registry_and_legacy_dispatch_agree_for_shipped_names(self, stats):
        model = ParallelCPUModel()
        for name in ("DPsize", "DPsub", "MPDP", "DPccp", "DPE", "PDP"):
            by_name = model.simulate(stats, 12, name)
            style = DEFAULT_REGISTRY.capabilities(name).execution_style
            by_style = model.simulate(stats, 12, execution_style=style)
            assert by_name == pytest.approx(by_style)


# --------------------------------------------------------------------- #
# SQL front door and CLI
# --------------------------------------------------------------------- #
def _toy_catalog() -> Catalog:
    catalog = Catalog()
    for name, rows in [("a", 1e6), ("b", 2e4), ("c", 3e5), ("d", 1e3)]:
        catalog.add_table(name, rows)
    return catalog


class TestSQLFrontDoor:
    SQL = ("select * from a, b, c, d where a.x = b.x and b.y = c.y "
           "and c.z = d.z")

    def test_plan_sql_routes_through_planner(self):
        planned = plan_sql(self.SQL, _toy_catalog())
        assert planned.algorithm == "MPDP:Tree"
        assert planned.outcome.decision.shape == SHAPE_CHAIN
        assert planned.parsed.join_predicates == [
            "a.x = b.x", "b.y = c.y", "c.z = d.z"]
        assert planned.cost == planned.outcome.result.cost

    def test_plan_sql_shares_the_planner_cache(self):
        planner = AdaptivePlanner()
        plan_sql(self.SQL, _toy_catalog(), planner=planner)
        repeat = plan_sql(self.SQL, _toy_catalog(), planner=planner)
        assert repeat.outcome.decision.cache_hit

    def test_plan_sql_many_deduplicates(self):
        statements = [self.SQL, self.SQL,
                      "select * from a, b where a.x = b.x"]
        planned = plan_sql_many(statements, _toy_catalog(),
                                planner=AdaptivePlanner(enable_cache=False))
        assert len(planned) == 3
        assert planned[1].outcome.decision.deduplicated
        assert not planned[2].outcome.decision.deduplicated


class TestCli:
    SQL = "select * from a, b, c where a.x = b.x and b.y = c.y"

    def test_inline_sql_prints_decision_and_plan(self, capsys):
        assert cli_main([self.SQL]) == 0
        out = capsys.readouterr().out
        assert "algorithm : MPDP:Tree" in out
        assert "shape     : chain" in out
        assert "seqscan" in out

    def test_no_plan_flag(self, capsys):
        assert cli_main([self.SQL, "--no-plan"]) == 0
        assert "seqscan" not in capsys.readouterr().out

    def test_catalog_file_and_query_file(self, tmp_path, capsys):
        catalog_path = tmp_path / "catalog.json"
        catalog_path.write_text(json.dumps({
            "tables": {
                "a": {"rows": 500, "columns": {"x": {"n_distinct": 10}}},
                "b": {"rows": 100},
            }
        }))
        sql_path = tmp_path / "query.sql"
        sql_path.write_text(self.SQL)
        assert cli_main(["--file", str(sql_path),
                         "--catalog", str(catalog_path)]) == 0
        assert "3 relations" in capsys.readouterr().out

    def test_bad_sql_fails_cleanly(self, capsys):
        assert cli_main(["select * from a where a.x = b.x or a.y = 1"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_cross_product_query_fails_cleanly(self, capsys):
        # Parses fine but the join graph is disconnected: the optimizer's
        # rejection must come back as an error line, not a traceback.
        assert cli_main(["select * from a, b"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_catalog_json_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "catalog.json"
        bad.write_text("{not json")
        assert cli_main([self.SQL, "--catalog", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_catalog_spec_values_fail_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "catalog.json"
        bad.write_text(json.dumps({"tables": {"a": {"rows": "lots"}}}))
        assert cli_main([self.SQL, "--catalog", str(bad)]) == 1
        assert "non-numeric" in capsys.readouterr().err
        bad.write_text(json.dumps({"tables": ["a"]}))
        assert cli_main([self.SQL, "--catalog", str(bad)]) == 1
        assert "must be an object" in capsys.readouterr().err

    def test_missing_query_file_fails_cleanly(self, capsys):
        assert cli_main(["--file", "/nonexistent/query.sql"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_requires_exactly_one_query_source(self, capsys):
        assert cli_main([]) == 2


class TestReferencedTables:
    def test_lists_from_clause_tables(self):
        from repro.sql.parser import referenced_tables

        sql = "select * from orders o, lineitem, orders o2 where o.x = lineitem.x and o2.y = lineitem.y"
        assert referenced_tables(sql) == ["orders", "lineitem", "orders"]


# --------------------------------------------------------------------- #
# Kernelized heuristic ladder: backend threading (ISSUE 5)
# --------------------------------------------------------------------- #
class TestHeuristicTierBackendThreading:
    """The planner's backend knob must reach every backend-capable tier."""

    def _plan_capturing_rung(self, planner, query):
        created = []
        original = planner._create_rung

        def capture(rung):
            optimizer = original(rung)
            created.append((rung, optimizer))
            return optimizer

        planner._create_rung = capture
        outcome = planner.plan(query)
        planner._create_rung = original
        return outcome, dict(created)

    @pytest.mark.parametrize("n,rung", [(30, "IDP2"), (150, "LinDP"), (310, "GOO")])
    def test_decision_records_effective_backend_at_every_tier(self, n, rung):
        planner = AdaptivePlanner(enable_cache=False, backend="vectorized")
        outcome, created = self._plan_capturing_rung(
            planner, chain_query(n, seed=0))
        assert outcome.decision.algorithm == rung
        assert outcome.decision.backend == "vectorized"
        assert created[rung].backend == "vectorized"

    def test_multicore_100_relation_plan_constructs_inner_with_backend(self):
        """Regression: a backend="multicore" 100-relation plan must build
        its IDP2 tier (and that tier's shared inner exact optimizer) with
        the multicore backend — the seed-era default exact factory
        dropped the knob and silently ran scalar."""
        planner = AdaptivePlanner(enable_cache=False, backend="multicore",
                                  workers=2)
        outcome, created = self._plan_capturing_rung(
            planner, chain_query(100, seed=3))
        assert outcome.decision.algorithm == "IDP2"
        assert outcome.decision.backend == "multicore"
        assert outcome.decision.workers == 2
        idp = created["IDP2"]
        assert idp.backend == "multicore"
        assert idp.workers == 2
        assert idp.k == planner.idp_k
        # The shared inner exact optimizer carries the knob too.
        assert idp.exact_optimizer.backend == "multicore"
        assert idp.exact_optimizer.workers == 2

    def test_lindp_tier_gets_backend_and_degraded_exact_threshold(self):
        planner = AdaptivePlanner(enable_cache=False, backend="vectorized")
        outcome, created = self._plan_capturing_rung(
            planner, chain_query(150, seed=1))
        lindp = created["LinDP"]
        assert lindp.backend == "vectorized"
        assert lindp.exact_threshold == 0
        assert lindp._linearized_inner.backend == "vectorized"
        assert lindp._idp_inner.backend == "vectorized"
        assert lindp._idp_inner.exact_optimizer.backend == "vectorized"

    def test_heuristic_tier_results_bit_identical_across_backends(self):
        query = lambda: chain_query(40, seed=5)
        outcomes = {}
        for backend in ("scalar", "vectorized", "multicore"):
            planner = AdaptivePlanner(enable_cache=False, backend=backend,
                                      workers=2 if backend == "multicore" else None)
            outcomes[backend] = planner.plan(query())
        reference = outcomes["scalar"]
        assert reference.decision.algorithm == "IDP2"
        for backend, outcome in outcomes.items():
            assert outcome.cost == reference.cost, backend
            assert outcome.plan == reference.plan, backend


class TestPerTierBudgetCharging:
    """Each tier is charged only its own wall-clock against the budget."""

    class FakeClock:
        """Deterministic clock: each optimize() consumes a scripted cost."""

        def __init__(self):
            self.now = 0.0

        def __call__(self):
            return self.now

    def _planner_with_scripted_tiers(self, tier_costs, budget):
        clock = self.FakeClock()
        planner = AdaptivePlanner(enable_cache=False,
                                  time_budget_seconds=budget, clock=clock)
        original = planner._create_rung

        def scripted(rung):
            optimizer = original(rung)
            inner_optimize = optimizer.optimize

            def optimize(query, subset=None):
                clock.now += tier_costs.get(rung, 0.0)
                return inner_optimize(query, subset)

            optimizer.optimize = optimize
            return optimizer

        planner._create_rung = scripted
        return planner

    def test_exact_overrun_is_not_charged_against_idp_tier(self):
        # Exact blows the 1.0s budget (5.0s); IDP2 takes 0.4s of its own.
        # With per-tier charging IDP2 is within budget; double-charging the
        # exact tier's 5.0s would mark IDP2 over budget too.
        planner = self._planner_with_scripted_tiers(
            {"MPDP:Tree": 5.0, "IDP2": 0.4}, budget=1.0)
        outcome = planner.plan(chain_query(10, seed=2))
        assert outcome.decision.fallbacks == ("MPDP:Tree",)
        assert outcome.decision.algorithm == "IDP2"
        assert not outcome.decision.over_budget
        # Only the overrunning tier is remembered as over budget.
        assert planner._budget_exceeded == {"MPDP:Tree": 10}
        # Total elapsed still accounts for every tier that ran.
        assert outcome.decision.elapsed_seconds == pytest.approx(5.4)

    def test_tier_charged_its_own_overrun(self):
        planner = self._planner_with_scripted_tiers(
            {"MPDP:Tree": 5.0, "IDP2": 3.0, "LinDP": 0.2}, budget=1.0)
        outcome = planner.plan(chain_query(10, seed=2))
        assert outcome.decision.fallbacks == ("MPDP:Tree", "IDP2")
        assert outcome.decision.algorithm == "LinDP"
        assert not outcome.decision.over_budget
        assert set(planner._budget_exceeded) == {"MPDP:Tree", "IDP2"}

    def test_within_budget_tiers_never_fall_through(self):
        planner = self._planner_with_scripted_tiers(
            {"MPDP:Tree": 0.3, "IDP2": 0.4}, budget=1.0)
        outcome = planner.plan(chain_query(10, seed=2))
        assert outcome.decision.algorithm == "MPDP:Tree"
        assert outcome.decision.fallbacks == ()
        assert not outcome.decision.over_budget
        assert planner._budget_exceeded == {}
