"""Kernel execution backends: scalar/vectorized equivalence and the arena.

The vectorized backend's whole contract is *bit-identity* with the scalar
reference (see ``src/repro/exec/``): same plans (down to join orientation on
cost ties), same costs, same counters, same memo iteration order.  These
tests pin that contract across the fig04/06-09 workloads and every
shape-taxonomy topology, and cover the supporting layers: the PlanArena's
lazy materialization, the batched cost/cardinality contracts, backend
resolution, the planner/front-door knob, and the per-level batch sizes the
GPU pipeline model now consumes.
"""

from __future__ import annotations

import math
import random
import time

import pytest

from repro.core import bitmapset as bms
from repro.core.arena import PlanArena
from repro.core.counters import OptimizerStats
from repro.core.enumeration import EnumerationContext
from repro.core.joingraph import JoinGraph
from repro.core.memo import MemoTable
from repro.core.plan import JoinMethod, scan_plan
from repro.core.query import QueryInfo
from repro.cost.base import CostModel
from repro.cost.cardinality import CardinalityEstimator
from repro.cost.cout import CoutCostModel
from repro.cost.postgres import PostgresCostModel, PostgresCostParameters
from repro.exec import (
    AUTO_VECTORIZE_MIN_RELATIONS,
    ScalarBackend,
    resolve_backend,
)
from repro.exec import vectorized as vectorized_module
from repro.exec.vectorized import VectorizedBackend
from repro.gpu.pipeline import GPUPipelineModel
from repro.gpu.simulated import MPDPGpu
from repro.heuristics import LinearizedDP
from repro.optimizers import DPSize, DPSub, MPDP
from repro.optimizers.mpdp import MPDPTree
from repro.planner import DEFAULT_REGISTRY, AdaptivePlanner
from repro.workloads import (
    chain_query,
    clique_query,
    cycle_query,
    musicbrainz_query,
    random_connected_query,
    snowflake_query,
    star_query,
)

# --------------------------------------------------------------------------- #
# Workloads: the fig04/06-09 benchmark queries plus one of every shape in the
# taxonomy (chain / star / snowflake / cycle / clique / general cyclic).
# --------------------------------------------------------------------------- #
WORKLOAD_FACTORIES = {
    "fig04_star_n10_seed1": lambda: star_query(10, seed=1),
    "fig06_star_n10_seed0": lambda: star_query(10, seed=0),
    "fig07_snowflake_n12_seed0": lambda: snowflake_query(12, seed=0),
    "fig08_clique_n9_seed0": lambda: clique_query(9, seed=0),
    "fig09_musicbrainz_n13_seed0": lambda: musicbrainz_query(13, seed=0),
    "shape_chain_n11": lambda: chain_query(11, seed=4),
    "shape_cycle_n10": lambda: cycle_query(10, seed=2),
    "shape_cyclic_sparse_n9": lambda: random_connected_query(
        9, extra_edge_probability=0.15, seed=7),
    "shape_cyclic_dense_n9": lambda: random_connected_query(
        9, extra_edge_probability=0.5, seed=11),
    "cout_star_n10": lambda: star_query(10, seed=0, cost_model=CoutCostModel()),
    "cout_clique_n9": lambda: clique_query(9, seed=0, cost_model=CoutCostModel()),
}

#: Acyclic workloads MPDP:Tree accepts.
TREE_WORKLOADS = ("fig04_star_n10_seed1", "fig06_star_n10_seed0",
                  "fig07_snowflake_n12_seed0", "shape_chain_n11",
                  "cout_star_n10")

COUNTER_FIELDS = ("evaluated_pairs", "ccp_pairs", "sets_considered",
                  "connected_sets", "level_sets", "level_considered",
                  "level_pairs", "level_ccp", "memo_entries")


def assert_equivalent(scalar_result, vectorized_result):
    """The full bit-identity contract between two PlanResults."""
    assert vectorized_result.cost == scalar_result.cost
    # Frozen-dataclass equality covers every node's rows/cost/method and the
    # exact left/right orientation chosen on cost ties.
    assert vectorized_result.plan == scalar_result.plan
    for field in COUNTER_FIELDS:
        assert getattr(vectorized_result.stats, field) == \
            getattr(scalar_result.stats, field), field
    # Memo surface: same keys, same iteration order, same per-entry plans.
    scalar_items = list(scalar_result.memo.items())
    vectorized_items = list(vectorized_result.memo.items())
    assert [k for k, _ in vectorized_items] == [k for k, _ in scalar_items]
    for (_, scalar_plan), (_, vector_plan) in zip(scalar_items, vectorized_items):
        assert vector_plan.cost == scalar_plan.cost


class TestBackendEquivalence:
    @pytest.mark.parametrize("workload", sorted(WORKLOAD_FACTORIES))
    def test_mpdp_bit_identical(self, workload):
        make = WORKLOAD_FACTORIES[workload]
        # Fresh query per backend: equivalence must not rely on shared caches.
        scalar = MPDP(backend="scalar").optimize(make())
        vectorized = MPDP(backend="vectorized").optimize(make())
        assert isinstance(vectorized.memo, PlanArena)
        assert isinstance(scalar.memo, MemoTable)
        assert_equivalent(scalar, vectorized)

    @pytest.mark.parametrize("workload", sorted(WORKLOAD_FACTORIES))
    def test_dpsub_bit_identical(self, workload):
        make = WORKLOAD_FACTORIES[workload]
        scalar = DPSub(backend="scalar").optimize(make())
        vectorized = DPSub(backend="vectorized").optimize(make())
        assert_equivalent(scalar, vectorized)

    @pytest.mark.parametrize("workload", TREE_WORKLOADS)
    def test_mpdp_tree_bit_identical(self, workload):
        make = WORKLOAD_FACTORIES[workload]
        scalar = MPDPTree(backend="scalar").optimize(make())
        vectorized = MPDPTree(backend="vectorized").optimize(make())
        assert_equivalent(scalar, vectorized)

    @pytest.mark.parametrize("workload", sorted(WORKLOAD_FACTORIES))
    def test_dpsize_bit_identical(self, workload):
        make = WORKLOAD_FACTORIES[workload]
        scalar = DPSize(backend="scalar").optimize(make())
        vectorized = DPSize(backend="vectorized").optimize(make())
        assert_equivalent(scalar, vectorized)

    def test_dpsub_unrank_filter_bit_identical(self):
        make = lambda: clique_query(7, seed=0)  # noqa: E731
        scalar = DPSub(unrank_filter=True, backend="scalar").optimize(make())
        vectorized = DPSub(unrank_filter=True, backend="vectorized").optimize(make())
        assert_equivalent(scalar, vectorized)

    @pytest.mark.parametrize("seed", range(8))
    def test_mpdp_random_topologies(self, seed):
        """Property sweep over random cyclic graphs (hang-off lift stress)."""
        for density in (0.1, 0.3, 0.6):
            make = lambda: random_connected_query(  # noqa: E731
                8, extra_edge_probability=density, seed=seed)
            scalar = MPDP(backend="scalar").optimize(make())
            vectorized = MPDP(backend="vectorized").optimize(make())
            assert_equivalent(scalar, vectorized)

    def test_subset_scope_bit_identical(self):
        """Fragment optimization (within=) runs the same on both backends."""
        make = lambda: musicbrainz_query(13, seed=0)  # noqa: E731
        query_a, query_b = make(), make()
        context = EnumerationContext.of(query_a.graph)
        # A connected 8-vertex fragment of the query.
        fragment = next(iter(context.connected_subsets(8)))
        scalar = MPDP(backend="scalar").optimize(query_a, subset=fragment)
        vectorized = MPDP(backend="vectorized").optimize(query_b, subset=fragment)
        assert_equivalent(scalar, vectorized)

    def test_auto_backend_matches_scalar(self):
        make = lambda: musicbrainz_query(13, seed=1)  # noqa: E731
        scalar = MPDP(backend="scalar").optimize(make())
        auto = MPDP(backend="auto").optimize(make())
        assert_equivalent(scalar, auto)


class TestPlanArena:
    def _arena_result(self, make=lambda: star_query(9, seed=0)):
        return MPDP(backend="vectorized").optimize(make())

    def test_plans_materialized_lazily(self):
        result = self._arena_result()
        arena = result.memo
        assert isinstance(arena, PlanArena)
        # The DP sweep stored splits, not plans, for every joined set: only
        # the leaves and the final backtracked plan line are materialized.
        materialized = len(arena._plans)
        assert materialized < len(arena)
        top = arena[star_query(9, seed=0).all_relations_mask]
        assert top.cost == result.cost
        # Accessing an interior entry materializes it (and caches it).
        key = arena.keys_of_size(2)[0]
        assert arena.split_of(key) is not None
        plan = arena[key]
        assert arena[key] is plan

    def test_materialization_matches_stored_cost(self):
        result = self._arena_result()
        arena = result.memo
        for key, plan in arena.items():
            assert plan.cost == arena.cost_of(key)
            assert plan.rows == arena.rows_of(key)
            plan.validate()

    def test_cost_drift_detection(self):
        """Materialization cross-checks the batched cost (arena contract)."""
        result = self._arena_result()
        arena = result.memo
        key = arena.keys_of_size(3)[0]
        slot = arena._index[key]
        arena._cost[slot] = arena._cost[slot] * 1.5  # simulate kernel drift
        with pytest.raises(RuntimeError, match="cost_batch drift"):
            arena[key]

    def test_record_level_rejects_existing_keys(self):
        query = star_query(4, seed=0)
        arena = PlanArena(query)
        arena.put(0b1, query.leaf_plan(0))
        with pytest.raises(ValueError, match="already holds"):
            arena.record_level([0b1], [1.0], [1.0], [0b1], [0b1])

    def test_put_mirrors_memo_semantics(self):
        query = star_query(4, seed=0)
        arena = PlanArena(query)
        memo = MemoTable()
        for vertex in range(4):
            arena.put(bms.bit(vertex), query.leaf_plan(vertex))
            memo.put(bms.bit(vertex), query.leaf_plan(vertex))
        pair = bms.from_indices([0, 1])
        plan = query.join(bms.bit(0), bms.bit(1),
                          query.leaf_plan(0), query.leaf_plan(1))
        assert arena.put(pair, plan) is True
        assert arena.put(pair, plan) is False  # equal cost: first wins
        assert arena.keys_of_size(1) == memo.keys_of_size(1)
        assert len(arena) == 5
        assert pair in arena
        assert arena.get(bms.from_indices([2, 3])) is None
        arena.clear()
        assert len(arena) == 0 and arena.n_updates == 0


class TestBackendResolution:
    def test_names_and_errors(self):
        query = star_query(5, seed=0)
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolve_backend("simd", query)
        with pytest.raises(ValueError, match="unknown kernel backend"):
            MPDP(backend="simd")
        assert isinstance(resolve_backend("scalar", query), ScalarBackend)
        assert isinstance(resolve_backend("vectorized", query), VectorizedBackend)

    def test_auto_is_size_gated(self):
        small = star_query(AUTO_VECTORIZE_MIN_RELATIONS - 1, seed=0)
        large = star_query(AUTO_VECTORIZE_MIN_RELATIONS, seed=0)
        assert isinstance(resolve_backend("auto", small), ScalarBackend)
        assert isinstance(resolve_backend("auto", large), VectorizedBackend)
        # The gate counts the optimized subset, not the whole graph.
        subset = bms.from_indices(range(4))
        assert isinstance(resolve_backend("auto", large, subset), ScalarBackend)

    def test_wide_graphs_run_natively(self):
        # Multi-word bitmap columns: width is an array parameter, not a
        # capability — a 70-relation graph resolves to the real kernels.
        graph = JoinGraph(70)
        for vertex in range(1, 70):
            graph.add_edge(0, vertex, selectivity=1e-3)
        query = QueryInfo(graph, [1e3] * 70)
        assert isinstance(resolve_backend("vectorized", query),
                          VectorizedBackend)

    def test_capabilities_report_backends(self):
        # The exact kernel-pipeline optimizers AND the kernelized heuristic
        # ladder all advertise the backend knob.
        for name in ("MPDP", "MPDP:Tree", "DPsub", "DPsize", "PDP",
                     "IDP1", "IDP2", "UnionDP", "LinDP", "LinearizedDP"):
            capabilities = DEFAULT_REGISTRY.capabilities(name)
            assert capabilities.supports_backend("vectorized"), name
            assert capabilities.supports_backend("scalar")
            assert capabilities.supports_backend("auto")
        # Heuristics with no kernelized loops stay scalar-only.
        for name in ("GOO", "IKKBZ", "GE-QO"):
            capabilities = DEFAULT_REGISTRY.capabilities(name)
            assert not capabilities.supports_backend("vectorized"), name
            assert capabilities.supports_backend("scalar")

    def test_registry_builds_backend_instances(self):
        optimizer = DEFAULT_REGISTRY.create("MPDP", backend="vectorized")
        assert optimizer.backend == "vectorized"
        result = optimizer.optimize(star_query(8, seed=0))
        assert isinstance(result.memo, PlanArena)


def assert_lanes_match_join(model, lanes):
    """``cost_batch`` equals ``join(...).cost`` lane by lane, bit for bit.

    ``lanes`` are ``(left_rows, left_cost, right_rows, right_cost,
    output_rows)`` tuples, the argument order of ``cost_batch``; costs are
    compared through ``float.hex`` so signed zeros and the last ulp count.
    """
    import numpy as np

    columns = [np.array([lane[field] for lane in lanes], dtype=np.float64)
               for field in range(5)]
    batched = model.cost_batch(*columns).tolist()
    assert len(batched) == len(lanes)
    for lane, got in zip(lanes, batched):
        left_rows, left_cost, right_rows, right_cost, out_rows = lane
        want = model.join(scan_plan(0, left_rows, left_cost),
                          scan_plan(1, right_rows, right_cost), out_rows).cost
        assert got.hex() == want.hex(), lane


def _operator_costs(model, left_rows, left_cost, right_rows, right_cost,
                    out_rows):
    left = scan_plan(0, left_rows, left_cost)
    right = scan_plan(1, right_rows, right_cost)
    return (model._hash_join_cost(left, right, out_rows),
            model._nested_loop_cost(left, right, out_rows),
            model._merge_join_cost(left, right, out_rows))


class TestBatchedCostContract:
    def test_cout_cost_batch_bitwise(self):
        assert_lanes_match_join(CoutCostModel(), [
            (10.0, 0.0, 5.0, 1.0, 50.0),
            (3e5, 125.5, 2e4, 999.25, 6e9),
            (7.25, 3.75, 11.0, 0.0, 80.0),
            (1e12, 9e9, 1e3, 8e8, 1e15),
        ])

    def test_postgres_cost_batch_matches_join(self):
        model = PostgresCostModel()
        left = model.scan(0, 1e4)
        right = model.scan(1, 2e6)
        assert_lanes_match_join(model, [
            (left.rows, left.cost, right.rows, right.cost, out_rows)
            for out_rows in (1.0, 5e3, 1e9)])

    def test_postgres_log2_clamp_at_two_rows(self):
        # max(1, log2(max(rows, 2))) is 1 for every rows <= 2.
        rows = [0.0, 0.25, 1.0, 1.5, 2.0, math.nextafter(2.0, 3.0), 3.0]
        assert_lanes_match_join(PostgresCostModel(), [
            (left, 5.0, right, 7.5, 10.0) for left in rows for right in rows])

    def test_postgres_equal_rows_tie(self):
        # left.rows == right.rows: build/probe and outer/inner keep the
        # written (left, right) order; costs differ so the order shows.
        lanes = []
        for rows in (1.0, 37.0, 1e4, 1e7, 3.3e12):
            for out_rows in (1.0, rows, rows * rows):
                lanes.append((rows, 1.0, rows, 2.5, out_rows))
                lanes.append((rows, 2.5, rows, 1.0, out_rows))
        assert_lanes_match_join(PostgresCostModel(), lanes)

    def test_postgres_hash_spill_threshold(self):
        model = PostgresCostModel()
        threshold = model.parameters.hash_spill_threshold
        above = math.nextafter(threshold, math.inf)
        # Only a build side strictly above the threshold pays the penalty.
        at_cost = _operator_costs(model, threshold, 1.0, above * 4, 1.0, 1e3)[0]
        above_cost = _operator_costs(model, above, 1.0, above * 4, 1.0, 1e3)[0]
        assert above_cost > 1.5 * at_cost
        builds = [math.nextafter(threshold, 0.0), threshold, above,
                  threshold * 1.5]
        assert_lanes_match_join(model, [
            (build, 10.0, probe, 20.0, out_rows)
            for build in builds
            for probe in (build, build * 4)
            for out_rows in (1.0, 1e6)]
            + [(build * 4, 20.0, build, 10.0, 1e6) for build in builds])

    def test_postgres_equal_costs_across_methods(self):
        model = PostgresCostModel()
        lanes = [(0.0, 3.0, 0.0, 4.5, 0.0), (0.0, 3.0, 0.0, 4.5, 7.0),
                 (6.0, 3.0, 6.0, 4.5, 1.0), (6.0, 4.5, 6.0, 3.0, 7.0)]
        for lane in lanes:
            hash_cost, nested_cost, merge_cost = _operator_costs(model, *lane)
            # The cheapest cost is shared by at least two operators.
            best = min(hash_cost, nested_cost, merge_cost)
            assert [hash_cost, nested_cost, merge_cost].count(best) >= 2, lane
        assert_lanes_match_join(model, lanes)

    def test_postgres_rows_near_max_rows(self):
        model = PostgresCostModel()
        top = CardinalityEstimator.MAX_ROWS
        rows = [top, math.nextafter(top, 0.0), 1e299, 1e150, 3.0]
        nested_cost = _operator_costs(model, top, 1.0, top, 1.0, top)[1]
        assert math.isinf(nested_cost)  # the nested-loop product overflows
        assert_lanes_match_join(model, [
            (left, cost, right, cost, out_rows)
            for left in rows for right in rows
            for cost in (1.0, 1e300)
            for out_rows in (1.0, top)])

    def test_postgres_non_default_parameters(self):
        model = PostgresCostModel(PostgresCostParameters(
            cpu_tuple_cost=0.03, cpu_operator_cost=0.00123,
            hash_spill_threshold=1_000.0, hash_spill_penalty=3.5))
        rng = random.Random(5)
        pool = [0.0, 1.0, 2.0, 999.0, 1_000.0, 1_001.0, 6.0]
        pool += [10 ** rng.uniform(0.0, 12.0) for _ in range(40)]
        assert_lanes_match_join(model, [
            (rng.choice(pool), 10 ** rng.uniform(-2.0, 9.0),
             rng.choice(pool), 10 ** rng.uniform(-2.0, 9.0),
             10 ** rng.uniform(0.0, 15.0))
            for _ in range(2000)])

    def test_postgres_merge_log2_comes_from_math(self):
        # Rows values whose numpy and math log2 round apart on x86-64
        # (numpy 2.4).  A tuple cost of 1.0 makes merge join the cheapest,
        # so a numpy-derived log2 factor would change these lanes.
        model = PostgresCostModel(PostgresCostParameters(cpu_tuple_cost=1.0))
        lanes = [(rows, 1.0, rows, 1.0, 1.0)
                 for rows in (810.5, 8131.1, 2360031.6, 13222153.9,
                              52007055.4, 3592297300.5)]
        for rows, cost, _, _, out_rows in lanes:
            plan = model.join(scan_plan(0, rows, cost),
                              scan_plan(1, rows, cost), out_rows)
            assert plan.method == JoinMethod.MERGE_JOIN
        assert_lanes_match_join(model, lanes)

    def test_postgres_nan_operator_cost_never_wins(self):
        # An infinite child cost times a zero spill penalty makes the hash
        # cost NaN; like _best_join's strict `<`, the kernel never picks it.
        model = PostgresCostModel(PostgresCostParameters(hash_spill_penalty=0.0))
        assert_lanes_match_join(model, [
            (2e7, math.inf, 3e7, 1.0, 10.0),
            (2e7, 1.0, 3e7, 1.0, 10.0),
            (5.0, math.inf, 6.0, 1.0, 10.0)])

    def test_postgres_random_lanes(self):
        # Mixed magnitudes with many repeated rows values, so the per-value
        # log2 factors are shared across lanes and both operand sides.
        rng = random.Random(11)
        pool = [10 ** rng.uniform(0.0, 300.0) for _ in range(64)]
        pool += [float(rng.randint(1, 10_000)) for _ in range(64)]
        lanes = [(rng.choice(pool), 10 ** rng.uniform(0.0, 300.0),
                  rng.choice(pool), 10 ** rng.uniform(0.0, 300.0),
                  rng.choice(pool)) for _ in range(5000)]
        assert_lanes_match_join(PostgresCostModel(), lanes)
        assert_lanes_match_join(PostgresCostModel(), [])

    def test_vectorized_runs_never_reach_the_base_cost_loop(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("per-pair CostModel.join_cost_from_stats "
                                 "reached under the PostgreSQL model")

        def run(make, optimizer):
            scalar = optimizer("scalar").optimize(make())
            with monkeypatch.context() as patch:
                patch.setattr(CostModel, "join_cost_from_stats", forbidden)
                vectorized = optimizer("vectorized").optimize(make())
            return scalar, vectorized

        mpdp = lambda backend: MPDP(backend=backend)  # noqa: E731
        for make in (lambda: musicbrainz_query(12, seed=0),
                     lambda: star_query(10, seed=1),
                     lambda: clique_query(7, seed=0)):
            assert isinstance(make().cost_model, PostgresCostModel)
            assert_equivalent(*run(make, mpdp))
        # Blocks wider than the dense split matrix take the per-block
        # fallback, which gathers its candidates into one cost_batch call.
        monkeypatch.setattr(vectorized_module, "_MAX_DENSE_BITS", 4)
        assert_equivalent(*run(lambda: clique_query(7, seed=3), mpdp))
        # LinDP's interval merge costs through cost_batch as well.
        scalar, vectorized = run(
            lambda: chain_query(20, seed=2),
            lambda backend: LinearizedDP(backend=backend))
        assert vectorized.plan == scalar.plan
        assert vectorized.cost == scalar.cost

    def test_default_cost_batch_uses_stub_plans(self):
        class MinimalModel(CoutCostModel):
            name = "minimal"
            # No cost_batch override: exercise the CostModel default (stub
            # plans through join()).
            cost_batch = CostModel.cost_batch

        model = MinimalModel()
        batched = model.cost_batch([1.0, 2.0], [3.0, 4.0], [5.0, 6.0],
                                   [7.0, 8.0], [9.0, 10.0])
        assert list(batched) == [3.0 + 7.0 + 9.0, 4.0 + 8.0 + 10.0]

    def test_rows_batch_deduplicates_and_matches_scalar(self):
        masks = [0b11, 0b101, 0b11, 0b1110, 0b101]
        batched = star_query(7, seed=0).rows_batch(masks)
        # A fresh reference query: nothing the batch memoised can reach it.
        reference = star_query(7, seed=0)
        assert [float(rows).hex() for rows in batched] == \
            [reference.rows(mask).hex() for mask in masks]

    def test_rows_batch_on_contracted_query(self):
        def contracted_clique():
            query = clique_query(6, seed=0)
            partitions = [bms.from_indices([0, 1]), bms.from_indices([2, 3]),
                          bms.from_indices([4, 5])]
            plans = [MPDP().optimize(query, subset=p).plan for p in partitions]
            return query.contract(partitions, plans)

        # Composite pairs and beyond sit on the min_rows floor; the
        # composites alone (each holding an internal edge) do not.
        masks = [0b11, 0b1, 0b111, 0b100, 0b11, 0b10]
        batched = contracted_clique().rows_batch(masks)
        reference = contracted_clique()
        assert [float(rows).hex() for rows in batched] == \
            [reference.rows(mask).hex() for mask in masks]


class TestBlockOrderCoupling:
    @pytest.mark.parametrize("seed", range(10))
    def test_fused_dfs_matches_find_blocks_order(self, seed):
        """The vectorized backend's fused Hopcroft-Tarjan walk must emit
        blocks in exactly ``find_blocks``'s order: scalar cost-tie winners
        depend on block iteration order, so a divergence here silently
        changes vectorized tie-breaks.  If this test starts failing after a
        change to ``core/blocks.py``, update ``_blocks_and_hangs`` to match
        the new emission order (not the other way around)."""
        from repro.core.blocks import find_blocks
        from repro.exec.vectorized import _blocks_and_hangs

        for density in (0.0, 0.2, 0.5, 1.0):
            query = random_connected_query(
                9, extra_edge_probability=density, seed=seed)
            graph = query.graph
            context = EnumerationContext.of(graph)
            for size in (3, 5, 7, 9):
                for target in context.connected_subsets(size)[:40]:
                    fused_blocks, hangs = _blocks_and_hangs(graph._adjacency, target)
                    assert fused_blocks == find_blocks(graph, target).blocks
                    # Hang-offs per block partition target \ block.
                    for block, weights in zip(fused_blocks, hangs):
                        if weights is None:
                            assert block == target
                            continue
                        union = 0
                        for mask in weights:
                            assert union & mask == 0
                            union |= mask
                        assert union == target & ~block


class TestMPDPTreeContextHoist:
    def test_context_resolved_once_per_run(self, monkeypatch):
        """Tree-split enumeration must touch the context cache O(1) times
        per query, not once per candidate set (the old per-call lookup)."""
        query = star_query(10, seed=0)
        EnumerationContext.of(query.graph)  # pre-create outside the count
        calls = []
        original = EnumerationContext.of.__func__

        def counting_of(cls, graph):
            calls.append(graph)
            return original(cls, graph)

        monkeypatch.setattr(EnumerationContext, "of", classmethod(counting_of))
        result = MPDPTree().optimize(query)
        assert result.stats.connected_sets > 100  # far more sets than lookups
        assert len(calls) <= 4

    def test_edge_splits_accepts_shared_context(self):
        query = star_query(6, seed=0)
        context = EnumerationContext.of(query.graph)
        mask = query.all_relations_mask
        with_context = list(MPDPTree._edge_splits(query, mask, context))
        without = list(MPDPTree._edge_splits(query, mask))
        assert with_context == without
        assert len(with_context) == 2 * (query.n_relations - 1)


class TestGPUPipelineBatchSizes:
    def _stats_with(self, level_considered):
        stats = OptimizerStats(algorithm="x")
        stats.level_pairs = {3: 100}
        stats.level_ccp = {3: 10}
        stats.level_sets = {3: 5}
        stats.level_considered = dict(level_considered)
        return stats

    def test_unrank_uses_recorded_batch_sizes(self):
        model = GPUPipelineModel(uses_subset_unranking=True)
        small = model.simulate(self._stats_with({3: 10}), 12)
        large = model.simulate(self._stats_with({3: 220}), 12)
        assert large.unrank > small.unrank
        assert large.filter > small.filter

    def test_unrank_falls_back_to_comb_for_legacy_stats(self):
        from math import comb

        model = GPUPipelineModel(uses_subset_unranking=True)
        legacy = self._stats_with({})
        recorded = self._stats_with({3: comb(12, 3)})
        assert model.simulate(legacy, 12).unrank == \
            model.simulate(recorded, 12).unrank

    def test_gpu_wrapper_backend_passthrough(self):
        make = lambda: star_query(10, seed=0)  # noqa: E731
        scalar = MPDPGpu(backend="scalar").optimize(make())
        vectorized = MPDPGpu(backend="vectorized").optimize(make())
        assert vectorized.cost == scalar.cost
        assert vectorized.plan == scalar.plan
        assert vectorized.stats.extra["gpu_total_seconds"] == pytest.approx(
            scalar.stats.extra["gpu_total_seconds"])


class TestPlannerBackendKnob:
    def test_planner_outcomes_bit_identical_across_backends(self):
        make = lambda: musicbrainz_query(13, seed=0)  # noqa: E731
        scalar = AdaptivePlanner(backend="scalar", enable_cache=False).plan(make())
        vectorized = AdaptivePlanner(backend="vectorized",
                                     enable_cache=False).plan(make())
        auto = AdaptivePlanner(backend="auto", enable_cache=False).plan(make())
        assert scalar.decision.algorithm == vectorized.decision.algorithm
        assert scalar.cost == vectorized.cost == auto.cost
        assert scalar.plan == vectorized.plan == auto.plan
        assert vectorized.decision.backend == "vectorized"
        assert auto.decision.backend == "auto"

    def test_planner_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            AdaptivePlanner(backend="gpu")

    def test_backends_share_cache_entries(self):
        """Backends are bit-identical, so the cache key must not depend on
        the backend knob: a scalar planner's entry serves a vectorized one."""
        from repro.planner.cache import PlanCache

        scalar = AdaptivePlanner(backend="scalar")
        vectorized = AdaptivePlanner(backend="vectorized")
        assert scalar._policy_tag == vectorized._policy_tag
        shared = PlanCache()
        first = AdaptivePlanner(backend="scalar", cache=shared)
        second = AdaptivePlanner(backend="vectorized", cache=shared)
        make = lambda: star_query(8, seed=5)  # noqa: E731
        miss = first.plan(make())
        hit = second.plan(make())
        assert not miss.decision.cache_hit
        assert hit.decision.cache_hit
        assert hit.cost == miss.cost

    def test_plan_sql_backend_knob(self):
        from repro.catalog.schema import Catalog
        from repro.sql import plan_sql

        catalog = Catalog()
        for table in ("a", "b", "c"):
            catalog.add_table(table, 1e4)
        sql = "select * from a, b, c where a.x = b.x and b.y = c.y"
        planned = plan_sql(sql, catalog, backend="vectorized")
        assert planned.outcome.decision.backend == "vectorized"
        with pytest.raises(ValueError, match="backend="):
            plan_sql(sql, catalog, planner=AdaptivePlanner(), backend="scalar")

    def test_cli_backend_flag(self, capsys):
        from repro.planner.cli import main

        exit_code = main(["select * from a, b where a.x = b.x",
                          "--backend", "vectorized", "--no-plan"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "backend   : vectorized" in output


@pytest.mark.perf_smoke
class TestVectorizedPerfSmoke:
    @pytest.mark.parametrize("cost_model", [CoutCostModel, PostgresCostModel])
    def test_vectorized_clique_level_sweep_is_fast(self, cost_model):
        """Guard against catastrophic regressions of the batched kernels.

        A 13-clique MPDP sweep evaluates ~1.6M pairs; the vectorized backend
        does it in about a second on a 2-CPU x86 host under either cost
        model, so a generous absolute bound catches only order-of-magnitude
        regressions (the bit-identity suite above covers correctness).
        """
        query = clique_query(13, seed=0, cost_model=cost_model())
        start = time.perf_counter()
        result = MPDP(backend="vectorized").optimize(query)
        elapsed = time.perf_counter() - start
        assert result.stats.evaluated_pairs == sum(
            result.stats.level_pairs.values())
        assert elapsed < 10.0

    def test_postgres_clique_vectorized_beats_scalar(self):
        """The PostgreSQL kernel keeps vectorized MPDP well ahead of scalar.

        A PostgreSQL-costed 10-clique takes about 0.56 s on the scalar
        loops and 0.07 s vectorized on a 2-CPU x86 host; the bar is 3x,
        best of two interleaved runs each, with the same plan and cost.
        """
        timings = {"scalar": [], "vectorized": []}
        results = {}
        for _ in range(2):
            for backend in timings:
                query = clique_query(10, seed=0)
                start = time.perf_counter()
                results[backend] = MPDP(backend=backend).optimize(query)
                timings[backend].append(time.perf_counter() - start)
        assert isinstance(query.cost_model, PostgresCostModel)
        assert results["vectorized"].plan == results["scalar"].plan
        assert results["vectorized"].cost == results["scalar"].cost
        assert min(timings["scalar"]) >= 3.0 * min(timings["vectorized"])
