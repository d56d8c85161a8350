"""Tests for the execution substrates: runtime model, dataset, executors,
q-error injection, and planner estimator wiring."""

import numpy as np
import pytest

from repro.cost.cardinality import CardinalityEstimator, estimator_overrides_rows
from repro.execution import (
    CostBasedRuntimeModel,
    InMemoryExecutor,
    PerturbedEstimator,
    ReferenceExecutor,
    SyntheticDataset,
    perturbed_query,
    q_error,
)
from repro.optimizers import DPCcp, MPDP
from repro.heuristics import GOO, IDP2, LinearizedDP
from repro.planner import AdaptivePlanner, DEFAULT_REGISTRY
from repro.workloads import chain_query, cycle_query, musicbrainz_query, star_query


class TestCostBasedRuntimeModel:
    def test_runtime_grows_with_cost(self):
        model = CostBasedRuntimeModel()
        query = star_query(6, seed=0)
        plan = MPDP().optimize(query).plan
        assert model.runtime_seconds(plan) > model.startup_seconds

    def test_linear_in_cost_units(self):
        model = CostBasedRuntimeModel(seconds_per_cost_unit=1e-6, startup_seconds=0.0)
        query = star_query(5, seed=1)
        plan = MPDP().optimize(query).plan
        assert model.runtime_seconds(plan) == pytest.approx(plan.cost * 1e-6)


class TestSyntheticDataset:
    def test_rows_scaled_and_capped(self):
        query = star_query(6, seed=2, fact_rows=1e7)
        dataset = SyntheticDataset(query, scale=1e-4, max_rows=500)
        assert dataset.rows(0) == 500  # capped
        for relation in range(query.n_relations):
            assert dataset.rows(relation) >= 2

    def test_pk_fk_columns_reference_valid_keys(self):
        query = star_query(5, seed=3)
        dataset = SyntheticDataset(query, scale=1e-3, max_rows=1000)
        for index, edge in enumerate(query.graph.edges):
            column = f"j{index}"
            left = dataset.table(edge.left)[column]
            right = dataset.table(edge.right)[column]
            # FK values must fall inside the PK value range.
            assert min(left.min(), right.min()) >= 0
            assert max(left.max(), right.max()) < max(len(left), len(right))

    def test_every_edge_has_columns_on_both_sides(self):
        query = musicbrainz_query(6, seed=1)
        dataset = SyntheticDataset(query, scale=1e-4, max_rows=2000)
        for index, edge in enumerate(query.graph.edges):
            column = f"j{index}"
            assert column in dataset.table(edge.left)
            assert column in dataset.table(edge.right)

    def test_deterministic_for_seed(self):
        query = chain_query(4, seed=5)
        a = SyntheticDataset(query, seed=7)
        b = SyntheticDataset(query, seed=7)
        for relation in range(query.n_relations):
            for column, values in a.table(relation).items():
                assert (values == b.table(relation)[column]).all()

    def test_explicit_generator_matches_seed(self):
        """Passing rng=default_rng(seed) is exactly the seed=seed dataset.

        Regression test for the explicit-Generator contract: all draws come
        from one instance-owned generator, created from ``seed`` unless the
        caller supplies its own, and columns are drawn in graph edge order —
        so the two spellings must produce bit-identical tables.
        """
        query = cycle_query(5, seed=2)
        seeded = SyntheticDataset(query, seed=13)
        explicit = SyntheticDataset(query, rng=np.random.default_rng(13))
        for relation in range(query.n_relations):
            assert seeded.table(relation).keys() == explicit.table(relation).keys()
            for column, values in seeded.table(relation).items():
                assert (values == explicit.table(relation)[column]).all()

    def test_explicit_generator_overrides_seed(self):
        query = chain_query(4, seed=5)
        a = SyntheticDataset(query, seed=999, rng=np.random.default_rng(3))
        b = SyntheticDataset(query, seed=0, rng=np.random.default_rng(3))
        for relation in range(query.n_relations):
            for column, values in a.table(relation).items():
                assert (values == b.table(relation)[column]).all()

    def test_never_touches_global_numpy_state(self):
        """Dataset generation must not consume or reset np.random's state."""
        np.random.seed(42)
        before = np.random.get_state()[1].copy()
        SyntheticDataset(chain_query(5, seed=1), seed=4)
        after = np.random.get_state()[1]
        assert (before == after).all()

    def test_invalid_parameters_rejected(self):
        query = chain_query(3, seed=0)
        with pytest.raises(ValueError, match="scale"):
            SyntheticDataset(query, scale=0.0)
        with pytest.raises(ValueError, match="min_rows"):
            SyntheticDataset(query, min_rows=0)
        with pytest.raises(ValueError, match="min_rows"):
            SyntheticDataset(query, min_rows=100, max_rows=10)


class TestInMemoryExecutor:
    def test_executes_leaf_plan(self):
        query = chain_query(3, seed=1)
        dataset = SyntheticDataset(query, scale=1e-3, max_rows=100)
        executor = InMemoryExecutor(dataset)
        result = executor.execute(query.leaf_plan(0))
        assert result.rows == dataset.rows(0)

    def test_row_count_independent_of_join_order(self):
        """Different plans for the same query must return the same result size."""
        query = musicbrainz_query(6, seed=9)
        dataset = SyntheticDataset(query, scale=1e-4, max_rows=3000)
        executor = InMemoryExecutor(dataset)
        plans = [MPDP().optimize(query).plan,
                 GOO().optimize(query).plan,
                 DPCcp().optimize(query).plan]
        row_counts = {executor.execute(plan).rows for plan in plans}
        assert len(row_counts) == 1

    def test_pk_fk_chain_preserves_fact_rows(self):
        """Joining a fact table to dimension PKs never loses or multiplies rows."""
        query = star_query(4, seed=4, selection_probability=0.0)
        dataset = SyntheticDataset(query, scale=1e-4, max_rows=2000)
        executor = InMemoryExecutor(dataset)
        plan = MPDP().optimize(query).plan
        result = executor.execute(plan)
        assert result.rows == dataset.rows(0)

    def test_wall_time_recorded(self):
        query = chain_query(4, seed=2)
        dataset = SyntheticDataset(query, scale=1e-3, max_rows=500)
        result = InMemoryExecutor(dataset).execute(MPDP().optimize(query).plan)
        assert result.wall_time_seconds >= 0.0

    def test_cross_product_plan_rejected(self):
        from repro.core.plan import JoinMethod, join_plan
        query = chain_query(3, seed=3)
        dataset = SyntheticDataset(query, scale=1e-3, max_rows=100)
        executor = InMemoryExecutor(dataset)
        # Relations 0 and 2 of a chain are not joined by any predicate.
        bad = join_plan(query.leaf_plan(0), query.leaf_plan(2), 10, 1.0, JoinMethod.HASH_JOIN)
        with pytest.raises(ValueError):
            executor.execute(bad)

    def test_mismatched_plan_dataset_rejected(self):
        """A plan over relations the dataset never generated is a clear error."""
        big = chain_query(6, seed=1)
        small = chain_query(3, seed=1)
        dataset = SyntheticDataset(small, scale=1e-3, max_rows=100)
        plan = MPDP().optimize(big).plan
        for executor in (InMemoryExecutor(dataset), ReferenceExecutor(dataset)):
            with pytest.raises(ValueError, match="plan/dataset mismatch"):
                executor.execute(plan)

    def test_stats_tree_mirrors_plan_tree(self):
        query = chain_query(5, seed=4)
        dataset = SyntheticDataset(query, scale=1e-3, max_rows=200)
        plan = MPDP().optimize(query).plan
        result = InMemoryExecutor(dataset).execute(plan)
        stats = result.stats
        assert stats.relations == plan.relations
        assert stats.rows == result.rows
        # One stats node per plan node, keyed uniquely by relation bitmap.
        assert stats.n_nodes == 2 * query.n_relations - 1
        assert len(result.node_rows()) == stats.n_nodes
        # Inclusive timing: the root covers its children.
        for node in stats.iter_nodes():
            for child in node.children:
                assert node.seconds >= 0.0 and child.seconds >= 0.0
            assert node.seconds >= max(
                (child.seconds for child in node.children), default=0.0)

    def test_empty_join_propagates_to_empty_result(self):
        """A join with zero matches yields zero rows all the way up."""
        query = chain_query(4, seed=6)
        dataset = SyntheticDataset(query, scale=1e-3, max_rows=50)
        # Force the first edge's columns apart: no key can ever match.
        dataset.columns[0]["j0"] = np.zeros(dataset.rows(0), dtype=np.int64)
        dataset.columns[1]["j0"] = np.ones(dataset.rows(1), dtype=np.int64)
        plan = MPDP().optimize(query).plan
        for executor_cls in (InMemoryExecutor, ReferenceExecutor):
            result = executor_cls(dataset).execute(plan)
            assert result.rows == 0
            # Every node containing the broken edge {0, 1} is empty; leaves
            # are untouched.
            for node in result.stats.iter_nodes():
                if node.relations & 0b11 == 0b11:
                    assert node.rows == 0
                elif node.relations.bit_count() == 1:
                    assert node.rows > 0


class TestReferenceExecutor:
    def test_matches_vectorized_on_row_counts(self):
        query = musicbrainz_query(7, seed=3)
        dataset = SyntheticDataset(query, scale=1e-4, max_rows=500)
        plan = MPDP().optimize(query).plan
        vec = InMemoryExecutor(dataset).execute(plan)
        ref = ReferenceExecutor(dataset).execute(plan)
        assert vec.rows == ref.rows
        assert vec.node_rows() == ref.node_rows()

    def test_materialized_contents_identical_as_multisets(self):
        """Beyond counts: the actual result tuples agree between executors."""
        query = cycle_query(4, seed=8)
        dataset = SyntheticDataset(query, scale=1e-3, max_rows=60)
        plan = MPDP().optimize(query).plan
        vectorized = InMemoryExecutor(dataset).materialize(plan)
        order, rows = ReferenceExecutor(dataset).materialize(plan)
        relations = sorted(vectorized)
        position_of = {relation: order.index(relation) for relation in relations}
        vec_tuples = sorted(zip(*(vectorized[r].tolist() for r in relations)))
        ref_tuples = sorted(tuple(row[position_of[r]] for r in relations)
                            for row in rows)
        assert vec_tuples == ref_tuples

    def test_executes_leaf_plan(self):
        query = chain_query(3, seed=1)
        dataset = SyntheticDataset(query, scale=1e-3, max_rows=100)
        result = ReferenceExecutor(dataset).execute(query.leaf_plan(1))
        assert result.rows == dataset.rows(1)


class TestQError:
    def test_exact_estimate_is_one(self):
        assert q_error(100.0, 100.0) == 1.0

    def test_symmetric_over_and_under(self):
        assert q_error(100.0, 400.0) == pytest.approx(4.0)
        assert q_error(400.0, 100.0) == pytest.approx(4.0)

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError):
            q_error(0.0, 10.0)
        with pytest.raises(ValueError):
            q_error(10.0, -1.0)


class TestPerturbedEstimator:
    def test_q_below_one_rejected(self):
        query = chain_query(3, seed=0)
        with pytest.raises(ValueError, match="q must be >= 1"):
            PerturbedEstimator(query.cardinality, q=0.5)

    def test_q_one_is_bit_identical_noop(self):
        query = chain_query(6, seed=2)
        wrapped = PerturbedEstimator(query.cardinality, q=1.0, seed=9)
        all_mask = query.graph.all_relations_mask
        for mask in range(1, all_mask + 1):
            assert wrapped.rows(mask) == query.cardinality.rows(mask)

    def test_base_relations_never_perturbed(self):
        query = chain_query(5, seed=3)
        wrapped = PerturbedEstimator(query.cardinality, q=16.0, seed=1)
        for relation in range(query.n_relations):
            assert wrapped.rows(1 << relation) == query.cardinality.rows(1 << relation)

    def test_error_bounded_by_q(self):
        query = musicbrainz_query(8, seed=4)
        for q in (2.0, 4.0, 16.0):
            wrapped = PerturbedEstimator(query.cardinality, q=q, seed=5)
            mask = query.graph.all_relations_mask
            error = q_error(query.cardinality.rows(mask), wrapped.rows(mask))
            assert 1.0 <= error <= q

    def test_deterministic_per_seed_and_set(self):
        query = chain_query(7, seed=1)
        a = PerturbedEstimator(query.cardinality, q=4.0, seed=3)
        b = PerturbedEstimator(query.cardinality, q=4.0, seed=3)
        c = PerturbedEstimator(query.cardinality, q=4.0, seed=4)
        mask = 0b1110
        assert a.rows(mask) == b.rows(mask)
        assert a.rows(mask) != c.rows(mask)
        # Pure function of the set: evaluation order cannot matter.
        fresh = PerturbedEstimator(query.cardinality, q=4.0, seed=3)
        fresh.rows(0b11)
        assert fresh.rows(mask) == a.rows(mask)

    def test_cache_key_distinguishes_q_and_seed(self):
        query = chain_query(4, seed=0)
        keys = {PerturbedEstimator(query.cardinality, q=q, seed=s).cache_key()
                for q in (1.0, 2.0) for s in (0, 1)}
        assert len(keys) == 4
        assert query.cardinality.cache_key() not in keys

    def test_overrides_rows_predicate(self):
        query = chain_query(3, seed=0)
        assert not estimator_overrides_rows(query.cardinality)
        assert estimator_overrides_rows(
            PerturbedEstimator(query.cardinality, q=2.0))
        assert isinstance(PerturbedEstimator(query.cardinality, q=2.0),
                          CardinalityEstimator)

    def test_perturbed_query_wrapper(self):
        query = chain_query(5, seed=2)
        planned = perturbed_query(query, q=4.0, seed=7)
        assert planned.graph is query.graph
        assert planned.name == "chain_5@q4s7"
        assert isinstance(planned.cardinality, PerturbedEstimator)
        exact = perturbed_query(query, q=1.0)
        assert MPDP().optimize(exact).cost == MPDP().optimize(query).cost

    def test_with_estimator_rejects_contracted_and_foreign_graph(self):
        query = chain_query(4, seed=1)
        other = chain_query(4, seed=1)
        with pytest.raises(ValueError, match="join graph"):
            query.with_estimator(PerturbedEstimator(other.cardinality, q=2.0))
        plans = [query.leaf_plan(v) for v in range(4)]
        contracted = query.contract([1 << v for v in range(4)], plans)
        with pytest.raises(ValueError, match="root query"):
            contracted.with_estimator(
                PerturbedEstimator(query.cardinality, q=2.0))


class TestPerturbedPlanningBitIdentity:
    """Scalar and vectorized backends must see identical perturbed estimates.

    The kernel fold paths (rows_batch's spec fold, the contracted-query
    fold, GOO's candidate batches, LinDP's interval fold) reconstruct
    estimates from base statistics;
    estimator_overrides_rows() routes overriding estimators through rows()
    instead, so planning under perturbation stays backend-bit-identical.
    """

    @pytest.mark.parametrize("q,seed", [(2.0, 0), (16.0, 11)])
    def test_exact_mpdp(self, q, seed):
        query = musicbrainz_query(9, seed=2)
        planned = perturbed_query(query, q=q, seed=seed)
        scalar = MPDP(backend="scalar").optimize(planned)
        vectorized = MPDP(backend="vectorized").optimize(planned)
        assert scalar.cost == vectorized.cost
        assert scalar.plan.structure() == vectorized.plan.structure()

    def test_idp2_contracted_fold(self):
        query = chain_query(16, seed=3)
        planned = perturbed_query(query, q=4.0, seed=5)
        scalar = IDP2(k=5, backend="scalar").optimize(planned)
        vectorized = IDP2(k=5, backend="vectorized").optimize(planned)
        assert scalar.cost == vectorized.cost
        assert scalar.plan.structure() == vectorized.plan.structure()

    def test_goo_candidate_batches(self):
        query = star_query(30, seed=6)
        planned = perturbed_query(query, q=4.0, seed=5)
        scalar = GOO(backend="scalar").optimize(planned)
        vectorized = GOO(backend="vectorized").optimize(planned)
        assert scalar.cost == vectorized.cost
        assert scalar.plan == vectorized.plan

    def test_lindp_interval_fold(self):
        query = chain_query(20, seed=4)
        planned = perturbed_query(query, q=4.0, seed=5)
        scalar = LinearizedDP(backend="scalar").optimize(planned)
        vectorized = LinearizedDP(backend="vectorized").optimize(planned)
        assert scalar.cost == vectorized.cost
        assert scalar.plan.structure() == vectorized.plan.structure()

    def test_perturbation_actually_reaches_vectorized_folds(self):
        """Guard against silently planning with unperturbed estimates."""
        query = chain_query(20, seed=4)
        planned = perturbed_query(query, q=16.0, seed=11)
        exact = LinearizedDP(backend="vectorized").optimize(query)
        perturbed = LinearizedDP(backend="vectorized").optimize(planned)
        # Costs are computed under different believed cardinalities, so
        # equality would mean the override was bypassed.
        assert exact.cost != perturbed.cost

    def test_rows_batch_routes_through_override(self):
        query = chain_query(8, seed=1)
        wrapped = perturbed_query(query, q=4.0, seed=2)
        masks = [0b11, 0b110, 0b1111, 0b11, 0b11111111]
        batch = wrapped.rows_batch(masks)
        for mask, estimate in zip(masks, batch):
            assert estimate == wrapped.rows(mask)


class TestPlannerEstimatorInjection:
    def test_wrapper_applied_and_cached_separately(self):
        cache_sharing_planner = AdaptivePlanner(
            estimator_wrapper=lambda est: PerturbedEstimator(est, q=4.0, seed=1))
        exact_planner = AdaptivePlanner()
        query = chain_query(8, seed=2)
        perturbed_outcome = cache_sharing_planner.plan(query)
        exact_outcome = exact_planner.plan(query)
        assert (perturbed_outcome.decision.signature
                != exact_outcome.decision.signature)
        # Second plan of a structurally identical query hits the cache.
        again = cache_sharing_planner.plan(chain_query(8, seed=2))
        assert again.decision.cache_hit
        assert again.cost == perturbed_outcome.cost

    def test_q_one_wrapper_plans_identically(self):
        planner = AdaptivePlanner(
            estimator_wrapper=lambda est: PerturbedEstimator(est, q=1.0))
        query = star_query(7, seed=3)
        assert planner.plan(query).cost == AdaptivePlanner().plan(query).cost

    def test_non_callable_wrapper_rejected(self):
        with pytest.raises(ValueError, match="callable"):
            AdaptivePlanner(estimator_wrapper="not-a-function")

    def test_plan_many_applies_wrapper(self):
        planner = AdaptivePlanner(
            estimator_wrapper=lambda est: PerturbedEstimator(est, q=4.0, seed=2))
        queries = [chain_query(6, seed=1), chain_query(6, seed=1)]
        outcomes = planner.plan_many(queries)
        assert outcomes[1].decision.deduplicated
        assert outcomes[0].cost == outcomes[1].cost

    def test_plan_sql_estimator_wrapper(self):
        from repro.catalog.schema import Catalog
        from repro.sql import plan_sql

        catalog = Catalog()
        for table in ("a", "b", "c"):
            catalog.add_table(table, 1e4)
        sql = "select * from a, b, c where a.x = b.x and b.y = c.y"
        wrapper = lambda est: PerturbedEstimator(est, q=4.0, seed=3)
        planned = plan_sql(sql, catalog, estimator_wrapper=wrapper)
        exact = plan_sql(sql, catalog)
        assert (planned.outcome.decision.signature
                != exact.outcome.decision.signature)
        with pytest.raises(ValueError, match="estimator_wrapper="):
            plan_sql(sql, catalog, planner=AdaptivePlanner(),
                     estimator_wrapper=wrapper)
