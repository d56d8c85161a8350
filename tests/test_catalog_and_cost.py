"""Tests for the catalog, the cardinality estimator and the cost models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import Catalog
from repro.core import bitmapset as bms
from repro.core.joingraph import JoinGraph
from repro.core.plan import JoinMethod
from repro.cost import CardinalityEstimator, CoutCostModel, PostgresCostModel
from repro.cost.postgres import PostgresCostParameters


class TestCatalog:
    def build(self):
        catalog = Catalog()
        orders = catalog.add_table("orders", 1_500_000)
        orders.add_column("o_orderkey", is_primary_key=True)
        orders.add_column("o_custkey", n_distinct=100_000)
        lineitem = catalog.add_table("lineitem", 6_000_000)
        lineitem.add_column("l_orderkey", n_distinct=1_500_000)
        catalog.add_foreign_key("lineitem", "l_orderkey", "orders", "o_orderkey")
        return catalog

    def test_basic_lookup(self):
        catalog = self.build()
        assert len(catalog) == 2
        assert "orders" in catalog
        assert catalog.table("orders").rows == 1_500_000
        assert catalog.table_names == ["orders", "lineitem"]
        with pytest.raises(KeyError):
            catalog.table("nope")

    def test_duplicate_table_rejected(self):
        catalog = self.build()
        with pytest.raises(ValueError):
            catalog.add_table("orders", 10)

    def test_duplicate_column_rejected(self):
        catalog = self.build()
        with pytest.raises(ValueError):
            catalog.table("orders").add_column("o_orderkey")

    def test_primary_key_defaults(self):
        catalog = self.build()
        pk = catalog.table("orders").primary_key
        assert pk is not None and pk.name == "o_orderkey"
        assert pk.n_distinct == 1_500_000

    def test_join_selectivity(self):
        catalog = self.build()
        selectivity = catalog.join_selectivity("lineitem", "l_orderkey", "orders", "o_orderkey")
        assert selectivity == pytest.approx(1.0 / 1_500_000)

    def test_is_pk_fk_join(self):
        catalog = self.build()
        assert catalog.is_pk_fk_join("lineitem", "l_orderkey", "orders", "o_orderkey")
        assert catalog.is_pk_fk_join("orders", "o_orderkey", "lineitem", "l_orderkey")
        assert not catalog.is_pk_fk_join("orders", "o_custkey", "lineitem", "l_orderkey")

    def test_foreign_key_requires_existing_columns(self):
        catalog = self.build()
        with pytest.raises(KeyError):
            catalog.add_foreign_key("lineitem", "missing", "orders", "o_orderkey")

    def test_invalid_rows_and_ndv(self):
        catalog = Catalog()
        with pytest.raises(ValueError):
            catalog.add_table("empty", 0)
        table = catalog.add_table("t", 10)
        with pytest.raises(ValueError):
            table.add_column("c", n_distinct=0)

    def test_pages_default(self):
        catalog = Catalog()
        table = catalog.add_table("t", 1000, tuples_per_page=50)
        assert table.pages == pytest.approx(20.0)


class TestCardinalityEstimator:
    def chain_query(self):
        graph = JoinGraph(3)
        graph.add_edge(0, 1, 0.01)
        graph.add_edge(1, 2, 0.1)
        return graph, CardinalityEstimator(graph, [100.0, 200.0, 50.0])

    def test_base_rows(self):
        _, estimator = self.chain_query()
        assert estimator.base_rows(1) == 200.0

    def test_pairwise_join(self):
        _, estimator = self.chain_query()
        assert estimator.rows(0b011) == pytest.approx(100 * 200 * 0.01)
        assert estimator.join_rows(0b001, 0b010) == pytest.approx(200.0)

    def test_full_join_uses_all_edges(self):
        _, estimator = self.chain_query()
        expected = 100 * 200 * 50 * 0.01 * 0.1
        assert estimator.rows(0b111) == pytest.approx(expected)

    def test_disconnected_subset_is_cross_product(self):
        _, estimator = self.chain_query()
        assert estimator.rows(0b101) == pytest.approx(100 * 50)

    def test_min_rows_floor(self):
        graph = JoinGraph(2)
        graph.add_edge(0, 1, 1e-9)
        estimator = CardinalityEstimator(graph, [10.0, 10.0])
        assert estimator.rows(0b11) == 1.0

    def test_join_rows_overlap_rejected(self):
        _, estimator = self.chain_query()
        with pytest.raises(ValueError):
            estimator.join_rows(0b011, 0b010)

    def test_empty_set_rejected(self):
        _, estimator = self.chain_query()
        with pytest.raises(ValueError):
            estimator.rows(0)

    def test_validation_of_inputs(self):
        graph = JoinGraph(2)
        with pytest.raises(ValueError):
            CardinalityEstimator(graph, [10.0])
        with pytest.raises(ValueError):
            CardinalityEstimator(graph, [10.0, -1.0])
        for rows in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="positive and finite"):
                CardinalityEstimator(graph, [10.0, rows])

    def test_memoisation_and_invalidate(self):
        graph, estimator = self.chain_query()
        first = estimator.rows(0b111)
        assert estimator.rows(0b111) == first
        estimator.invalidate()
        assert estimator.rows(0b111) == first

    def test_selectivity_between(self):
        graph, estimator = self.chain_query()
        assert estimator.selectivity_between(0b001, 0b010) == pytest.approx(0.01)
        assert estimator.selectivity_between(0b001, 0b100) == pytest.approx(1.0)


class TestPostgresCostModel:
    def test_scan_cost_grows_with_rows(self):
        model = PostgresCostModel()
        small = model.scan(0, 1_000)
        large = model.scan(0, 1_000_000)
        assert large.cost > small.cost
        assert small.method == JoinMethod.SCAN

    def test_join_picks_cheapest_method(self):
        model = PostgresCostModel()
        left = model.scan(0, 1_000)
        right = model.scan(1, 1_000_000)
        plan = model.join(left, right, 1_000)
        assert plan.method in JoinMethod.ALL_JOINS
        # The chosen method's cost must not exceed the alternatives.
        costs = [
            model._hash_join_cost(left, right, 1_000),
            model._nested_loop_cost(left, right, 1_000),
            model._merge_join_cost(left, right, 1_000),
        ]
        assert plan.cost == pytest.approx(min(costs))

    def test_join_cost_includes_children(self):
        model = PostgresCostModel()
        left = model.scan(0, 10_000)
        right = model.scan(1, 10_000)
        plan = model.join(left, right, 10_000)
        assert plan.cost > left.cost + right.cost

    def test_join_cost_monotone_in_output(self):
        model = PostgresCostModel()
        left = model.scan(0, 10_000)
        right = model.scan(1, 10_000)
        cheap = model.join(left, right, 1_000)
        expensive = model.join(left, right, 10_000_000)
        assert expensive.cost > cheap.cost

    def test_join_is_symmetric(self):
        model = PostgresCostModel()
        left = model.scan(0, 5_000)
        right = model.scan(1, 120_000)
        assert model.join(left, right, 9_000).cost == pytest.approx(
            model.join(right, left, 9_000).cost)

    def test_hash_spill_penalty(self):
        params = PostgresCostParameters(hash_spill_threshold=1_000, hash_spill_penalty=3.0)
        model = PostgresCostModel(params)
        left = model.scan(0, 100_000)
        right = model.scan(1, 100_000)
        spilled = model._hash_join_cost(left, right, 10)
        base_model = PostgresCostModel(PostgresCostParameters(hash_spill_threshold=1e12))
        unspilled = base_model._hash_join_cost(left, right, 10)
        assert spilled > unspilled

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=10, max_value=1e7), st.floats(min_value=10, max_value=1e7),
           st.floats(min_value=1, max_value=1e8))
    def test_costs_are_finite_and_positive(self, left_rows, right_rows, out_rows):
        model = PostgresCostModel()
        plan = model.join(model.scan(0, left_rows), model.scan(1, right_rows), out_rows)
        assert plan.cost > 0
        assert plan.rows == out_rows


class TestCoutCostModel:
    def test_scan_is_free(self):
        model = CoutCostModel()
        assert model.scan(0, 1_000_000).cost == 0.0

    def test_join_cost_is_sum_of_outputs(self):
        model = CoutCostModel()
        a = model.scan(0, 100)
        b = model.scan(1, 100)
        ab = model.join(a, b, 500)
        assert ab.cost == 500
        c = model.scan(2, 100)
        abc = model.join(ab, c, 2_000)
        assert abc.cost == 2_500

    def test_join_cost_only_helper(self):
        model = CoutCostModel()
        a, b = model.scan(0, 10), model.scan(1, 10)
        assert model.join_cost_only(a, b, 70) == 70
