"""Tests for Union-Find, plans, the memo table and the counters."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import bitmapset as bms
from repro.core.counters import OptimizerStats, Stopwatch
from repro.core.memo import MemoTable
from repro.core.plan import JoinMethod, join_plan, scan_plan
from repro.core.unionfind import UnionFind


class TestUnionFind:
    def test_initial_state(self):
        uf = UnionFind(4)
        assert uf.n_sets == 4
        assert all(uf.find(i) == i for i in range(4))
        assert uf.sets() == [bms.bit(i) for i in range(4)]

    def test_requires_positive_size(self):
        with pytest.raises(ValueError):
            UnionFind(0)

    def test_union_and_find(self):
        uf = UnionFind(5)
        assert uf.union(0, 1)
        assert uf.union(1, 2)
        assert not uf.union(0, 2)
        assert uf.connected(0, 2)
        assert not uf.connected(0, 3)
        assert uf.n_sets == 3
        assert uf.set_size(2) == 3
        assert uf.set_mask(1) == bms.from_indices([0, 1, 2])

    def test_sets_sorted_by_lowest_member(self):
        uf = UnionFind(6)
        uf.union(4, 5)
        uf.union(1, 2)
        masks = uf.sets()
        lowest = [bms.lowest_bit_index(m) for m in masks]
        assert lowest == sorted(lowest)

    def test_from_groups(self):
        uf = UnionFind.from_groups(6, [[0, 1, 2], [4, 5]])
        assert uf.n_sets == 3
        assert uf.set_mask(0) == bms.from_indices([0, 1, 2])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=12),
           st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=20))
    def test_set_masks_partition_universe(self, n, unions):
        uf = UnionFind(n)
        for a, b in unions:
            if a < n and b < n:
                uf.union(a, b)
        masks = uf.sets()
        combined = 0
        for mask in masks:
            assert combined & mask == 0
            combined |= mask
        assert combined == (1 << n) - 1
        assert len(masks) == uf.n_sets


class TestPlan:
    def make_simple_join(self):
        left = scan_plan(0, 100, 1.0)
        right = scan_plan(1, 200, 2.0)
        return join_plan(left, right, 50, 10.0, JoinMethod.HASH_JOIN)

    def test_scan_properties(self):
        plan = scan_plan(3, 10, 0.5)
        assert plan.is_leaf
        assert plan.n_relations == 1
        assert plan.n_joins == 0
        assert plan.depth() == 1
        assert plan.leaf_order() == [3]
        plan.validate()

    def test_join_properties(self):
        plan = self.make_simple_join()
        assert not plan.is_leaf
        assert plan.n_relations == 2
        assert plan.n_joins == 1
        assert plan.relations == 0b11
        assert plan.is_left_deep() and plan.is_right_deep()
        plan.validate()

    def test_overlapping_join_rejected(self):
        left = scan_plan(0, 10, 1.0)
        with pytest.raises(ValueError):
            join_plan(left, left, 5, 2.0, JoinMethod.HASH_JOIN)

    def test_left_deep_and_bushy_detection(self):
        a, b, c, d = (scan_plan(i, 10, 1.0) for i in range(4))
        ab = join_plan(a, b, 10, 2.0, JoinMethod.HASH_JOIN)
        abc = join_plan(ab, c, 10, 3.0, JoinMethod.HASH_JOIN)
        assert abc.is_left_deep()
        assert not abc.is_bushy()
        cd = join_plan(c, d, 10, 2.0, JoinMethod.HASH_JOIN)
        bushy = join_plan(ab, cd, 10, 5.0, JoinMethod.HASH_JOIN)
        assert bushy.is_bushy()
        assert not bushy.is_left_deep()

    def test_traversal_and_subplan(self):
        plan = self.make_simple_join()
        assert len(list(plan.iter_nodes())) == 3
        assert len(list(plan.iter_joins())) == 1
        assert plan.subplan_for(0b01).relation_index == 0
        assert plan.subplan_for(0b100) is None

    def test_structure_encoding(self):
        plan = self.make_simple_join()
        assert plan.structure() == ((0,), (1,))

    def test_validate_detects_bad_bitmap(self):
        bad = scan_plan(0, 10, 1.0)
        corrupted = join_plan(scan_plan(1, 5, 1.0), scan_plan(2, 5, 1.0), 5, 2.0,
                              JoinMethod.HASH_JOIN)
        object.__setattr__(corrupted, "relations", 0b1)
        with pytest.raises(ValueError):
            corrupted.validate()

    def test_to_string_contains_names(self):
        plan = self.make_simple_join()
        rendered = plan.to_string(["lineitem", "orders"])
        assert "lineitem" in rendered and "orders" in rendered
        assert "hashjoin" in rendered


class TestDeepPlans:
    """Every tree walk handles 1000-join plans (GOO's depth on the paper's
    1000-relation snowflake and star) at the default recursion limit."""

    JOINS = 1000

    @pytest.fixture(autouse=True)
    def default_recursion_limit(self):
        previous = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        yield
        sys.setrecursionlimit(previous)

    def make_deep(self, left_deep=True, cost=1.0):
        plan = scan_plan(0, 10.0, cost)
        for relation in range(1, self.JOINS + 1):
            leaf = scan_plan(relation, 10.0, cost)
            pair = (plan, leaf) if left_deep else (leaf, plan)
            plan = join_plan(*pair, 10.0, float(relation),
                             JoinMethod.HASH_JOIN)
        return plan

    def test_shape_queries_and_traversals(self):
        plan = self.make_deep()
        assert plan.depth() == self.JOINS + 1
        assert plan.is_left_deep()
        assert not plan.is_right_deep() and not plan.is_bushy()
        assert plan.leaf_order() == list(range(self.JOINS + 1))
        plan.validate()
        right_deep = self.make_deep(left_deep=False)
        assert right_deep.is_right_deep() and not right_deep.is_left_deep()
        assert right_deep.leaf_order()[0] == self.JOINS

    def test_equality_and_hash(self):
        plan, twin = self.make_deep(), self.make_deep()
        assert plan == twin and hash(plan) == hash(twin)
        assert plan != self.make_deep(cost=2.0)
        assert plan != self.make_deep(left_deep=False)
        assert len({plan, twin}) == 1

    def test_structure_and_rendering(self):
        plan = self.make_deep()
        encoded = plan.structure()
        for relation in range(self.JOINS, 0, -1):
            assert encoded[1] == (relation,)
            encoded = encoded[0]
        assert encoded == (0,)
        lines = plan.to_string().split("\n")
        assert len(lines) == 2 * self.JOINS + 1
        assert lines[self.JOINS] == "  " * self.JOINS + "seqscan(R0) rows=10 cost=1.0"
        assert lines[-1] == "  seqscan(R1000) rows=10 cost=1.0"

    def test_validate_reports_a_deep_fault(self):
        plan = self.make_deep()
        node = plan
        for _ in range(self.JOINS - 1):
            node = node.left
        object.__setattr__(node, "relations", 0b1)
        with pytest.raises(ValueError, match="not the union"):
            plan.validate()

    def test_recost_of_a_deep_plan(self):
        from repro.workloads import chain_query

        query = chain_query(self.JOINS + 1, seed=1)
        plan, mask = query.leaf_plan(0), bms.bit(0)
        for relation in range(1, self.JOINS + 1):
            plan = query.join(mask, bms.bit(relation), plan,
                              query.leaf_plan(relation))
            mask |= bms.bit(relation)
        assert query.recost(plan) == plan
        assert query.plan_cost(plan) == plan.cost


class TestMemoTable:
    def test_put_keeps_cheapest(self):
        memo = MemoTable()
        cheap = scan_plan(0, 10, 1.0)
        expensive = scan_plan(0, 10, 5.0)
        assert memo.put(0b1, expensive)
        assert not memo.put(0b1, scan_plan(0, 10, 9.0))
        assert memo.put(0b1, cheap)
        assert memo[0b1].cost == 1.0
        assert memo.n_updates == 3
        assert memo.n_improvements == 2

    def test_get_and_contains(self):
        memo = MemoTable()
        assert memo.get(0b1) is None
        assert 0b1 not in memo
        memo.put(0b1, scan_plan(0, 10, 1.0))
        assert 0b1 in memo
        with pytest.raises(KeyError):
            memo[0b10]

    def test_put_unconditionally(self):
        memo = MemoTable()
        memo.put(0b1, scan_plan(0, 10, 1.0))
        memo.put_unconditionally(0b1, scan_plan(0, 10, 99.0))
        assert memo[0b1].cost == 99.0

    def test_keys_of_size_and_clear(self):
        memo = MemoTable()
        memo.put(0b1, scan_plan(0, 10, 1.0))
        memo.put(0b10, scan_plan(1, 10, 1.0))
        memo.put(0b11, join_plan(memo[0b1], memo[0b10], 5, 3.0, JoinMethod.HASH_JOIN))
        assert sorted(memo.keys_of_size(1)) == [0b1, 0b10]
        assert memo.keys_of_size(2) == [0b11]
        memo.clear()
        assert len(memo) == 0
        assert memo.n_updates == 0


class TestOptimizerStats:
    def test_record_pair_and_ccp(self):
        stats = OptimizerStats(algorithm="x")
        stats.record_pair(2, is_ccp=False)
        stats.record_pair(2, is_ccp=True)
        stats.record_pair(3, is_ccp=True)
        assert stats.evaluated_pairs == 3
        assert stats.ccp_pairs == 2
        assert stats.wasted_pairs == 1
        assert stats.level_pairs == {2: 2, 3: 1}
        assert stats.level_ccp == {2: 1, 3: 1}
        assert 0 < stats.efficiency < 1
        assert stats.normalized_evaluated_pairs() == pytest.approx(1.5)

    def test_record_set(self):
        stats = OptimizerStats()
        stats.record_set(2, connected=True)
        stats.record_set(2, connected=False)
        assert stats.sets_considered == 2
        assert stats.connected_sets == 1
        assert stats.level_sets == {2: 1}

    def test_efficiency_with_no_pairs(self):
        assert OptimizerStats().efficiency == 1.0
        assert OptimizerStats().normalized_evaluated_pairs() == 1.0

    def test_merge(self):
        a = OptimizerStats()
        a.record_pair(2, is_ccp=True)
        b = OptimizerStats()
        b.record_pair(2, is_ccp=False)
        b.record_pair(4, is_ccp=True)
        b.record_set(4, connected=True)
        a.merge(b)
        assert a.evaluated_pairs == 3
        assert a.ccp_pairs == 2
        assert a.level_pairs == {2: 2, 4: 1}
        assert a.connected_sets == 1

    def test_stopwatch(self):
        with Stopwatch() as watch:
            sum(range(1000))
        assert watch.elapsed >= 0.0
