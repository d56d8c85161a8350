"""Kernelized heuristic ladder: batched kernels, shared inner-optimizer
reuse and the cache-reuse contracts.

Complements the cross-backend fuzz band in ``test_fuzz_differential.py``
with targeted unit coverage:

* the one fragment route — a fragment optimized subset-scoped on the
  full-width graph against the same relations as a query of their own,
  and IDP's fragments passing through ``repro.heuristics.idp``'s
  ``optimize_fragment``;
* the batched heuristic kernels — ``lindp_merge``'s interval DP and
  ``greedy_union_partition``'s union rounds against their scalar
  reference loops;
* the batched log-space cardinality fold (``QueryInfo.rows_batch`` on
  root, contracted, remapped and two-word layouts) — exact equality with
  the scalar estimator walk — and its accumulate kernel's addition order;
* driver plumbing — one shared inner exact optimizer per driver (never one
  per fragment), bounded ``EnumerationContext.of`` traffic, backend knob
  validation;
* the scaled MusicBrainz workload generator.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.core import bitmapset as bms
from repro.core import widebitmap as wb
from repro.core.enumeration import EnumerationContext
from repro.core.joingraph import JoinGraph
from repro.core.query import QueryInfo
from repro.core.unionfind import UnionFind
from repro.cost.cardinality import CardinalityEstimator
from repro.cost.cout import CoutCostModel
from repro.exec import greedy_union_partition, lindp_merge
from repro.heuristics import IDP1, IDP2, AdaptiveLinDP, LinearizedDP, UnionDP
from repro.heuristics.idp import optimize_fragment
from repro.heuristics.ikkbz import IKKBZ
from repro.optimizers.mpdp import MPDP
from repro.workloads import (
    chain_query,
    clique_query,
    random_connected_query,
    scaled_musicbrainz_query,
    snowflake_query,
    star_query,
)

COUNTER_FIELDS = ("evaluated_pairs", "ccp_pairs", "level_pairs", "level_ccp",
                  "connected_sets", "memo_entries")


def assert_results_identical(reference, other, context=""):
    assert other.cost == reference.cost, context
    assert other.plan == reference.plan, context
    for field in COUNTER_FIELDS:
        assert getattr(other.stats, field) == \
            getattr(reference.stats, field), f"{context}: {field}"


def connected_fragment(query, size, start=0):
    """Grow a connected vertex set of ``size`` from ``start``."""
    context = EnumerationContext.of(query.graph)
    fragment = bms.bit(start)
    while bms.popcount(fragment) < size:
        neighbours = context.neighbours_of_set(fragment)
        if neighbours == 0:
            break
        fragment |= neighbours & -neighbours
    return fragment


# --------------------------------------------------------------------- #
# The fragment route: subset-scoped on the full-width graph
# --------------------------------------------------------------------- #
def _as_own_query(query, fragment):
    """The relations of ``fragment`` as a query of their own: renumbered
    ascending, same base cardinalities, induced edges in graph order (the
    order the estimator adds its terms in).  Returns the query and the
    original index of each local vertex."""
    vertices = list(bms.iter_bits(fragment))
    index_of = {vertex: index for index, vertex in enumerate(vertices)}
    graph = JoinGraph(len(vertices),
                      [query.graph.relation_names[v] for v in vertices])
    for edge in query.graph.edges_within(fragment):
        graph.add_edge(index_of[edge.left], index_of[edge.right],
                       edge.selectivity)
    estimator = CardinalityEstimator(
        graph, [query.cardinality.base_rows(v) for v in vertices],
        min_rows=query.cardinality.min_rows)
    return QueryInfo(graph, cost_model=query.cost_model,
                     cardinality=estimator), vertices


def _relabelled(plan, vertices):
    if plan.is_leaf:
        return (vertices[plan.relation_index],)
    return (_relabelled(plan.left, vertices),
            _relabelled(plan.right, vertices))


class TestFragmentRoute:
    @pytest.mark.parametrize("n,extra", [(20, 0.2), (70, 0.05), (90, 0.02)])
    def test_fragment_optimizes_like_its_own_query(self, n, extra):
        """A fragment run subset-scoped on the full graph (two bitmap words
        past 64 relations) gives the plan, costs and counters of the same
        relations optimized as a query of their own."""
        query = random_connected_query(n, extra_edge_probability=extra, seed=9)
        fragment = connected_fragment(query, 9)
        native = optimize_fragment(MPDP(backend="vectorized"), query, fragment)
        own, vertices = _as_own_query(query, fragment)
        alone = MPDP().optimize(own)
        assert native.plan.relations == fragment
        assert native.plan.structure() == _relabelled(alone.plan, vertices)
        assert [(node.method, node.rows, node.cost)
                for node in native.plan.iter_nodes()] == \
            [(node.method, node.rows, node.cost)
             for node in alone.plan.iter_nodes()]
        for field in COUNTER_FIELDS:
            assert getattr(native.stats, field) == \
                getattr(alone.stats, field), field

    @pytest.mark.parametrize("cls", [IDP1, IDP2])
    def test_idp_fragments_go_through_the_named_route(self, cls, monkeypatch):
        """IDP1 and IDP2 look ``optimize_fragment`` up in
        :mod:`repro.heuristics.idp` on every fragment, so wrapping it there
        by name sees each fragment without changing the plan."""
        import repro.heuristics.idp as idp_module

        query = random_connected_query(40, extra_edge_probability=0.08, seed=5)
        expected = cls(k=5).optimize(query)
        fragments = []
        original = idp_module.optimize_fragment

        def recording(exact, fragment_query, fragment):
            fragments.append(fragment)
            return original(exact, fragment_query, fragment)

        monkeypatch.setattr(idp_module, "optimize_fragment", recording)
        result = cls(k=5).optimize(query)
        assert fragments
        assert all(1 < bms.popcount(fragment) <= 5 for fragment in fragments)
        assert result.cost == expected.cost
        assert result.plan.structure() == expected.plan.structure()


# --------------------------------------------------------------------- #
# Batched kernels vs their scalar reference loops
# --------------------------------------------------------------------- #
class TestLinDPKernel:
    @pytest.mark.parametrize("make_query", [
        lambda: chain_query(30, seed=3),
        lambda: star_query(30, seed=3),
        lambda: snowflake_query(40, seed=4),
        lambda: random_connected_query(80, extra_edge_probability=0.04,
                                       seed=5),
        lambda: snowflake_query(25, seed=6, cost_model=CoutCostModel()),
    ])
    def test_kernel_matches_scalar_merge(self, make_query):
        scalar = LinearizedDP(backend="scalar").optimize(make_query())
        kernel = LinearizedDP(backend="vectorized").optimize(make_query())
        assert_results_identical(scalar, kernel)

    def test_kernel_on_wide_graph_fragment(self):
        query = random_connected_query(75, extra_edge_probability=0.04, seed=8)
        fragment = connected_fragment(query, 20)
        scalar = LinearizedDP(backend="scalar").optimize(query,
                                                         subset=fragment)
        kernel = LinearizedDP(backend="vectorized").optimize(query,
                                                             subset=fragment)
        assert_results_identical(scalar, kernel)

    def test_single_relation_order(self):
        query = chain_query(2, seed=0)
        order = IKKBZ().linear_order(query, query.all_relations_mask)
        from repro.core.counters import OptimizerStats

        plan = lindp_merge(query, order, OptimizerStats(algorithm="t"))
        assert plan is not None and plan.cost > 0


class TestGreedyUnionPartitionKernel:
    @pytest.mark.parametrize("make_query,k", [
        (lambda: chain_query(40, seed=1), 7),
        (lambda: star_query(40, seed=1), 7),
        (lambda: clique_query(12, seed=1), 5),
        (lambda: random_connected_query(60, extra_edge_probability=0.1,
                                        seed=2), 9),
        (lambda: scaled_musicbrainz_query(120, seed=2), 12),
    ])
    def test_matches_scalar_scan(self, make_query, k):
        query = make_query()
        weighted = [(query.rows(bms.bit(e.left) | bms.bit(e.right)),
                     e.left, e.right) for e in query.graph.edges]

        scalar_uf = UnionFind(query.n_relations)
        active = list(weighted)
        while True:
            best_key = None
            best_index = -1
            for index, (weight, left, right) in enumerate(active):
                if scalar_uf.connected(left, right):
                    continue
                combined = scalar_uf.set_size(left) + scalar_uf.set_size(right)
                if combined > k:
                    continue
                key = (combined, weight)
                if best_key is None or key < best_key:
                    best_key = key
                    best_index = index
            if best_index < 0:
                break
            _, left, right = active.pop(best_index)
            scalar_uf.union(left, right)

        kernel_uf = UnionFind(query.n_relations)
        greedy_union_partition(kernel_uf, k, weighted)
        assert kernel_uf.sets() == scalar_uf.sets()

    def test_empty_edge_list_is_a_noop(self):
        uf = UnionFind(3)
        greedy_union_partition(uf, 5, [])
        assert uf.n_sets == 3


def _random_masks(n, count, seed):
    rng = random.Random(seed)
    return [rng.randrange(1, 1 << n) for _ in range(count)]


def _random_subsets(scope, count, seed):
    rng = random.Random(seed)
    members = list(bms.iter_bits(scope))
    return [bms.from_indices(rng.sample(members, rng.randint(1, len(members))))
            for _ in range(count)]


def _contract(query, fragment):
    """``query`` with ``fragment`` merged into one composite vertex."""
    rest = query.all_relations_mask & ~fragment
    partitions = [fragment] + [bms.bit(v) for v in bms.iter_bits(rest)]
    plans = [MPDP().optimize(query, subset=fragment).plan] + [
        query.leaf_plan(v) for v in bms.iter_bits(rest)]
    return query.contract(partitions, plans)


def _contract_grown(query, size):
    return _contract(query, connected_fragment(query, size))


def _cycle_query(n, rows, selectivity, min_rows=1.0):
    """An n-cycle with every base cardinality ``rows`` and every edge
    selectivity ``selectivity``."""
    graph = JoinGraph(n)
    for i in range(n):
        graph.add_edge(i, (i + 1) % n, selectivity=selectivity)
    return QueryInfo(graph, cardinality=CardinalityEstimator(
        graph, [rows] * n, min_rows=min_rows))


def _fragment(query):
    # A fragment scoped on the full-width graph, the layout every
    # heuristic fragment runs on.
    scope = connected_fragment(query, min(10, query.n_relations - 1))
    return (query, _random_subsets(scope, 200, seed=11),
            wb.view_for(scope, query.n_relations))


def _contracted_remap():
    # 75 local vertices (two words); the remap spec scopes a run to 12 of
    # them, the composite included.
    contracted = _contract_grown(
        random_connected_query(80, extra_edge_probability=0.04, seed=10), 6)
    scope = connected_fragment(contracted, 12)
    return (contracted, _random_subsets(scope, 150, seed=14),
            wb.view_for(scope, contracted.n_relations))


def _root_remap():
    query = random_connected_query(90, extra_edge_probability=0.03, seed=8)
    scope = connected_fragment(query, 12, start=40)
    return (query, _random_subsets(scope, 150, seed=15),
            wb.view_for(scope, query.n_relations))


#: Each case builds ``(query, masks, spec)``; ``spec`` None hands the batch
#: over as Python ints, anything else as a column packed with that spec.
FOLD_CASES = {
    "fragment-random-70": lambda: _fragment(
        random_connected_query(70, extra_edge_probability=0.05, seed=3)),
    "fragment-musicbrainz-100": lambda: _fragment(
        scaled_musicbrainz_query(100, seed=4)),
    "fragment-clique-10": lambda: _fragment(clique_query(10, seed=5)),
    "contracted-snowflake-20": lambda: (
        _contract_grown(snowflake_query(20, seed=6), 5),
        _random_masks(16, 100, seed=12), None),
    # Composite {0, 1, 2} holds the edges 0-1 and 1-2 on one local bit.
    "composite-internal-edges": lambda: (
        _contract(chain_query(12, seed=2), bms.from_indices([0, 1, 2])),
        _random_masks(10, 100, seed=13), None),
    "contracted-remap-two-word": _contracted_remap,
    "root-identity": lambda: (
        random_connected_query(14, extra_edge_probability=0.3, seed=7),
        _random_masks(14, 300, seed=16), 1),
    "root-remap": _root_remap,
    "root-two-word": lambda: (
        random_connected_query(75, extra_edge_probability=0.04, seed=9),
        _random_masks(75, 200, seed=17), 2),
    # Four relations of 1e90 rows already pass the 1e300 cap.
    "max-rows-cap": lambda: (_cycle_query(8, 1e90, 1.0),
                             _random_masks(8, 100, seed=18), 1),
    "min-rows-floor": lambda: (_cycle_query(8, 2.0, 1e-6, min_rows=5.0),
                               _random_masks(8, 100, seed=19), None),
}


class TestCardinalityFold:
    """``QueryInfo.rows_batch`` == the scalar estimator walk, bit for bit."""

    @pytest.mark.parametrize("case", sorted(FOLD_CASES))
    def test_fold_equals_scalar_rows_of_a_fresh_query(self, case):
        query, masks, spec = FOLD_CASES[case]()
        if spec is None:
            batched = query.rows_batch(masks)
        else:
            batched = query.rows_batch(wb.pack(masks, spec), spec=spec)
        # The reference is a fresh query, so nothing the batch computed or
        # memoised can reach it.
        reference, _, _ = FOLD_CASES[case]()
        assert [float(estimate).hex() for estimate in batched] == \
            [reference.rows(mask).hex() for mask in masks]

    def test_cases_reach_the_cap_and_the_floor(self):
        query, masks, _ = FOLD_CASES["max-rows-cap"]()
        estimates = set(query.rows_batch(masks).tolist())
        assert CardinalityEstimator.MAX_ROWS in estimates and len(estimates) > 1
        query, masks, _ = FOLD_CASES["min-rows-floor"]()
        assert 5.0 in query.rows_batch(masks).tolist()


class TestFoldRowsKernel:
    """``fold_rows`` adds each row's selected terms left to right."""

    @staticmethod
    def _estimator():
        graph = JoinGraph(2)
        graph.add_edge(0, 1)
        # A floor far below every sum keeps any log-space difference
        # visible in the estimate.
        return CardinalityEstimator(graph, [1.0, 1.0], min_rows=1e-300)

    @staticmethod
    def _left_fold(estimator, values, selected):
        estimates = []
        for row in selected.tolist():
            log_estimate = 0.0
            for value, chosen in zip(values.tolist(), row):
                if chosen:
                    log_estimate += value
            estimates.append(estimator.from_log10(log_estimate).hex())
        return estimates

    @staticmethod
    def _fold(estimator, values, selected):
        return [float(estimate).hex() for estimate in estimator.fold_rows(
            values, lambda start, stop: selected[start:stop], len(selected))]

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_a_python_left_fold(self, seed):
        rng = np.random.default_rng(seed)
        estimator = self._estimator()
        values = rng.uniform(-3.0, 3.0, size=int(rng.integers(1, 80)))
        selected = rng.random((300, len(values))) < rng.uniform(0.1, 0.9)
        assert self._fold(estimator, values, selected) == \
            self._left_fold(estimator, values, selected)

    def test_rows_spanning_several_chunks(self):
        rng = np.random.default_rng(6)
        estimator = self._estimator()
        values = rng.uniform(-1.0, 1.0, size=1 << 14)
        selected = rng.random((150, len(values))) < 0.05
        assert self._fold(estimator, values, selected) == \
            self._left_fold(estimator, values, selected)

    def test_pairwise_and_compensated_sums_differ_on_this_batch(self):
        """np.sum / np.add.reduce (pairwise), math.fsum and, from Python
        3.12, builtin sum (compensated) all round this batch differently,
        so swapping any of them into the kernel fails the left-fold test."""
        rng = np.random.default_rng(7)
        estimator = self._estimator()
        values = rng.uniform(-3.0, 3.0, size=64)
        selected = rng.random((100, len(values))) < 0.7
        expected = self._left_fold(estimator, values, selected)
        assert self._fold(estimator, values, selected) == expected
        terms = np.where(selected, values, 0.0)
        for sums in (np.sum(terms, axis=1), np.add.reduce(terms, axis=1),
                     [math.fsum(row) for row in terms.tolist()]):
            assert [estimator.from_log10(float(log_estimate)).hex()
                    for log_estimate in sums] != expected

    def test_empty_batch_and_unselected_terms(self):
        estimator = self._estimator()
        values = np.array([0.5, -0.25, 2.0])
        for terms in (values, values[:0]):
            assert len(self._fold(
                estimator, terms, np.zeros((0, len(terms)), dtype=bool))) == 0
            # No selected term: the empty sum, 10 ** 0.0.
            assert self._fold(estimator, terms, np.zeros(
                (4, len(terms)), dtype=bool)) == [(1.0).hex()] * 4


# --------------------------------------------------------------------- #
# Driver plumbing: shared inner optimizer, bounded context traffic
# --------------------------------------------------------------------- #
class TestSharedInnerOptimizer:
    @pytest.mark.parametrize("driver_factory", [
        lambda factory: IDP2(k=5, exact_factory=factory, backend="vectorized"),
        lambda factory: IDP1(k=5, exact_factory=factory, backend="vectorized"),
        lambda factory: UnionDP(k=5, exact_factory=factory,
                                backend="vectorized"),
    ])
    def test_exact_factory_called_once_per_driver(self, driver_factory):
        """Regression: the seed code called exact_factory() once per
        fragment, discarding warm caches; now one shared instance serves
        every fragment of every optimize() call, built by one
        ``exact_factory(backend=..., workers=...)`` call."""
        calls = []

        def counting_factory(**kwargs):
            calls.append(kwargs)
            return MPDP(**kwargs)

        driver = driver_factory(counting_factory)
        assert calls == [{"backend": "vectorized", "workers": None}]
        query = random_connected_query(30, extra_edge_probability=0.08, seed=3)
        driver.optimize(query)
        driver.optimize(random_connected_query(25, extra_edge_probability=0.1,
                                               seed=4))
        assert len(calls) == 1

    @pytest.mark.parametrize("cls", [IDP1, IDP2, UnionDP])
    def test_backend_knob_reaches_the_shared_instance(self, cls):
        driver = cls(k=5, backend="multicore", workers=3)
        assert type(driver.exact_optimizer) is MPDP
        assert driver.exact_optimizer.backend == "multicore"
        assert driver.exact_optimizer.workers == 3

    def test_adaptive_lindp_reuses_rung_instances(self):
        driver = AdaptiveLinDP(backend="vectorized")
        first_linearized = driver._linearized_inner
        driver.optimize(chain_query(30, seed=2))
        driver.optimize(chain_query(40, seed=3))
        assert driver._linearized_inner is first_linearized

    @pytest.mark.parametrize("cls", [IDP1, IDP2, UnionDP, LinearizedDP,
                                     AdaptiveLinDP])
    def test_backend_validation(self, cls):
        with pytest.raises(ValueError):
            cls(backend="warp-drive")
        with pytest.raises(ValueError):
            cls(backend="multicore", workers=0)


class TestEnumerationContextTraffic:
    @pytest.mark.parametrize("driver_factory", [
        lambda: UnionDP(k=8),
        lambda: IDP2(k=8),
    ])
    def test_of_calls_bounded_per_optimize(self, driver_factory, monkeypatch):
        """The drivers and their shared inner optimizer resolve the
        enumeration context O(fragments + levels) times — never O(pairs)
        (PR 3's `_edge_splits` hoist, extended to the heuristic tier)."""
        query = random_connected_query(30, extra_edge_probability=0.08, seed=6)
        EnumerationContext.of(query.graph)  # pre-create outside the count
        counts = {"of": 0}
        original = EnumerationContext.of.__func__

        def counting_of(cls, graph):
            counts["of"] += 1
            return original(cls, graph)

        monkeypatch.setattr(EnumerationContext, "of", classmethod(counting_of))
        result = driver_factory().optimize(query)
        assert result.stats.evaluated_pairs > 200
        # Loose ceiling: a handful of resolutions per fragment/round, far
        # below one per evaluated pair.
        assert counts["of"] <= 6 * query.n_relations
        assert counts["of"] < result.stats.evaluated_pairs


# --------------------------------------------------------------------- #
# Scaled MusicBrainz workload
# --------------------------------------------------------------------- #
class TestScaledMusicBrainz:
    def test_deterministic_and_connected(self):
        first = scaled_musicbrainz_query(130, seed=5)
        second = scaled_musicbrainz_query(130, seed=5)
        assert first.graph.n_edges == second.graph.n_edges
        assert [e.endpoints for e in first.graph.edges] == \
            [e.endpoints for e in second.graph.edges]
        assert EnumerationContext.of(first.graph).is_connected(
            first.all_relations_mask)

    def test_scales_past_the_56_table_schema(self):
        query = scaled_musicbrainz_query(300, seed=1)
        assert query.n_relations == 300
        assert query.graph.n_edges >= 299
        shard_names = {name.rsplit("__s", 1)[0]
                       for name in query.graph.relation_names}
        assert len(shard_names) <= 56

    def test_rejects_tiny_sizes(self):
        with pytest.raises(ValueError):
            scaled_musicbrainz_query(1)
