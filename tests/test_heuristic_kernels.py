"""Kernelized heuristic ladder (ISSUE 5): fragment extraction, batched
kernels, shared inner-optimizer reuse and the cache-reuse contracts.

Complements the cross-backend fuzz band in ``test_fuzz_differential.py``
with targeted unit coverage:

* ``QueryInfo.extract`` — bit-identity with subset-scoped optimization
  (same plans, costs, counters), leaf-plan sharing, root-chain routing;
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
from repro.heuristics import GOO, IDP1, IDP2, AdaptiveLinDP, LinearizedDP, UnionDP
from repro.heuristics.common import optimize_fragment
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
# QueryInfo.extract
# --------------------------------------------------------------------- #
class TestExtract:
    @pytest.mark.parametrize("n,extra", [(20, 0.2), (70, 0.05), (90, 0.02)])
    def test_extracted_fragment_optimizes_bit_identically(self, n, extra):
        query = random_connected_query(n, extra_edge_probability=extra, seed=9)
        fragment = connected_fragment(query, 9)
        direct = MPDP().optimize(query, subset=fragment)
        extracted = MPDP().optimize(query.extract(fragment))
        assert_results_identical(direct, extracted, f"extract n={n}")

    def test_extracted_leaf_plans_are_shared_objects(self):
        query = chain_query(12, seed=0)
        fragment = bms.from_indices([2, 3, 4, 5])
        sub = query.extract(fragment)
        for local, original in enumerate(bms.iter_bits(fragment)):
            assert sub.leaf_plan(local) is query.leaf_plan(original)

    def test_extracted_rows_route_through_root_estimator(self):
        query = chain_query(15, seed=1)
        fragment = bms.from_indices([4, 5, 6, 7])
        sub = query.extract(fragment)
        assert sub.is_contracted and sub.root is query
        # Local mask {0, 1} of the fragment == root mask {4, 5}.
        assert sub.rows(0b11) == query.rows(bms.from_indices([4, 5]))

    def test_extract_of_contracted_query_chains_to_the_same_root(self):
        query = chain_query(12, seed=2)
        goo = GOO().optimize(query)
        partitions = [bms.from_indices([0, 1, 2])] + [
            bms.bit(v) for v in range(3, 12)]
        plans = [MPDP().optimize(query, subset=partitions[0]).plan] + [
            query.leaf_plan(v) for v in range(3, 12)]
        contracted = query.contract(partitions, plans)
        sub = contracted.extract(bms.from_indices([0, 1, 2]))
        assert sub.root is query
        assert sub.rows(0b1) == contracted.rows(0b1)
        del goo

    def test_extract_rejects_bad_subsets(self):
        query = chain_query(6, seed=0)
        with pytest.raises(ValueError):
            query.extract(0)
        with pytest.raises(ValueError):
            query.extract(bms.bit(6))

    def test_wide_graph_fragments_dispatch_natively(self, monkeypatch):
        """optimize_fragment keeps >62-relation fragments subset-scoped on
        the full-width graph (multi-word kernel columns make extraction
        unnecessary); the extract route only fires when explicitly
        requested via FRAGMENT_DISPATCH (the numpy-less fallback path)."""
        import repro.heuristics.common as common_module

        calls = {"extract": 0}
        original = type(chain_query(4, seed=0)).extract

        def counting(self, subset, name=None):
            calls["extract"] += 1
            return original(self, subset, name)

        monkeypatch.setattr("repro.core.query.QueryInfo.extract", counting)
        wide = chain_query(70, seed=0)
        native = optimize_fragment(MPDP(), wide, connected_fragment(wide, 6))
        assert calls["extract"] == 0
        narrow = chain_query(30, seed=0)
        optimize_fragment(MPDP(), narrow, connected_fragment(narrow, 6))
        assert calls["extract"] == 0
        # The legacy route stays available (and bit-identical) on request.
        monkeypatch.setattr(common_module, "FRAGMENT_DISPATCH", "extract")
        extracted = optimize_fragment(MPDP(), wide,
                                      connected_fragment(wide, 6))
        assert calls["extract"] == 1
        assert extracted.cost == native.cost
        assert str(extracted.plan) == str(native.plan)


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

    def test_kernel_on_extracted_wide_fragment(self):
        query = random_connected_query(75, extra_edge_probability=0.04, seed=8)
        sub = query.extract(connected_fragment(query, 20))
        scalar = LinearizedDP(backend="scalar").optimize(sub)
        kernel = LinearizedDP(backend="vectorized").optimize(sub)
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


def _extracted(make_query):
    query = make_query()
    size = min(10, query.n_relations - 1)
    sub = query.extract(connected_fragment(query, size))
    return sub, _random_masks(sub.n_relations, 200, seed=11), None


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
    "extracted-random-70": lambda: _extracted(
        lambda: random_connected_query(70, extra_edge_probability=0.05, seed=3)),
    "extracted-musicbrainz-100": lambda: _extracted(
        lambda: scaled_musicbrainz_query(100, seed=4)),
    "extracted-clique-10": lambda: _extracted(lambda: clique_query(10, seed=5)),
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
        lambda factory: IDP2(k=5, exact_factory=factory),
        lambda factory: IDP1(k=5, exact_factory=factory),
        lambda factory: UnionDP(k=5, exact_factory=factory),
    ])
    def test_exact_factory_called_once_per_driver(self, driver_factory):
        """Regression: the seed code called exact_factory() once per
        fragment, discarding warm caches; now one shared instance serves
        every fragment of every optimize() call."""
        calls = {"count": 0}

        def counting_factory(**kwargs):
            calls["count"] += 1
            return MPDP(**kwargs)

        driver = driver_factory(counting_factory)
        assert calls["count"] == 1
        query = random_connected_query(30, extra_edge_probability=0.08, seed=3)
        driver.optimize(query)
        driver.optimize(random_connected_query(25, extra_edge_probability=0.1,
                                               seed=4))
        assert calls["count"] == 1

    def test_legacy_zero_argument_factories_still_work(self):
        driver = IDP2(k=5, exact_factory=lambda: MPDP())
        assert driver.exact_optimizer.backend == "scalar"
        result = driver.optimize(chain_query(12, seed=1))
        assert result.cost == IDP2(k=5).optimize(chain_query(12, seed=1)).cost

    def test_partial_signature_factory_still_gets_the_backend(self):
        """A factory accepting backend but not workers must still receive
        the backend — dropping the whole knob on a partial signature would
        reintroduce the silent-scalar bug."""
        captured = {}

        def factory(backend="scalar"):
            captured["backend"] = backend
            return MPDP(backend=backend)

        driver = IDP2(k=5, exact_factory=factory, backend="vectorized")
        assert captured["backend"] == "vectorized"
        assert driver.exact_optimizer.backend == "vectorized"

    def test_partial_factory_preconfiguration_wins(self):
        """A functools.partial with its own backend binding must keep it —
        the driver's default never overrides explicit user configuration."""
        import functools

        driver = IDP2(k=5,
                      exact_factory=functools.partial(MPDP,
                                                      backend="vectorized"))
        assert driver.exact_optimizer.backend == "vectorized"

    def test_backend_knob_reaches_the_shared_instance(self):
        driver = IDP2(k=5, backend="multicore", workers=3)
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
