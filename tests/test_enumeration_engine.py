"""Tests for the incremental enumeration engine (repro.core.enumeration).

Three layers of guarantees:

1. **Correctness** — the level-synchronous connected-subset index enumerates
   exactly the sets the brute-force unrank-and-filter oracle produces, in the
   same canonical order as the seed enumerator, across ~50 random graphs of
   varying topology and density, whole-graph and ``within=`` scoped.
2. **Bit-identical counters** — every optimizer's ``OptimizerStats`` counters,
   plan cost and ``count_ccp_pairs`` match the values recorded from the seed
   (pre-engine) implementation on the fig04 / fig06-09 workloads.
3. **perf_smoke** — a generous wall-clock bound on enumerating a 14-relation
   clique's levels, so a catastrophic regression of the engine fails tier-1.
"""

import random
import time

import pytest

from repro.core import bitmapset as bms
from repro.core.blocks import find_blocks
from repro.core.connectivity import (
    count_ccp_pairs,
    iter_connected_subsets_bruteforce,
    iter_connected_subsets_of_size,
)
from repro.core.enumeration import EnumerationContext
from repro.core.joingraph import JoinGraph
from repro.core.memo import MemoTable
from repro.optimizers import DPE, DPSize, DPSub, MPDP
from repro.workloads import clique_query, musicbrainz_query, snowflake_query, star_query


# --------------------------------------------------------------------------- #
# Random graph zoo
# --------------------------------------------------------------------------- #
def chain_graph(n):
    graph = JoinGraph(n)
    for i in range(n - 1):
        graph.add_edge(i, i + 1, 0.5)
    return graph


def star_graph(n):
    graph = JoinGraph(n)
    for i in range(1, n):
        graph.add_edge(0, i, 0.5)
    return graph


def clique_graph(n):
    graph = JoinGraph(n)
    for i in range(n):
        for j in range(i + 1, n):
            graph.add_edge(i, j, 0.5)
    return graph


def random_connected_graph(n, density, seed):
    """Random spanning tree plus a density-controlled set of extra edges."""
    rng = random.Random(seed)
    graph = JoinGraph(n)
    vertices = list(range(n))
    rng.shuffle(vertices)
    for i in range(1, n):
        graph.add_edge(vertices[i], rng.choice(vertices[:i]), 0.5)
    for i in range(n):
        for j in range(i + 1, n):
            if not graph.has_edge(i, j) and rng.random() < density:
                graph.add_edge(i, j, 0.5)
    return graph


def graph_zoo():
    """~50 graphs: chains, stars, cliques and random graphs of all densities."""
    graphs = []
    for n in (3, 4, 5, 6, 7, 8):
        graphs.append((f"chain{n}", chain_graph(n)))
        graphs.append((f"star{n}", star_graph(n)))
        graphs.append((f"clique{n}", clique_graph(n)))
    seed = 0
    for n in (5, 6, 7, 8):
        for density in (0.0, 0.15, 0.3, 0.5, 0.8, 1.0):
            seed += 1
            graphs.append((f"rand{n}_d{density}_s{seed}",
                           random_connected_graph(n, density, seed)))
    return graphs


ZOO = graph_zoo()
assert len(ZOO) >= 40


# --------------------------------------------------------------------------- #
# 1. Property tests: incremental index vs brute-force oracle
# --------------------------------------------------------------------------- #
class TestIncrementalIndexMatchesBruteforce:
    @pytest.mark.parametrize("name,graph", ZOO, ids=[name for name, _ in ZOO])
    def test_whole_graph_levels(self, name, graph):
        context = EnumerationContext.of(graph)
        n = graph.n_relations
        for size in range(1, n + 1):
            fast = list(context.connected_subsets(size))
            brute = sorted(iter_connected_subsets_bruteforce(graph, size))
            assert fast == brute, f"{name}: S_{size} mismatch"

    @pytest.mark.parametrize("name,graph", ZOO[:12], ids=[name for name, _ in ZOO[:12]])
    def test_within_scopes(self, name, graph):
        n = graph.n_relations
        context = EnumerationContext.of(graph)
        rng = random.Random(hash(name) & 0xFFFF)
        for _ in range(5):
            within = rng.randrange(1, 1 << n)
            for size in range(1, bms.popcount(within) + 1):
                fast = list(context.connected_subsets(size, within=within))
                brute = sorted(
                    mask for mask in iter_connected_subsets_bruteforce(graph, size)
                    if bms.is_subset(mask, within)
                )
                assert fast == brute, f"{name}: within={within:#x} S_{size} mismatch"

    @pytest.mark.parametrize("name,graph", ZOO[:18], ids=[name for name, _ in ZOO[:18]])
    def test_order_matches_seed_enumerator(self, name, graph):
        """The wrapper must keep the seed's exact (ascending-mask) ordering."""
        n = graph.n_relations
        for size in range(1, n + 1):
            new = list(iter_connected_subsets_of_size(graph, size))
            old = sorted(iter_connected_subsets_bruteforce(graph, size))
            assert new == old

    def test_levels_are_cached_objects(self):
        graph = clique_graph(6)
        context = EnumerationContext.of(graph)
        assert context.connected_subsets(3) is context.connected_subsets(3)
        assert EnumerationContext.of(graph) is context

    def test_add_edge_invalidates_context(self):
        graph = chain_graph(4)
        assert list(iter_connected_subsets_of_size(graph, 2)) == [0b0011, 0b0110, 0b1100]
        stale = EnumerationContext.of(graph)
        graph.add_edge(0, 3, 0.5)  # close the cycle
        assert EnumerationContext.of(graph) is not stale
        assert list(iter_connected_subsets_of_size(graph, 2)) == [
            0b0011, 0b0110, 0b1001, 0b1100,
        ]

    def test_scope_indexes_are_bounded(self):
        import repro.core.enumeration as enumeration

        graph = clique_graph(10)
        context = EnumerationContext.of(graph)
        for within in range(1, enumeration._INDEX_SCOPE_LIMIT + 40):
            context.connected_subsets(1, within=within)
        assert len(context._indexes) <= enumeration._INDEX_SCOPE_LIMIT

    def test_duplicate_edge_merge_keeps_context(self):
        graph = chain_graph(4)
        context = EnumerationContext.of(graph)
        assert context.is_connected(0b0011)
        # Same endpoints: adjacency is unchanged, so the context survives...
        graph.add_edge(0, 1, 0.25)
        assert EnumerationContext.of(graph) is context
        # ...but edges_within must serve the merged edge, not the stale one.
        (edge,) = graph.edges_within(0b0011)
        assert edge.selectivity == 0.25

    def test_block_cache_matches_find_blocks(self):
        for name, graph in ZOO[:12]:
            context = EnumerationContext.of(graph)
            mask = graph.all_relations_mask
            cached = context.find_blocks(mask)
            fresh = find_blocks(graph, mask)
            assert sorted(cached.blocks) == sorted(fresh.blocks)
            assert cached.cut_vertices == fresh.cut_vertices
            assert context.find_blocks(mask) is cached


# --------------------------------------------------------------------------- #
# 2. Seed-counter regression (fig04 and fig06-09 workloads)
# --------------------------------------------------------------------------- #
# Recorded by running the pre-engine (seed) implementation; every entry must
# stay bit-identical.  ``cost`` is compared with exact float equality.
SEED_COUNTERS = {
    'fig04_star_n10_seed1': {
        'ccp_counter': 4608,
        'MPDP': dict(evaluated_pairs=4608, ccp_pairs=4608,
            sets_considered=511, connected_sets=511,
            memo_entries=521, cost=232584.89121173226),
        'DPsub': dict(evaluated_pairs=38342, ccp_pairs=4608,
            sets_considered=511, connected_sets=511,
            memo_entries=521, cost=232584.89121173226),
        'DPsub_unrank': dict(evaluated_pairs=38342, ccp_pairs=4608,
            sets_considered=1013, connected_sets=511,
            memo_entries=521, cost=232584.89121173226),
        'DPsize': dict(evaluated_pairs=116041, ccp_pairs=4608,
            sets_considered=521, connected_sets=521,
            memo_entries=521, cost=232584.89121173226),
        'DPE': dict(evaluated_pairs=4608, ccp_pairs=4608,
            sets_considered=511, connected_sets=511,
            memo_entries=521, cost=232584.89121173226),
    },
    'fig04_star_n4_seed1': {
        'ccp_counter': 24,
        'MPDP': dict(evaluated_pairs=24, ccp_pairs=24,
            sets_considered=7, connected_sets=7,
            memo_entries=11, cost=314262.7189924915),
        'DPsub': dict(evaluated_pairs=38, ccp_pairs=24,
            sets_considered=7, connected_sets=7,
            memo_entries=11, cost=314262.7189924915),
        'DPsub_unrank': dict(evaluated_pairs=38, ccp_pairs=24,
            sets_considered=11, connected_sets=7,
            memo_entries=11, cost=314262.7189924915),
        'DPsize': dict(evaluated_pairs=73, ccp_pairs=24,
            sets_considered=11, connected_sets=11,
            memo_entries=11, cost=314262.7189924915),
        'DPE': dict(evaluated_pairs=24, ccp_pairs=24,
            sets_considered=7, connected_sets=7,
            memo_entries=11, cost=314262.7189924915),
    },
    'fig04_star_n6_seed1': {
        'ccp_counter': 160,
        'MPDP': dict(evaluated_pairs=160, ccp_pairs=160,
            sets_considered=31, connected_sets=31,
            memo_entries=37, cost=233420.0239431228),
        'DPsub': dict(evaluated_pairs=422, ccp_pairs=160,
            sets_considered=31, connected_sets=31,
            memo_entries=37, cost=233420.0239431228),
        'DPsub_unrank': dict(evaluated_pairs=422, ccp_pairs=160,
            sets_considered=57, connected_sets=31,
            memo_entries=37, cost=233420.0239431228),
        'DPsize': dict(evaluated_pairs=721, ccp_pairs=160,
            sets_considered=37, connected_sets=37,
            memo_entries=37, cost=233420.0239431228),
        'DPE': dict(evaluated_pairs=160, ccp_pairs=160,
            sets_considered=31, connected_sets=31,
            memo_entries=37, cost=233420.0239431228),
    },
    'fig04_star_n8_seed1': {
        'ccp_counter': 896,
        'MPDP': dict(evaluated_pairs=896, ccp_pairs=896,
            sets_considered=127, connected_sets=127,
            memo_entries=135, cost=233171.66099129166),
        'DPsub': dict(evaluated_pairs=4118, ccp_pairs=896,
            sets_considered=127, connected_sets=127,
            memo_entries=135, cost=233171.66099129166),
        'DPsub_unrank': dict(evaluated_pairs=4118, ccp_pairs=896,
            sets_considered=247, connected_sets=127,
            memo_entries=135, cost=233171.66099129166),
        'DPsize': dict(evaluated_pairs=8303, ccp_pairs=896,
            sets_considered=135, connected_sets=135,
            memo_entries=135, cost=233171.66099129166),
        'DPE': dict(evaluated_pairs=896, ccp_pairs=896,
            sets_considered=127, connected_sets=127,
            memo_entries=135, cost=233171.66099129166),
    },
    'fig06_star_n10_seed0': {
        'ccp_counter': 4608,
        'MPDP': dict(evaluated_pairs=4608, ccp_pairs=4608,
            sets_considered=511, connected_sets=511,
            memo_entries=521, cost=330196.9289987007),
        'DPsub': dict(evaluated_pairs=38342, ccp_pairs=4608,
            sets_considered=511, connected_sets=511,
            memo_entries=521, cost=330196.9289987007),
        'DPsub_unrank': dict(evaluated_pairs=38342, ccp_pairs=4608,
            sets_considered=1013, connected_sets=511,
            memo_entries=521, cost=330196.9289987007),
        'DPsize': dict(evaluated_pairs=116041, ccp_pairs=4608,
            sets_considered=521, connected_sets=521,
            memo_entries=521, cost=330196.9289987007),
        'DPE': dict(evaluated_pairs=4608, ccp_pairs=4608,
            sets_considered=511, connected_sets=511,
            memo_entries=521, cost=330196.9289987007),
    },
    'fig07_snowflake_n12_seed0': {
        'ccp_counter': 4952,
        'MPDP': dict(evaluated_pairs=4952, ccp_pairs=4952,
            sets_considered=421, connected_sets=421,
            memo_entries=433, cost=305528.68772123463),
        'DPsub': dict(evaluated_pairs=114226, ccp_pairs=4952,
            sets_considered=421, connected_sets=421,
            memo_entries=433, cost=305528.68772123463),
        'DPsub_unrank': dict(evaluated_pairs=114226, ccp_pairs=4952,
            sets_considered=4083, connected_sets=421,
            memo_entries=433, cost=305528.68772123463),
        'DPsize': dict(evaluated_pairs=67150, ccp_pairs=4952,
            sets_considered=433, connected_sets=433,
            memo_entries=433, cost=305528.68772123463),
        'DPE': dict(evaluated_pairs=4952, ccp_pairs=4952,
            sets_considered=421, connected_sets=421,
            memo_entries=433, cost=305528.68772123463),
    },
    'fig07_snowflake_n9_seed0': {
        'ccp_counter': 810,
        'MPDP': dict(evaluated_pairs=810, ccp_pairs=810,
            sets_considered=99, connected_sets=99,
            memo_entries=108, cost=287279.5062214152),
        'DPsub': dict(evaluated_pairs=6138, ccp_pairs=810,
            sets_considered=99, connected_sets=99,
            memo_entries=108, cost=287279.5062214152),
        'DPsub_unrank': dict(evaluated_pairs=6138, ccp_pairs=810,
            sets_considered=502, connected_sets=99,
            memo_entries=108, cost=287279.5062214152),
        'DPsize': dict(evaluated_pairs=5661, ccp_pairs=810,
            sets_considered=108, connected_sets=108,
            memo_entries=108, cost=287279.5062214152),
        'DPE': dict(evaluated_pairs=810, ccp_pairs=810,
            sets_considered=99, connected_sets=99,
            memo_entries=108, cost=287279.5062214152),
    },
    'fig08_clique_n7_seed0': {
        'ccp_counter': 1932,
        'MPDP': dict(evaluated_pairs=1932, ccp_pairs=1932,
            sets_considered=120, connected_sets=120,
            memo_entries=127, cost=19016.168959788676),
        'DPsub': dict(evaluated_pairs=1932, ccp_pairs=1932,
            sets_considered=120, connected_sets=120,
            memo_entries=127, cost=19016.168959788676),
        'DPsub_unrank': dict(evaluated_pairs=1932, ccp_pairs=1932,
            sets_considered=120, connected_sets=120,
            memo_entries=127, cost=19016.168959788676),
        'DPsize': dict(evaluated_pairs=9653, ccp_pairs=1932,
            sets_considered=127, connected_sets=127,
            memo_entries=127, cost=19016.168959788676),
        'DPE': dict(evaluated_pairs=1932, ccp_pairs=1932,
            sets_considered=120, connected_sets=120,
            memo_entries=127, cost=19016.168959788676),
    },
    'fig08_clique_n9_seed0': {
        'ccp_counter': 18660,
        'MPDP': dict(evaluated_pairs=18660, ccp_pairs=18660,
            sets_considered=502, connected_sets=502,
            memo_entries=511, cost=19658.70743433652),
        'DPsub': dict(evaluated_pairs=18660, ccp_pairs=18660,
            sets_considered=502, connected_sets=502,
            memo_entries=511, cost=19658.70743433652),
        'DPsub_unrank': dict(evaluated_pairs=18660, ccp_pairs=18660,
            sets_considered=502, connected_sets=502,
            memo_entries=511, cost=19658.70743433652),
        'DPsize': dict(evaluated_pairs=154359, ccp_pairs=18660,
            sets_considered=511, connected_sets=511,
            memo_entries=511, cost=19658.70743433652),
        'DPE': dict(evaluated_pairs=18660, ccp_pairs=18660,
            sets_considered=502, connected_sets=502,
            memo_entries=511, cost=19658.70743433652),
    },
    'fig09_musicbrainz_n13_seed0': {
        'ccp_counter': 21354,
        'MPDP': dict(evaluated_pairs=24426, ccp_pairs=21354,
            sets_considered=1546, connected_sets=1546,
            memo_entries=1559, cost=3523678.6107291663),
        'DPsub': dict(evaluated_pairs=544736, ccp_pairs=21354,
            sets_considered=1546, connected_sets=1546,
            memo_entries=1559, cost=3523678.6107291663),
        'DPsub_unrank': dict(evaluated_pairs=544736, ccp_pairs=21354,
            sets_considered=8178, connected_sets=1546,
            memo_entries=1559, cost=3523678.6107291663),
        'DPsize': dict(evaluated_pairs=860130, ccp_pairs=21354,
            sets_considered=1559, connected_sets=1559,
            memo_entries=1559, cost=3523678.6107291663),
        'DPE': dict(evaluated_pairs=21354, ccp_pairs=21354,
            sets_considered=1546, connected_sets=1546,
            memo_entries=1559, cost=3523678.6107291663),
    },
    'fig09_musicbrainz_n9_seed0': {
        'ccp_counter': 1304,
        'MPDP': dict(evaluated_pairs=1560, ccp_pairs=1304,
            sets_considered=137, connected_sets=137,
            memo_entries=146, cost=3335621.885),
        'DPsub': dict(evaluated_pairs=8522, ccp_pairs=1304,
            sets_considered=137, connected_sets=137,
            memo_entries=146, cost=3335621.885),
        'DPsub_unrank': dict(evaluated_pairs=8522, ccp_pairs=1304,
            sets_considered=502, connected_sets=137,
            memo_entries=146, cost=3335621.885),
        'DPsize': dict(evaluated_pairs=9197, ccp_pairs=1304,
            sets_considered=146, connected_sets=146,
            memo_entries=146, cost=3335621.885),
        'DPE': dict(evaluated_pairs=1304, ccp_pairs=1304,
            sets_considered=137, connected_sets=137,
            memo_entries=146, cost=3335621.885),
    },
}

WORKLOAD_FACTORIES = {
    "fig04_star_n4_seed1": lambda: star_query(4, seed=1),
    "fig04_star_n6_seed1": lambda: star_query(6, seed=1),
    "fig04_star_n8_seed1": lambda: star_query(8, seed=1),
    "fig04_star_n10_seed1": lambda: star_query(10, seed=1),
    "fig06_star_n10_seed0": lambda: star_query(10, seed=0),
    "fig07_snowflake_n9_seed0": lambda: snowflake_query(9, seed=0),
    "fig07_snowflake_n12_seed0": lambda: snowflake_query(12, seed=0),
    "fig08_clique_n7_seed0": lambda: clique_query(7, seed=0),
    "fig08_clique_n9_seed0": lambda: clique_query(9, seed=0),
    "fig09_musicbrainz_n9_seed0": lambda: musicbrainz_query(9, seed=0),
    "fig09_musicbrainz_n13_seed0": lambda: musicbrainz_query(13, seed=0),
}

OPTIMIZER_FACTORIES = {
    "MPDP": MPDP,
    "DPsub": DPSub,
    "DPsub_unrank": lambda: DPSub(unrank_filter=True),
    "DPsize": DPSize,
    "DPE": DPE,
}


class TestSeedCounterRegression:
    @pytest.mark.parametrize("workload", sorted(WORKLOAD_FACTORIES))
    def test_ccp_counter_matches_seed(self, workload):
        query = WORKLOAD_FACTORIES[workload]()
        assert count_ccp_pairs(query.graph) == SEED_COUNTERS[workload]["ccp_counter"]

    @pytest.mark.parametrize("workload", sorted(WORKLOAD_FACTORIES))
    @pytest.mark.parametrize("algorithm", sorted(OPTIMIZER_FACTORIES))
    def test_optimizer_counters_match_seed(self, workload, algorithm):
        # A fresh query per run: counters must not depend on cache warm-up.
        query = WORKLOAD_FACTORIES[workload]()
        result = OPTIMIZER_FACTORIES[algorithm]().optimize(query)
        expected = SEED_COUNTERS[workload][algorithm]
        stats = result.stats
        assert stats.evaluated_pairs == expected["evaluated_pairs"]
        assert stats.ccp_pairs == expected["ccp_pairs"]
        assert stats.sets_considered == expected["sets_considered"]
        assert stats.connected_sets == expected["connected_sets"]
        assert stats.memo_entries == expected["memo_entries"]
        assert result.cost == expected["cost"]
        # Per-level vectors must stay consistent with the totals.
        assert sum(stats.level_pairs.values()) == stats.evaluated_pairs
        assert sum(stats.level_ccp.values()) == stats.ccp_pairs


# --------------------------------------------------------------------------- #
# Satellite data structures
# --------------------------------------------------------------------------- #
class TestMemoSizeBuckets:
    def test_keys_of_size_uses_buckets(self):
        memo = MemoTable()
        query = star_query(6, seed=0)
        for vertex in range(6):
            memo.put(bms.bit(vertex), query.leaf_plan(vertex))
        pair = bms.from_indices([0, 1])
        memo.put(pair, query.join(bms.bit(0), bms.bit(1),
                                  query.leaf_plan(0), query.leaf_plan(1)))
        # Improving an existing key must not duplicate it in the bucket.
        memo.put_unconditionally(pair, memo[pair])
        assert memo.keys_of_size(1) == [bms.bit(v) for v in range(6)]
        assert memo.keys_of_size(2) == [pair]
        assert memo.keys_of_size(3) == []
        memo.clear()
        assert memo.keys_of_size(1) == []

    def test_bucketed_index_matches_scan(self):
        memo = MemoTable()
        query = clique_query(5, seed=0)
        MPDP().optimize(query)  # smoke: optimizer populates its own memo
        result = DPSub().optimize(query)
        table = result.memo
        for size in range(1, 6):
            scanned = [key for key, _ in table.items() if bms.popcount(key) == size]
            assert table.keys_of_size(size) == scanned


class TestEdgesWithinCache:
    def test_cached_result_matches_scan(self):
        graph = random_connected_graph(7, 0.4, seed=99)
        mask = bms.from_indices([0, 2, 3, 5])
        expected = [e for e in graph.edges if bms.is_subset(e.mask, mask)]
        assert list(graph.edges_within(mask)) == expected
        assert graph.edges_within(mask) is graph.edges_within(mask)  # cached

    def test_add_edge_invalidates(self):
        graph = chain_graph(4)
        mask = bms.from_indices([0, 3])
        assert list(graph.edges_within(mask)) == []
        graph.add_edge(0, 3, 0.5)
        assert [e.endpoints for e in graph.edges_within(mask)] == [(0, 3)]


# --------------------------------------------------------------------------- #
# 3. perf_smoke guard
# --------------------------------------------------------------------------- #
@pytest.mark.perf_smoke
def test_incremental_index_enumerates_14_clique_quickly():
    """Catastrophic-regression guard: all levels of a 14-relation clique.

    Every non-empty subset of a clique is connected, so the index must emit
    ``2^14 - 1`` subsets across levels 1..14.  The incremental engine does
    this in well under a second; the bound is deliberately generous so only
    an algorithmic regression (e.g. falling back to per-level re-expansion)
    can trip it on a slow machine.
    """
    graph = clique_graph(14)
    context = EnumerationContext.of(graph)
    start = time.perf_counter()
    total = sum(len(context.connected_subsets(size)) for size in range(1, 15))
    elapsed = time.perf_counter() - start
    assert total == 2 ** 14 - 1
    assert elapsed < 20.0, f"14-clique level enumeration took {elapsed:.1f}s"
