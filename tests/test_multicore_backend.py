"""Multicore kernel backend: sharded worker execution, pinned bit-identical.

The multicore backend's contract is the same as the vectorized one's —
*bit-identity* with the scalar reference — plus process mechanics: shards
are contiguous, shared-memory segments are unlinked after every level,
worker pools are cached and survive errors, and the break-even gate keeps
small levels in-process.  These tests pin all of it, including the
fig04/06-09 workloads for workers ∈ {1, 2, 4} (the acceptance matrix) and
the per-run hoist of derived kernel state (`KernelState.cache` /
EnumerationContext cache-miss caps).

Worker-spawning tests carry the ``multicore`` marker; deselect with
``-m "not multicore"`` on constrained runners.
"""

from __future__ import annotations

import glob
import os
import time

import numpy as np
import pytest

import repro.exec.multicore as mc
from repro.core.arena import PlanArena
from repro.core.enumeration import EnumerationContext
from repro.core.joingraph import JoinGraph
from repro.core.query import QueryInfo
from repro.cost.cout import CoutCostModel
from repro.exec import BACKEND_NAMES, ScalarBackend, resolve_backend
from repro.exec.backend import AUTO_MULTICORE_MIN_RELATIONS
from repro.exec.multicore import (
    MulticoreBackend,
    available_workers,
    shutdown_worker_pools,
)
from repro.exec.vectorized import SnapshotBuilder, VectorizedBackend
from repro.optimizers import DPSize, DPSub, MPDP
from repro.optimizers.mpdp import MPDPTree
from repro.planner import DEFAULT_REGISTRY, AdaptivePlanner
from repro.workloads import (
    clique_query,
    musicbrainz_query,
    random_connected_query,
    snowflake_query,
    star_query,
)

WORKLOAD_FACTORIES = {
    "fig04_star_n10_seed1": lambda: star_query(10, seed=1),
    "fig06_star_n10_seed0": lambda: star_query(10, seed=0),
    "fig07_snowflake_n12_seed0": lambda: snowflake_query(12, seed=0),
    "fig08_clique_n9_seed0": lambda: clique_query(9, seed=0),
    "fig09_musicbrainz_n13_seed0": lambda: musicbrainz_query(13, seed=0),
}

TREE_WORKLOADS = ("fig04_star_n10_seed1", "fig06_star_n10_seed0",
                  "fig07_snowflake_n12_seed0")

COUNTER_FIELDS = ("evaluated_pairs", "ccp_pairs", "sets_considered",
                  "connected_sets", "level_sets", "level_considered",
                  "level_pairs", "level_ccp", "memo_entries")

WORKER_COUNTS = (1, 2, 4)


@pytest.fixture
def force_sharding(monkeypatch):
    """Drop the break-even gate so the IPC path runs even on small levels.

    Without this, test-sized queries would legitimately route every level
    through the in-process kernels and the worker path would go untested.
    """
    monkeypatch.setattr(mc, "MULTICORE_MIN_TARGETS", 1)
    monkeypatch.setattr(mc, "MULTICORE_MIN_WORK", 1)


def assert_equivalent(scalar_result, multicore_result):
    """The full bit-identity contract between two PlanResults."""
    assert multicore_result.cost == scalar_result.cost
    assert multicore_result.plan == scalar_result.plan
    for field in COUNTER_FIELDS:
        assert getattr(multicore_result.stats, field) == \
            getattr(scalar_result.stats, field), field
    scalar_items = list(scalar_result.memo.items())
    multicore_items = list(multicore_result.memo.items())
    assert [k for k, _ in multicore_items] == [k for k, _ in scalar_items]
    for (_, scalar_plan), (_, mc_plan) in zip(scalar_items, multicore_items):
        assert mc_plan.cost == scalar_plan.cost


@pytest.mark.multicore
class TestMulticoreBitIdentity:
    """Acceptance matrix: fig workloads x workers in {1, 2, 4}."""

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("workload", sorted(WORKLOAD_FACTORIES))
    def test_mpdp_bit_identical(self, workload, workers, force_sharding):
        make = WORKLOAD_FACTORIES[workload]
        scalar = MPDP(backend="scalar").optimize(make())
        multicore = MPDP(backend="multicore", workers=workers).optimize(make())
        assert isinstance(multicore.memo, PlanArena)
        assert_equivalent(scalar, multicore)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_dpsub_bit_identical(self, workers, force_sharding):
        make = WORKLOAD_FACTORIES["fig09_musicbrainz_n13_seed0"]
        scalar = DPSub(backend="scalar").optimize(make())
        multicore = DPSub(backend="multicore", workers=workers).optimize(make())
        assert_equivalent(scalar, multicore)

    @pytest.mark.parametrize("workload", TREE_WORKLOADS)
    def test_mpdp_tree_bit_identical(self, workload, force_sharding):
        make = WORKLOAD_FACTORIES[workload]
        scalar = MPDPTree(backend="scalar").optimize(make())
        multicore = MPDPTree(backend="multicore", workers=2).optimize(make())
        assert_equivalent(scalar, multicore)

    def test_dpsize_bit_identical(self, force_sharding):
        # DPsize levels run in-process by design; the backend knob must
        # still produce bit-identical results end to end.
        make = WORKLOAD_FACTORIES["fig08_clique_n9_seed0"]
        scalar = DPSize(backend="scalar").optimize(make())
        multicore = DPSize(backend="multicore", workers=2).optimize(make())
        assert_equivalent(scalar, multicore)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_cyclic_topologies(self, seed, force_sharding):
        for density in (0.15, 0.5):
            make = lambda: random_connected_query(  # noqa: E731
                9, extra_edge_probability=density, seed=seed)
            scalar = MPDP(backend="scalar").optimize(make())
            multicore = MPDP(backend="multicore", workers=3).optimize(make())
            assert_equivalent(scalar, multicore)

    def test_fragment_scope_bit_identical(self, force_sharding):
        make = lambda: musicbrainz_query(13, seed=0)  # noqa: E731
        query_a, query_b = make(), make()
        fragment = next(iter(
            EnumerationContext.of(query_a.graph).connected_subsets(8)))
        scalar = MPDP(backend="scalar").optimize(query_a, subset=fragment)
        multicore = MPDP(backend="multicore", workers=2).optimize(
            query_b, subset=fragment)
        assert_equivalent(scalar, multicore)

    def test_cout_model_bit_identical(self, force_sharding):
        make = lambda: clique_query(9, seed=0, cost_model=CoutCostModel())  # noqa: E731
        scalar = MPDP(backend="scalar").optimize(make())
        multicore = MPDP(backend="multicore", workers=4).optimize(make())
        assert_equivalent(scalar, multicore)


@pytest.mark.multicore
class TestShardMechanics:
    def test_shard_bounds_contiguous_cover(self):
        for n_items in (1, 5, 7, 100):
            for n_shards in (1, 2, 3, 7):
                if n_shards > n_items:
                    continue
                bounds = mc._shard_bounds(n_items, n_shards)
                assert bounds[0][0] == 0
                assert bounds[-1][1] == n_items
                for (_, stop), (start, _) in zip(bounds, bounds[1:]):
                    assert stop == start  # contiguous, no gaps or overlap
                sizes = [stop - start for start, stop in bounds]
                assert max(sizes) - min(sizes) <= 1  # near-equal

    def test_pool_reuse_across_runs(self, force_sharding):
        make = lambda: star_query(10, seed=0)  # noqa: E731
        MPDP(backend="multicore", workers=2).optimize(make())
        info = mc.POOL_REGISTRY.info()
        assert info["pools"]["2"]["alive"]
        pool = mc.POOL_REGISTRY.lease(2)
        MPDP(backend="multicore", workers=2).optimize(make())
        assert mc.POOL_REGISTRY.lease(2) is pool  # same processes, no respawn
        assert mc.POOL_REGISTRY.info()["pools_created"] == info["pools_created"]

    def test_no_leaked_shared_memory(self, force_sharding):
        MPDP(backend="multicore", workers=2).optimize(
            musicbrainz_query(12, seed=3))
        leaked = glob.glob(f"/dev/shm/{mc._SEGMENT_PREFIX}*")
        assert leaked == []

    def test_worker_error_propagates_and_pool_survives(self):
        pool = mc.POOL_REGISTRY.lease(2)
        segment, meta = mc._publish_arrays(
            {"masks": np.array([1], dtype=np.int64)})
        try:
            task = {"kind": "bogus", "segment": segment.name, "meta": meta,
                    "start": 0, "stop": 0, "model": None, "n_bits": 1}
            with pytest.raises(RuntimeError, match="multicore worker failed"):
                pool.run_tasks([task, dict(task)])
        finally:
            segment.close()
            segment.unlink()
        assert pool.alive  # errors are per-task, not pool-fatal

    def test_concurrent_threads_share_pool_safely(self, force_sharding):
        """A shared AdaptivePlanner may serve concurrent threads; the pool
        must serialize each level's send/recv exchange or threads would
        collect each other's shard payloads."""
        import threading

        make_a = lambda: musicbrainz_query(12, seed=5)  # noqa: E731
        make_b = lambda: clique_query(8, seed=1)  # noqa: E731
        expected_a = MPDP(backend="scalar").optimize(make_a()).cost
        expected_b = MPDP(backend="scalar").optimize(make_b()).cost
        errors = []

        def run(make, expected):
            try:
                for _ in range(3):
                    result = MPDP(backend="multicore", workers=2).optimize(make())
                    assert result.cost == expected
            except BaseException as exc:  # noqa: BLE001 - collected for report
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(make_a, expected_a)),
                   threading.Thread(target=run, args=(make_b, expected_b))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []

    def test_shutdown_is_idempotent_and_rebuilds(self, force_sharding):
        shutdown_worker_pools()
        shutdown_worker_pools()
        assert mc.POOL_REGISTRY.info()["pools"] == {}
        result = MPDP(backend="multicore", workers=2).optimize(
            star_query(10, seed=0))
        assert result.cost == MPDP(backend="scalar").optimize(
            star_query(10, seed=0)).cost


class TestBreakEvenGating:
    def test_small_levels_stay_in_process(self, monkeypatch):
        """Below break-even, the multicore backend must never touch a pool."""
        def forbid(_workers):
            raise AssertionError("worker pool requested below break-even")

        monkeypatch.setattr(mc.POOL_REGISTRY, "lease", forbid)
        scalar = MPDP(backend="scalar").optimize(star_query(9, seed=2))
        multicore = MPDP(backend="multicore", workers=4).optimize(
            star_query(9, seed=2))
        assert_equivalent(scalar, multicore)

    def test_gate_thresholds(self):
        backend = MulticoreBackend(workers=4)
        assert not backend._should_shard(mc.MULTICORE_MIN_TARGETS - 1, 1 << 20)
        assert not backend._should_shard(1 << 20, 0)
        assert backend._should_shard(mc.MULTICORE_MIN_TARGETS,
                                     mc.MULTICORE_MIN_WORK)


class TestResolutionAndKnobs:
    def test_backend_names_include_multicore(self):
        assert "multicore" in BACKEND_NAMES

    def test_resolve_multicore(self):
        query = star_query(5, seed=0)
        backend = resolve_backend("multicore", query, workers=3)
        assert isinstance(backend, MulticoreBackend)
        assert backend.workers == 3

    def test_available_workers(self):
        assert available_workers(5) == 5
        assert available_workers(None) >= 1
        with pytest.raises(ValueError, match="positive integer"):
            available_workers(0)

    def test_workers_validation(self):
        query = star_query(5, seed=0)
        with pytest.raises(ValueError, match="positive integer"):
            resolve_backend("multicore", query, workers=0)
        with pytest.raises(ValueError, match="positive integer"):
            MPDP(backend="multicore", workers=-1)
        with pytest.raises(ValueError, match="positive integer"):
            AdaptivePlanner(workers=0)

    def test_wide_graphs_shard_natively(self):
        """>62-relation masks ride multi-word bitmap columns: a multicore
        request on a wide graph resolves to the real sharded backend."""
        graph = JoinGraph(70)
        for vertex in range(1, 70):
            graph.add_edge(0, vertex, selectivity=1e-3)
        query = QueryInfo(graph, [1e3] * 70)
        assert isinstance(resolve_backend("multicore", query, workers=4),
                          MulticoreBackend)

    def test_auto_escalates_to_multicore_on_big_machines(self, monkeypatch):
        import repro.exec.backend as backend_module

        monkeypatch.setattr(backend_module, "_available_cpus", lambda: 8)
        large = musicbrainz_query(AUTO_MULTICORE_MIN_RELATIONS, seed=0)
        assert isinstance(resolve_backend("auto", large), MulticoreBackend)
        # Below the relation gate: vectorized.
        medium = musicbrainz_query(AUTO_MULTICORE_MIN_RELATIONS - 1, seed=0)
        assert isinstance(resolve_backend("auto", medium), VectorizedBackend)

    def test_auto_never_multicore_on_single_cpu(self, monkeypatch):
        import repro.exec.backend as backend_module

        monkeypatch.setattr(backend_module, "_available_cpus", lambda: 1)
        large = musicbrainz_query(AUTO_MULTICORE_MIN_RELATIONS, seed=0)
        assert isinstance(resolve_backend("auto", large), VectorizedBackend)
        # Even an explicit worker request cannot beat one usable CPU.
        assert isinstance(resolve_backend("auto", large, workers=4),
                          VectorizedBackend)

    def test_capabilities_report_multicore(self):
        for name in ("MPDP", "MPDP:Tree", "DPsub", "DPsize", "PDP",
                     "IDP2", "UnionDP", "LinDP"):
            capabilities = DEFAULT_REGISTRY.capabilities(name)
            assert capabilities.supports_backend("multicore"), name
        for name in ("GOO", "IKKBZ"):
            assert not DEFAULT_REGISTRY.capabilities(name).supports_backend(
                "multicore"), name

    def test_registry_builds_multicore_instances(self):
        optimizer = DEFAULT_REGISTRY.create("MPDP", backend="multicore",
                                            workers=2)
        assert optimizer.backend == "multicore"
        assert optimizer.workers == 2


@pytest.mark.multicore
class TestPlannerMulticoreKnob:
    def test_planner_outcomes_bit_identical(self, force_sharding):
        make = lambda: musicbrainz_query(13, seed=0)  # noqa: E731
        scalar = AdaptivePlanner(backend="scalar", enable_cache=False).plan(make())
        multicore = AdaptivePlanner(backend="multicore", workers=2,
                                    enable_cache=False).plan(make())
        assert multicore.cost == scalar.cost
        assert multicore.plan == scalar.plan
        assert multicore.decision.backend == "multicore"
        assert multicore.decision.workers == 2

    def test_plan_sql_workers_knob(self):
        from repro.catalog.schema import Catalog
        from repro.sql import plan_sql

        catalog = Catalog()
        for table in ("a", "b", "c"):
            catalog.add_table(table, 1e4)
        sql = "select * from a, b, c where a.x = b.x and b.y = c.y"
        planned = plan_sql(sql, catalog, backend="multicore", workers=2)
        assert planned.outcome.decision.backend == "multicore"
        assert planned.outcome.decision.workers == 2
        with pytest.raises(ValueError, match="workers="):
            plan_sql(sql, catalog, planner=AdaptivePlanner(), workers=2)

    def test_cli_workers_flag(self, capsys):
        from repro.planner.cli import main

        exit_code = main(["select * from a, b where a.x = b.x",
                          "--backend", "multicore", "--workers", "2",
                          "--no-plan"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "backend   : multicore (workers=2)" in output


class TestKernelStateHoist:
    """Satellite regression: derived kernel state is per-run, not per-level."""

    def test_snapshot_builder_created_once_per_run(self, monkeypatch):
        created = []
        original_init = SnapshotBuilder.__init__

        def counting_init(self, graph, scope=None):
            created.append(graph)
            original_init(self, graph, scope)

        monkeypatch.setattr(SnapshotBuilder, "__init__", counting_init)
        result = MPDP(backend="vectorized").optimize(musicbrainz_query(12, seed=0))
        assert len(result.stats.level_pairs) > 5  # many levels ...
        assert len(created) == 1                  # ... one builder

    def test_neighbour_column_computed_once_per_entry(self, monkeypatch):
        """The old per-level snapshot recomputed neighbours for the whole
        table at every level; the hoisted builder must touch each arena
        entry exactly once across the run."""
        processed = []
        original = SnapshotBuilder.neighbours_of

        def counting(self, masks):
            processed.append(len(masks))
            return original(self, masks)

        monkeypatch.setattr(SnapshotBuilder, "neighbours_of", counting)
        result = MPDP(backend="vectorized").optimize(musicbrainz_query(12, seed=0))
        # Every entry except the final level's (appended after the last
        # refresh — MPDP's top level plans exactly the full set) is
        # neighbour-computed exactly once.
        assert sum(processed) == len(result.memo) - 1

    def test_vectorized_run_touches_no_context_caches(self):
        """The vectorized kernels answer connectivity from the arena
        snapshot; a run must not fall back to per-pair context lookups."""
        query = musicbrainz_query(12, seed=1)
        context = EnumerationContext.of(query.graph)
        before = context.cache_info()
        MPDP(backend="vectorized").optimize(query)
        after = context.cache_info()
        # optimize() itself checks subset connectivity once; nothing else.
        assert after["connectivity_misses"] - before["connectivity_misses"] <= 1
        assert after["block_misses"] == before["block_misses"]
        assert after["grow_misses"] == before["grow_misses"]
        assert after["neighbour_misses"] == before["neighbour_misses"]

    def test_scalar_block_misses_capped_by_distinct_sets(self):
        """ScalarBackend may decompose each connected set once — never once
        per pair — and a second run on the same graph hits the warm cache."""
        query = musicbrainz_query(11, seed=2)
        context = EnumerationContext.of(query.graph)
        before = context.block_misses
        result = MPDP(backend="scalar").optimize(query)
        first_run = context.block_misses - before
        assert 0 < first_run <= result.stats.connected_sets
        again = context.block_misses
        MPDP(backend="scalar").optimize(query)
        assert context.block_misses == again  # warm: zero re-derivations


@pytest.mark.perf_smoke
@pytest.mark.multicore
class TestMulticorePerfSmoke:
    def test_four_worker_speedup_on_clique14(self):
        """Acceptance guard: >= 2x measured wall-clock at 4 workers vs the
        single-core vectorized backend on clique n=14 MPDP.

        Real parallel speedup needs real cores: on machines with fewer than
        4 usable CPUs the assertion is meaningless (workers time-slice one
        core), so the guard skips — ``BENCH_multicore.json`` records the
        measured curve and the machine's CPU count either way.
        """
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
            else (os.cpu_count() or 1)
        if cpus < 4:
            pytest.skip(f"measured-speedup guard needs >= 4 usable CPUs, "
                        f"have {cpus}")
        query_factory = lambda: clique_query(  # noqa: E731
            14, seed=0, cost_model=CoutCostModel())
        start = time.perf_counter()
        vectorized = MPDP(backend="vectorized").optimize(query_factory())
        vectorized_seconds = time.perf_counter() - start
        start = time.perf_counter()
        multicore = MPDP(backend="multicore", workers=4).optimize(query_factory())
        multicore_seconds = time.perf_counter() - start
        assert multicore.cost == vectorized.cost
        assert multicore.plan == vectorized.plan
        assert vectorized_seconds / multicore_seconds >= 2.0
