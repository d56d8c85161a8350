"""The concurrent planner service: striped cache, admission control, pools.

Covers ISSUE 8's acceptance criteria:

* the striped :class:`PlanCache`: lock-free read fast path, per-stripe LRU,
  atomic (race-free) stat snapshots under concurrent hammering, and
  warm-start persistence round-trips (dump -> restart -> warm hit rate);
* :class:`AdaptivePlanner` thread-safety: eight threads hammering one
  planner produce outcomes bit-identical to serial planning, and cacheable
  misses are single-flighted (one planning run per signature under a
  thundering herd);
* :class:`PlannerService`: bounded-queue admission control sheds under an
  undersized queue, queue deadlines expire waiting requests, per-request
  errors don't kill workers, close() drains and persists;
* the process-wide kernel worker-pool registry
  (:data:`repro.exec.multicore.POOL_REGISTRY`) shared across backends;
* the ``repro-plan serve`` / ``repro-plan replay`` CLI subcommands.
"""

import json
import pickle
import threading
import time

import pytest

import repro.exec.multicore as mc
from repro.core.joingraph import JoinGraph
from repro.core.query import QueryInfo
from repro.planner import (
    AdaptivePlanner,
    PlanCache,
    PlannerService,
    ServiceClosed,
    ServiceReply,
    replay_zipfian,
    zipfian_indices,
)
from repro.planner.cli import main as cli_main
from repro.workloads import (
    chain_query,
    clique_query,
    cycle_query,
    random_connected_query,
    snowflake_query,
    star_query,
)

pytestmark = pytest.mark.service

#: Mixed-shape regenerable workload: (factory, kwargs) pairs.
WORKLOAD = [
    (star_query, dict(n_relations=8, seed=1)),
    (star_query, dict(n_relations=10, seed=2)),
    (snowflake_query, dict(n_relations=10, seed=1)),
    (chain_query, dict(n_relations=9, seed=1)),
    (cycle_query, dict(n_relations=8, seed=1)),
    (clique_query, dict(n_relations=7, seed=1)),
    (random_connected_query, dict(n_relations=10, seed=3)),
]


def _workload_queries():
    return [factory(**kwargs) for factory, kwargs in WORKLOAD]


def _disconnected_query():
    graph = JoinGraph(3)
    graph.add_edge(0, 1, 0.5)
    return QueryInfo(graph, [10.0, 20.0, 30.0])


# --------------------------------------------------------------------- #
# Striped plan cache
# --------------------------------------------------------------------- #
class TestStripedCache:
    def test_default_striping_scales_with_capacity(self):
        assert PlanCache(max_entries=4096).stripe_count == 16
        assert PlanCache(max_entries=256).stripe_count == 4
        assert PlanCache(max_entries=4).stripe_count == 1  # exact LRU

    def test_explicit_stripes_clamped_to_capacity(self):
        cache = PlanCache(max_entries=3, stripes=8)
        assert cache.stripe_count == 3
        with pytest.raises(ValueError):
            PlanCache(max_entries=8, stripes=0)

    def test_capacity_enforced_across_stripes(self):
        cache = PlanCache(max_entries=64, stripes=4)
        for index in range(500):
            cache.put(f"key-{index}", index)
        assert len(cache) <= 64
        assert cache.evictions == 500 - len(cache)

    def test_peek_has_no_side_effects(self):
        cache = PlanCache(max_entries=8)
        cache.put("a", 1)
        assert cache.peek("a") == 1
        assert cache.peek("b") is None
        info = cache.cache_info()
        assert info["hits"] == 0 and info["misses"] == 0

    def test_journaled_hits_are_counted_and_refresh_lru(self):
        cache = PlanCache(max_entries=2, stripes=1)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1       # journaled, not yet drained
        cache.put("c", 3)                # drain applies recency first
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.hits == 1

    def test_cache_info_snapshot_is_consistent_under_hammering(self):
        cache = PlanCache(max_entries=512, stripes=8)
        n_threads, ops = 8, 2_000
        barrier = threading.Barrier(n_threads)

        def hammer(thread_index):
            barrier.wait()
            for op in range(ops):
                key = f"key-{(thread_index * 7 + op * 13) % 64}"
                if cache.get(key) is None:
                    cache.put(key, key)

        threads = [threading.Thread(target=hammer, args=(index,))
                   for index in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        info = cache.cache_info()
        # No lost updates: every lookup is accounted exactly once.
        assert info["hits"] + info["misses"] == n_threads * ops
        assert info["entries"] <= 64
        assert cache.hit_rate == info["hits"] / (info["hits"] + info["misses"])

    def test_invalidate_and_clear_across_stripes(self):
        cache = PlanCache(max_entries=64, stripes=4)
        for index in range(32):
            cache.put(f"star:n{index}:x", index)
        assert cache.invalidate_where("star:") == 32
        for index in range(8):
            cache.put(f"k{index}", index)
        cache.clear()
        assert len(cache) == 0
        assert cache.invalidations == 40


# --------------------------------------------------------------------- #
# Persistence: dump -> restart -> warm hit rate
# --------------------------------------------------------------------- #
class TestCachePersistence:
    def test_round_trip_restores_bit_identical_outcomes(self, tmp_path):
        path = tmp_path / "plans.cache"
        first = AdaptivePlanner()
        cold = [first.plan(query) for query in _workload_queries()]
        saved = first.cache.save(path)
        assert saved == len(WORKLOAD)

        restarted = AdaptivePlanner()
        assert restarted.cache.restore(path) == saved
        for query, reference in zip(_workload_queries(), cold):
            outcome = restarted.plan(query)
            assert outcome.decision.cache_hit is True
            assert outcome.cost == reference.cost
            assert outcome.plan.structure() == reference.plan.structure()
        # Every post-restore plan was a warm hit.
        assert restarted.cache_info()["hit_rate"] == 1.0

    def test_restore_into_smaller_cache_keeps_tail(self, tmp_path):
        path = tmp_path / "plans.cache"
        cache = PlanCache(max_entries=64, stripes=1)
        for index in range(32):
            cache.put(f"key-{index}", index)
        cache.save(path)
        small = PlanCache(max_entries=8, stripes=1)
        assert small.restore(path) == 32
        assert len(small) == 8
        assert "key-31" in small  # most-recently-used survives

    def test_restore_rejects_non_snapshots(self, tmp_path):
        path = tmp_path / "garbage.bin"
        path.write_bytes(b"not a cache")
        with pytest.raises(ValueError):
            PlanCache().restore(path)
        path.write_bytes(pickle.dumps({"magic": "something-else"}))
        with pytest.raises(ValueError):
            PlanCache().restore(path)
        with pytest.raises(FileNotFoundError):
            PlanCache().restore(tmp_path / "missing.cache")

    def test_failed_save_keeps_the_previous_snapshot(self, tmp_path):
        """A save whose dump fails midway (here on an entry pickle cannot
        serialize; on CPython <= 3.11 a plan some 400 joins deep exhausts
        pickle's recursion limit the same way) must leave the previous
        snapshot intact and no temporary file behind."""
        path = tmp_path / "plans.cache"
        cache = PlanCache(stripes=1)
        cache.put("shallow", 1)
        assert cache.save(path) == 1
        cache.put("unpicklable", threading.Lock())
        with pytest.raises(TypeError):
            cache.save(path)
        assert [entry.name for entry in tmp_path.iterdir()] == ["plans.cache"]
        restored = PlanCache(stripes=1)
        assert restored.restore(path) == 1
        assert restored.signatures() == ["shallow"]


# --------------------------------------------------------------------- #
# Planner thread-safety
# --------------------------------------------------------------------- #
class TestPlannerConcurrency:
    def test_eight_threads_bit_identical_to_serial(self):
        serial = AdaptivePlanner(enable_cache=False)
        references = [serial.plan(query) for query in _workload_queries()]

        shared = AdaptivePlanner()
        n_threads, rounds = 8, 5
        barrier = threading.Barrier(n_threads)
        failures = []

        def hammer(thread_index):
            barrier.wait()
            for round_index in range(rounds):
                # Regenerated query objects, like a service parsing each
                # request fresh; order varies per thread.
                order = range(len(WORKLOAD)) if thread_index % 2 == 0 \
                    else reversed(range(len(WORKLOAD)))
                for query_index in order:
                    factory, kwargs = WORKLOAD[query_index]
                    outcome = shared.plan(factory(**kwargs))
                    reference = references[query_index]
                    if (outcome.cost != reference.cost
                            or outcome.plan.structure()
                            != reference.plan.structure()
                            or outcome.decision.algorithm
                            != reference.decision.algorithm):
                        failures.append((thread_index, query_index))

        threads = [threading.Thread(target=hammer, args=(index,))
                   for index in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert failures == []
        info = shared.cache_info()
        assert info["hits"] + info["misses"] == n_threads * rounds * len(WORKLOAD)

    def test_singleflight_coalesces_thundering_herd(self):
        planned = []
        planned_lock = threading.Lock()

        class CountingPlanner(AdaptivePlanner):
            def _plan_uncached(self, query, profile, signature, cacheable):
                with planned_lock:
                    planned.append(signature)
                time.sleep(0.02)  # hold the flight open so waiters pile up
                return super()._plan_uncached(query, profile, signature,
                                              cacheable)

        planner = CountingPlanner()
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        outcomes = [None] * n_threads

        def request(thread_index):
            query = star_query(10, seed=42)
            barrier.wait()
            outcomes[thread_index] = planner.plan(query)

        threads = [threading.Thread(target=request, args=(index,))
                   for index in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Exactly one thread planned; everyone else was served the cached
        # outcome (as an admission hit or a coalesced wait).
        assert len(planned) == 1
        costs = {outcome.cost for outcome in outcomes}
        assert len(costs) == 1
        assert sum(1 for o in outcomes if o.decision.cache_hit) == n_threads - 1
        assert planner.coalesced_plans + sum(
            1 for _ in outcomes) >= n_threads  # coalesced subset of hits


# --------------------------------------------------------------------- #
# PlannerService: admission control, deadlines, lifecycle
# --------------------------------------------------------------------- #
class _SlowPlanner(AdaptivePlanner):
    """Planner whose every plan() takes ``delay`` seconds (cache disabled)."""

    def __init__(self, delay):
        super().__init__(enable_cache=False)
        self.delay = delay

    def plan(self, query):
        time.sleep(self.delay)
        return super().plan(query)


class TestPlannerService:
    def test_basic_ok_reply_matches_serial(self):
        query = star_query(8, seed=1)
        reference = AdaptivePlanner(enable_cache=False).plan(
            star_query(8, seed=1))
        with PlannerService(workers=2) as service:
            reply = service.plan(query)
            assert reply.status == "ok"
            assert reply.outcome.cost == reference.cost
            assert reply.plan_seconds >= 0.0
            stats = service.stats()
        assert stats["statuses"]["ok"] == 1
        assert stats["submitted"] == 1
        assert "kernel_pools" in stats

    def test_undersized_queue_sheds(self):
        service = PlannerService(_SlowPlanner(0.05), workers=1, queue_limit=1)
        try:
            futures = [service.submit(star_query(6, seed=s))
                       for s in range(8)]
            replies = [future.result() for future in futures]
        finally:
            service.close()
        statuses = [reply.status for reply in replies]
        assert statuses.count("shed") >= 5  # 1 in flight + 1 queued at most
        assert statuses.count("ok") >= 1
        stats = service.stats()
        assert stats["statuses"]["shed"] == statuses.count("shed")
        # Shed replies resolve instantly, with no planning time charged.
        shed = [r for r in replies if r.status == "shed"]
        assert all(r.outcome is None and r.plan_seconds == 0.0 for r in shed)

    def test_deadline_expires_queued_requests(self):
        service = PlannerService(_SlowPlanner(0.1), workers=1, queue_limit=8)
        try:
            blocker = service.submit(star_query(6, seed=0))
            hopeless = service.submit(star_query(6, seed=1),
                                      deadline_seconds=0.01)
            assert hopeless.result().status == "expired"
            assert blocker.result().status == "ok"
        finally:
            service.close()
        assert service.stats()["statuses"]["expired"] == 1

    def test_per_request_errors_do_not_kill_workers(self):
        with PlannerService(workers=1) as service:
            bad = service.plan(_disconnected_query())
            assert bad.status == "error"
            assert "disconnected" in bad.error
            good = service.plan(star_query(8, seed=1))
            assert good.status == "ok"

    def test_closed_service_rejects_submissions(self):
        service = PlannerService(workers=1)
        service.close()
        service.close()  # idempotent
        with pytest.raises(ServiceClosed):
            service.submit(star_query(6, seed=0))

    def test_warm_start_across_restarts(self, tmp_path):
        path = str(tmp_path / "service.cache")
        queries = _workload_queries()
        with PlannerService(warm_start_path=path, workers=2) as first:
            for query in queries:
                assert first.plan(query).status == "ok"
        # close() persisted the cache; a fresh service restores it.
        with PlannerService(warm_start_path=path, workers=2) as second:
            assert second.stats()["restored_entries"] == len(queries)
            for query in _workload_queries():
                reply = second.plan(query)
                assert reply.status == "ok"
                assert reply.outcome.decision.cache_hit is True
            assert second.stats()["cache"]["hit_rate"] == 1.0

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            PlannerService(workers=0)
        with pytest.raises(ValueError):
            PlannerService(queue_limit=0)


# --------------------------------------------------------------------- #
# Replay harness
# --------------------------------------------------------------------- #
class TestReplayHarness:
    def test_zipfian_stream_is_skewed_and_deterministic(self):
        stream = zipfian_indices(16, 5_000, s=1.2, seed=3)
        assert stream == zipfian_indices(16, 5_000, s=1.2, seed=3)
        assert set(stream) <= set(range(16))
        assert stream.count(0) > stream.count(15)

    def test_replay_summary_shape_and_callbacks(self):
        queries = _workload_queries()
        seen = []
        seen_lock = threading.Lock()

        def on_reply(query_index, reply):
            assert isinstance(reply, ServiceReply)
            with seen_lock:
                seen.append(query_index)

        with PlannerService(workers=2) as service:
            summary = replay_zipfian(service, queries, 500,
                                     client_threads=2, seed=5,
                                     on_reply=on_reply)
        assert summary["statuses"]["ok"] == 500
        assert len(seen) == 500
        assert summary["qps"] > 0
        assert summary["p99_ms"] >= summary["p50_ms"] >= 0
        assert summary["hit_rate"] > 0.8
        assert summary["shed"] == 0

    def test_replay_validates_inputs(self):
        with pytest.raises(ValueError):
            zipfian_indices(0, 10)
        with PlannerService(workers=1) as service:
            with pytest.raises(ValueError):
                replay_zipfian(service, [star_query(6, seed=0)], 10,
                               client_threads=0)


# --------------------------------------------------------------------- #
# Kernel worker-pool registry
# --------------------------------------------------------------------- #
@pytest.mark.multicore
class TestWorkerPoolRegistry:
    def test_lease_shares_and_info_counts(self):
        mc.shutdown_worker_pools()
        try:
            pool = mc.POOL_REGISTRY.lease(2)
            assert mc.POOL_REGISTRY.lease(2) is pool  # shared, no respawn
            info = mc.POOL_REGISTRY.info()
            assert info["pools"]["2"]["alive"] is True
            assert info["pools"]["2"]["workers"] == 2
            assert info["pools_created"] >= 1
        finally:
            mc.shutdown_worker_pools()
        assert mc.POOL_REGISTRY.info()["pools"] == {}

    def test_service_stats_surface_registry(self):
        mc.shutdown_worker_pools()
        try:
            mc.POOL_REGISTRY.lease(1)
            with PlannerService(workers=1) as service:
                pools = service.stats()["kernel_pools"]["pools"]
            assert "1" in pools
        finally:
            mc.shutdown_worker_pools()


# --------------------------------------------------------------------- #
# CLI: serve / replay subcommands
# --------------------------------------------------------------------- #
class TestServeReplayCLI:
    @pytest.fixture()
    def query_file(self, tmp_path):
        path = tmp_path / "queries.sql"
        path.write_text(
            "# mixed shapes\n"
            "select * from a, b, c, d where a.x = b.x and a.y = c.y "
            "and a.z = d.z;\n"
            "\n"
            "select * from t1, t2, t3 where t1.k = t2.k and t2.j = t3.j\n"
            "select * from p, q, r where p.a = q.a and q.b = r.b "
            "and r.c = p.c\n")
        return str(path)

    def test_serve_prints_replies_and_summary(self, query_file, capsys):
        assert cli_main(["serve", "--queries", query_file,
                         "--threads", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("ok algorithm=") == 3
        assert "served 3 requests" in out

    def test_replay_prints_bench_style_summary(self, query_file, capsys):
        assert cli_main(["replay", "--queries", query_file,
                         "--requests", "200", "--threads", "2",
                         "--seed", "1"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_requests"] == 200
        assert summary["n_distinct"] == 3
        assert summary["statuses"]["ok"] == 200
        for key in ("qps", "p50_ms", "p99_ms", "hit_rate", "shed"):
            assert key in summary

    def test_serve_warm_start_round_trip(self, query_file, tmp_path, capsys):
        cache_path = str(tmp_path / "warm.cache")
        assert cli_main(["serve", "--queries", query_file,
                         "--warm-start", cache_path]) == 0
        capsys.readouterr()
        assert cli_main(["serve", "--queries", query_file,
                         "--warm-start", cache_path]) == 0
        out = capsys.readouterr().out
        assert "warm-started 3 entries" in out
        assert "cache_hit=True" in out

    def test_missing_query_file_errors(self, capsys):
        assert cli_main(["replay", "--queries", "/nonexistent.sql"]) == 1
        assert "error" in capsys.readouterr().err

    def test_empty_statement_file_errors(self, tmp_path, capsys):
        path = tmp_path / "empty.sql"
        path.write_text("# nothing here\n")
        assert cli_main(["serve", "--queries", str(path)]) == 1
        assert cli_main(["replay", "--queries", str(path)]) == 1

    def test_invalid_numeric_arguments(self, query_file):
        assert cli_main(["replay", "--queries", query_file,
                         "--requests", "0"]) == 2
        assert cli_main(["serve", "--queries", query_file,
                         "--threads", "0"]) == 2

    def test_legacy_flat_invocation_still_plans(self, capsys):
        assert cli_main(["select * from a, b where a.x = b.x",
                         "--no-plan"]) == 0
        assert "algorithm : MPDP:Tree" in capsys.readouterr().out
