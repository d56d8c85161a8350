"""PlannerService: the adaptive planner as a long-running concurrent service.

:class:`~repro.planner.service.AdaptivePlanner` is a thread-safe *library*;
this module wraps one shared planner in the process shape a serving tier
needs (the ROADMAP's "planner-as-a-service under real concurrency" item, and
Trummer & Koch's framing of the optimizer as a throughput-bound, resource-
managed system rather than a function call):

* **a worker thread pool** draining one **bounded request queue** — the
  service's concurrency level and memory footprint are both fixed at
  construction, independent of offered load;
* **admission control**: when the queue is full, :meth:`submit` *sheds* the
  request immediately with a ``status="shed"`` reply instead of queueing
  unboundedly (the caller gets its answer in microseconds and can retry,
  degrade, or plan locally — never hang);
* **per-request deadlines**: a request that waited in the queue past its
  deadline is answered ``status="expired"`` without planning — under
  overload the service spends its cycles on requests that still have a
  waiting caller.  Planning itself is never interrupted (a DP sweep is not
  preemptible), so the deadline bounds *queue* time, not service time;
* **warm-start persistence**: the shared plan cache can be saved on
  :meth:`close` and restored on construction
  (:meth:`~repro.planner.cache.PlanCache.save` /
  :meth:`~repro.planner.cache.PlanCache.restore`), so a restarted service
  begins at its predecessor's hit rate instead of cold;
* **shared kernel worker pools**: planners route multicore kernel levels
  through the process-wide pool registry
  (:data:`repro.exec.multicore.POOL_REGISTRY`), so concurrent requests —
  and concurrent services — reuse one set of worker processes instead of
  each spawning their own; :meth:`stats` surfaces the registry's counters.

Bit-identity contract: the service never changes what the planner produces —
every ``status="ok"`` reply carries the exact
:class:`~repro.planner.service.PlanningOutcome` a serial
``AdaptivePlanner.plan()`` call would return for that query
(``benchmarks/bench_service_throughput.py`` asserts this per run).

Quickstart::

    from repro.planner import AdaptivePlanner, PlannerService
    from repro import workloads

    with PlannerService(AdaptivePlanner(), workers=4) as service:
        reply = service.plan(workloads.star_query(10, seed=1))
        assert reply.status == "ok"
        print(reply.outcome.decision.algorithm, reply.outcome.cost)
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..core.query import QueryInfo
from ..optimizers.base import OptimizationError
from .service import AdaptivePlanner, PlanningOutcome

__all__ = [
    "ServiceReply",
    "ServiceClosed",
    "PlannerService",
    "replay_zipfian",
    "zipfian_indices",
    "percentile",
]

#: Reply statuses, in the order a request can earn them.
_STATUSES = ("ok", "shed", "expired", "error")


class ServiceClosed(RuntimeError):
    """Raised by :meth:`PlannerService.submit` after :meth:`close`."""


@dataclass(frozen=True)
class ServiceReply:
    """What the service answers for one request.

    ``status``:

    * ``"ok"`` — ``outcome`` holds the planning outcome;
    * ``"shed"`` — the bounded queue was full at admission; nothing ran;
    * ``"expired"`` — the request out-waited its deadline in the queue and
      was dropped without planning;
    * ``"error"`` — planning raised (``error`` holds the message; e.g. a
      disconnected join graph).  Errors are per-request: the worker thread
      survives and keeps serving.
    """

    status: str
    outcome: Optional[PlanningOutcome] = None
    error: Optional[str] = None
    #: Seconds the request spent queued before a worker picked it up
    #: (0.0 for shed requests).
    queue_seconds: float = 0.0
    #: Seconds the worker spent planning (0.0 unless status == "ok"/"error").
    plan_seconds: float = 0.0


@dataclass
class _Request:
    query: QueryInfo
    future: "Future[ServiceReply]"
    enqueued_at: float
    deadline_seconds: Optional[float]


class PlannerService:
    """A bounded thread-pool planning service over one shared planner.

    Args:
        planner: the shared :class:`AdaptivePlanner` (a default one is
            created; it must have its cache enabled for warm-start paths).
        workers: worker-thread count draining the request queue.
        queue_limit: bounded queue depth *beyond* the requests currently
            being planned; admission sheds once it is full.
        deadline_seconds: default per-request queue deadline (``None`` =
            wait forever); :meth:`submit` can override per request.
        warm_start_path: when set, restore the planner's cache from this
            file at construction (missing file = cold start, not an error)
            and save back to it on :meth:`close`.
        clock: monotonic time source (injectable for deterministic tests).
    """

    def __init__(self, planner: Optional[AdaptivePlanner] = None, *,
                 workers: int = 4, queue_limit: int = 64,
                 deadline_seconds: Optional[float] = None,
                 warm_start_path: Optional[str] = None,
                 clock: Callable[[], float] = time.perf_counter):
        if workers < 1:
            raise ValueError("PlannerService needs workers >= 1")
        if queue_limit < 1:
            raise ValueError("PlannerService needs queue_limit >= 1")
        self.planner = planner if planner is not None else AdaptivePlanner()
        self.workers = workers
        self.queue_limit = queue_limit
        self.deadline_seconds = deadline_seconds
        self.warm_start_path = warm_start_path
        self._clock = clock
        self._queue: "queue.Queue[Optional[_Request]]" = queue.Queue(
            maxsize=queue_limit)
        self._stats_lock = threading.Lock()
        self._counts: Dict[str, int] = {status: 0 for status in _STATUSES}  # guarded-by: _stats_lock
        self._submitted = 0  # guarded-by: _stats_lock
        self._restored_entries = 0
        self._closed = False
        self._started_at = self._clock()
        if warm_start_path is not None and self.planner.cache is not None:
            try:
                self._restored_entries = self.planner.cache.restore(
                    warm_start_path)
            except FileNotFoundError:
                self._restored_entries = 0
        self._threads = [
            threading.Thread(target=self._worker_loop,
                             name=f"repro-planner-{index}", daemon=True)
            for index in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------ #
    # Request path
    # ------------------------------------------------------------------ #
    def submit(self, query: QueryInfo,
               deadline_seconds: Optional[float] = None
               ) -> "Future[ServiceReply]":
        """Admit one request; the future always resolves to a ServiceReply.

        Admission is non-blocking: a full queue resolves the future
        *immediately* with a ``"shed"`` reply (the load-shedding response —
        the caller is never parked behind an unbounded backlog).
        """
        if self._closed:
            raise ServiceClosed("PlannerService is closed")
        future: "Future[ServiceReply]" = Future()
        request = _Request(
            query=query,
            future=future,
            enqueued_at=self._clock(),
            deadline_seconds=(self.deadline_seconds
                              if deadline_seconds is None
                              else deadline_seconds),
        )
        with self._stats_lock:
            self._submitted += 1
        try:
            self._queue.put_nowait(request)
        except queue.Full:
            self._resolve(future, ServiceReply(status="shed"))
        return future

    def plan(self, query: QueryInfo,
             deadline_seconds: Optional[float] = None) -> ServiceReply:
        """Blocking convenience wrapper: ``submit(...).result()``."""
        return self.submit(query, deadline_seconds).result()

    def _resolve(self, future: "Future[ServiceReply]",
                 reply: ServiceReply) -> None:
        with self._stats_lock:
            self._counts[reply.status] += 1
        future.set_result(reply)

    def _worker_loop(self) -> None:
        while True:
            request = self._queue.get()
            if request is None:  # shutdown sentinel
                return
            waited = self._clock() - request.enqueued_at
            deadline = request.deadline_seconds
            if deadline is not None and waited > deadline:
                self._resolve(request.future, ServiceReply(
                    status="expired", queue_seconds=waited))
                continue
            start = self._clock()
            try:
                outcome = self.planner.plan(request.query)
            except OptimizationError as error:
                self._resolve(request.future, ServiceReply(
                    status="error", error=str(error), queue_seconds=waited,
                    plan_seconds=self._clock() - start))
                continue
            except BaseException as error:  # pragma: no cover - defensive
                self._resolve(request.future, ServiceReply(
                    status="error", error=f"{type(error).__name__}: {error}",
                    queue_seconds=waited, plan_seconds=self._clock() - start))
                continue
            self._resolve(request.future, ServiceReply(
                status="ok", outcome=outcome, queue_seconds=waited,
                plan_seconds=self._clock() - start))

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self, save: bool = True) -> None:
        """Drain in-flight requests, stop workers, persist the cache.

        Idempotent.  Requests already admitted are served; new submissions
        raise :class:`ServiceClosed`.  With ``save`` and a configured
        ``warm_start_path``, the plan cache is written back so the next
        service instance warm-starts.
        """
        if self._closed:
            return
        self._closed = True
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join()
        if (save and self.warm_start_path is not None
                and self.planner.cache is not None):
            self.planner.cache.save(self.warm_start_path)

    def __enter__(self) -> "PlannerService":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, object]:
        """One consistent snapshot of service, cache and pool counters."""
        from ..exec.multicore import POOL_REGISTRY

        with self._stats_lock:
            counts = dict(self._counts)
            submitted = self._submitted
        return {
            "submitted": submitted,
            "statuses": counts,
            "queue_depth": self._queue.qsize(),
            "queue_limit": self.queue_limit,
            "workers": self.workers,
            "uptime_seconds": self._clock() - self._started_at,
            "restored_entries": self._restored_entries,
            "coalesced_plans": self.planner.coalesced_plans,
            "cache": self.planner.cache_info(),
            "kernel_pools": POOL_REGISTRY.info(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PlannerService(workers={self.workers}, "
                f"queue_limit={self.queue_limit}, "
                f"deadline={self.deadline_seconds}, "
                f"closed={self._closed})")


# --------------------------------------------------------------------------- #
# Replay harness (shared by `repro-plan replay` and the service benchmark)
# --------------------------------------------------------------------------- #
def zipfian_indices(n_distinct: int, n_requests: int, *,
                    s: float = 1.1, seed: int = 0) -> List[int]:
    """A zipfian request stream over ``range(n_distinct)``.

    Rank ``r`` (1-based, in the given query order) is drawn with probability
    proportional to ``1 / r**s`` — the classic web-traffic skew where a few
    hot queries dominate but the tail keeps recurring.
    """
    if n_distinct < 1:
        raise ValueError("need at least one distinct query")
    import random

    weights = [1.0 / (rank ** s) for rank in range(1, n_distinct + 1)]
    return random.Random(seed).choices(range(n_distinct), weights=weights,
                                       k=n_requests)


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sequence."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1,
                max(0, int(round(fraction * (len(sorted_values) - 1)))))
    return sorted_values[index]


def replay_zipfian(service: PlannerService, queries: Sequence[QueryInfo],
                   n_requests: int, *, client_threads: int = 4,
                   zipf_s: float = 1.1, seed: int = 0,
                   deadline_seconds: Optional[float] = None,
                   on_reply: Optional[Callable[[int, ServiceReply], None]]
                   = None) -> Dict[str, object]:
    """Closed-loop zipfian replay of ``queries`` against a running service.

    ``client_threads`` clients each own a contiguous slice of the request
    stream and issue requests back-to-back (submit, wait, next) — the
    standard closed-loop load shape, so latency includes queue wait and
    throughput is bounded by ``client_threads / latency``.

    ``on_reply(query_index, reply)`` is invoked from client threads for
    every reply (benchmarks use it to assert plan bit-identity without a
    second pass over 100k replies); it must be thread-safe.

    Returns a summary dict: ``qps``, ``p50_ms`` / ``p99_ms`` (end-to-end
    request latency), per-status counts, ``hit_rate`` over the service's
    cache and the shed/expired totals — the ``BENCH_service.json`` row
    shape.
    """
    if client_threads < 1:
        raise ValueError("need client_threads >= 1")
    stream = zipfian_indices(len(queries), n_requests, s=zipf_s, seed=seed)
    slices = []
    base, remainder = divmod(len(stream), client_threads)
    start = 0
    for index in range(client_threads):
        stop = start + base + (1 if index < remainder else 0)
        slices.append(stream[start:stop])
        start = stop

    clock = time.perf_counter
    per_thread_latencies: List[List[float]] = [[] for _ in slices]
    per_thread_counts: List[Dict[str, int]] = [
        {status: 0 for status in _STATUSES} for _ in slices]
    errors: List[BaseException] = []
    errors_lock = threading.Lock()

    def client(thread_index: int, indices: List[int]) -> None:
        latencies = per_thread_latencies[thread_index]
        counts = per_thread_counts[thread_index]
        try:
            for query_index in indices:
                begin = clock()
                reply = service.plan(queries[query_index],
                                     deadline_seconds=deadline_seconds)
                latencies.append(clock() - begin)
                counts[reply.status] += 1
                if on_reply is not None:
                    on_reply(query_index, reply)
        except BaseException as error:  # surfaced after join
            with errors_lock:
                errors.append(error)

    threads = [threading.Thread(target=client, args=(index, indices),
                                name=f"replay-client-{index}")
               for index, indices in enumerate(slices)]
    begin = clock()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = clock() - begin
    if errors:
        raise errors[0]

    latencies = sorted(value for chunk in per_thread_latencies
                       for value in chunk)
    counts = {status: sum(chunk[status] for chunk in per_thread_counts)
              for status in _STATUSES}
    cache_info = service.planner.cache_info()
    return {
        "n_requests": n_requests,
        "n_distinct": len(queries),
        "client_threads": client_threads,
        "zipf_s": zipf_s,
        "seed": seed,
        "elapsed_seconds": elapsed,
        "qps": n_requests / elapsed if elapsed else float("inf"),
        "p50_ms": percentile(latencies, 0.50) * 1e3,
        "p99_ms": percentile(latencies, 0.99) * 1e3,
        "statuses": counts,
        "shed": counts["shed"],
        "expired": counts["expired"],
        "hit_rate": cache_info.get("hit_rate", 0.0),
        "cache_entries": cache_info.get("entries", 0),
    }
