"""Multicore kernel backend: DP levels sharded across worker processes.

This is the paper's multi-threaded MPDP execution (Section 7.4, Figure 12)
made real for CPython: within one DP level every candidate evaluation is
independent, so the level's target batch is partitioned into contiguous
shards and each shard is evaluated by a *worker process* running the exact
vectorized unrank/filter/cost kernels of :mod:`repro.exec.vectorized`
(:func:`~repro.exec.vectorized.run_subset_shard` and friends).  Processes —
not threads — because the GIL serialises Python-level enumeration; the
kernels release it inside numpy, but the per-level Python staging around
them would still serialise a thread pool.

Data flow per level:

1. the parent refreshes the run's incremental
   :class:`~repro.exec.vectorized.SnapshotBuilder` (arena key/cost/row
   columns plus the precomputed per-subset neighbour bitmaps) and publishes
   the snapshot, the level's target masks and their batched cardinalities
   into **one** ``multiprocessing.shared_memory`` segment.  Every bitmap
   column is a packed multi-word matrix (:mod:`repro.core.widebitmap`):
   ``(m, words)`` uint64, word 0 least-significant, where ``words`` is the
   run's packed-space width (fragment runs on wide graphs remap the scope's
   bits densely, so workers see the compact layout and never need the full
   graph width) — the shm layout is shape-generic, so the word axis rides
   through ``_publish_arrays`` unchanged and graphs of any width shard
   natively;
2. each worker receives a small task descriptor (segment name, array
   offsets, its ``[start, stop)`` shard of the target column, the pickled
   cost model, the shard kernel and its args) over its pipe, attaches the
   segment, rebuilds a zero-copy :class:`~repro.exec.vectorized.Snapshot`
   and calls the kernel;
3. the parent unlinks the segment and concatenates the per-shard winner
   columns in shard order — target order — and the shared level runner
   (:func:`~repro.exec.vectorized.run_level`) scatters them into the
   :class:`~repro.core.arena.PlanArena` with one ``record_level`` call.

**Bit-identity** with :class:`~repro.exec.backend.ScalarBackend` holds for
any worker count by construction: per-target winner selection is the
lexicographic ``(cost, emission sequence)`` minimum, sequence numbers are
per-target, and every target lives in exactly one shard — so sharding can
only change *where* a winner is computed, never which candidate wins.
Counters are exact sums of per-shard counts.  ``tests/test_multicore_backend.py``
and the differential fuzz suite pin plans, costs and counters against the
scalar reference for workers ∈ {1, 2, 4}.

**Break-even gating**: worker IPC (segment copy + task pickling + result
transfer) costs a fixed few hundred microseconds per level, so levels whose
estimated candidate work is below :data:`MULTICORE_MIN_WORK` (or with fewer
than :data:`MULTICORE_MIN_TARGETS` targets) run on the in-process
vectorized kernels instead — the first/last DP levels of even a huge query
are tiny.  DPsize levels always run in-process: their pair grid needs
on-the-fly cardinality estimation for combined masks, which lives in the
parent's estimator.

Worker pools live in the process-wide :data:`POOL_REGISTRY`
(:class:`WorkerPoolRegistry`): one shared pool per worker count, reused
across optimizer runs, concurrent planners and services (a backend instance
is created per run, a pool is not).  ``shutdown_worker_pools()`` tears them
down, and an ``atexit`` hook does so at interpreter exit.  Workers are
daemonic, stateless between tasks, and receive everything per task, so
interleaved runs from different queries cannot poison each other.
"""

from __future__ import annotations

import atexit
import os
import sys
import threading
import traceback
import uuid
import warnings
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import multiprocessing
from multiprocessing import shared_memory

import numpy as np

from ..core.arena import PlanArena
from ..core.query import QueryInfo
from .backend import (
    KernelBackend,
    KernelState,
    _available_cpus,
    validate_workers,
)
from .vectorized import (
    Snapshot,
    VectorizedBackend,
    builder_for,
    run_block_shard,
    run_level,
    run_subset_shard,
    run_tree_shard,
    tree_info_for,
)

__all__ = [
    "MulticoreBackend",
    "WorkerPoolRegistry",
    "POOL_REGISTRY",
    "available_workers",
    "shutdown_worker_pools",
    "MULTICORE_MIN_TARGETS",
    "MULTICORE_MIN_WORK",
]

#: Minimum targets in a level batch before sharding pays for worker IPC.
MULTICORE_MIN_TARGETS = 32

#: Minimum estimated candidate evaluations in a level batch before sharding
#: pays (measured break-even on commodity hardware is in the 10^4..10^5
#: range; see PERFORMANCE.md — below it the in-process kernels win).
MULTICORE_MIN_WORK = 1 << 15

#: Shared-memory segment name prefix (diagnosable in /dev/shm, and lets the
#: test suite assert nothing leaked).
_SEGMENT_PREFIX = "repro_mc_"


def available_workers(requested: Optional[int] = None) -> int:
    """The worker count a multicore run will actually use.

    ``None`` means one worker per usable CPU; an explicit request is
    honoured as-is (including oversubscription — the scalability benchmark
    measures it deliberately).
    """
    validate_workers(requested)
    if requested is not None:
        return requested
    return _available_cpus()


def _start_method() -> str:
    """Prefer fork on Linux (cheap startup); spawn everywhere else.

    ``fork`` is *available* on every POSIX platform, but macOS forked
    children abort inside Objective-C framework code (which is why CPython
    switched the macOS default to spawn) — so the gate is the platform,
    not fork availability.
    """
    if sys.platform == "linux" and "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return "spawn"


# --------------------------------------------------------------------------- #
# Shared-memory packing
# --------------------------------------------------------------------------- #
def _create_segment(size: int) -> shared_memory.SharedMemory:
    while True:
        name = f"{_SEGMENT_PREFIX}{os.getpid():x}_{uuid.uuid4().hex[:12]}"
        try:
            return shared_memory.SharedMemory(name=name, create=True,
                                              size=max(size, 8))
        except FileExistsError:  # pragma: no cover - uuid collision
            continue


def _publish_arrays(arrays: Dict[str, np.ndarray]):
    """Copy ``arrays`` into one fresh segment; returns ``(segment, meta)``.

    ``meta`` maps each array name to ``(offset, shape, dtype_str)`` — the
    descriptor workers rebuild zero-copy views from.
    """
    metas: Dict[str, Tuple[int, tuple, str]] = {}
    prepared: Dict[str, np.ndarray] = {}
    total = 0
    for name, array in arrays.items():
        array = np.ascontiguousarray(array)
        prepared[name] = array
        metas[name] = (total, array.shape, array.dtype.str)
        total += (array.nbytes + 7) & ~7  # 8-byte alignment per column
    segment = _create_segment(total)
    for name, array in prepared.items():
        offset = metas[name][0]
        view = np.ndarray(array.shape, dtype=array.dtype,
                          buffer=segment.buf, offset=offset)
        view[...] = array
        del view
    return segment, metas


def _disable_worker_resource_tracking() -> None:
    """Stop this (worker) process from tracker-registering attachments.

    Every ``SharedMemory`` constructor (attach included, on CPython ≤ 3.12)
    registers the segment with the resource tracker, but segment lifetime is
    owned entirely by the *parent*, which unlinks after each level.  Worker
    registrations only cause double accounting: under ``fork`` they race the
    parent's unregister in the shared tracker process, under ``spawn`` the
    worker's own tracker would try to destroy live segments at worker exit.
    Workers never create segments, so registration is disabled wholesale in
    the worker process.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.register = lambda name, rtype: None
    except ImportError:  # pragma: no cover - tracker module absent
        # No resource tracker on this platform/version: nothing registers
        # worker-side attachments in the first place, so there is nothing
        # to disable.
        pass
    except Exception:  # pragma: no cover - tracker internals changed
        # An unexpected tracker shape is survivable (workers merely
        # double-account segments), but it must not be invisible: newer
        # CPythons changing the internals is exactly what this warning
        # would surface.
        warnings.warn("could not disable worker-side resource tracking; "
                      "shared-memory segments may be double-accounted",
                      RuntimeWarning)


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Worker-side attach; registration is disabled by ``_worker_main``."""
    return shared_memory.SharedMemory(name=name)


def _release_segment(segment: shared_memory.SharedMemory) -> None:
    try:
        segment.close()
    except BufferError:  # pragma: no cover - error-path frames pin views
        # An exception traceback can keep numpy views of the buffer alive
        # while we unwind; leak the worker-side mapping (bounded by the
        # error count, reclaimed at process exit) rather than masking the
        # real error with a BufferError.
        pass


# --------------------------------------------------------------------------- #
# Worker protocol
# --------------------------------------------------------------------------- #
def _execute_task(task: dict):
    """Run one shard task against its shared-memory views (worker side)."""
    segment = _attach_segment(task["segment"])
    try:
        arrays = {
            name: np.ndarray(shape, dtype=np.dtype(dtype_str),
                             buffer=segment.buf, offset=offset)
            for name, (offset, shape, dtype_str) in task["meta"].items()
        }
        snapshot = Snapshot(arrays["masks"], arrays["costs"],
                            arrays["rows"], arrays["neighbours"])
        start, stop = task["start"], task["stop"]
        result = task["kernel"](snapshot, task["model"],
                                arrays["targets"][start:stop],
                                arrays["out_rows"][start:stop],
                                **task["args"])
        # Kernel results are fresh allocations; drop every view of the
        # segment before closing it (close() refuses while views exist).
        del arrays, snapshot
        return result
    finally:
        _release_segment(segment)


def _worker_main(conn) -> None:
    """Worker loop: stateless task execution until ``None`` or EOF."""
    _disable_worker_resource_tracking()
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        try:
            result = _execute_task(task)
        except BaseException:
            try:
                conn.send(("err", traceback.format_exc()))
            except (BrokenPipeError, OSError):
                return
            continue
        try:
            conn.send(("ok", result))
        except (BrokenPipeError, OSError):
            return


class _WorkerPool:
    """A fixed set of worker processes with one duplex pipe each."""

    def __init__(self, n_workers: int) -> None:
        context = multiprocessing.get_context(_start_method())
        self.n_workers = n_workers
        self._conns = []
        self._procs = []
        self._broken = False
        #: Observability counters (read via ``WorkerPoolRegistry.info``);
        #: updated under ``_lock`` inside :meth:`run_tasks`.
        self.levels_dispatched = 0  # guarded-by: _lock
        self.tasks_dispatched = 0  # guarded-by: _lock
        #: Pools are shared per worker count across runs — and a shared
        #: AdaptivePlanner may serve concurrent threads — so one level's
        #: send/recv exchange must be atomic per pool, or two threads would
        #: interleave reads on the same pipes and collect each other's
        #: shard payloads.
        self._lock = threading.Lock()
        for index in range(n_workers):
            parent_conn, child_conn = context.Pipe(duplex=True)
            process = context.Process(
                target=_worker_main, args=(child_conn,),
                name=f"repro-multicore-{index}", daemon=True)
            process.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(process)

    @property
    def alive(self) -> bool:
        return (not self._broken
                and all(process.is_alive() for process in self._procs))

    def run_tasks(self, tasks: Sequence[dict]) -> List[tuple]:
        """Send one task per worker and gather results in task order.

        A worker error raises ``RuntimeError`` carrying the worker's
        traceback; a dead worker marks the pool broken (the registry builds
        a fresh one on next use).
        """
        if len(tasks) > self.n_workers:
            raise ValueError(
                f"{len(tasks)} tasks for {self.n_workers} workers; shard "
                "count must not exceed the pool size")
        with self._lock:
            self.levels_dispatched += 1
            self.tasks_dispatched += len(tasks)
            for conn, task in zip(self._conns, tasks):
                conn.send(task)
            results: List[tuple] = []
            error: Optional[str] = None
            for conn, _task in zip(self._conns, tasks):
                try:
                    status, payload = conn.recv()
                except (EOFError, OSError) as exc:
                    self._broken = True
                    raise RuntimeError(
                        "a multicore worker process died mid-level; the pool "
                        "will be rebuilt on next use") from exc
                if status == "err":
                    if error is None:
                        error = payload
                else:
                    results.append(payload)
        if error is not None:
            raise RuntimeError(f"multicore worker failed:\n{error}")
        return results

    def shutdown(self) -> None:
        self._broken = True
        for conn in self._conns:
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for process in self._procs:
            process.join(timeout=2.0)
            if process.is_alive():  # pragma: no cover - hung worker
                process.terminate()
                process.join(timeout=1.0)
        for conn in self._conns:
            conn.close()
        self._conns = []
        self._procs = []


class WorkerPoolRegistry:
    """Process-wide registry of shared kernel worker pools.

    One pool exists per requested worker count, shared by every backend
    instance, optimizer run, planner and service thread in the process —
    concurrent planners *reuse* worker processes instead of each spawning
    their own (per-pool pipe exchanges are serialised by the pool's own
    lock, so sharing is safe; distinct worker counts run concurrently on
    distinct pools).  Dead pools (a worker crashed mid-level) are detected
    on lease and rebuilt transparently.

    The module-level :data:`POOL_REGISTRY` is the process-wide instance;
    :func:`shutdown_worker_pools` tears its pools down (idempotent, an
    ``atexit`` hook does so at interpreter exit) and :meth:`info` snapshots
    its counters — surfaced by
    :meth:`repro.planner.server.PlannerService.stats`.
    """

    def __init__(self) -> None:
        self._pools: Dict[int, _WorkerPool] = {}  # guarded-by: _lock
        self._lock = threading.Lock()
        self.pools_created = 0  # guarded-by: _lock
        self.pools_rebuilt = 0  # guarded-by: _lock

    def lease(self, n_workers: int) -> _WorkerPool:
        """The shared pool for ``n_workers`` (created/rebuilt on demand)."""
        with self._lock:
            pool = self._pools.get(n_workers)
            if pool is None or not pool.alive:
                if pool is not None:
                    pool.shutdown()
                    self.pools_rebuilt += 1
                pool = _WorkerPool(n_workers)
                self._pools[n_workers] = pool
                self.pools_created += 1
            return pool

    def shutdown(self) -> None:
        """Stop every pool (idempotent; pools are re-created on demand)."""
        with self._lock:
            for pool in self._pools.values():
                pool.shutdown()
            self._pools.clear()

    def info(self) -> Dict[str, object]:
        """Counter snapshot: per-pool liveness and dispatch totals."""
        with self._lock:
            pools = {
                str(n_workers): {
                    "workers": n_workers,
                    "alive": pool.alive,
                    "levels_dispatched": pool.levels_dispatched,
                    "tasks_dispatched": pool.tasks_dispatched,
                }
                for n_workers, pool in self._pools.items()
            }
            return {
                "pools": pools,
                "pools_created": self.pools_created,
                "pools_rebuilt": self.pools_rebuilt,
            }


#: The process-wide shared pool registry.
POOL_REGISTRY = WorkerPoolRegistry()


def shutdown_worker_pools() -> None:
    """Stop every cached worker pool (idempotent; re-created on demand)."""
    POOL_REGISTRY.shutdown()


atexit.register(shutdown_worker_pools)


def _shard_bounds(n_items: int, n_shards: int) -> List[Tuple[int, int]]:
    """Contiguous, near-equal ``[start, stop)`` shards covering ``n_items``."""
    base, remainder = divmod(n_items, n_shards)
    bounds = []
    start = 0
    for index in range(n_shards):
        stop = start + base + (1 if index < remainder else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


# --------------------------------------------------------------------------- #
# The backend
# --------------------------------------------------------------------------- #
class MulticoreBackend(KernelBackend):
    """Sharded multi-process execution of the level-parallel DP kernels."""

    name = "multicore"

    def __init__(self, workers: Optional[int] = None) -> None:
        self.workers = available_workers(workers)
        #: In-process delegate for below-break-even levels and DPsize; it
        #: shares the run's ``KernelState.cache`` (snapshot builder, tree
        #: arrays) with the sharded path.
        self._vectorized = VectorizedBackend()

    def create_table(self, query: QueryInfo) -> PlanArena:
        return PlanArena(query)

    # ------------------------------------------------------------------ #
    def _should_shard(self, n_targets: int, per_target_work: int) -> bool:
        return (n_targets >= MULTICORE_MIN_TARGETS
                and n_targets * per_target_work >= MULTICORE_MIN_WORK)

    def _run_sharded(self, snapshot: Snapshot, model: object,
                     target_col: np.ndarray, out_rows: np.ndarray,
                     shard_kernel: Callable[..., tuple],
                     args: Dict[str, object]) -> tuple:
        """Publish the level, fan ``shard_kernel`` out over contiguous shards.

        Returns the kernel's result tuple for the whole target column:
        shards partition the targets, so concatenating the per-shard winner
        columns in shard order restores target order, and per-shard
        pair/CCP counts sum exactly to the level totals the single-process
        backend records.
        """
        n_shards = min(self.workers, len(target_col))
        pool = POOL_REGISTRY.lease(self.workers)
        segment, meta = _publish_arrays({
            "masks": snapshot.masks,
            "costs": snapshot.costs,
            "rows": snapshot.rows,
            "neighbours": snapshot.neighbours,
            "targets": target_col,
            "out_rows": out_rows,
        })
        try:
            results = pool.run_tasks([
                {"segment": segment.name, "meta": meta, "start": start,
                 "stop": stop, "model": model, "kernel": shard_kernel,
                 "args": args}
                for start, stop in _shard_bounds(len(target_col), n_shards)])
        finally:
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        best, left, right, ccp, pairs = zip(*results)
        return (np.concatenate(best), np.concatenate(left),
                np.concatenate(right), sum(ccp), sum(pairs))

    # ------------------------------------------------------------------ #
    def run_subset_level(self, state: KernelState, level: int,
                         targets: Sequence[int]) -> None:
        if not targets:
            return
        if not self._should_shard(len(targets), (1 << level) - 2):
            self._vectorized.run_subset_level(state, level, targets)
            return
        run_level(state, level, targets, run_subset_shard,
                  {"level": level, "n_bits": builder_for(state).n_bits},
                  self._run_sharded)

    def run_block_level(self, state: KernelState, level: int,
                        targets: Sequence[int]) -> None:
        if not targets:
            return
        # Upper-bound estimate: a level-wide biconnected block evaluates
        # 2^level splits per target (dense topologies); sparse topologies do
        # less real work, so this leans toward sharding — the shard kernels
        # are cheap on sparse targets and the estimate errs on one IPC
        # round-trip, not on correctness.
        if not self._should_shard(len(targets), (1 << level) - 2):
            self._vectorized.run_block_level(state, level, targets)
            return
        builder = builder_for(state)
        run_level(state, level, targets, run_block_shard,
                  {"adjacency": builder.kernel_adjacency,
                   "n_bits": builder.n_bits},
                  self._run_sharded)

    def run_tree_level(self, state: KernelState, level: int,
                       targets: Sequence[int]) -> None:
        if not targets:
            return
        info = tree_info_for(state)
        if not self._should_shard(len(targets),
                                  2 * max(1, len(info.edge_masks))):
            self._vectorized.run_tree_level(state, level, targets)
            return
        run_level(state, level, targets, run_tree_shard, {"info": info},
                  self._run_sharded)

    def run_size_level(self, state: KernelState, level: int) -> None:
        # DPsize pairs arbitrary memoised plans, so the valid-pair set (and
        # each pair's combined-mask cardinality) is only known mid-kernel;
        # the estimator lives in the parent, so the level runs in-process on
        # the vectorized grid (bit-identical either way).
        self._vectorized.run_size_level(state, level)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MulticoreBackend(workers={self.workers})"
