"""Kernel execution backends: how one DP level's batch of work is run.

The paper's massively parallel DP restructures join ordering into per-level
kernel stages — unrank candidate splits, mask-filter CCP validity, evaluate
costs, scatter the per-set winners (Section 5).  The level-parallel
optimizers (DPsub, MPDP, MPDP:Tree, DPsize) *emit* those level batches; a
:class:`KernelBackend` decides how each batch executes:

* :class:`ScalarBackend` — the reference.  Runs the exact per-pair Python
  loops the optimizers historically inlined, against a plain
  :class:`~repro.core.memo.MemoTable`.  Semantics (plans, costs, counters,
  memo iteration order) are the specification the other backends must match
  bit-for-bit.
* :class:`~repro.exec.vectorized.VectorizedBackend` — evaluates one DP level
  at a time as numpy arrays over a
  :class:`~repro.core.arena.PlanArena` (see that module).
* :class:`~repro.exec.multicore.MulticoreBackend` — partitions each level's
  target batch into contiguous shards and evaluates them with the same
  vectorized kernels in worker *processes*, over ``shared_memory`` views of
  the arena columns (the paper's per-level work partitioning, Section 7.4).

A backend instance is stateless and cheap; optimizers resolve one per run
with :func:`resolve_backend`, which also implements the ``auto`` policy
(vectorize when the query is large enough to amortize array setup, escalate
to multicore workers when the query and the machine are large enough to
amortize IPC).  Graph width is never a capability limit: the kernels pack
vertex bitmaps into multi-word uint64 columns
(:func:`~repro.core.widebitmap.words_for` lanes per set — see
:mod:`repro.core.widebitmap`), so 1000-relation graphs run natively.

One batch method exists per level *shape*, because the four rewired
optimizers emit structurally different batches:

=====================  ==============================================
Method                 Batch shape
=====================  ==============================================
``run_subset_level``   DPsub: per connected target set, every proper
                       non-empty submask as a candidate split, CCP
                       checks per split (Algorithm 1).
``run_block_level``    MPDP: per target set, vertex splits *within
                       each biconnected block*, CCP checks in the
                       block, then the grow-lift to set level
                       (Algorithm 3).
``run_tree_level``     MPDP:Tree: per target set, both orientations
                       of the split induced by removing each edge of
                       the induced subtree (Algorithm 2) — all pairs
                       are valid CCPs by construction.
``run_size_level``     DPsize: the cross product of memoised plans of
                       complementary sizes, filtered for disjointness
                       and adjacency.
=====================  ==============================================
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Sequence, Tuple

from ..core import bitmapset as bms
from ..core.counters import OptimizerStats
from ..core.enumeration import EnumerationContext
from ..core.memo import MemoTable
from ..core.query import QueryInfo
from ..core.widebitmap import words_for

__all__ = [
    "KernelState",
    "KernelBackend",
    "KernelOptimizerMixin",
    "ScalarBackend",
    "resolve_backend",
    "iter_tree_edge_splits",
    "validate_workers",
    "BACKEND_NAMES",
    "AUTO_VECTORIZE_MIN_RELATIONS",
    "AUTO_MULTICORE_MIN_RELATIONS",
    "words_for",
]

#: The backend names optimizers and the planner accept.
BACKEND_NAMES = ("scalar", "vectorized", "multicore", "auto")

#: ``auto`` switches to the vectorized backend at this many relations: below
#: it, per-level batches are too small for array setup to pay off and the
#: scalar loops win.  Set from the ``break_even`` section of
#: ``BENCH_vectorized.json`` (``benchmarks/bench_vectorized_kernels.py``),
#: measured under the default PostgreSQL-like cost model.
AUTO_VECTORIZE_MIN_RELATIONS = 8

#: ``auto`` escalates from vectorized to multicore workers at this many
#: relations (and only when more than one CPU is usable): below it the whole
#: optimization finishes in tens of milliseconds and worker IPC cannot pay
#: for itself.  The multicore backend additionally gates *per level* (see
#: :mod:`repro.exec.multicore`), so small levels of a large query still run
#: in-process.
AUTO_MULTICORE_MIN_RELATIONS = 14

def _available_cpus() -> int:
    """Usable CPU count (affinity-aware where the platform reports it)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def validate_workers(workers: Optional[int]) -> None:
    """Reject non-positive multicore worker counts (``None`` = auto is fine).

    The single source of the policy — every entry point (optimizer
    constructors, :func:`resolve_backend`, the planner, the multicore
    module) funnels through here so they cannot diverge.
    """
    if workers is not None and workers < 1:
        raise ValueError(
            f"workers must be a positive integer, got {workers!r}")


@dataclass
class KernelState:
    """Everything a backend needs to execute one optimizer run's batches."""

    query: QueryInfo
    context: EnumerationContext
    memo: "MemoTable"
    stats: OptimizerStats
    #: The vertex bitmap being optimized (the enumeration scope).
    scope: int
    #: Per-run derived state hoisted out of the per-level kernels: the
    #: vectorized/multicore backends keep their incremental arena-snapshot
    #: builder (adjacency + neighbour columns, computed once per entry) and
    #: per-scope tree-split arrays here, so one run never re-derives them
    #: per level — and the multicore backend's in-process fallback shares
    #: them with its sharded levels.
    cache: Dict[str, object] = field(default_factory=dict)


def iter_tree_edge_splits(context: EnumerationContext, graph,
                          candidate_set: int) -> Iterator[Tuple[int, int]]:
    """Both orientations of the split induced by removing each tree edge.

    The canonical MPDP:Tree pair enumeration (Algorithm 2): each edge of the
    induced subtree is removed in graph edge order, the component of the
    edge's ``left`` endpoint becomes the first operand, and both orientations
    are yielded.  ``context`` is resolved once by the caller — per run, not
    per candidate set.
    """
    for edge in graph.edges_within(candidate_set):
        left_side = context.grow(bms.bit(edge.left),
                                 candidate_set & ~bms.bit(edge.right))
        right_side = candidate_set & ~left_side
        yield left_side, right_side
        yield right_side, left_side


class KernelBackend(ABC):
    """How one DP level's batch of candidate splits is executed."""

    #: Backend identifier (``"scalar"`` / ``"vectorized"``).
    name: str = "abstract"

    @abstractmethod
    def create_table(self, query: QueryInfo):
        """The DP table this backend scatters winners into."""

    @abstractmethod
    def run_subset_level(self, state: KernelState, level: int,
                         targets: Sequence[int]) -> None:
        """DPsub's level batch: powerset splits of each target set."""

    @abstractmethod
    def run_block_level(self, state: KernelState, level: int,
                        targets: Sequence[int]) -> None:
        """MPDP's level batch: block-restricted splits plus the grow-lift."""

    @abstractmethod
    def run_tree_level(self, state: KernelState, level: int,
                       targets: Sequence[int]) -> None:
        """MPDP:Tree's level batch: per-edge subtree splits."""

    @abstractmethod
    def run_size_level(self, state: KernelState, level: int) -> None:
        """DPsize's level batch: cross products of memoised plan sizes."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class ScalarBackend(KernelBackend):
    """Reference backend: the historical per-pair loops, unchanged.

    Every counter update, CCP check and memo interaction happens in exactly
    the order the optimizers performed them before the kernel-stage split,
    so this backend *defines* the semantics the vectorized backend is tested
    against.
    """

    name = "scalar"

    def create_table(self, query: QueryInfo) -> MemoTable:
        return MemoTable()

    # ------------------------------------------------------------------ #
    def run_subset_level(self, state: KernelState, level: int,
                         targets: Sequence[int]) -> None:
        query, context = state.query, state.context
        memo, stats = state.memo, state.stats
        for candidate_set in targets:
            # Innermost loop: the full powerset of the candidate set.
            for left in bms.iter_proper_nonempty_subsets(candidate_set):
                stats.evaluated_pairs += 1
                stats.level_pairs[level] = stats.level_pairs.get(level, 0) + 1
                right = candidate_set & ~left
                # --- CCP block (Algorithm 1, lines 12-16) ------------- #
                if not context.is_connected(left):
                    continue
                if not context.is_connected(right):
                    continue
                if not context.is_connected_to(left, right):
                    continue
                # ------------------------------------------------------ #
                stats.record_ccp(level)
                plan = query.join(left, right, memo[left], memo[right])
                memo.put(candidate_set, plan)

    # ------------------------------------------------------------------ #
    def run_block_level(self, state: KernelState, level: int,
                        targets: Sequence[int]) -> None:
        query, context = state.query, state.context
        memo, stats = state.memo, state.stats
        for candidate_set in targets:
            decomposition = context.find_blocks(candidate_set)
            for block in decomposition.blocks:
                for left_block in bms.iter_proper_nonempty_subsets(block):
                    stats.evaluated_pairs += 1
                    stats.level_pairs[level] = stats.level_pairs.get(level, 0) + 1
                    right_block = block & ~left_block
                    # --- CCP block, within the block (lines 10-14) ---- #
                    if not context.is_connected(left_block):
                        continue
                    if not context.is_connected(right_block):
                        continue
                    if not context.is_connected_to(left_block, right_block):
                        continue
                    # -------------------------------------------------- #
                    stats.record_ccp(level)
                    # Lift the block-level pair to a CCP pair of the set
                    # via the grow function (lines 17-18).  When the block
                    # spans the whole candidate set (clique-like case) the
                    # restricted set *is* the left block and grow is an
                    # identity — skip the traversal.
                    rest = candidate_set & ~right_block
                    left = rest if rest == left_block else context.grow(left_block, rest)
                    right = candidate_set & ~left
                    plan = query.join(left, right, memo[left], memo[right])
                    memo.put(candidate_set, plan)

    # ------------------------------------------------------------------ #
    def run_tree_level(self, state: KernelState, level: int,
                       targets: Sequence[int]) -> None:
        query, context = state.query, state.context
        memo, stats = state.memo, state.stats
        graph = query.graph
        for candidate_set in targets:
            for left, right in iter_tree_edge_splits(context, graph, candidate_set):
                stats.record_pair(level, is_ccp=True)
                plan = query.join(left, right, memo[left], memo[right])
                memo.put(candidate_set, plan)

    # ------------------------------------------------------------------ #
    def run_size_level(self, state: KernelState, level: int) -> None:
        query, context = state.query, state.context
        memo, stats = state.memo, state.stats
        for left_size in range(1, level):
            right_size = level - left_size
            left_keys = memo.keys_of_size(left_size)
            right_keys = memo.keys_of_size(right_size)
            for left in left_keys:
                for right in right_keys:
                    stats.record_pair(level, is_ccp=False)
                    if left & right:
                        continue
                    if not context.is_connected_to(left, right):
                        continue
                    # Valid CCP pair: both operands are connected (they are
                    # memoised plans), disjoint and joined by an edge.
                    stats.record_ccp(level)
                    combined = left | right
                    if combined not in memo:
                        stats.record_set(level, connected=True)
                    left_plan = memo[left]
                    right_plan = memo[right]
                    plan = query.join(left, right, left_plan, right_plan)
                    memo.put(combined, plan)


class KernelOptimizerMixin:
    """Shared plumbing for optimizers that execute on kernel backends."""

    #: Backends this optimizer can execute on (capability metadata).
    supported_backends: Tuple[str, ...] = ("scalar", "vectorized", "multicore")
    #: The requested backend; resolved per run by :func:`resolve_backend`.
    backend: str = "scalar"
    #: Worker-process count for the multicore backend (``None`` = one per
    #: usable CPU); ignored by the in-process backends.
    workers: Optional[int] = None

    def _init_backend(self, backend: str, workers: Optional[int] = None) -> None:
        if backend not in BACKEND_NAMES:
            raise ValueError(
                f"unknown kernel backend {backend!r}; choose one of "
                f"{', '.join(BACKEND_NAMES)}")
        validate_workers(workers)
        self.backend = backend
        self.workers = workers

    def _resolve_backend(self, query: QueryInfo,
                         subset: Optional[int] = None) -> KernelBackend:
        return resolve_backend(self.backend, query, subset,
                               workers=self.workers)

    def _make_memo(self, query: QueryInfo, subset: int):
        """The DP table matching the backend this run will execute on."""
        return self._resolve_backend(query, subset).create_table(query)


def resolve_backend(requested: str, query: QueryInfo,
                    subset: Optional[int] = None,
                    workers: Optional[int] = None) -> KernelBackend:
    """The backend that will actually execute one optimizer run.

    ``"scalar"``, ``"vectorized"`` and ``"multicore"`` request those
    backends directly, at any graph width (the kernels carry multi-word
    bitmap columns).  ``"auto"`` picks vectorized for
    queries of at least :data:`AUTO_VECTORIZE_MIN_RELATIONS` relations
    (counted over the optimized ``subset``), and escalates to multicore from
    :data:`AUTO_MULTICORE_MIN_RELATIONS` relations when more than one CPU is
    usable — the multicore backend then still routes individual levels below
    its measured break-even batch size through the in-process kernels.

    ``workers`` (multicore only) caps the worker-process count; ``None``
    uses one worker per usable CPU.
    """
    if requested not in BACKEND_NAMES:
        raise ValueError(
            f"unknown kernel backend {requested!r}; choose one of "
            f"{', '.join(BACKEND_NAMES)}")
    validate_workers(workers)
    if requested == "scalar":
        return ScalarBackend()
    if requested == "vectorized":
        from .vectorized import VectorizedBackend

        return VectorizedBackend()
    if requested == "multicore":
        from .multicore import MulticoreBackend

        return MulticoreBackend(workers=workers)
    # auto: size-gated
    mask = subset if subset is not None else query.all_relations_mask
    n = bms.popcount(mask)
    if n >= AUTO_VECTORIZE_MIN_RELATIONS:
        cpus = _available_cpus()
        if n >= AUTO_MULTICORE_MIN_RELATIONS and min(workers or cpus, cpus) >= 2:
            from .multicore import MulticoreBackend

            return MulticoreBackend(workers=workers)
        from .vectorized import VectorizedBackend

        return VectorizedBackend()
    return ScalarBackend()
