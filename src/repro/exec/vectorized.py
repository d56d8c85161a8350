"""Vectorized kernel backend: DP levels as batched numpy array kernels.

This backend realizes the paper's kernel pipeline (Section 5) on the CPU:
instead of walking candidate splits one Python iteration at a time, each DP
level is executed as four array stages over the whole level batch —

1. **unrank** — materialise every candidate split of the level as packed
   bitmap columns.  Submask splits use the combinatorial dense→sparse
   deposit (a 0/1 dense-bits matrix times a per-target one-hot word matrix,
   i.e. a batched PDEP); tree splits use precomputed subtree descendant
   masks.
2. **filter** — CCP validity as boolean masks.  Connectivity of an operand
   is a *membership* test: the arena holds exactly the connected subsets of
   every smaller size, so one ``searchsorted`` against its sorted key column
   answers ``is_connected`` for the whole batch; adjacency is a bitwise AND
   against the snapshot's per-subset neighbour bitmaps (the same derived
   state :class:`~repro.core.enumeration.EnumerationContext` memoizes for
   the scalar path).
3. **evaluate** — gather the surviving pairs' child statistics from the
   arena columns and cost them with one
   :meth:`~repro.cost.base.CostModel.cost_batch` call.
4. **scatter-min** — reduce per target set with the memo's exact
   first-cheapest-wins rule: the winner is the pair with minimal cost and,
   among cost ties, minimal *sequence number* in the scalar backend's
   emission order.  Ties are common (operand-swapped pairs cost the same
   under every shipped model), so the sequence tie-break is what keeps
   plans bit-identical to :class:`~repro.exec.backend.ScalarBackend`.

**Width.**  Every bitmap column is a multi-word bitset matrix
(:mod:`repro.core.widebitmap`): a batch of ``m`` vertex sets over an
``n``-relation graph is an ``(m, words_for(n))`` uint64 matrix, word 0
least-significant.  All mask algebra runs lane-wise over the trailing word
axis (``&``/``|``/``^`` broadcast it for free; emptiness and subset tests
are ``any``/``all`` reductions), and membership probes run on derived sort
keys whose comparison order equals the masks' numeric order at any width.
Single-word graphs (n ≤ 64) keep zero-copy uint64 keys, so the historical
fast path is unchanged; wider graphs simply carry more lanes — there is no
62-relation ceiling and no scalar degradation.

The unrank/filter/evaluate/scatter-min stages for one *contiguous shard of
targets* are exposed as module-level functions (:func:`run_subset_shard`,
:func:`run_block_shard`, :func:`run_tree_shard`) with one signature,
``kernel(snapshot, model, targets, out_rows, **args) -> (best, left, right,
ccp_pairs, evaluated_pairs)``.  They are pure: input is a :class:`Snapshot`
of the arena columns plus plain arrays, output is the per-target winner
columns and the shard's counters.  :func:`run_level` is the one level
runner both array backends share: it packs the targets, estimates their
cardinalities, runs a kernel over the whole column and records the winners.
:class:`VectorizedBackend` runs the kernel in-process;
:class:`~repro.exec.multicore.MulticoreBackend` hands the *same* kernel and
args to worker processes over ``shared_memory`` views of the snapshot, one
shard per worker.  Because per-target winner selection is the lexicographic
``(cost, sequence)`` minimum and every target lives in exactly one shard,
sharding cannot change any winner — the multicore scatter stays
bit-identical by construction.

Everything order-sensitive is pinned to the scalar reference: targets are
processed in ascending-mask order, submask splits carry their dense rank,
tree splits carry twice their edge index, and DPsize pairs carry their
row-major grid position.  ``tests/test_exec_backends.py`` asserts
bit-identical plans, costs and counters across workloads and topologies.

The per-run derived state — the per-vertex adjacency column and the arena
snapshot's neighbour column — is hoisted into ``KernelState.cache`` via
:class:`SnapshotBuilder`: neighbours are computed exactly once per arena
entry (incrementally, as levels append) instead of being re-derived for the
whole table at every level.

Every transient array stays within :data:`_CHUNK_ELEMENTS` elements at any
split-universe width: targets (or blocks) are processed in chunks, and a
universe whose ``2^k - 2`` splits do not fit one chunk (at one word per
set, a DPsub level or biconnected block of more than 16 relations) is cut
along its split axis too.  A split's sequence number is its chunk offset plus its row, so the
first-cheapest-wins tie-break is the same however the axis is cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core import bitmapset as bms
from ..core import widebitmap as wb
from ..core.contracts import kernel
from ..core.arena import PlanArena
from ..core.query import QueryInfo
from .backend import KernelBackend, KernelState

__all__ = [
    "VectorizedBackend",
    "Snapshot",
    "SnapshotBuilder",
    "TreeInfo",
    "builder_for",
    "tree_info_for",
    "build_tree_info",
    "run_level",
    "run_subset_shard",
    "run_block_shard",
    "run_tree_shard",
]

#: Target number of array elements per processing chunk (bounds transient
#: memory at roughly a few hundred megabytes across the per-chunk arrays).
_CHUNK_ELEMENTS = 1 << 20

#: Dense 0/1 bit matrices, cached per universe width (per process — worker
#: processes build their own on first use).
_DENSE_CACHE: Dict[int, np.ndarray] = {}

_SEQ_MAX = np.iinfo(np.int64).max


def _dense_bits(values: np.ndarray, k: int) -> np.ndarray:
    """``(len(values), k)`` uint64 0/1 matrix of the low ``k`` bits of each value."""
    bits = values[:, None] >> np.arange(k, dtype=np.uint64)[None, :]
    bits &= np.uint64(1)
    return bits


@kernel
def _dense_rows(k: int, start: int, stop: int) -> np.ndarray:
    """Rows ``start:stop`` of the ``(2^k - 2, k)`` dense split matrix.

    Row ``d - 1`` holds the bits of dense value ``d``.  Row order is
    ascending ``d``, which is exactly the canonical submask enumeration
    order of :func:`~repro.core.bitmapset.iter_proper_nonempty_subsets`, so
    ``start`` plus a row index is the split's within-target sequence
    number.  uint64 cells so the deposit matmul against one-hot word columns
    stays in uint64 (numpy upcasts mixed int64/uint64 arithmetic to
    float64).  The whole matrix is cached per width while it fits
    :data:`_CHUNK_ELEMENTS`; wider universes generate each chunk's rows.
    """
    n_splits = (1 << k) - 2
    if n_splits * k > _CHUNK_ELEMENTS:
        return _dense_bits(
            np.arange(start + 1, min(stop, n_splits) + 1, dtype=np.uint64), k)
    cached = _DENSE_CACHE.get(k)
    if cached is None:
        cached = _dense_bits(np.arange(1, n_splits + 1, dtype=np.uint64), k)
        _DENSE_CACHE[k] = cached
    return cached[start:stop]


def _chunk_steps(k: int, words: int) -> Tuple[int, int]:
    """``(splits, sets)`` per chunk of a ``k``-bit split universe.

    The whole split axis rides in one chunk while it fits
    :data:`_CHUNK_ELEMENTS` (and the sets of a chunk fill the rest of the
    bound); a wider universe is cut along its split axis so that every
    ``(splits, sets, words)`` array and every dense-rows slice stays within
    the bound.
    """
    n_splits = (1 << k) - 2
    splits = min(n_splits, max(1, _CHUNK_ELEMENTS // max(k, words)))
    return splits, max(1, _CHUNK_ELEMENTS // (splits * words))


@kernel
def _deposit(dense: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Batched PDEP: scatter dense split values through per-target weights.

    ``dense`` is the (S, k) 0/1 matrix, ``weights`` the (c, k, words)
    one-hot singleton masks of each target's member vertices — one matmul
    per word gives every split of every target as an (S, c, words) packed
    column (the weight rows are disjoint bitmaps, so the matmul's additions
    are carry-free ORs).
    """
    words = weights.shape[2]
    out = np.empty((dense.shape[0], weights.shape[0], words), dtype=np.uint64)
    for word in range(words):  # loop: words — one matmul per bitset word lane
        out[:, :, word] = dense @ weights[:, :, word].T
    return out


def _blocks_and_hangs(adjacency: Sequence[int], target: int):
    """Blocks of ``target`` plus the hang-off mask of every block vertex.

    ``adjacency`` is the graph's per-vertex neighbour-bitmap column (a plain
    sequence of Python ints — arbitrary precision, so this works at any
    graph width — letting worker processes pass it without holding a
    :class:`~repro.core.joingraph.JoinGraph`).

    One fused Hopcroft–Tarjan DFS replaces the scalar path's
    ``find_blocks`` *and* its per-pair grow-lifts: the same lowpoint walk
    that pops the biconnected blocks (in exactly
    :func:`repro.core.blocks.find_blocks`'s emission order — neighbours are
    scanned ascending, blocks appended as their articulation closes) also
    records the DFS tree, from which every hang-off follows.  The block
    *order* must stay identical to ``find_blocks`` because the scalar
    backend's cost-tie winners depend on it;
    ``tests/test_exec_backends.py::TestBlockOrderCoupling`` pins the two
    implementations against each other.

    The grow-lift of a block split attaches, to each block vertex it keeps,
    the connected components of ``target \\ block`` hanging off that vertex.
    In the DFS tree every non-top block vertex's parent edge stays inside
    the block, so a child subtree either belongs to the block or is exactly
    one hang-off piece, and everything outside the subtree of the block's
    shallowest vertex (``top``) hangs off ``top``.

    Returns ``(blocks, hangs)``; ``hangs[i]`` is a list of per-bit
    (ascending vertex order) hang masks for ``blocks[i]``, or ``None`` when
    the block spans the whole target (the grow-identity fast path).
    """
    root = bms.lowest_bit_index(target)
    visited = 1 << root
    discovery = {root: 0}
    low = {root: 0}
    parent_of = {root: -1}
    order = [root]
    children: Dict[int, List[int]] = {root: []}
    counter = 1
    blocks: List[int] = []
    edge_stack: List[Tuple[int, int]] = []
    # Frame: [vertex, unvisited-or-back-edge candidates still to scan].
    frames: List[List[int]] = [[root, adjacency[root] & target]]
    while frames:
        frame = frames[-1]
        vertex = frame[0]
        pending = frame[1]
        pushed = False
        while pending:
            low_bit = pending & -pending
            pending ^= low_bit
            neighbour = low_bit.bit_length() - 1
            if neighbour == parent_of[vertex]:
                continue
            if low_bit & visited:
                if discovery[neighbour] < discovery[vertex]:
                    # Back edge to an ancestor.
                    edge_stack.append((vertex, neighbour))
                    if discovery[neighbour] < low[vertex]:
                        low[vertex] = discovery[neighbour]
                continue
            visited |= low_bit
            discovery[neighbour] = low[neighbour] = counter
            counter += 1
            parent_of[neighbour] = vertex
            order.append(neighbour)
            children[vertex].append(neighbour)
            children[neighbour] = []
            edge_stack.append((vertex, neighbour))
            frame[1] = pending
            frames.append([neighbour, adjacency[neighbour] & target])
            pushed = True
            break
        if pushed:
            continue
        frames.pop()
        if not frames:
            continue
        parent_vertex = frames[-1][0]
        if low[vertex] < low[parent_vertex]:
            low[parent_vertex] = low[vertex]
        if low[vertex] >= discovery[parent_vertex]:
            # parent_vertex separates the subtree rooted at vertex: pop the
            # block whose deepest tree edge is (parent_vertex, vertex).
            block_mask = 0
            while edge_stack:
                a, b = edge_stack.pop()
                block_mask |= (1 << a) | (1 << b)
                if a == parent_vertex and b == vertex:
                    break
            if block_mask:
                blocks.append(block_mask)

    descendants: Dict[int, int] = {}
    for vertex in reversed(order):
        mask = 1 << vertex
        for child in children[vertex]:
            mask |= descendants[child]
        descendants[vertex] = mask

    hangs: List[Optional[List[int]]] = []
    for block in blocks:
        if block == target:
            hangs.append(None)
            continue
        rest_bits = block & (block - 1)
        if rest_bits & (rest_bits - 1) == 0:
            # Bridge (2-vertex block) fast path: its single edge is a DFS
            # tree edge, the child endpoint's hang is its whole subtree and
            # the parent endpoint's hang is everything else.
            low_vertex = (block & -block).bit_length() - 1
            high_vertex = rest_bits.bit_length() - 1
            if parent_of[high_vertex] == low_vertex:
                deep_subtree = descendants[high_vertex]
                weights = [target & ~deep_subtree & ~(1 << low_vertex),
                           deep_subtree & ~(1 << high_vertex)]
            else:
                deep_subtree = descendants[low_vertex]
                weights = [deep_subtree & ~(1 << low_vertex),
                           target & ~deep_subtree & ~(1 << high_vertex)]
            hangs.append(weights)
            continue
        top = -1
        top_discovery = counter
        weights = []
        for vertex in bms.iter_bits(block):
            if discovery[vertex] < top_discovery:
                top_discovery = discovery[vertex]
                top = vertex
            hang = 0
            for child in children[vertex]:
                # A child subtree containing no block vertex is one whole
                # hang-off component of this vertex (a subtree touching the
                # block would be biconnected into it).
                if not (block >> child) & 1:
                    hang |= descendants[child]
            weights.append(hang)
        # Everything outside top's subtree attaches through top.
        above = target & ~descendants[top]
        if above:
            for index, vertex in enumerate(bms.iter_bits(block)):
                if vertex == top:
                    weights[index] |= above
                    break
        hangs.append(weights)
    return blocks, hangs


class Snapshot:
    """Sorted array view of the arena: the filter/evaluate stages' input.

    ``masks`` is the packed ``(m, words)`` uint64 key column sorted by
    numeric mask order; ``costs``/``rows`` are aligned with it, and
    ``neighbours`` holds each subset's packed adjacent-vertex bitmap — the
    precomputed connectivity arrays the CCP mask-filter stage runs against.
    ``spec`` is the column layout (:func:`repro.core.widebitmap.view_for`:
    identity word count, or a scoped run's bit remap); the kernels operate
    purely in packed space, so only boundary translations consult it.
    ``keys`` are the masks' derived comparison keys
    (:func:`repro.core.widebitmap.sort_keys`), recomputed from the mask
    column when not supplied — which is how multicore workers rebuild an
    identical snapshot from zero-copy shared-memory views of the other four
    columns.
    """

    __slots__ = ("masks", "costs", "rows", "neighbours", "keys", "words",
                 "spec")

    def __init__(self, masks: np.ndarray, costs: np.ndarray,
                 rows: np.ndarray, neighbours: np.ndarray,
                 keys: Optional[np.ndarray] = None, spec=None) -> None:
        self.masks = masks
        self.words = masks.shape[1]
        self.spec = masks.shape[1] if spec is None else spec
        self.costs = costs
        self.rows = rows
        self.neighbours = neighbours
        self.keys = wb.sort_keys(masks) if keys is None else keys

    def lookup(self, queries: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per-query ``(clipped index, found)`` membership via searchsorted.

        ``queries`` is any ``(..., words)`` packed column; the results drop
        the word axis.
        """
        shape = queries.shape[:-1]
        keys = wb.sort_keys(queries.reshape(-1, self.words))
        index = np.searchsorted(self.keys, keys)
        index = np.minimum(index, len(self.keys) - 1)
        found = self.keys[index] == keys
        return index.reshape(shape), found.reshape(shape)


class SnapshotBuilder:
    """Incremental snapshot state, hoisted into ``KernelState.cache``.

    The neighbour column is a function of each entry's mask alone, and the
    arena is append-only during a level sweep, so neighbours (and sort keys)
    are computed exactly once per entry — for the suffix the last level
    appended — instead of being re-derived for the whole table at every
    level (the old per-level ``_ArenaSnapshot`` loop).  The per-vertex
    adjacency column is likewise materialised once per run.

    When the run is *scoped* (a heuristic optimizing one fragment of a wide
    graph), the builder's spec (:func:`repro.core.widebitmap.view_for`)
    remaps the scope's bits to a dense packed space: every mask the run
    touches is a subset of the scope, so a 16-relation fragment of a
    1000-relation graph runs its kernels on one uint64 lane with 16-bit
    dense matrices — the width of a renumbered 16-relation sub-query,
    without building one.  Inside the kernels *everything* lives in
    packed space (including :attr:`kernel_adjacency`, the compact adjacency
    the block DFS walks); full-width Python ints appear only at the
    pack/unpack boundary of each level.
    """

    def __init__(self, graph, scope: Optional[int] = None) -> None:
        n = graph.n_relations
        if scope is None:
            scope = (1 << n) - 1 if n > 0 else 0
        #: Layout of every packed column this run produces (identity word
        #: count, or the scope's bit remap).
        self.spec = wb.view_for(scope, n)
        self.words = wb.spec_words(self.spec)
        #: Packed-space universe width the dense unrank kernels enumerate
        #: over (full ``n`` for the identity layout, the scope's popcount
        #: for a remap).
        self.n_bits = n if isinstance(self.spec, int) else len(self.spec)
        #: Packed-space adjacency masks, indexed by packed vertex position —
        #: what the shard kernels' Python-int side (the block DFS) walks.
        #: Remapped rows drop out-of-scope neighbour bits; identity rows
        #: keep them (harmless — every AND partner is inside the scope).
        if isinstance(self.spec, int):
            self.kernel_adjacency = tuple(graph._adjacency)
        else:
            self.kernel_adjacency = tuple(
                wb.compact(graph._adjacency[vertex], self.spec)
                for vertex in self.spec)
        #: The same masks as a packed uint64 column.
        self.adjacency_column = wb.pack(list(self.kernel_adjacency),
                                        self.words)
        self._masks = np.empty((0, self.words), dtype=np.uint64)
        self._keys = wb.sort_keys(self._masks)
        self._neighbours = np.empty((0, self.words), dtype=np.uint64)
        self._costs = np.empty(0, dtype=np.float64)
        self._rows = np.empty(0, dtype=np.float64)
        self._pending: List[np.ndarray] = []

    def absorb(self, column: np.ndarray) -> None:
        """Packed keys of the level just recorded into the arena, in order.

        The level runners already hold every winner they record as a packed
        column, so handing it over lets :meth:`refresh` extend the mask
        table without re-packing those keys from Python ints — on remapped
        wide runs that re-pack is a per-source-word big-int pass over every
        arena key of the level.
        """
        self._pending.append(column)

    def neighbours_of(self, masks: np.ndarray) -> np.ndarray:
        """Neighbour bitmaps of ``masks`` (vectorized union of adjacencies).

        Runs in packed space end to end.  Iterates only the vertices present
        somewhere in the batch (the OR over all masks), not the whole
        universe — on a 1000-relation graph a fragment DP's batches touch a
        handful of vertices.
        """
        neighbours = np.zeros_like(masks)
        if len(masks) == 0:
            return neighbours
        union = wb.unpack_one(np.bitwise_or.reduce(masks, axis=0))
        for position in bms.iter_bits(union):
            lane, offset = divmod(position, wb.WORD_BITS)
            member = (masks[:, lane] >> np.uint64(offset)) & np.uint64(1)
            neighbours[member.astype(bool)] |= self.adjacency_column[position]
        return neighbours & ~masks

    def refresh(self, arena: PlanArena) -> Snapshot:
        """Snapshot of the arena's current columns (sorted by mask).

        The array backends record whole levels and never ``put``, so every
        entry is final once appended and each column extends by the entries
        appended since the last refresh: the absorbed level columns, or — at
        a run's first refresh — the leaves ``_init_leaves`` seeded, the only
        entries packed from their ints.
        """
        keys, costs, rows = arena.columns()
        total = len(keys)
        built = len(self._masks)
        if total > built:
            new_masks = (np.concatenate(self._pending) if self._pending
                         else wb.pack(keys[built:], self.spec))
            self._pending = []
            self._masks = np.concatenate([self._masks, new_masks])
            self._keys = np.concatenate(
                [self._keys, wb.sort_keys(new_masks)])
            self._neighbours = np.concatenate(
                [self._neighbours, self.neighbours_of(new_masks)])
            self._costs = np.concatenate(
                [self._costs, np.array(costs[built:], dtype=np.float64)])
            self._rows = np.concatenate(
                [self._rows, np.array(rows[built:], dtype=np.float64)])
        order = np.argsort(self._keys)
        return Snapshot(self._masks[order], self._costs[order],
                        self._rows[order], self._neighbours[order],
                        keys=self._keys[order], spec=self.spec)


def builder_for(state: KernelState) -> SnapshotBuilder:
    """The run's snapshot builder (scoped word layout), cached on the state."""
    builder = state.cache.get("snapshot_builder")
    if builder is None:
        builder = SnapshotBuilder(state.query.graph, state.scope)
        state.cache["snapshot_builder"] = builder
    return builder


class _RunningWinners:
    """First-cheapest-wins reduction per target id, across candidate batches.

    The one ``(cost, sequence)`` reduction of the array kernels.  The winner
    of a target is the candidate with minimal cost and, among exact float
    ties, minimal sequence number — the pair the scalar backend's strict
    ``<`` memo update would have kept.  Lexicographic minimisation is
    associative, so a level whose candidates arrive in many batches (MPDP's
    block-size groups, split-axis chunks) reduces each batch immediately and
    merges it into the running per-target winners — transient memory stays
    bounded by the chunk size instead of the level's total valid-pair count.
    ``left``/``right`` are packed ``(p, words)`` columns, and so are the
    winners.
    """

    def __init__(self, n_targets: int, words: int) -> None:
        self.n_targets = n_targets
        self.words = words
        self.cost = np.full(n_targets, np.inf)
        self.seq = np.full(n_targets, _SEQ_MAX, dtype=np.int64)
        # Never read until a merge marks the target improved.
        self.left = np.zeros((n_targets, words), dtype=np.uint64)
        self.right = np.zeros((n_targets, words), dtype=np.uint64)

    def merge(self, tid: np.ndarray, cost: np.ndarray, seq: np.ndarray,
              left: np.ndarray, right: np.ndarray) -> None:
        """Fold one candidate batch into the running winners."""
        if len(tid) == 0:
            return
        batch_cost = np.full(self.n_targets, np.inf)
        np.minimum.at(batch_cost, tid, cost)
        tie = cost == batch_cost[tid]
        batch_seq = np.full(self.n_targets, _SEQ_MAX, dtype=np.int64)
        np.minimum.at(batch_seq, tid[tie], seq[tie])
        winner = tie & (seq == batch_seq[tid])
        batch_left = np.zeros((self.n_targets, self.words), dtype=np.uint64)
        batch_right = np.zeros((self.n_targets, self.words), dtype=np.uint64)
        batch_left[tid[winner]] = left[winner]
        batch_right[tid[winner]] = right[winner]
        better = (batch_cost < self.cost) | (
            (batch_cost == self.cost) & (batch_seq < self.seq))
        self.cost = np.where(better, batch_cost, self.cost)
        self.seq = np.where(better, batch_seq, self.seq)
        self.left = np.where(better[:, None], batch_left, self.left)
        self.right = np.where(better[:, None], batch_right, self.right)

    def finalize(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        if not np.all(np.isfinite(self.cost)):
            raise RuntimeError(
                "vectorized kernel produced no valid CCP pair for a "
                "connected set; this indicates a filter-stage bug")
        return self.cost, self.left, self.right


@dataclass
class TreeInfo:
    """Rooted-tree arrays for one scope: the tree unrank stage's input.

    Rooting the scope's induced tree once turns every edge split into two
    bitmap ANDs: the component on the child side of edge ``e`` within a
    target ``S`` is ``S & desc[child(e)]`` (the intersection of a connected
    subtree with a rooted split is exactly the detached component).  Plain
    small arrays, shipped to multicore workers through the task pipe.
    """

    edge_masks: np.ndarray     #: (E, words) endpoint bitmaps, graph edge order
    child_desc: np.ndarray     #: (E, words) descendant bitmap of the child endpoint
    left_is_child: np.ndarray  #: (E,) True when ``edge.left`` is the child


def build_tree_info(graph, scope: int, spec) -> TreeInfo:
    """Root the induced subtree of ``scope`` and derive the edge-split arrays.

    ``spec`` is the run's packed word layout — the arrays must share it with
    the snapshot columns they are ANDed against.
    """
    edges = graph.edges_within(scope)
    adjacency = graph._adjacency
    root = bms.lowest_bit_index(scope)
    parent: Dict[int, int] = {root: root}
    order: List[int] = [root]
    frontier = [root]
    while frontier:
        next_frontier: List[int] = []
        for vertex in frontier:
            for child in bms.iter_bits(adjacency[vertex] & scope):
                if child not in parent:
                    parent[child] = vertex
                    order.append(child)
                    next_frontier.append(child)
        frontier = next_frontier
    descendants: Dict[int, int] = {}
    for vertex in reversed(order):
        mask = bms.bit(vertex)
        for child in bms.iter_bits(adjacency[vertex] & scope):
            if parent.get(child) == vertex and child != vertex:
                mask |= descendants[child]
        descendants[vertex] = mask
    edge_mask_values: List[int] = []
    child_desc_values: List[int] = []
    left_is_child = np.empty(len(edges), dtype=bool)
    for index, edge in enumerate(edges):
        edge_mask_values.append(edge.mask)
        if parent.get(edge.left) == edge.right:
            child = edge.left
            left_is_child[index] = True
        else:
            child = edge.right
            left_is_child[index] = False
        child_desc_values.append(descendants[child])
    return TreeInfo(edge_masks=wb.pack(edge_mask_values, spec),
                    child_desc=wb.pack(child_desc_values, spec),
                    left_is_child=left_is_child)


def tree_info_for(state: KernelState) -> TreeInfo:
    """The scope's :class:`TreeInfo`, cached on the run's ``KernelState``."""
    cache: Dict[int, TreeInfo] = state.cache.setdefault("tree_info", {})
    info = cache.get(state.scope)
    if info is None:
        info = build_tree_info(state.query.graph, state.scope,
                               builder_for(state).spec)
        cache[state.scope] = info
    return info


# --------------------------------------------------------------------------- #
# Shard kernels: one contiguous slice of a level's targets, in or out of
# process.  Pure functions of (snapshot, model, plain arrays), all called as
# ``kernel(snapshot, model, targets, out_rows, **args)`` and all returning
# ``(best_cost, winner_left, winner_right, ccp_pairs, evaluated_pairs)``.
# --------------------------------------------------------------------------- #
@kernel
def run_subset_shard(snapshot: Snapshot, model, targets: np.ndarray,
                     out_rows: np.ndarray, *, level: int, n_bits: int):
    """DPsub unrank/filter/evaluate/scatter for one shard of targets.

    ``targets`` is the packed ``(m, words)`` target column; the winner
    columns are aligned with it and packed the same way.
    """
    n_splits = (1 << level) - 2
    words = targets.shape[1]
    split_step, target_step = _chunk_steps(level, words)
    total_ccp = 0
    parts: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for start in range(0, len(targets), target_step):  # loop: chunks — bounded-memory dispatch slices
        tc = targets[start:start + target_step]
        oc = out_rows[start:start + target_step]
        cols = np.arange(len(tc))
        weights = wb.one_hot_words(
            wb.bit_positions(tc, level, n_bits), words)
        winners = _RunningWinners(len(tc), words)
        for split in range(0, n_splits, split_step):  # loop: split-chunks — bounded-memory slices of the dense split axis
            lefts = _deposit(_dense_rows(level, split, split + split_step),
                             weights)                  # (S, c, W) unrank
            rights = tc[None, :, :] ^ lefts
            left_idx, left_ok = snapshot.lookup(lefts)     # filter: connected
            right_idx, right_ok = snapshot.lookup(rights)
            valid = left_ok & right_ok
            valid &= wb.any_bits(snapshot.neighbours[left_idx] & rights)
            vrow, vcol = np.nonzero(valid)
            total_ccp += len(vrow)
            cost = np.full(valid.shape, np.inf)
            li = left_idx[vrow, vcol]
            ri = right_idx[vrow, vcol]
            cost[vrow, vcol] = model.cost_batch(           # evaluate
                snapshot.rows[li], snapshot.costs[li],
                snapshot.rows[ri], snapshot.costs[ri], oc[vcol])
            # scatter-min: argmin returns the chunk's first (lowest dense
            # rank) minimal row, matching the scalar first-cheapest-wins
            # order; the running winners carry it across split chunks.
            win = np.argmin(cost, axis=0)
            winners.merge(cols, cost[win, cols], split + win,
                          lefts[win, cols], rights[win, cols])
        parts.append(winners.finalize())
    best = np.concatenate([p[0] for p in parts])
    winner_left = np.concatenate([p[1] for p in parts])
    winner_right = np.concatenate([p[2] for p in parts])
    return best, winner_left, winner_right, total_ccp, len(targets) * n_splits


@kernel
def run_block_shard(snapshot: Snapshot, model, targets: np.ndarray,
                    out_rows: np.ndarray, *, adjacency: Sequence[int],
                    n_bits: int):
    """MPDP block splits + grow-lift for one shard of targets.

    ``targets`` is the packed ``(m, words)`` target column; the winner
    columns are aligned with it.  Every target's candidates are wholly
    inside this shard (sequence bases are per-target), so the shard-local
    lexicographic winner equals the global one.
    """
    n_targets = len(targets)
    words = targets.shape[1]
    targets_py = wb.unpack(targets)

    # Group the (target, block) work items by block size so every group
    # shares one dense split matrix; per-item sequence bases preserve the
    # scalar emission order (target-major, block order, dense rank).
    #
    # The grow-lift is precomputed here as per-block-vertex *hang-off*
    # masks: every connected component of ``S \\ block`` attaches to
    # exactly one block vertex (a component adjacent to two would extend
    # the biconnected block), so ``grow(lb, S \\ rb)`` equals ``lb``
    # plus the hang-offs of lb's vertices — and because hang-offs are
    # disjoint bitmaps, the lift folds into the same dense matrix
    # multiply that unranks the splits.  One DFS per target replaces one
    # scalar BFS grow per valid pair.
    groups: Dict[int, List[Tuple[int, int, int, Optional[List[int]]]]] = {}
    total_pairs = 0
    for tid in range(n_targets):  # loop: targets — scalar block decomposition per target (bigint graph walk)
        target = targets_py[tid]
        seq_base = 0
        blocks, hangs = _blocks_and_hangs(adjacency, target)
        for block, hang_weights in zip(blocks, hangs):  # loop: blocks — per-target biconnected blocks
            size = block.bit_count()
            groups.setdefault(size, []).append(
                (tid, block, seq_base, hang_weights))
            seq_base += (1 << size) - 2
        total_pairs += seq_base

    # Candidate batches (one per group chunk) fold into running winners
    # immediately, so transient memory is bounded by the chunk size, not
    # by the level's total valid-pair count (dense topologies validate
    # every split).
    winners = _RunningWinners(n_targets, words)
    total_ccp = 0

    for size in sorted(groups):  # loop: block-sizes — one dense batch per size group
        entries = groups[size]
        n_splits = (1 << size) - 2
        split_step, entry_step = _chunk_steps(size, words)
        tid_all = np.fromiter((e[0] for e in entries), np.int64, len(entries))
        blk_all = wb.pack([e[1] for e in entries], words)
        seq_all = np.fromiter((e[2] for e in entries), np.int64, len(entries))
        hang_all = np.zeros((len(entries), size, words), dtype=np.uint64)
        # One batched pack for every hang list of the group (each has
        # exactly ``size`` weights) — a per-entry pack here dominated wide
        # MPDP levels with millions of (target, block) items.
        hang_rows = [row for row, entry in enumerate(entries)
                     if entry[3] is not None]
        any_hang = bool(hang_rows)
        if any_hang:
            flat_weights = [weight for entry in entries
                            if entry[3] is not None for weight in entry[3]]
            hang_all[hang_rows] = wb.pack(flat_weights, words).reshape(
                len(hang_rows), size, words)
        for start in range(0, len(entries), entry_step):  # loop: chunks — bounded-memory dispatch slices
            tidc = tid_all[start:start + entry_step]
            blkc = blk_all[start:start + entry_step]
            seqc = seq_all[start:start + entry_step]
            hangc = hang_all[start:start + entry_step]
            weights = wb.one_hot_words(
                wb.bit_positions(blkc, size, n_bits), words)
            for split in range(0, n_splits, split_step):  # loop: split-chunks — bounded-memory slices of the dense split axis
                dense = _dense_rows(size, split, split + split_step)
                left_blocks = _deposit(dense, weights)
                right_blocks = blkc[None, :, :] ^ left_blocks
                lb_idx, lb_ok = snapshot.lookup(left_blocks)
                rb_idx, rb_ok = snapshot.lookup(right_blocks)
                valid = lb_ok & rb_ok
                valid &= wb.any_bits(
                    snapshot.neighbours[lb_idx] & right_blocks)
                vrow, vcol = np.nonzero(valid)
                if len(vrow) == 0:
                    continue
                total_ccp += len(vrow)
                tids = tidc[vcol]
                left = left_blocks[vrow, vcol]
                # Grow-lift (Algorithm 3, lines 17-18) as one more matrix
                # multiply: a split's lifted left side is its block vertices
                # plus their (disjoint) hang-off components.
                if any_hang:
                    left = left + _deposit(dense, hangc)[vrow, vcol]
                right = targets[tids] & ~left
                li, li_ok = snapshot.lookup(left)
                ri, ri_ok = snapshot.lookup(right)
                if not (np.all(li_ok) and np.all(ri_ok)):
                    raise RuntimeError(
                        "grow-lift produced an operand missing from the "
                        "arena; CCP lift invariant violated")
                winners.merge(
                    tids,
                    model.cost_batch(
                        snapshot.rows[li], snapshot.costs[li],
                        snapshot.rows[ri], snapshot.costs[ri],
                        out_rows[tids]),
                    seqc[vcol] + split + vrow, left, right)

    best, winner_left, winner_right = winners.finalize()
    return best, winner_left, winner_right, total_ccp, total_pairs


@kernel
def run_tree_shard(snapshot: Snapshot, model, targets: np.ndarray,
                   out_rows: np.ndarray, *, info: TreeInfo):
    """MPDP:Tree per-edge splits for one shard of targets.

    ``targets`` is the packed ``(m, words)`` target column; every evaluated
    pair is a valid CCP pair by construction (Lemmas 1-2), so the two
    counters are equal.
    """
    n_edges = max(1, len(info.edge_masks))
    words = targets.shape[1]
    total_pairs = 0
    parts: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    chunk = max(1, _CHUNK_ELEMENTS // (2 * n_edges * words))
    for start in range(0, len(targets), chunk):  # loop: chunks — bounded-memory dispatch slices
        tc = targets[start:start + chunk]
        oc = out_rows[start:start + chunk]
        within = ((tc[:, None, :] & info.edge_masks[None, :, :])
                  == info.edge_masks[None, :, :]).all(axis=-1)
        trow, tcol = np.nonzero(within)
        total_pairs += 2 * len(trow)
        target_of = tc[trow]
        desc = info.child_desc[tcol]
        # The split of a subtree by one edge: the child-side component is
        # S & desc[child]; scalar grow() computes exactly this set.
        left_first = np.where(info.left_is_child[tcol][:, None],
                              target_of & desc, target_of & ~desc)
        right_first = target_of ^ left_first
        li, _ = snapshot.lookup(left_first)
        ri, _ = snapshot.lookup(right_first)
        out = oc[trow]
        cost_forward = model.cost_batch(
            snapshot.rows[li], snapshot.costs[li],
            snapshot.rows[ri], snapshot.costs[ri], out)
        cost_swapped = model.cost_batch(
            snapshot.rows[ri], snapshot.costs[ri],
            snapshot.rows[li], snapshot.costs[li], out)
        # Scalar emission interleaves orientations per edge: (L,R) at
        # 2*edge, (R,L) at 2*edge + 1 (edge indices are scope-global but
        # order-isomorphic to the per-target edges_within order).
        winners = _RunningWinners(len(tc), words)
        winners.merge(np.concatenate([trow, trow]),
                      np.concatenate([cost_forward, cost_swapped]),
                      np.concatenate([2 * tcol, 2 * tcol + 1]),
                      np.concatenate([left_first, right_first]),
                      np.concatenate([right_first, left_first]))
        parts.append(winners.finalize())
    best = np.concatenate([p[0] for p in parts])
    winner_left = np.concatenate([p[1] for p in parts])
    winner_right = np.concatenate([p[2] for p in parts])
    return best, winner_left, winner_right, total_pairs, total_pairs


def _arena(state: KernelState) -> PlanArena:
    if not isinstance(state.memo, PlanArena):
        raise TypeError(
            "the array kernel backends require a PlanArena DP table; "
            "create it via the backend's create_table")
    return state.memo


def _in_process(snapshot: Snapshot, model: object, targets: np.ndarray,
                out_rows: np.ndarray, shard_kernel: Callable[..., tuple],
                args: Dict[str, object]) -> tuple:
    return shard_kernel(snapshot, model, targets, out_rows, **args)


def run_level(state: KernelState, level: int, targets: Sequence[int],
              shard_kernel: Callable[..., tuple], args: Dict[str, object],
              execute: Callable[..., tuple] = _in_process) -> None:
    """Run one DP level through a shard kernel and record its winners.

    Packs the targets, estimates their cardinalities in one ``rows_batch``
    call, runs ``shard_kernel(snapshot, model, targets, out_rows, **args)``
    over the whole target column, records the level's counters and
    winners, and hands the packed keys to the run's
    :class:`SnapshotBuilder`.  ``execute`` is how the kernel runs: in
    process by default; the multicore backend passes its shard fan-out,
    which returns the same tuple for the whole column.
    """
    if not targets:
        return
    arena = _arena(state)
    builder = builder_for(state)
    snapshot = builder.refresh(arena)
    targets = list(targets)
    target_col = wb.pack(targets, builder.spec)
    out_rows = np.asarray(
        state.query.rows_batch(target_col, spec=builder.spec),
        dtype=np.float64)
    best, winner_left, winner_right, ccp, pairs = execute(
        snapshot, state.query.cost_model, target_col, out_rows, shard_kernel,
        args)
    state.stats.record_pairs(level, pairs, ccp)
    arena.record_level(targets, best, out_rows,
                       wb.unpack(winner_left, builder.spec),
                       wb.unpack(winner_right, builder.spec), size=level)
    builder.absorb(target_col)


class VectorizedBackend(KernelBackend):
    """Batched numpy execution of the level-parallel DP kernels."""

    name = "vectorized"

    def create_table(self, query: QueryInfo) -> PlanArena:
        return PlanArena(query)

    def run_subset_level(self, state: KernelState, level: int,
                         targets: Sequence[int]) -> None:
        """DPsub: powerset splits of each target."""
        run_level(state, level, targets, run_subset_shard,
                  {"level": level, "n_bits": builder_for(state).n_bits})

    def run_block_level(self, state: KernelState, level: int,
                        targets: Sequence[int]) -> None:
        """MPDP: block-restricted splits plus the grow-lift."""
        builder = builder_for(state)
        run_level(state, level, targets, run_block_shard,
                  {"adjacency": builder.kernel_adjacency,
                   "n_bits": builder.n_bits})

    def run_tree_level(self, state: KernelState, level: int,
                       targets: Sequence[int]) -> None:
        """MPDP:Tree: per-edge subtree splits."""
        run_level(state, level, targets, run_tree_shard,
                  {"info": tree_info_for(state)})

    # ------------------------------------------------------------------ #
    # DPsize: cross products of memoised plan sizes
    # ------------------------------------------------------------------ #
    def run_size_level(self, state: KernelState, level: int) -> None:
        arena = _arena(state)
        query, stats = state.query, state.stats
        model = query.cost_model
        builder = builder_for(state)
        snapshot = builder.refresh(arena)
        words = snapshot.words
        spec = snapshot.spec
        parts: List[Tuple[np.ndarray, ...]] = []
        total_pairs = 0
        total_ccp = 0
        seq_base = 0
        for left_size in range(1, level):
            right_size = level - left_size
            left_keys = arena.keys_of_size(left_size)
            right_keys = arena.keys_of_size(right_size)
            count = len(left_keys) * len(right_keys)
            if count == 0:
                continue
            total_pairs += count
            left_col = wb.pack(left_keys, spec)
            right_col = wb.pack(right_keys, spec)
            li_all, _ = snapshot.lookup(left_col)
            ri_all, _ = snapshot.lookup(right_col)
            neighbours = snapshot.neighbours[li_all]
            chunk = max(1, _CHUNK_ELEMENTS // (len(right_keys) * words))
            for start in range(0, len(left_keys), chunk):
                lc = left_col[start:start + chunk]
                nc = neighbours[start:start + chunk]
                lic = li_all[start:start + chunk]
                overlap = lc[:, None, :] & right_col[None, :, :]
                valid = ~wb.any_bits(overlap)
                valid &= wb.any_bits(nc[:, None, :] & right_col[None, :, :])
                vrow, vcol = np.nonzero(valid)
                if len(vrow) == 0:
                    continue
                total_ccp += len(vrow)
                left = lc[vrow]
                right = right_col[vcol]
                combined = left | right
                # rows_batch folds the packed column in the run's own
                # layout (identity or remap) — no full-width round trip.
                out = np.asarray(query.rows_batch(combined, spec=spec),
                                 dtype=np.float64)
                cost = model.cost_batch(
                    snapshot.rows[lic[vrow]], snapshot.costs[lic[vrow]],
                    snapshot.rows[ri_all[vcol]], snapshot.costs[ri_all[vcol]],
                    out)
                seq = seq_base + (start + vrow) * len(right_keys) + vcol
                parts.append((combined, cost, seq, left, right, out))
            seq_base += count
        stats.record_pairs(level, total_pairs, total_ccp)
        if not parts:
            return
        combined = np.concatenate([p[0] for p in parts])
        cost = np.concatenate([p[1] for p in parts])
        seq = np.concatenate([p[2] for p in parts])
        left = np.concatenate([p[3] for p in parts])
        right = np.concatenate([p[4] for p in parts])
        out = np.concatenate([p[5] for p in parts])
        combined_keys = wb.sort_keys(combined)
        _, first_index, inverse = np.unique(
            combined_keys, return_index=True, return_inverse=True)
        n_new = len(first_index)
        # Every valid target of this level is first planned here, exactly
        # once; record it like the scalar path's first-discovery record_set.
        stats.record_sets(level, n_new)
        first_seq = np.full(n_new, _SEQ_MAX, dtype=np.int64)
        np.minimum.at(first_seq, inverse, seq)
        winners = _RunningWinners(n_new, words)
        winners.merge(inverse, cost, seq, left, right)
        best, winner_left, winner_right = winners.finalize()
        # Rows are a function of the target set alone (one memoized estimate
        # per mask), so every candidate of a target carries the same value.
        winner_rows = np.empty(n_new, dtype=np.float64)
        winner_rows[inverse] = out
        # Insertion order = order of each target's first valid pair, which is
        # how the scalar memo first saw them.
        insertion = np.argsort(first_seq)
        winner_col = combined[first_index][insertion]
        arena.record_level(wb.unpack(winner_col, spec),
                           best[insertion], winner_rows[insertion],
                           wb.unpack(winner_left[insertion], spec),
                           wb.unpack(winner_right[insertion], spec),
                           size=level)
        builder.absorb(winner_col)
