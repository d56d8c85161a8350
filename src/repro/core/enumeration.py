"""Incremental enumeration engine: per-query derived state for the DP loops.

Every DP-style optimizer in this repository asks the same three questions over
and over while it walks the search space:

1. *"What are the connected subsets of size k?"* — the level sets ``S_k`` of
   Algorithm 1, line 5.  The naive answer (re-expanding from singletons at
   every level, as the seed enumerator in
   ``benchmarks/bench_enumeration_engine.py`` does) costs
   ``O(sum_k k * |S_k|)`` set churn per query because level ``k`` rebuilds
   levels ``1 .. k-1`` from scratch.
2. *"Is this set connected?" / "what are its neighbours?"* — the CCP validity
   checks of Section 2.1, which DPsub and MPDP run against the same small
   masks thousands of times per query.
3. *"What are the blocks of this induced subgraph?"* — MPDP's Section 3.2
   decomposition, recomputed per visit even though the candidate set fully
   determines the answer.

:class:`EnumerationContext` owns the per-query caches that make each of those
questions O(1) after its first answer:

* a **level-synchronous connected-subset index**
  (:class:`ConnectedSubsetIndex`): ``S_k`` is materialised exactly once per
  ``(graph, within)`` scope, incrementally from ``S_{k-1}``, with the frontier
  (neighbour bitmap) of every subset carried along so that the expansion to
  the next level costs O(1) big-int operations per emitted child instead of a
  bit-walk over the subset;
* **memoized connectivity primitives** — ``is_connected``,
  ``neighbours_of_set`` (and through it ``is_connected_to``) and a bounded
  ``grow`` cache;
* a **block-decomposition cache** for :func:`repro.core.blocks.find_blocks`.

A context is obtained with :meth:`EnumerationContext.of`, which stores it on
the graph instance; :meth:`JoinGraph.add_edge` invalidates the stored context,
so the free functions in :mod:`repro.core.connectivity` (now thin wrappers
over the context) always see a cache consistent with the graph.

Sharing contract (see ``PERFORMANCE.md``): everything keyed by a plain vertex
mask (connectivity, neighbours, blocks) is a property of the *whole* graph and
is safely shared across ``within=`` scopes — a fragment optimization by IDP2 /
UnionDP / LinDP warms the same caches the next fragment reuses.  Only the
subset index is keyed per ``within`` scope, because ``S_k`` depends on the
enumeration universe.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

from . import bitmapset as bms
from .blocks import BlockDecomposition, find_blocks
from .joingraph import JoinGraph

__all__ = ["EnumerationContext", "ConnectedSubsetIndex"]

#: Upper bound on the ``grow`` result cache.  Lift-step grow calls in MPDP are
#: mostly unique per (source, restricted) pair, so the cache is cleared (not
#: LRU-evicted — clearing is O(1) and correctness does not depend on contents)
#: when it fills up, bounding memory on adversarial (clique) workloads.
_GROW_CACHE_LIMIT = 1 << 16

#: Upper bound on the mask-keyed caches (connectivity, neighbours, blocks).
#: Reached only by workloads far beyond what pure-Python DP can enumerate;
#: the caches are cleared wholesale when the bound is hit.
_MASK_CACHE_LIMIT = 1 << 20

#: Bounds on the per-scope subset indexes: at most this many ``within``
#: scopes are kept (LRU), and when the total number of materialised subsets
#: across scopes exceeds the subset limit, least-recently-used scopes are
#: evicted (all but the scope being served).  Eviction is always correct —
#: an index is a pure memo and is rebuilt on demand.
_INDEX_SCOPE_LIMIT = 128
_INDEX_SUBSET_LIMIT = 1 << 21


class ConnectedSubsetIndex:
    """Level-synchronous index of the connected subsets of one scope.

    Level ``k`` (the paper's ``S_k``) is materialised incrementally from level
    ``k - 1`` exactly once and then served as an immutable tuple, so a DP loop
    asking for levels ``2 .. n`` does ``O(sum_k |S_k|)`` total expansion work
    instead of the ``O(sum_k k * |S_k|)`` a from-scratch enumeration per level
    costs.

    Alongside every subset of the most recently built level the index keeps
    the subset's *frontier* — the bitmap of universe vertices adjacent to the
    subset — so expanding a subset by one vertex updates the frontier with two
    bitmap operations instead of re-walking the subset's adjacency lists.
    """

    def __init__(self, graph: JoinGraph, universe: int):
        self.graph = graph
        self.universe = universe
        self.max_size = bms.popcount(universe)
        adjacency = graph._adjacency
        singletons: List[int] = []
        frontier: Dict[int, int] = {}
        for vertex in bms.iter_bits(universe):
            single = 1 << vertex
            singletons.append(single)
            frontier[single] = adjacency[vertex] & universe & ~single
        #: ``_levels[k]`` is the sorted tuple of connected subsets of size
        #: ``k``; index 0 is a placeholder so levels are addressed naturally.
        self._levels: List[Tuple[int, ...]] = [(), tuple(singletons)]
        #: Frontier bitmaps of the subsets of the highest built level (only
        #: that level is needed to build the next one).
        self._frontier: Dict[int, int] = frontier
        self._exhausted = self.max_size <= 1
        #: Total subsets materialised so far (for the context's memory bound).
        self.subset_count = len(singletons)

    @property
    def levels_built(self) -> int:
        """Highest level materialised so far."""
        return len(self._levels) - 1

    def level(self, size: int) -> Tuple[int, ...]:
        """The sorted tuple of connected subsets of exactly ``size`` vertices.

        Builds (and caches) every level up to ``size`` on first access.
        """
        if size <= 0 or size > self.max_size:
            return ()
        while len(self._levels) <= size and not self._exhausted:
            self._build_next_level()
        if size < len(self._levels):
            return self._levels[size]
        return ()

    def _build_next_level(self) -> None:
        adjacency = self.graph._adjacency
        universe = self.universe
        nxt: Dict[int, int] = {}
        for subset, frontier in self._frontier.items():
            remaining = frontier
            while remaining:
                low = remaining & -remaining
                remaining ^= low
                child = subset | low
                if child not in nxt:
                    nxt[child] = (
                        (frontier | adjacency[low.bit_length() - 1])
                        & universe & ~child
                    )
        if not nxt:
            self._exhausted = True
            self._frontier = {}
            return
        self._levels.append(tuple(sorted(nxt)))
        self._frontier = nxt
        self.subset_count += len(nxt)


class EnumerationContext:
    """Per-query enumeration state shared by every optimizer.

    Obtain one with :meth:`EnumerationContext.of`; constructing contexts
    directly is supported but bypasses the per-graph instance cache.
    """

    def __init__(self, graph: JoinGraph):
        self.graph = graph
        self._indexes: "OrderedDict[int, ConnectedSubsetIndex]" = OrderedDict()
        self._connected: Dict[int, bool] = {}
        self._neighbours: Dict[int, int] = {}
        self._blocks: Dict[int, BlockDecomposition] = {}
        self._grow: Dict[Tuple[int, int], int] = {}
        #: Cache-miss counters (cumulative over the context's lifetime, i.e.
        #: across every run sharing the graph).  A miss is one recomputation
        #: of a derived value; the kernel backends are expected to touch
        #: these O(distinct masks) times per run, never O(pairs) — see
        #: ``tests/test_multicore_backend.py::TestKernelStateHoist``.
        self.connectivity_misses = 0
        self.neighbour_misses = 0
        self.block_misses = 0
        self.grow_misses = 0

    # ------------------------------------------------------------------ #
    # Acquisition
    # ------------------------------------------------------------------ #
    #: Guards first-time context creation only (the read path is lock-free:
    #: attribute reads are atomic under the GIL).  Without it, two threads
    #: racing :meth:`of` on a fresh graph could each build a context and
    #: split their memo tables across the loser's orphan.  Note the memo
    #: tables themselves are *not* synchronized: concurrent optimization of
    #: the same graph object is the planner's singleflight's job to prevent
    #: (see :class:`repro.planner.service.AdaptivePlanner`).
    _of_lock = threading.Lock()

    @classmethod
    def of(cls, graph: JoinGraph) -> "EnumerationContext":
        """The context cached on ``graph`` (created on first use).

        :meth:`JoinGraph.add_edge` drops the cached context, so a context
        obtained through this method is always consistent with the graph's
        current edge set.
        """
        context = getattr(graph, "_enum_context", None)
        if context is None:
            with cls._of_lock:
                context = getattr(graph, "_enum_context", None)
                if context is None:
                    context = cls(graph)
                    graph._enum_context = context
        return context

    # ------------------------------------------------------------------ #
    # Level-synchronous connected-subset index
    # ------------------------------------------------------------------ #
    def index(self, within: Optional[int] = None) -> ConnectedSubsetIndex:
        """The subset index of one enumeration scope (``None`` = whole graph).

        Scope indexes are the only exponential-size structures in the
        context, so they are bounded: at most ``_INDEX_SCOPE_LIMIT`` scopes
        are retained (LRU), and when the total number of materialised subsets
        exceeds ``_INDEX_SUBSET_LIMIT``, every scope but the requested one is
        evicted.  Levels already handed out as tuples stay valid with their
        holders; an evicted scope is rebuilt on demand.
        """
        universe = self.graph.all_relations_mask if within is None else within
        index = self._indexes.get(universe)
        if index is None:
            if len(self._indexes) >= _INDEX_SCOPE_LIMIT:
                self._indexes.popitem(last=False)
            index = ConnectedSubsetIndex(self.graph, universe)
            self._indexes[universe] = index
        else:
            self._indexes.move_to_end(universe)
        total_subsets = sum(i.subset_count for i in self._indexes.values())
        if total_subsets > _INDEX_SUBSET_LIMIT and len(self._indexes) > 1:
            for key in [k for k in self._indexes if k != universe]:
                del self._indexes[key]
        return index

    def connected_subsets(self, size: int,
                          within: Optional[int] = None) -> Tuple[int, ...]:
        """``S_size`` of the scope as a sorted tuple (cached)."""
        return self.index(within).level(size)

    def iter_connected_subsets(self, size: int,
                               within: Optional[int] = None) -> Iterator[int]:
        """Iterate ``S_size`` in the canonical (ascending-mask) order."""
        return iter(self.index(within).level(size))

    # ------------------------------------------------------------------ #
    # Memoized connectivity primitives
    # ------------------------------------------------------------------ #
    def neighbours_of_set(self, mask: int) -> int:
        """Cached :meth:`JoinGraph.neighbours_of_set`."""
        cached = self._neighbours.get(mask)
        if cached is None:
            self.neighbour_misses += 1
            result = 0
            adjacency = self.graph._adjacency
            remaining = mask
            while remaining:
                low = remaining & -remaining
                remaining ^= low
                result |= adjacency[low.bit_length() - 1]
            cached = result & ~mask
            if len(self._neighbours) >= _MASK_CACHE_LIMIT:
                self._neighbours.clear()
            self._neighbours[mask] = cached
        return cached

    def is_connected_to(self, left_mask: int, right_mask: int) -> bool:
        """True if at least one edge crosses the two (disjoint) sets."""
        return bool(self.neighbours_of_set(left_mask) & right_mask)

    def is_connected(self, mask: int) -> bool:
        """Cached connectivity of the subgraph induced by ``mask``."""
        cached = self._connected.get(mask)
        if cached is None:
            self.connectivity_misses += 1
            if mask == 0:
                cached = False
            elif mask & (mask - 1) == 0:
                cached = True
            else:
                cached = self._grow_uncached(mask & -mask, mask) == mask
            if len(self._connected) >= _MASK_CACHE_LIMIT:
                self._connected.clear()
            self._connected[mask] = cached
        return cached

    def grow(self, source: int, restricted: int) -> int:
        """Cached grow function (Section 3.2.1); see :func:`connectivity.grow`."""
        if source & ~restricted:
            raise ValueError("source nodes must be a subset of the restricted nodes")
        key = (source, restricted)
        cached = self._grow.get(key)
        if cached is None:
            self.grow_misses += 1
            cached = self._grow_uncached(source, restricted)
            if len(self._grow) >= _GROW_CACHE_LIMIT:
                self._grow.clear()
            self._grow[key] = cached
        return cached

    def _grow_uncached(self, source: int, restricted: int) -> int:
        """BFS grow: every vertex's adjacency is unioned exactly once."""
        adjacency = self.graph._adjacency
        reached = source
        frontier = source
        while frontier:
            raw = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                raw |= adjacency[low.bit_length() - 1]
            frontier = raw & restricted & ~reached
            reached |= frontier
        return reached

    def connected_components(self, mask: int) -> List[int]:
        """Connected components of the induced subgraph (as bitmaps)."""
        components: List[int] = []
        remaining = mask
        while remaining:
            component = self._grow_uncached(remaining & -remaining, remaining)
            components.append(component)
            remaining &= ~component
        return components

    # ------------------------------------------------------------------ #
    # Block-decomposition cache
    # ------------------------------------------------------------------ #
    def find_blocks(self, mask: int) -> BlockDecomposition:
        """Cached block decomposition of the subgraph induced by ``mask``.

        The returned object is shared; callers must treat it as immutable.
        """
        cached = self._blocks.get(mask)
        if cached is None:
            self.block_misses += 1
            cached = find_blocks(self.graph, mask)
            if len(self._blocks) >= _MASK_CACHE_LIMIT:
                self._blocks.clear()
            self._blocks[mask] = cached
        return cached

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def cache_info(self) -> Dict[str, int]:
        """Sizes of the context's caches (for benchmarks and diagnostics)."""
        return {
            "connectivity_entries": len(self._connected),
            "neighbour_entries": len(self._neighbours),
            "block_entries": len(self._blocks),
            "grow_entries": len(self._grow),
            "index_scopes": len(self._indexes),
            "index_subsets": sum(i.subset_count for i in self._indexes.values()),
            "connectivity_misses": self.connectivity_misses,
            "neighbour_misses": self.neighbour_misses,
            "block_misses": self.block_misses,
            "grow_misses": self.grow_misses,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EnumerationContext(graph={self.graph!r}, {self.cache_info()})"
