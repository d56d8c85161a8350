"""Join graph representation.

A query's joins are modelled as an undirected graph ``G(R, E)`` whose vertices
are the relations of the FROM clause and whose edges are inner equi-join
predicates (Section 2.1 of the paper).  The graph stores, for every vertex, an
adjacency bitmap, and for every edge, a selectivity (used by the cardinality
estimator) plus optional metadata (the predicate it came from).

Equivalence classes: the paper notes (footnote 8) that equi-join predicates
induce equivalence classes which add implicit edges — e.g. ``a.x = b.x`` and
``b.x = c.x`` imply ``a.x = c.x``.  :meth:`JoinGraph.close_equivalence_classes`
adds those implied edges.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from . import bitmapset as bms

__all__ = ["JoinEdge", "JoinGraph"]


@dataclass(frozen=True)
class JoinEdge:
    """An undirected join edge between two relations.

    Attributes:
        left: index of one endpoint relation.
        right: index of the other endpoint relation.
        selectivity: the join predicate's selectivity in ``(0, 1]``; the
            estimated output of joining the two base relations is
            ``|L| * |R| * selectivity``.
        predicate: optional human-readable predicate string (``"a.x = b.y"``).
        is_pk_fk: True when the edge is a primary-key/foreign-key join; used
            by the workload generators and the executor's time model.
        index: the edge's position in its graph's edge order, set by
            :meth:`JoinGraph.add_edge` (the cardinality estimator's per-edge
            term table is indexed by it); -1 for an edge built outside a
            graph.
    """

    left: int
    right: int
    selectivity: float = 1.0
    predicate: Optional[str] = None
    is_pk_fk: bool = False
    index: int = field(default=-1, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.left == self.right:
            raise ValueError("self-joins must be modelled as two relations")
        if not (0.0 < self.selectivity <= 1.0):
            raise ValueError(f"selectivity must be in (0, 1], got {self.selectivity}")

    @property
    def endpoints(self) -> Tuple[int, int]:
        """The two endpoints as an ordered pair (smaller index first)."""
        return (self.left, self.right) if self.left < self.right else (self.right, self.left)

    @property
    def mask(self) -> int:
        """Bitmap containing both endpoints."""
        return bms.bit(self.left) | bms.bit(self.right)


class JoinGraph:
    """Undirected join graph over ``n_relations`` relations.

    The graph is the central substrate shared by every optimizer in the
    repository: DP enumerators query adjacency bitmaps and connectivity,
    the heuristics query edge weights, and the cardinality estimator looks up
    per-edge selectivities.
    """

    def __init__(self, n_relations: int, relation_names: Optional[Sequence[str]] = None):
        if n_relations <= 0:
            raise ValueError("a join graph needs at least one relation")
        self.n_relations = n_relations
        if relation_names is None:
            relation_names = [f"R{i}" for i in range(n_relations)]
        if len(relation_names) != n_relations:
            raise ValueError("relation_names length must equal n_relations")
        self.relation_names: List[str] = list(relation_names)
        self._adjacency: List[int] = [0] * n_relations
        self._edges: List[JoinEdge] = []
        self._edge_index: Dict[Tuple[int, int], int] = {}
        #: Per-edge endpoint bitmaps, parallel to ``_edges``; precomputed once
        #: so the subset scans below avoid re-deriving them per call.
        self._edge_masks: List[int] = []
        #: LRU cache for :meth:`edges_within`, keyed by vertex mask.  The
        #: reuse comes from repeated optimizer runs on one graph (MPDP:Tree's
        #: per-candidate ``_edge_splits``, IKKBZ restarts, benchmark sweeps);
        #: single-visit callers such as the cardinality estimator (which
        #: memoizes its own per-mask results) insert write-once entries, which
        #: the LRU bound keeps from crowding out the reused ones.
        self._edges_within_cache: "OrderedDict[int, Tuple[JoinEdge, ...]]" = OrderedDict()
        self._edges_within_cache_size = 4096
        #: Lazily built per-vertex incident edge *index* lists (indices into
        #: ``_edges``), backing the sparse :meth:`edges_within` path.  Index
        #: lists survive same-pair predicate merges (the edge object is
        #: replaced in place) and are dropped when a new edge is added.
        self._incident_edges: Optional[List[List[int]]] = None
        #: Lazily created :class:`~repro.core.enumeration.EnumerationContext`
        #: (see :meth:`EnumerationContext.of`); dropped whenever an edge is
        #: added so derived connectivity state never goes stale.
        self._enum_context = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_edge(
        self,
        left: int,
        right: int,
        selectivity: float = 1.0,
        predicate: Optional[str] = None,
        is_pk_fk: bool = False,
    ) -> JoinEdge:
        """Add an undirected join edge; returns the stored :class:`JoinEdge`.

        Adding a second edge between the same pair of relations keeps the
        more selective (smaller) selectivity, matching how an optimizer would
        combine conjunctive predicates on the same relation pair.
        """
        self._check_vertex(left)
        self._check_vertex(right)
        edge = JoinEdge(left, right, selectivity, predicate, is_pk_fk,
                        index=len(self._edges))
        key = edge.endpoints
        if key in self._edge_index:
            existing_pos = self._edge_index[key]
            existing = self._edges[existing_pos]
            combined = JoinEdge(
                existing.left,
                existing.right,
                min(existing.selectivity, selectivity),
                predicate or existing.predicate,
                is_pk_fk or existing.is_pk_fk,
                index=existing_pos,
            )
            self._edges[existing_pos] = combined
            # Merging predicates on an existing pair changes selectivity only;
            # adjacency (and hence the enumeration context) is unaffected, but
            # the edges_within cache holds the replaced JoinEdge objects.
            self._edges_within_cache.clear()
            return combined
        self._edge_index[key] = len(self._edges)
        self._edges.append(edge)
        self._edge_masks.append(edge.mask)
        self._adjacency[left] |= bms.bit(right)
        self._adjacency[right] |= bms.bit(left)
        self._invalidate_derived_state()
        return edge

    def _invalidate_derived_state(self) -> None:
        """Drop caches derived from the edge set (called on every mutation)."""
        if self._edges_within_cache:
            self._edges_within_cache.clear()
        self._incident_edges = None
        self._enum_context = None

    def close_equivalence_classes(self, equivalence_classes: Iterable[Iterable[int]],
                                  selectivity: float = 1.0) -> int:
        """Add implied edges for each equivalence class of relations.

        Each class is a set of relations whose join columns are all equated;
        every missing pair inside a class gets an implicit edge.  Returns the
        number of edges added.
        """
        added = 0
        for eq_class in equivalence_classes:
            members = sorted(set(eq_class))
            for i, a in enumerate(members):
                for b in members[i + 1:]:
                    if (a, b) not in self._edge_index:
                        self.add_edge(a, b, selectivity, predicate="implied", is_pk_fk=False)
                        added += 1
        return added

    def _check_vertex(self, vertex: int) -> None:
        if not (0 <= vertex < self.n_relations):
            raise ValueError(f"relation index {vertex} out of range [0, {self.n_relations})")

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def all_relations_mask(self) -> int:
        """Bitmap with every relation set."""
        return (1 << self.n_relations) - 1

    @property
    def edges(self) -> Tuple[JoinEdge, ...]:
        """All edges (immutable view)."""
        return tuple(self._edges)

    @property
    def n_edges(self) -> int:
        return len(self._edges)

    def has_edge(self, left: int, right: int) -> bool:
        key = (left, right) if left < right else (right, left)
        return key in self._edge_index

    def edge_between(self, left: int, right: int) -> Optional[JoinEdge]:
        """Return the edge between two relations, if any."""
        key = (left, right) if left < right else (right, left)
        index = self._edge_index.get(key)
        return self._edges[index] if index is not None else None

    def adjacency(self, vertex: int) -> int:
        """Bitmap of neighbours of ``vertex``."""
        self._check_vertex(vertex)
        return self._adjacency[vertex]

    def neighbours_of_set(self, mask: int) -> int:
        """Bitmap of relations adjacent to (but not members of) ``mask``."""
        result = 0
        for vertex in bms.iter_bits(mask):
            result |= self._adjacency[vertex]
        return result & ~mask

    def is_connected_to(self, left_mask: int, right_mask: int) -> bool:
        """True if at least one edge crosses the two (disjoint) sets."""
        return bool(self.neighbours_of_set(left_mask) & right_mask)

    def edges_within(self, mask: int) -> Tuple[JoinEdge, ...]:
        """Every edge whose two endpoints both lie inside ``mask``.

        Results are served from a bounded LRU cache keyed by ``mask``; the
        cache is invalidated whenever an edge is added.

        Small masks on edge-rich graphs take a sparse path: only edges
        incident to a member vertex are tested (via lazily built per-vertex
        incident index lists), and emitting the surviving candidates in
        ascending edge-index order reproduces the full scan's graph-order
        tuple exactly — callers that fold per-edge terms in sequence (the
        cardinality estimator's log-space accumulation) see a bit-identical
        schedule.
        """
        cache = self._edges_within_cache
        cached = cache.get(mask)
        if cached is not None:
            cache.move_to_end(mask)
            return cached
        edges = self._edges
        edge_masks = self._edge_masks
        if mask.bit_count() * 8 < len(edges):
            incident = self._incident_edges
            if incident is None:
                incident = [[] for _ in range(self.n_relations)]
                for index, edge in enumerate(edges):
                    incident[edge.left].append(index)
                    incident[edge.right].append(index)
                self._incident_edges = incident
            candidates: set = set()
            remaining = mask
            while remaining:
                low = remaining & -remaining
                candidates.update(incident[low.bit_length() - 1])
                remaining ^= low
            result = tuple(edges[index] for index in sorted(candidates)
                           if edge_masks[index] & ~mask == 0)
        else:
            result = tuple(
                edge
                for edge, edge_mask in zip(edges, edge_masks)
                if edge_mask & ~mask == 0
            )
        if len(cache) >= self._edges_within_cache_size:
            cache.popitem(last=False)
        cache[mask] = result
        return result

    def edges_between(self, left_mask: int, right_mask: int) -> Iterator[JoinEdge]:
        """Yield every edge with one endpoint in each of two disjoint sets."""
        for edge, edge_mask in zip(self._edges, self._edge_masks):
            if not (edge_mask & left_mask) or not (edge_mask & right_mask):
                continue
            left_bit = bms.bit(edge.left)
            right_bit = bms.bit(edge.right)
            if (left_bit & left_mask and right_bit & right_mask) or (
                left_bit & right_mask and right_bit & left_mask
            ):
                yield edge

    def degree(self, vertex: int) -> int:
        """Number of neighbours of ``vertex``."""
        return bms.popcount(self.adjacency(vertex))

    def induced_adjacency(self, mask: int) -> Dict[int, int]:
        """Adjacency bitmaps of the subgraph induced by ``mask``."""
        return {v: self._adjacency[v] & mask for v in bms.iter_bits(mask)}

    def copy(self) -> "JoinGraph":
        """Deep copy of the graph (edges are immutable, so shallow edge copy)."""
        clone = JoinGraph(self.n_relations, self.relation_names)
        for edge in self._edges:
            clone.add_edge(edge.left, edge.right, edge.selectivity, edge.predicate, edge.is_pk_fk)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"JoinGraph(n_relations={self.n_relations}, n_edges={self.n_edges})"
