"""Query information: the single input object shared by every optimizer.

A :class:`QueryInfo` bundles everything a join-order optimizer needs:

* the join graph (``QI`` in the paper's pseudo-code),
* a cardinality estimator for arbitrary relation subsets,
* a cost model that builds scan and join plans,
* per-vertex *leaf plans*.

For an ordinary query each graph vertex is one base relation and the leaf
plans are sequential scans.  The heuristic algorithms (IDP2, UnionDP, LinDP)
additionally need to treat an already-optimized subtree as a single
"temporary table" and keep optimizing on a *contracted* graph; to support
that, every vertex carries the bitmap of original relations it stands for and
an optional pre-built leaf plan.  :meth:`QueryInfo.contract` produces such a
contracted query while keeping cardinalities consistent with the original
estimator, so costs remain comparable across recursion levels.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import bitmapset as bms
from . import widebitmap as wb
from .joingraph import JoinGraph
from .plan import Plan
from ..cost.base import CostModel
from ..cost.cardinality import CardinalityEstimator, estimator_overrides_rows
from ..cost.postgres import PostgresCostModel

__all__ = ["QueryInfo"]


class QueryInfo:
    """Everything an optimizer needs to know about one query."""

    def __init__(
        self,
        graph: JoinGraph,
        base_cardinalities: Optional[Sequence[float]] = None,
        cost_model: Optional[CostModel] = None,
        name: str = "",
        cardinality: Optional[CardinalityEstimator] = None,
        vertex_masks: Optional[Sequence[int]] = None,
        leaf_plans: Optional[Sequence[Optional[Plan]]] = None,
        root: Optional["QueryInfo"] = None,
    ):
        self.graph = graph
        self.name = name
        self.cost_model = cost_model or PostgresCostModel()
        if cardinality is None:
            if base_cardinalities is None:
                raise ValueError("provide either base_cardinalities or a CardinalityEstimator")
            cardinality = CardinalityEstimator(graph, base_cardinalities)
        self.cardinality = cardinality
        #: Root query of a contraction chain; ``self`` when not contracted.
        self.root: "QueryInfo" = root if root is not None else self
        if vertex_masks is None:
            vertex_masks = [bms.bit(i) for i in range(graph.n_relations)]
        if len(vertex_masks) != graph.n_relations:
            raise ValueError("vertex_masks must have one entry per graph vertex")
        #: Per graph vertex: the bitmap of *root* relations the vertex stands for.
        self.vertex_masks: List[int] = list(vertex_masks)
        if leaf_plans is None:
            leaf_plans = [None] * graph.n_relations
        if len(leaf_plans) != graph.n_relations:
            raise ValueError("leaf_plans must have one entry per graph vertex")
        self._leaf_plans: List[Optional[Plan]] = list(leaf_plans)
        self._scan_cache: Dict[int, Plan] = {}
        #: Contracted queries memoize estimates per *local* vertex
        #: mask: the root estimator already memoizes per root mask, but the
        #: local-to-root translation itself (``root_mask_of``) is O(vertices)
        #: and DP inner loops ask for the same local mask once per candidate
        #: pair.
        self._rows_cache: Dict[int, float] = {}

    # ------------------------------------------------------------------ #
    # Basic shape
    # ------------------------------------------------------------------ #
    @property
    def n_relations(self) -> int:
        """Number of graph vertices (base relations or composites)."""
        return self.graph.n_relations

    @property
    def all_relations_mask(self) -> int:
        """Vertex bitmap containing every vertex of the query."""
        return self.graph.all_relations_mask

    @property
    def is_contracted(self) -> bool:
        """True if vertices stand for groups of original relations."""
        return self.root is not self

    @property
    def has_custom_leaf_plans(self) -> bool:
        """True when any vertex carries a pre-built (non-scan) leaf plan.

        Such plans carry cost state that is not derivable from the graph and
        base cardinalities, so e.g. the planner's structural signature cannot
        cover them.
        """
        return any(plan is not None for plan in self._leaf_plans)

    def root_mask_of(self, vertex_mask: int) -> int:
        """Translate a vertex bitmap into the bitmap of root relations."""
        result = 0
        for vertex in bms.iter_bits(vertex_mask):
            result |= self.vertex_masks[vertex]
        return result

    def vertices_covering(self, root_relations_mask: int) -> Optional[int]:
        """Vertex bitmap whose members exactly tile ``root_relations_mask``.

        Returns None when the root-relation set cuts through a composite
        vertex (i.e. it cannot be expressed as a union of whole vertices).
        Plans produced at this query's level always map cleanly; plans nested
        inside a composite leaf do not, which is how callers such as IDP2
        distinguish current-level join nodes from the interior of an
        already-frozen temporary table.
        """
        result = 0
        remaining = root_relations_mask
        for vertex, vertex_mask in enumerate(self.vertex_masks):
            if vertex_mask & root_relations_mask:
                if vertex_mask & ~root_relations_mask:
                    return None
                result |= bms.bit(vertex)
                remaining &= ~vertex_mask
        return result if remaining == 0 else None

    # ------------------------------------------------------------------ #
    # Cardinality and plan construction
    # ------------------------------------------------------------------ #
    def rows(self, vertex_mask: int) -> float:
        """Estimated cardinality of joining the vertices in ``vertex_mask``.

        For contracted queries the estimate is computed by the *root*
        estimator over the union of the underlying relations, so edges hidden
        inside a composite vertex and edges crossing composites all contribute
        their selectivities exactly once.
        """
        if not self.is_contracted:
            return self.cardinality.rows(vertex_mask)
        cached = self._rows_cache.get(vertex_mask)
        if cached is None:
            cached = self.root.cardinality.rows(self.root_mask_of(vertex_mask))
            self._rows_cache[vertex_mask] = cached
        return cached

    def with_estimator(self, estimator: CardinalityEstimator,
                       name: Optional[str] = None) -> "QueryInfo":
        """A copy of this query planning under a different estimator.

        The copy shares the join graph and cost model objects; leaf plans are
        rebuilt from the new estimator's base cardinalities.  This is the
        injection point for estimation-robustness studies (e.g.
        :class:`~repro.execution.perturb.PerturbedEstimator`): the planning
        problem is identical except for what the optimizer *believes* about
        intermediate sizes.

        Only root queries without custom leaf plans can be re-estimated —
        contracted queries' vertex cardinalities were derived from the old
        estimator and would silently disagree with the new one.
        """
        if self.is_contracted or self.has_custom_leaf_plans:
            raise ValueError(
                "with_estimator() requires a root query without custom leaf "
                "plans; re-derive the contraction from the re-estimated root "
                "query instead")
        if estimator.graph is not self.graph:
            raise ValueError(
                "the replacement estimator must be built over this query's "
                "join graph object")
        return QueryInfo(
            graph=self.graph,
            cost_model=self.cost_model,
            name=name if name is not None else self.name,
            cardinality=estimator,
        )

    def rows_batch(self, vertex_masks, spec=None):
        """Batched :meth:`rows` over a batch of vertex bitmaps (float64).

        ``vertex_masks`` is either a sequence of Python-int bitmaps or an
        already-packed ``(m, words)`` uint64 column
        (:mod:`repro.core.widebitmap`) — the kernels hand over whichever
        they hold.  A packed column may come with its run's ``spec``
        (identity word count or bit remap, see
        :func:`repro.core.widebitmap.view_for`) and is estimated in its own
        layout: packed bit ``i`` stands for the root relations of vertex
        ``i`` (of vertex ``spec[i]`` under a remap), which is all the root
        estimator needs to lay its ``log10`` terms onto the layout
        (:meth:`~repro.cost.cardinality.CardinalityEstimator.fold_schedule`)
        and add each mask's terms in :meth:`rows`'s order
        (:meth:`~repro.cost.cardinality.CardinalityEstimator.fold_rows`).
        Root and contracted queries take the same path (a root query's
        vertices are singletons), the estimates equal :meth:`rows` bit for
        bit at any width, and no mask is translated or unpacked.
        """
        if not (isinstance(vertex_masks, np.ndarray) and vertex_masks.ndim == 2):
            spec = wb.words_for(self.graph.n_relations)
            vertex_masks = wb.pack([int(mask) for mask in vertex_masks], spec)
        elif spec is None:
            spec = vertex_masks.shape[1]
        # DPsize levels repeat a target once per candidate pair: estimate
        # each distinct set once.
        _, first, inverse = np.unique(wb.sort_keys(vertex_masks),
                                      return_index=True, return_inverse=True)
        distinct = vertex_masks[first]
        estimator = self.root.cardinality
        if estimator_overrides_rows(estimator):
            # A custom estimator (e.g. a q-error PerturbedEstimator) must
            # observe every mask through rows(); the fold below adds the
            # base terms and would silently bypass the override.
            estimates = np.array([self.rows(mask)
                                  for mask in wb.unpack(distinct, spec)],
                                 dtype=np.float64)
            return estimates[inverse]
        local_roots = (self.vertex_masks if isinstance(spec, int)
                       else [self.vertex_masks[vertex] for vertex in spec])
        values, near, far = estimator.fold_schedule(local_roots)
        # A set holds a term when it holds the term's two endpoint bits.  A
        # term whose bits the batch's union lacks is never selected;
        # dropping it keeps the survivors' order.
        bits = wb.bit_columns(distinct)
        union = bits.any(axis=0)
        keep = union[near] & union[far]
        values, near, far = values[keep], near[keep], far[keep]
        estimates = estimator.fold_rows(
            values,
            lambda start, stop: bits[start:stop, near] & bits[start:stop, far],
            len(distinct))
        return estimates[inverse]

    def leaf_plan(self, vertex: int) -> Plan:
        """Access plan for one vertex (a scan, or a pre-built composite plan)."""
        cached = self._scan_cache.get(vertex)
        if cached is not None:
            return cached
        provided = self._leaf_plans[vertex]
        if provided is not None:
            plan = provided
        else:
            plan = self.cost_model.scan(vertex, self.cardinality.base_rows(vertex))
        self._scan_cache[vertex] = plan
        return plan

    def join(self, left_vertex_mask: int, right_vertex_mask: int,
             left_plan: Plan, right_plan: Plan) -> Plan:
        """Build the cheapest join of two disjoint vertex sets' plans."""
        if left_vertex_mask & right_vertex_mask:
            raise ValueError("join inputs must cover disjoint vertex sets")
        output_rows = self.rows(left_vertex_mask | right_vertex_mask)
        return self.cost_model.join(left_plan, right_plan, output_rows)

    def plan_cost(self, plan: Plan) -> float:
        """Re-cost an existing plan tree bottom-up under this query's model.

        Used when comparing plans produced under different cost models (e.g.
        IKKBZ optimizes under ``C_out`` but the evaluation compares final
        plans under the PostgreSQL-like model, as in Section 7.3).
        """
        rebuilt = self.recost(plan)
        return rebuilt.cost

    def recost(self, plan: Plan) -> Plan:
        """Rebuild ``plan`` with this query's cost model and cardinalities.

        The plan must be expressed over this query's vertex space (leaf
        ``relation_index`` values are vertex indices).
        """
        # Children before parents; each entry is (vertex mask, rebuilt plan).
        rebuilt: Dict[int, Tuple[int, Plan]] = {}
        for node in reversed(list(plan.iter_nodes())):
            if node.is_leaf:
                rebuilt[id(node)] = (bms.bit(node.relation_index),
                                     self.leaf_plan(node.relation_index))
                continue
            left_mask, left = rebuilt.pop(id(node.left))
            right_mask, right = rebuilt.pop(id(node.right))
            rebuilt[id(node)] = (left_mask | right_mask,
                                 self.join(left_mask, right_mask, left, right))
        return rebuilt[id(plan)][1]

    # ------------------------------------------------------------------ #
    # Edge weights (used by UnionDP and the workload tooling)
    # ------------------------------------------------------------------ #
    def edge_weight(self, left_vertex: int, right_vertex: int) -> float:
        """Cost-model weight of joining the two endpoint vertices directly.

        UnionDP assigns each edge the cost of joining the relations across it
        (Section 4.2, requirement 2); we use the cost of the cheapest join of
        the two leaf plans under the query's cost model.
        """
        left_plan = self.leaf_plan(left_vertex)
        right_plan = self.leaf_plan(right_vertex)
        return self.join(bms.bit(left_vertex), bms.bit(right_vertex), left_plan, right_plan).cost

    # ------------------------------------------------------------------ #
    # Contraction (composite vertices for the heuristics)
    # ------------------------------------------------------------------ #
    def contract(self, partitions: Sequence[int], partition_plans: Sequence[Plan],
                 name: Optional[str] = None) -> "QueryInfo":
        """Build a contracted query whose vertices are the given partitions.

        Args:
            partitions: disjoint vertex bitmaps (in *this* query's vertex
                space) covering all vertices; each becomes one new vertex.
            partition_plans: the plan chosen for each partition; it becomes
                the new vertex's leaf plan.
            name: optional name of the contracted query.

        Returns:
            A new :class:`QueryInfo` over ``len(partitions)`` vertices whose
            cardinalities are still computed by the root estimator.
        """
        if len(partitions) != len(partition_plans):
            raise ValueError("need exactly one plan per partition")
        covered = 0
        for partition in partitions:
            if partition == 0:
                raise ValueError("partitions must be non-empty")
            if partition & covered:
                raise ValueError("partitions must be disjoint")
            covered |= partition
        if covered != self.all_relations_mask:
            raise ValueError("partitions must cover every vertex of the query")

        n_new = len(partitions)
        new_names = []
        for index, partition in enumerate(partitions):
            members = [self.graph.relation_names[v] for v in bms.iter_bits(partition)]
            new_names.append(members[0] if len(members) == 1 else f"part{index}({'+'.join(members)})")
        new_graph = JoinGraph(n_new, new_names)
        # Aggregate crossing edges with a single scan over the edge list
        # instead of one edges_between() pass per partition pair (quadratic in
        # partitions x edges, which dominated contraction on 1000-relation
        # queries).  Selectivities multiply in graph edge order and merged
        # edges are added in (i, j)-lexicographic order — exactly what the
        # nested edges_between loop produced, so contracted graphs (and every
        # cost downstream) are bit-identical.
        partition_of: Dict[int, int] = {}
        for index, partition in enumerate(partitions):
            for vertex in bms.iter_bits(partition):
                partition_of[vertex] = index
        merged: Dict[tuple, List] = {}
        for edge in self.graph.edges:
            i = partition_of[edge.left]
            j = partition_of[edge.right]
            if i == j:
                continue
            key = (i, j) if i < j else (j, i)
            entry = merged.get(key)
            if entry is None:
                merged[key] = [edge.selectivity, edge.is_pk_fk]
            else:
                entry[0] *= edge.selectivity
                entry[1] = entry[1] or edge.is_pk_fk
        for (i, j) in sorted(merged):
            selectivity, is_pk_fk = merged[(i, j)]
            new_graph.add_edge(i, j, max(min(selectivity, 1.0), 1e-300),
                               predicate="contracted", is_pk_fk=is_pk_fk)

        new_vertex_masks = [self.root_mask_of(partition) for partition in partitions]
        new_base_cards = [self.rows(partition) for partition in partitions]
        return QueryInfo(
            graph=new_graph,
            base_cardinalities=new_base_cards,
            cost_model=self.cost_model,
            name=name or f"{self.name}/contracted",
            vertex_masks=new_vertex_masks,
            leaf_plans=list(partition_plans),
            root=self.root,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QueryInfo(name={self.name!r}, n_relations={self.n_relations}, "
            f"n_edges={self.graph.n_edges}, cost_model={self.cost_model.name})"
        )
