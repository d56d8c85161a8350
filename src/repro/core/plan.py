"""Join plan trees.

The output of every optimizer in this repository is a :class:`Plan` — a binary
tree whose leaves are base-relation scans and whose inner nodes are joins.
Plans carry the estimated output cardinality (``rows``) and the accumulated
cost under whichever cost model built them; the DP algorithms compare plans by
cost when updating the memo table (``CurrPlan < BestPlan(S)`` in the paper's
pseudo-code).

Plans are immutable value objects: the memo table stores them by relation-set
bitmap and subplans are shared freely between alternative parents.  Every
walk over a tree (equality, hashing, validation, rendering, shape queries)
is iterative, so a left-deep plan of any number of joins stays within
Python's recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from . import bitmapset as bms

__all__ = ["JoinMethod", "Plan", "scan_plan", "join_plan"]


class JoinMethod:
    """Physical operator tags used by the cost models."""

    SCAN = "seqscan"
    HASH_JOIN = "hashjoin"
    NESTED_LOOP = "nestloop"
    MERGE_JOIN = "mergejoin"

    ALL_JOINS = (HASH_JOIN, NESTED_LOOP, MERGE_JOIN)


@dataclass(frozen=True)
class Plan:
    """A (sub)plan covering the relation set ``relations``.

    Attributes:
        relations: bitmap of the base relations covered by this plan.
        rows: estimated output cardinality.
        cost: total estimated cost of producing the output (includes the cost
            of the children).
        method: physical operator (:class:`JoinMethod` constant).
        left: left child for joins, None for scans.
        right: right child for joins, None for scans.
        relation_index: base relation index for scans, None for joins.
    """

    relations: int
    rows: float
    cost: float
    method: str
    left: Optional["Plan"] = None
    right: Optional["Plan"] = None
    relation_index: Optional[int] = None

    # ------------------------------------------------------------------ #
    # Shape queries
    # ------------------------------------------------------------------ #
    @property
    def is_leaf(self) -> bool:
        """True for base-relation scans."""
        return self.left is None and self.right is None

    @property
    def n_relations(self) -> int:
        """Number of base relations covered."""
        return bms.popcount(self.relations)

    @property
    def n_joins(self) -> int:
        """Number of join operators in the tree."""
        return self.n_relations - 1

    def depth(self) -> int:
        """Height of the tree (a leaf has depth 1)."""
        height = 0
        stack = [(self, 1)]
        while stack:
            node, level = stack.pop()
            if node.is_leaf:
                height = max(height, level)
            else:
                stack.append((node.right, level + 1))
                stack.append((node.left, level + 1))
        return height

    def is_left_deep(self) -> bool:
        """True if every join's right child is a base relation."""
        node = self
        while not node.is_leaf:
            if not node.right.is_leaf:
                return False
            node = node.left
        return True

    def is_bushy(self) -> bool:
        """True if some join has two composite children."""
        return not self.is_left_deep() and not self.is_right_deep()

    def is_right_deep(self) -> bool:
        """True if every join's left child is a base relation."""
        node = self
        while not node.is_leaf:
            if not node.left.is_leaf:
                return False
            node = node.right
        return True

    # ------------------------------------------------------------------ #
    # Traversal
    # ------------------------------------------------------------------ #
    def iter_nodes(self) -> Iterator["Plan"]:
        """Pre-order traversal of every node of the tree."""
        stack: List[Plan] = [self]
        while stack:
            node = stack.pop()
            yield node
            if node.right is not None:
                stack.append(node.right)
            if node.left is not None:
                stack.append(node.left)

    def iter_joins(self) -> Iterator["Plan"]:
        """Yield every join node."""
        for node in self.iter_nodes():
            if not node.is_leaf:
                yield node

    def iter_leaves(self) -> Iterator["Plan"]:
        """Yield every scan node, left to right."""
        for node in self.iter_nodes():
            if node.is_leaf:
                yield node

    def leaf_order(self) -> List[int]:
        """Base-relation indices in left-to-right leaf order."""
        return [leaf.relation_index for leaf in self.iter_leaves()]

    def subplan_for(self, relations: int) -> Optional["Plan"]:
        """Return the subtree covering exactly ``relations``, if present."""
        for node in self.iter_nodes():
            if node.relations == relations:
                return node
        return None

    # ------------------------------------------------------------------ #
    # Validation / rendering
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Check the structural invariants of the tree.

        Raises :class:`ValueError` when a join's children overlap, a node's
        relation bitmap does not equal the union of its children's, or a leaf
        is missing its relation index.  Nodes are checked in pre-order, so
        the first offending node reports.
        """
        stack = [self]
        while stack:
            node = stack.pop()
            left, right = node.left, node.right
            if left is None and right is None:
                if node.relation_index is None:
                    raise ValueError("leaf plan without relation_index")
                if node.relations != bms.bit(node.relation_index):
                    raise ValueError("leaf plan relations bitmap mismatch")
                continue
            if left is None or right is None:
                raise ValueError("join plan must have two children")
            if left.relations & right.relations:
                raise ValueError("join children overlap")
            if node.relations != (left.relations | right.relations):
                raise ValueError("join relations bitmap is not the union of children")
            if node.method not in JoinMethod.ALL_JOINS:
                raise ValueError(f"unknown join method {node.method!r}")
            stack.append(right)
            stack.append(left)

    def to_string(self, relation_names: Optional[List[str]] = None, indent: int = 0) -> str:
        """Readable multi-line rendering of the plan tree."""
        lines: List[str] = []
        stack = [(self, indent)]
        while stack:
            node, level = stack.pop()
            label = node.method
            if node.is_leaf:
                name = (
                    relation_names[node.relation_index]
                    if relation_names is not None
                    else f"R{node.relation_index}"
                )
                label = f"{node.method}({name})"
            else:
                stack.append((node.right, level + 1))
                stack.append((node.left, level + 1))
            lines.append(f"{'  ' * level}{label} rows={node.rows:.0f} cost={node.cost:.1f}")
        return "\n".join(lines)

    def structure(self) -> Tuple:
        """Nested-tuple encoding of the join structure (ignores costs).

        Useful in tests for comparing plan *shapes* across optimizers that
        should agree on the optimal join order.
        """
        encoded: Dict[int, Tuple] = {}
        for node in reversed(list(self.iter_nodes())):  # children first
            encoded[id(node)] = (
                (node.relation_index,) if node.is_leaf
                else (encoded.pop(id(node.left)), encoded.pop(id(node.right))))
        return encoded[id(self)]

    # ------------------------------------------------------------------ #
    # Value semantics (the dataclass-generated methods recurse per node)
    # ------------------------------------------------------------------ #
    def _fields(self) -> Tuple:
        return (self.relations, self.rows, self.cost, self.method,
                self.relation_index)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Plan) or other.__class__ is not self.__class__:
            return NotImplemented
        stack: List[Tuple[Optional[Plan], Optional[Plan]]] = [(self, other)]
        while stack:
            mine, theirs = stack.pop()
            if mine is theirs:
                continue
            if (mine is None or theirs is None
                    or mine.__class__ is not theirs.__class__
                    or mine._fields() != theirs._fields()):
                return False
            stack.append((mine.right, theirs.right))
            stack.append((mine.left, theirs.left))
        return True

    def __hash__(self) -> int:
        hashes: Dict[int, int] = {}
        for node in reversed(list(self.iter_nodes())):  # children first
            hashes[id(node)] = hash(node._fields() + (
                hashes.get(id(node.left)), hashes.get(id(node.right))))
        return hashes[id(self)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Plan(relations={bms.format_set(self.relations)}, rows={self.rows:.1f}, "
            f"cost={self.cost:.1f}, method={self.method})"
        )


def scan_plan(relation_index: int, rows: float, cost: float) -> Plan:
    """Build a base-relation scan plan."""
    return Plan(
        relations=bms.bit(relation_index),
        rows=rows,
        cost=cost,
        method=JoinMethod.SCAN,
        relation_index=relation_index,
    )


def join_plan(left: Plan, right: Plan, rows: float, cost: float, method: str) -> Plan:
    """Build a join plan over two disjoint subplans."""
    if left.relations & right.relations:
        raise ValueError("cannot join overlapping subplans")
    return Plan(
        relations=left.relations | right.relations,
        rows=rows,
        cost=cost,
        method=method,
        left=left,
        right=right,
    )
