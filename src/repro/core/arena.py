"""Plan arena: a structure-of-arrays DP table with lazy plan materialization.

The classic :class:`~repro.core.memo.MemoTable` stores one immutable
:class:`~repro.core.plan.Plan` object per relation set and builds a throwaway
``Plan`` for *every* evaluated CCP pair — on a 14-relation clique that is
millions of short-lived Python objects whose only purpose is to lose a cost
comparison.  The vectorized kernel backend
(:mod:`repro.exec.vectorized`) instead computes whole DP levels as flat
arrays and only needs, per subset, the *winning* split.  :class:`PlanArena`
is the matching table: three parallel columns per entry —

* ``cost``  — best cost found for the subset,
* ``rows``  — estimated output cardinality of the subset,
* ``split`` — the winning ``(left_mask, right_mask)`` pair (absent for
  leaves, whose access plans are stored directly),

plus the subset key itself.  No ``Plan`` is built during the DP sweep; the
final plan (and any memo entry a consumer asks for) is materialized *lazily*
by backtracking the stored splits through :meth:`QueryInfo.join
<repro.core.query.QueryInfo.join>`, which — because every cost model is a
deterministic function of its inputs — reproduces bit-identical costs,
cardinalities and join methods.

The arena exposes the :class:`~repro.core.memo.MemoTable` surface
(``get``/``__getitem__``/``put``/``items``/``keys_of_size``/``__len__``) so
downstream consumers — the GPU hash-table replay, tests, ``PlanResult.memo``
users — cannot tell which table an optimizer ran on; materialization happens
behind the accessors.  Entries are kept in first-insertion order exactly like
the memo's backing dict, so iteration order (and therefore e.g. simulated GPU
hash-probe sequences) is identical between backends.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from . import bitmapset as bms
from .plan import Plan

__all__ = ["PlanArena"]


class PlanArena:
    """Structure-of-arrays DP table: best (cost, rows, split) per subset."""

    def __init__(self, query) -> None:
        #: The query whose :meth:`~repro.core.query.QueryInfo.join` and
        #: leaf plans drive backtracking materialization.
        self._query = query
        #: mask -> column index (also the first-insertion order).
        self._index: Dict[int, int] = {}
        # The SoA columns, parallel and append-only (cells may be updated).
        self._keys: List[int] = []
        self._cost: List[float] = []
        self._rows: List[float] = []
        self._split: List[Optional[Tuple[int, int]]] = []
        #: Materialized plans: leaves eagerly (they are handed in as plans),
        #: join entries lazily on first access.
        self._plans: Dict[int, Plan] = {}
        self._keys_by_size: Dict[int, List[int]] = {}
        #: Table-implementation metrics, like :class:`MemoTable`'s.  They
        #: count this table's own operations (one ``record_level`` entry =
        #: one update), NOT the scalar path's per-pair ``put`` calls — the
        #: cross-backend bit-identity contract covers plans, costs, the
        #: ``OptimizerStats`` counters and entry iteration order, not these.
        self.n_updates = 0
        self.n_improvements = 0

    # ------------------------------------------------------------------ #
    # MemoTable-compatible surface
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: int) -> bool:
        return key in self._index

    def get(self, key: int) -> Optional[Plan]:
        """Best plan for ``key`` (materialized on demand), or None."""
        if key not in self._index:
            return None
        return self._materialize(key)

    def __getitem__(self, key: int) -> Plan:
        if key not in self._index:
            raise KeyError(f"no plan memoised for vertex set {bms.format_set(key)}")
        return self._materialize(key)

    def put(self, key: int, plan: Plan) -> bool:
        """Store ``plan`` if it is the cheapest seen for ``key``.

        Mirrors :meth:`MemoTable.put` exactly (strict ``<``, so the first
        plan to reach a cost is kept).  ``_init_leaves`` seeds the leaves
        through here; the array backends never call it — they record whole
        levels with :meth:`record_level`.
        """
        self.n_updates += 1
        slot = self._index.get(key)
        if slot is None:
            self._append(key, plan.cost, plan.rows, None)
            self._plans[key] = plan
            self.n_improvements += 1
            return True
        if plan.cost < self._cost[slot]:
            self._cost[slot] = plan.cost
            self._rows[slot] = plan.rows
            self._split[slot] = None
            self._plans[key] = plan
            self.n_improvements += 1
            return True
        return False

    def items(self) -> Iterator[Tuple[int, Plan]]:
        """Iterate ``(vertex_set, best_plan)`` in first-insertion order.

        Materializes every entry still stored as a split.
        """
        for key in self._keys:
            yield key, self._materialize(key)

    def keys_of_size(self, size: int) -> List[int]:
        """All stored vertex sets with ``size`` members, insertion-ordered."""
        return list(self._keys_by_size.get(size, ()))

    def clear(self) -> None:
        """Remove every entry and reset statistics."""
        self._index.clear()
        self._keys.clear()
        self._cost.clear()
        self._rows.clear()
        self._split.clear()
        self._plans.clear()
        self._keys_by_size.clear()
        self.n_updates = 0
        self.n_improvements = 0

    # ------------------------------------------------------------------ #
    # Columnar surface (the vectorized backend's entry points)
    # ------------------------------------------------------------------ #
    def record_level(self, keys: Sequence[int], costs: Sequence[float],
                     rows: Sequence[float], lefts: Sequence[int],
                     rights: Sequence[int],
                     size: Optional[int] = None) -> None:
        """Bulk-insert one DP level's winners, in the given order.

        Every key must be new (subset-driven DP plans each connected set
        exactly once, at its size level); the scatter-min that chose the
        winners already applied the memo's first-cheapest-wins rule, so each
        entry arrives final.  Counter semantics match one successful
        ``put`` per key.

        ``size`` is the shared member count of every key in the level (a DP
        level inserts one size class by construction); passing it skips the
        per-key popcount, which on wide graphs is an arbitrary-precision
        walk per mask.
        """
        bucket = (None if size is None
                  else self._keys_by_size.setdefault(size, []))
        for key, cost, out_rows, left, right in zip(keys, costs, rows, lefts, rights):
            key = int(key)
            if key in self._index:
                raise ValueError(
                    f"arena already holds {bms.format_set(key)}; record_level "
                    "is for fresh per-level winners")
            if bucket is None:
                self._append(key, float(cost), float(out_rows),
                             (int(left), int(right)))
            else:
                self._index[key] = len(self._keys)
                self._keys.append(key)
                self._cost.append(float(cost))
                self._rows.append(float(out_rows))
                self._split.append((int(left), int(right)))
                bucket.append(key)
        self.n_updates += len(keys)
        self.n_improvements += len(keys)

    def columns(self) -> Tuple[List[int], List[float], List[float]]:
        """The ``(keys, costs, rows)`` columns in first-insertion order.

        The returned lists are live views of the arena's storage, not
        copies.  Callers snapshot them (e.g. into numpy arrays) and must
        not hold a snapshot across a mutation — the array backends'
        snapshot builder copies the entries appended since its last refresh
        at the start of every DP level.
        """
        return self._keys, self._cost, self._rows

    def cost_of(self, key: int) -> float:
        """Best cost stored for ``key`` (no materialization)."""
        return self._cost[self._index[key]]

    def rows_of(self, key: int) -> float:
        """Estimated cardinality stored for ``key`` (no materialization)."""
        return self._rows[self._index[key]]

    def split_of(self, key: int) -> Optional[Tuple[int, int]]:
        """The winning ``(left, right)`` masks, or None for direct plans."""
        return self._split[self._index[key]]

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _append(self, key: int, cost: float, rows: float,
                split: Optional[Tuple[int, int]]) -> None:
        self._index[key] = len(self._keys)
        self._keys.append(key)
        self._cost.append(cost)
        self._rows.append(rows)
        self._split.append(split)
        self._keys_by_size.setdefault(bms.popcount(key), []).append(key)

    def _materialize(self, key: int) -> Plan:
        """Backtrack the stored splits into a real plan tree (cached).

        Rebuilding goes through ``query.join``, i.e. the same cost-model and
        cardinality calls the scalar path made per pair, so the materialized
        plan is bit-identical to the one the memo-table path would have kept;
        the cost cross-check below enforces the ``cost_batch`` contract.
        """
        plan = self._plans.get(key)
        if plan is not None:
            return plan
        split = self._split[self._index[key]]
        if split is None:  # pragma: no cover - direct plans are always cached
            raise KeyError(f"arena entry {bms.format_set(key)} has no plan or split")
        left_mask, right_mask = split
        left_plan = self._materialize(left_mask)
        right_plan = self._materialize(right_mask)
        plan = self._query.join(left_mask, right_mask, left_plan, right_plan)
        stored = self._cost[self._index[key]]
        if plan.cost != stored:
            raise RuntimeError(
                f"cost_batch drift for {bms.format_set(key)}: batched kernel "
                f"stored {stored!r} but materialization produced "
                f"{plan.cost!r}; the cost model's cost_batch must be "
                "bit-identical to join()")
        self._plans[key] = plan
        return plan

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PlanArena(entries={len(self._keys)}, "
                f"materialized={len(self._plans)})")
