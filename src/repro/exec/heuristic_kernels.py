"""Batched kernels for the large-query heuristic ladder.

The exact algorithms got their kernel pipeline in :mod:`repro.exec.vectorized`
(per-level unrank / filter / evaluate / scatter-min).  The heuristics that
plan 100-1000-relation queries have their own inner loops that dominate at
that scale, and this module gives two of them the same treatment:

* :func:`lindp_merge` — LinearizedDP's quadratic interval-merge loop as one
  batched kernel per DP length: candidate splits of every same-length
  interval are validated with a 2-D prefix-sum rectangle test over the
  linear order's adjacency matrix (position space — width-free, like the
  exact kernels' multi-word bitmap columns), costed
  with a single :meth:`~repro.cost.base.CostModel.cost_batch` call, and
  reduced per interval with the scalar loop's first-cheapest-wins rule.
  Interval output cardinalities come from the estimator's one fold kernel
  (:meth:`~repro.cost.cardinality.CardinalityEstimator.fold_rows`), which
  selects each interval's terms by its position bounds.
  Plans are materialised only for the winning split tree (O(n) joins instead
  of one Plan object per valid split), with an arena-style drift check that
  the materialised root cost equals the DP's batched cost.
* :func:`greedy_union_partition` — UnionDP's greedy min-edge scan
  (Algorithm 4's partition phase) as array reductions: per union round the
  admissible edge with the lexicographically smallest ``(combined size,
  weight, scan position)`` key is found with masked ``min``/``argmax``
  passes over endpoint-root columns instead of a Python rescan of every
  edge, and root columns are rewritten in bulk after each union.

GOO batches each merge's candidate joins through
:meth:`~repro.core.query.QueryInfo.rows_batch` in its own loop
(:mod:`repro.heuristics.goo`).  The pair scans (GOO's initial heap, IDP1's
seed edge, UnionDP's edge weights) stay scalar loops over ``query.rows``:
each pair estimate is one O(1) lookup through the estimator's two-relation
fast path.

Every kernel is bit-identical to the scalar loop it replaces — same plans,
same costs, same counters — so the heuristics can expose the standard
``backend=`` knob with the same "backends only move time" guarantee the
exact optimizers make.
"""

from __future__ import annotations

from itertools import accumulate
from operator import or_
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core import bitmapset as bms
from ..core.contracts import kernel
from ..core.counters import OptimizerStats
from ..core.plan import Plan
from ..core.query import QueryInfo
from ..core.unionfind import UnionFind
from ..cost.cardinality import estimator_overrides_rows

__all__ = [
    "lindp_merge",
    "greedy_union_partition",
]


# --------------------------------------------------------------------------- #
# LinearizedDP: batched interval merge
# --------------------------------------------------------------------------- #
@kernel
def lindp_merge(query: QueryInfo, order: Sequence[int],
                stats: OptimizerStats) -> Optional[Plan]:
    """DP over contiguous intervals of ``order``, one batch per length.

    Returns the best plan of the full interval, or ``None`` when no
    connected plan exists (the caller raises the scalar path's error).

    Bit-identity with the scalar loop in
    :meth:`repro.heuristics.lindp.LinearizedDP._run` rests on three pins:
    candidate splits keep their ascending in-interval rank and the winner is
    the *first* strict cost minimum (``argmin``'s tie rule == the scalar
    ``<`` update); costs come from ``cost_batch``, whose contract is
    bit-equality with ``join()``; and interval output cardinalities come
    from the estimator's ``fold_schedule`` / ``fold_rows``, which select
    each interval's terms by its position bounds and add them in
    ``rows()``'s term order, so every estimate equals the scalar one bit
    for bit.
    """
    n = len(order)
    if n == 1:
        return query.leaf_plan(order[0])

    # Prefix masks of the order (arbitrary-width Python ints — these never
    # enter an int64 array): the bits are disjoint, so interval [i, j] is
    # prefix_mask[j + 1] ^ prefix_mask[i], computed only where it is read.
    prefix_mask = list(accumulate(map(bms.bit, order), or_, initial=0))

    # DP tables over (start, end) positions.
    cost = np.full((n, n), np.inf)
    rows = np.zeros((n, n))
    has = np.zeros((n, n), dtype=bool)
    split_of = np.full((n, n), -1, dtype=np.int64)
    for i, vertex in enumerate(order):  # loop: positions — per-leaf DP seed
        leaf = query.leaf_plan(vertex)
        cost[i, i] = leaf.cost
        rows[i, i] = leaf.rows
        has[i, i] = True

    # Adjacency of the linear order in position space, plus 2-D prefix sums:
    # "some edge crosses [i..s] x [s+1..j]" becomes one rectangle-count
    # comparison, replacing the scalar per-split is_connected_to probe.
    graph = query.graph
    scope = prefix_mask[n]
    position_of = {vertex: p for p, vertex in enumerate(order)}
    member = np.zeros((n, n), dtype=np.int64)
    for p, vertex in enumerate(order):  # loop: positions — adjacency membership setup
        for neighbour in bms.iter_bits(graph.adjacency(vertex) & scope):  # loop: neighbours
            member[p, position_of[neighbour]] = 1
    prefix = np.zeros((n + 1, n + 1), dtype=np.int64)
    prefix[1:, 1:] = np.cumsum(np.cumsum(member, axis=0), axis=1)

    # Interval output cardinalities: position p of the order is the local
    # bit of vertex order[p], so the root estimator's fold schedule gives
    # each term the positions it needs, and interval [start, end] holds
    # the terms with start <= near and far <= end.
    estimator = query.root.cardinality
    fold_ok = not estimator_overrides_rows(estimator)
    if fold_ok:
        values, near, far = estimator.fold_schedule(
            [query.vertex_masks[vertex] for vertex in order])

    def interval_rows(starts, length):
        if not fold_ok:
            # A custom estimator (e.g. a q-error PerturbedEstimator) must
            # observe every interval through rows(); the fold adds the base
            # terms and would bypass the override.
            return np.array(
                [query.rows(prefix_mask[start + length] ^ prefix_mask[start])
                 for start in starts.tolist()],
                dtype=np.float64)

        def select(first, stop):
            low = starts[first:stop, None]
            return (low <= near) & (far < low + length)

        return estimator.fold_rows(values, select, len(starts))

    model = query.cost_model
    for length in range(2, n + 1):  # loop: lengths — one batch per interval length
        m = n - length + 1
        starts = np.arange(m)
        ends = starts + length - 1
        splits = starts[:, None] + np.arange(length - 1)[None, :]

        pair_ok = has[starts[:, None], splits] & has[splits + 1, ends[:, None]]
        n_pairs = int(pair_ok.sum())
        upper = splits + 1
        rect = (prefix[upper, ends[:, None] + 1]
                - prefix[starts[:, None], ends[:, None] + 1]
                - prefix[upper, upper]
                + prefix[starts[:, None], upper])
        valid = pair_ok & (rect > 0)
        n_ccp = int(valid.sum())
        stats.record_pairs(length, n_pairs, n_ccp)
        if n_ccp == 0:
            continue

        # Only intervals with a valid split use their estimate (as in the
        # scalar loop, which estimates through join()).
        has_split = valid.any(axis=1)
        out = np.zeros(m)
        out[has_split] = interval_rows(starts[has_split], length)
        vrow, vcol = np.nonzero(valid)
        split_abs = splits[vrow, vcol]
        candidate_cost = np.full(valid.shape, np.inf)
        candidate_cost[vrow, vcol] = model.cost_batch(
            rows[vrow, split_abs], cost[vrow, split_abs],
            rows[split_abs + 1, ends[vrow]], cost[split_abs + 1, ends[vrow]],
            out[vrow])
        # First strict minimum per interval == the scalar loop's ascending
        # split scan with a strict `<` update.
        win = np.argmin(candidate_cost, axis=1)
        best = candidate_cost[np.arange(m), win]
        found = np.isfinite(best)
        stats.record_sets(length, int(found.sum()))
        has[starts[found], ends[found]] = True
        cost[starts[found], ends[found]] = best[found]
        rows[starts[found], ends[found]] = out[found]
        split_of[starts[found], ends[found]] = starts[found] + win[found]

    if not has[0, n - 1]:
        return None

    # Materialise only the winning split tree (iterative post-order walk so
    # 1000-interval chains do not hit the recursion limit).
    plans: dict = {}
    stack: List[Tuple[int, int, bool]] = [(0, n - 1, False)]
    while stack:  # loop: plan-tree — winning-split materialisation walk
        i, j, expanded = stack.pop()
        if i == j:
            plans[(i, j)] = query.leaf_plan(order[i])
            continue
        s = int(split_of[i, j])
        if not expanded:
            stack.append((i, j, True))
            stack.append((i, s, False))
            stack.append((s + 1, j, False))
            continue
        plans[(i, j)] = query.join(prefix_mask[s + 1] ^ prefix_mask[i],
                                   prefix_mask[j + 1] ^ prefix_mask[s + 1],
                                   plans[(i, s)], plans[(s + 1, j)])
    plan = plans[(0, n - 1)]
    if plan.cost != cost[0, n - 1]:
        raise RuntimeError(
            "lindp_merge: materialised plan cost diverged from the batched DP "
            f"cost ({plan.cost!r} != {cost[0, n - 1]!r}); the cost model's "
            "cost_batch broke the bit-identity contract")
    return plan


# --------------------------------------------------------------------------- #
# UnionDP: batched greedy partition scan
# --------------------------------------------------------------------------- #
@kernel
def greedy_union_partition(
        uf: UnionFind, k: int,
        weighted_edges: Sequence[Tuple[float, int, int]]) -> None:
    """Run UnionDP's greedy union rounds with array scans, mutating ``uf``.

    Each round unions the edge minimising ``(combined partition size,
    weight, scan position)`` among edges whose merged partition would not
    exceed ``k`` — exactly the scalar loop's strict-``<`` first-minimum
    choice over its (pop-compacted) active list: popped edges are connected
    forever after, so skipping them by root equality preserves the relative
    scan order the compaction produced.
    """
    n_edges = len(weighted_edges)
    if n_edges == 0:
        return
    weight = np.fromiter((entry[0] for entry in weighted_edges),
                         np.float64, n_edges)
    left = np.fromiter((entry[1] for entry in weighted_edges),
                       np.int64, n_edges)
    right = np.fromiter((entry[2] for entry in weighted_edges),
                        np.int64, n_edges)
    left_root = np.fromiter((uf.find(int(v)) for v in left), np.int64, n_edges)
    right_root = np.fromiter((uf.find(int(v)) for v in right), np.int64, n_edges)
    size = np.ones(uf.n, dtype=np.int64)
    for root in np.unique(np.concatenate([left_root, right_root])):  # loop: roots — seed sizes of touched partitions
        size[root] = uf.set_size(int(root))

    while True:  # loop: rounds — one union per round
        combined = size[left_root] + size[right_root]
        admissible = (left_root != right_root) & (combined <= k)
        if not admissible.any():
            break
        masked_combined = np.where(admissible, combined, k + 1)
        min_combined = masked_combined.min()
        size_tied = masked_combined == min_combined
        masked_weight = np.where(size_tied, weight, np.inf)
        min_weight = masked_weight.min()
        index = int(np.argmax(size_tied & (masked_weight == min_weight)))

        edge_left = int(left[index])
        edge_right = int(right[index])
        old_left = left_root[index]
        old_right = right_root[index]
        uf.union(edge_left, edge_right)
        new_root = uf.find(edge_left)
        size[new_root] = uf.set_size(edge_left)
        stale = (left_root == old_left) | (left_root == old_right)
        left_root[stale] = new_root
        stale = (right_root == old_left) | (right_root == old_right)
        right_root[stale] = new_root
