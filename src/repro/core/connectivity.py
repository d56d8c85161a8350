"""Connectivity primitives over the join graph.

These are the building blocks of every enumeration algorithm in the paper:

* :func:`grow` — the paper's *grow function* (Section 3.2.1): starting from a
  set of source nodes, repeatedly absorb every node of a *restricted* set that
  is adjacent to the current frontier, and return everything reached.
* :func:`is_connected` — whether the subgraph induced by a set is connected;
  implemented exactly as the paper describes (grow from an arbitrary vertex of
  the set, restricted to the set, then check whether everything was reached).
* :func:`connected_components` — the connected components of an induced
  subgraph, used by UnionDP and by the workload generators.
* :func:`iter_connected_subsets_of_size` — enumeration of the set ``S_i`` of
  all connected subsets of size ``i`` (Algorithm 1, line 5); offered both as a
  filter over unranked combinations (the GPU formulation) and as a
  neighbourhood-expansion enumerator that avoids materialising disconnected
  candidates (used by the CPU DP implementations for speed).
* :func:`count_ccp_pairs` — the query's CCP-Counter, i.e. the total number of
  csg–cmp pairs, computed independently of any optimizer so that tests can
  cross-check every algorithm's counter against it.

Since the introduction of the incremental enumeration engine
(:mod:`repro.core.enumeration`) these functions are thin compatibility
wrappers over a per-graph :class:`~repro.core.enumeration.EnumerationContext`:
results are memoized on the graph, and the level sets ``S_i`` are materialised
incrementally (``S_i`` from ``S_{i-1}``, each exactly once per scope) instead
of being re-derived from singletons at every call.  New code — in particular
the DP inner loops — should hold an ``EnumerationContext`` directly and call
its methods; these wrappers pay one context lookup per call.  The seed's
from-scratch enumerator, which ``benchmarks/bench_enumeration_engine.py``
measures the engine against, lives in that benchmark (see
``PERFORMANCE.md``).
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from . import bitmapset as bms
from .enumeration import EnumerationContext
from .joingraph import JoinGraph

__all__ = [
    "grow",
    "is_connected",
    "connected_components",
    "iter_connected_subsets_of_size",
    "iter_connected_subsets_bruteforce",
    "count_ccp_pairs",
    "count_connected_subsets",
]


def grow(graph: JoinGraph, source: int, restricted: int) -> int:
    """Return every node of ``restricted`` reachable from ``source``.

    ``source`` must be a subset of ``restricted``.  This is the paper's grow
    function: iteratively add every restricted node adjacent to the current
    set until a fixpoint is reached.
    """
    return EnumerationContext.of(graph).grow(source, restricted)


def is_connected(graph: JoinGraph, mask: int) -> bool:
    """True if the subgraph induced by ``mask`` is connected.

    The empty set is not connected; a singleton is.
    """
    return EnumerationContext.of(graph).is_connected(mask)


def connected_components(graph: JoinGraph, mask: int) -> List[int]:
    """Connected components of the subgraph induced by ``mask`` (as bitmaps)."""
    return EnumerationContext.of(graph).connected_components(mask)


def _is_connected_uncached(graph: JoinGraph, mask: int) -> bool:
    """Cache-free connectivity check used by the brute-force oracle."""
    if mask == 0:
        return False
    reached = frontier = mask & -mask
    while frontier:
        raw = 0
        for vertex in bms.iter_bits(frontier):
            raw |= graph.adjacency(vertex)
        frontier = raw & mask & ~reached
        reached |= frontier
    return reached == mask


def iter_connected_subsets_bruteforce(graph: JoinGraph, size: int) -> Iterator[int]:
    """Enumerate connected subsets of ``size`` relations by unrank-and-filter.

    This mirrors the GPU pipeline's *unrank* + *filter* phases: generate every
    ``C(n, size)`` combination and keep the connected ones.  Exponential in
    ``n`` — use :func:`iter_connected_subsets_of_size` in CPU code.  The
    implementation is deliberately self-contained (no shared caches) so the
    test suite can use it as an independent oracle for the incremental index.
    """
    n = graph.n_relations
    if size <= 0 or size > n:
        return
    if size == 1:
        for v in range(n):
            yield bms.bit(v)
        return
    mask = (1 << size) - 1
    limit = 1 << n
    while mask < limit:
        if _is_connected_uncached(graph, mask):
            yield mask
        mask = bms.next_combination(mask)
        if mask == 0:
            break


def iter_connected_subsets_of_size(graph: JoinGraph, size: int,
                                   within: Optional[int] = None) -> Iterator[int]:
    """Enumerate every connected subset with exactly ``size`` members.

    Serves the level from the graph's incremental
    :class:`~repro.core.enumeration.ConnectedSubsetIndex`: ``S_size`` is
    materialised from ``S_{size-1}`` exactly once per ``(graph, within)``
    scope and then handed out as a cached, sorted tuple — repeated calls (one
    per DP level) no longer re-expand from singletons.

    ``within`` optionally restricts the enumeration to subsets of the given
    vertex bitmap.  This matters when a heuristic (IDP2, UnionDP, LinDP) asks
    an exact algorithm to optimize a small fragment of a huge query: without
    the restriction the enumeration would walk every connected subset of the
    whole graph only to discard almost all of them.
    """
    yield from EnumerationContext.of(graph).connected_subsets(size, within)


def count_connected_subsets(graph: JoinGraph, size: int,
                            within: Optional[int] = None) -> int:
    """Number of connected subsets of exactly ``size`` relations."""
    return len(EnumerationContext.of(graph).connected_subsets(size, within))


def count_ccp_pairs(graph: JoinGraph) -> int:
    """Total number of CCP-Pairs of the query, including symmetric ones.

    This is the paper's *CCP-Counter* lower bound: for every connected subset
    ``S`` (|S| >= 2) count every split ``(S_left, S_right)`` with both sides
    connected, disjoint, covering ``S`` and joined by at least one edge.  The
    value is identical for every optimal DP algorithm (Section 2.1), so tests
    use this function as ground truth for each optimizer's CCP counter.
    """
    context = EnumerationContext.of(graph)
    total = 0
    for size in range(2, graph.n_relations + 1):
        for subset in context.connected_subsets(size):
            for left in bms.iter_proper_nonempty_subsets(subset):
                right = subset & ~left
                if not context.is_connected(left):
                    continue
                if not context.is_connected(right):
                    continue
                if not context.is_connected_to(left, right):
                    continue
                total += 1
    return total
