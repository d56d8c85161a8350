"""Shared plumbing for the kernelized large-query heuristic drivers.

The kernelized heuristic drivers (IDP1, IDP2, UnionDP, LinDP) are the
paper's answer to 100-1000-relation queries, and its headline results
(Tables 1-2) come from running the *parallel* DP kernel as the inner exact
step.  Two pieces of
plumbing make that work here:

* :class:`HeuristicBackendMixin` — the standard ``backend=``/``workers=``
  knob (same names, same validation, same "backends only move time"
  bit-identity guarantee as the exact optimizers), threaded by each driver
  into its inner exact optimizer and into its own batched loops
  (:mod:`repro.exec.heuristic_kernels`).

* :func:`optimize_fragment` — fragment dispatch.  The kernels carry
  multi-word bitmap columns (:mod:`repro.core.widebitmap`), so a fragment
  of a 1000-relation graph optimizes *natively*, subset-scoped against the
  full-width graph — sharing the graph's per-run
  :class:`~repro.core.enumeration.EnumerationContext` caches across every
  fragment of a run.  Extraction into a compact renumbered sub-query
  (:meth:`~repro.core.query.QueryInfo.extract`) remains only as an
  explicitly requestable legacy route for benchmarking; both routes are
  bit-identical by construction (shared leaf plans, root-routed
  cardinalities, order-isomorphic enumeration), which
  ``benchmarks/bench_large_queries.py`` asserts at every size.
"""

from __future__ import annotations

from typing import Optional

from ..core.query import QueryInfo
from ..exec import AUTO_VECTORIZE_MIN_RELATIONS, BACKEND_NAMES, validate_workers
from ..optimizers.base import JoinOrderOptimizer, PlanResult

__all__ = ["HeuristicBackendMixin", "optimize_fragment", "FRAGMENT_DISPATCH"]

#: How :func:`optimize_fragment` routes wide-graph fragments: ``"native"``
#: (the default — subset-scoped on the full-width graph, multi-word kernel
#: columns) or ``"extract"`` (the legacy renumber-into-compact-sub-query
#: route, kept for the native-vs-extract benchmark comparison).  Results
#: are bit-identical either way; the toggle only moves time.
FRAGMENT_DISPATCH = "native"

#: Fragments at or below this relation count always take the subset-scoped
#: path, even under ``"extract"`` dispatch — extraction overhead cannot
#: pay for itself on tiny fragments, and the scalar loops are
#: width-agnostic anyway.
_EXTRACT_MIN_RELATIONS = 62


class HeuristicBackendMixin:
    """The ``backend=``/``workers=`` knob for heuristic drivers.

    Mirrors :class:`~repro.exec.backend.KernelOptimizerMixin` (same names,
    same validation) without its DP-table override: the drivers keep plain
    :class:`~repro.core.memo.MemoTable` state and hand the knob to (a) their
    inner exact optimizer and (b) their own batched loops.
    """

    #: Backends this driver can execute on (capability metadata).
    supported_backends = ("scalar", "vectorized", "multicore")
    #: The requested backend, forwarded to the inner exact optimizer.
    backend: str = "scalar"
    #: Worker-process count for the multicore backend (``None`` = auto).
    workers: Optional[int] = None

    def _init_backend(self, backend: str, workers: Optional[int] = None) -> None:
        if backend not in BACKEND_NAMES:
            raise ValueError(
                f"unknown kernel backend {backend!r}; choose one of "
                f"{', '.join(BACKEND_NAMES)}")
        validate_workers(workers)
        self.backend = backend
        self.workers = workers

    def _use_heuristic_kernels(self, batch_size: int) -> bool:
        """Whether this driver's own batched loops should run.

        ``batch_size`` is the number of items the batched loop would
        process — linear-order positions for LinearizedDP's merge,
        candidate edges for UnionDP's partition scan.  ``scalar`` keeps the
        reference loops; explicit ``vectorized`` / ``multicore`` requests
        always batch (the heuristic kernels are in-process either way — the
        multicore workers apply to the inner exact DP levels, not the
        driver's merge loops); ``auto`` additionally requires the batch to
        be large enough to amortize array setup (the same floor the exact
        kernels use for relation counts).
        """
        if self.backend == "scalar":
            return False
        if self.backend == "auto" and batch_size < AUTO_VECTORIZE_MIN_RELATIONS:
            return False
        return True


def optimize_fragment(exact: JoinOrderOptimizer, query: QueryInfo,
                      fragment: int) -> PlanResult:
    """Run ``exact`` on one fragment of ``query``.

    The default route is subset-scoped optimization against the full-width
    graph: the kernel columns are multi-word, so wide graphs need no
    renumbering, and every fragment of a run shares the graph's
    :class:`~repro.core.enumeration.EnumerationContext` caches.  The
    extract route (renumber the fragment into a compact sub-query first)
    runs only when :data:`FRAGMENT_DISPATCH` explicitly requests it.  The
    returned plan is expressed over the same (root-space) leaf plans either
    way, so results are bit-identical across the two routes — and across
    backends, because the route never depends on the backend.
    """
    if (fragment != query.all_relations_mask
            and query.graph.n_relations > _EXTRACT_MIN_RELATIONS
            and FRAGMENT_DISPATCH == "extract"):
        return exact.optimize(query.extract(fragment))
    return exact.optimize(query, subset=fragment)
