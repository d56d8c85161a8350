"""Shared plumbing for the kernelized large-query heuristic drivers.

The kernelized heuristic drivers (IDP1, IDP2, UnionDP, LinDP) are the
paper's answer to 100-1000-relation queries, and its headline results
(Tables 1-2) come from running the *parallel* DP kernel as the inner exact
step.  :class:`HeuristicBackendMixin` is the standard
``backend=``/``workers=`` knob (same names, same validation, same
"backends only move time" bit-identity guarantee as the exact optimizers),
threaded by each driver into its inner exact optimizer and into its own
batched loops (:mod:`repro.exec.heuristic_kernels`, and GOO's candidate
batches, which IDP2's seed inherits).

Every fragment runs on that inner optimizer as
``exact.optimize(query, subset=fragment)``: the kernels carry multi-word
bitmap columns (:mod:`repro.core.widebitmap`), so a fragment of a
1000-relation graph optimizes *natively*, subset-scoped against the
full-width graph — sharing the graph's per-run
:class:`~repro.core.enumeration.EnumerationContext` caches across every
fragment of a run.
"""

from __future__ import annotations

from ..exec import AUTO_VECTORIZE_MIN_RELATIONS, BackendKnobMixin

__all__ = ["HeuristicBackendMixin"]


class HeuristicBackendMixin(BackendKnobMixin):
    """The ``backend=``/``workers=`` knob for heuristic drivers.

    The shared knob (:class:`~repro.exec.backend.BackendKnobMixin`) without
    the exact optimizers' DP-table override: the drivers keep plain
    :class:`~repro.core.memo.MemoTable` state and hand the knob to (a) their
    inner exact optimizer and (b) their own batched loops.
    """

    def _use_heuristic_kernels(self, batch_size: int) -> bool:
        """Whether this driver's own batched loops should run.

        ``batch_size`` is the number of items the batched loop would
        process — linear-order positions for LinearizedDP's merge,
        candidate edges for UnionDP's partition scan, one merge's candidate
        joins for GOO.  ``scalar`` keeps the reference loops; explicit
        ``vectorized`` / ``multicore`` requests
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

