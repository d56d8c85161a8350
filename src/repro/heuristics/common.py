"""Shared plumbing for the kernelized large-query heuristic drivers.

The kernelized heuristic drivers (IDP1, IDP2, UnionDP, LinDP) are the
paper's answer to 100-1000-relation queries, and its headline results
(Tables 1-2) come from running the *parallel* DP kernel as the inner exact
step.  :class:`HeuristicBackendMixin` is the standard
``backend=``/``workers=`` knob (same names, same validation, same
"backends only move time" bit-identity guarantee as the exact optimizers),
threaded by each driver into its inner exact optimizer and into its own
batched loops (:mod:`repro.exec.heuristic_kernels`).

Every fragment runs on that inner optimizer as
``exact.optimize(query, subset=fragment)``: the kernels carry multi-word
bitmap columns (:mod:`repro.core.widebitmap`), so a fragment of a
1000-relation graph optimizes *natively*, subset-scoped against the
full-width graph — sharing the graph's per-run
:class:`~repro.core.enumeration.EnumerationContext` caches across every
fragment of a run.
"""

from __future__ import annotations

from typing import Optional

from ..exec import AUTO_VECTORIZE_MIN_RELATIONS, BACKEND_NAMES, validate_workers

__all__ = ["HeuristicBackendMixin"]


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

