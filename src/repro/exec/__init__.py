"""Pluggable kernel execution backends for the level-parallel DP optimizers.

See :mod:`repro.exec.backend` for the :class:`KernelBackend` protocol and the
scalar reference implementation, :mod:`repro.exec.vectorized` for the batched
numpy backend, and :mod:`repro.exec.multicore` for the sharded worker-process
backend.  ``VectorizedBackend`` and ``MulticoreBackend`` live in their own
modules; :func:`resolve_backend` imports them on first use, because both
modules import :mod:`repro.exec.backend`.
"""

from .backend import (
    AUTO_MULTICORE_MIN_RELATIONS,
    AUTO_VECTORIZE_MIN_RELATIONS,
    BACKEND_NAMES,
    KernelBackend,
    KernelOptimizerMixin,
    KernelState,
    ScalarBackend,
    iter_tree_edge_splits,
    resolve_backend,
    validate_workers,
    words_for,
)
from .heuristic_kernels import greedy_union_partition, lindp_merge

__all__ = [
    "AUTO_MULTICORE_MIN_RELATIONS",
    "AUTO_VECTORIZE_MIN_RELATIONS",
    "BACKEND_NAMES",
    "KernelBackend",
    "KernelOptimizerMixin",
    "KernelState",
    "ScalarBackend",
    "greedy_union_partition",
    "iter_tree_edge_splits",
    "lindp_merge",
    "resolve_backend",
    "validate_workers",
    "words_for",
]
