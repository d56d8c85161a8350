"""Machine-checkable contract markers for the kernel execution paths.

The repository's correctness contracts (scalar/kernel bit-identity,
estimator-override fall-back, lock discipline) used to live only in
docstrings.  :mod:`repro.analysis.lint` enforces them statically; this module
holds the *runtime-visible* side of those markers so that source code can
opt in without importing the analyzer.

Only :func:`kernel` lives here today.  It is dependency-free on purpose:
``repro.core`` and ``repro.exec`` modules must be able to mark their kernel
functions without creating an import cycle back into the analysis
package.
"""

from __future__ import annotations

from typing import Callable, TypeVar

__all__ = ["kernel"]

_F = TypeVar("_F", bound=Callable[..., object])


def kernel(func: _F) -> _F:
    """Mark ``func`` as a batched kernel (contract marker, no-op at runtime).

    A kernel function operates on whole numpy batches: per-element Python
    ``for``/``while`` loops inside it are a performance bug unless the loop
    runs over a *small structural axis* (words of a bitset column, DP blocks,
    dispatch chunks) rather than over the batch elements themselves.  The
    ``kernel-loop`` rule of :mod:`repro.analysis.lint` flags every loop
    statement in a kernel-marked function that does not carry a
    ``# loop: <axis>`` annotation naming the non-element axis it iterates;
    ``kernel-clock`` additionally bans wall-clock reads (``time.time()``)
    inside kernels so shard timings stay the caller's concern.

    The decorator itself changes nothing — it exists so the contract is
    greppable, importable and enforceable.
    """
    return func
