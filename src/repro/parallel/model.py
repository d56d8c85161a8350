"""Multi-core CPU parallel-execution model.

The paper evaluates ``MPDP (24 CPU)``, ``DPE (24 CPU)`` and ``PDP`` on a
dual-socket Xeon with 24 cores.  CPython cannot demonstrate those speedups
directly (the GIL serialises the enumeration code), so — as documented in
DESIGN.md — the multi-threaded runs are *modelled*: every optimizer records
how much of its work falls into each DP level and how much of it is
independent, and this module converts those counters into simulated
multi-threaded times.

Model
-----

Work is expressed in seconds of single-core time using per-operation constants
calibrated to a C implementation (an enumeration step costs tens of
nanoseconds, a cost-function evaluation a few hundred).  For a given thread
count ``t``:

* **Level-parallel algorithms** (DPsize/PDP, DPsub, MPDP): within one DP
  level every pair evaluation is independent; only the per-level set-up and
  the memo merge are sequential.  The parallel part is divided by an
  *effective* thread count that degrades beyond ``cache_saturation_threads``
  concurrent workers — the paper observes MPDP "scales sub-linearly beyond 6
  threads since the CPU caches get swapped out" (Section 7.4).

* **Producer/consumer algorithms** (DPE): the producer enumerates pairs
  sequentially and consumers cost them in parallel, so the enumeration time
  ``pairs * enumerate_seconds`` is a hard sequential floor and only the
  costing benefits from threads.  This is why DPE's speedup saturates early
  in Figure 12.

The model never changes which plan is produced; it only assigns a simulated
wall-clock time to the work an optimizer has already done.

Calibration against reality
---------------------------

Since the multicore kernel backend (:mod:`repro.exec.multicore`) executes DP
levels across real worker processes, the simulated curves can be checked
against *measured* wall-clock speedups
(``benchmarks/bench_fig12_real_scalability.py``).  Three hooks support
that: :func:`measured_speedup_curve` turns raw per-worker wall-clock times
into a Figure 12-style speedup curve, :func:`curve_shape_divergence`
quantifies how far two normalised curves diverge (max absolute log-ratio —
0.0 means identical shape, 0.3 means one curve is at worst ~35% off), and
:meth:`ParallelCPUModel.fit_contention` re-fits the model's contention
factor to a measured curve, which is how the shipped constants were
sanity-checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Mapping, Optional

from ..core.counters import OptimizerStats

__all__ = [
    "CPUCostConstants",
    "ParallelCPUModel",
    "speedup_curve",
    "measured_speedup_curve",
    "curve_shape_divergence",
]


@dataclass(frozen=True)
class CPUCostConstants:
    """Per-operation single-core costs (seconds), calibrated to native code."""

    #: Enumerating / CCP-checking one candidate join pair.
    check_seconds: float = 30e-9
    #: Running the PostgreSQL-like cost function on one valid pair.
    cost_seconds: float = 250e-9
    #: DPccp/DPE per-pair enumeration work (neighbourhood expansion).
    enumerate_seconds: float = 120e-9
    #: Per planned set: memo update and bookkeeping.
    set_seconds: float = 80e-9
    #: DPE's dependency-aware buffer insert/remove per pair.
    buffer_seconds: float = 60e-9
    #: Per-level sequential overhead (task partitioning, barriers).
    level_overhead_seconds: float = 20e-6


@dataclass(frozen=True)
class ParallelCPUModel:
    """Simulated multi-threaded optimization time for a recorded run."""

    constants: CPUCostConstants = CPUCostConstants()
    #: Threads beyond which per-thread memory bandwidth starts to degrade.
    cache_saturation_threads: int = 6
    #: Strength of the degradation (0 = perfect scaling past saturation).
    contention_factor: float = 0.035

    # ------------------------------------------------------------------ #
    def effective_threads(self, threads: int) -> float:
        """Usable parallelism after cache/memory-bandwidth contention."""
        if threads <= 0:
            raise ValueError("thread count must be positive")
        if threads <= self.cache_saturation_threads:
            return float(threads)
        extra = threads - self.cache_saturation_threads
        return self.cache_saturation_threads + extra / (1.0 + self.contention_factor * extra)

    # ------------------------------------------------------------------ #
    def level_parallel_time(self, stats: OptimizerStats, threads: int) -> float:
        """Simulated time for level-parallel algorithms (MPDP, DPsub, DPsize, PDP)."""
        c = self.constants
        effective = self.effective_threads(threads)
        total = 0.0
        levels = sorted(set(stats.level_pairs) | set(stats.level_sets))
        for level in levels:
            pairs = stats.level_pairs.get(level, 0)
            valid = stats.level_ccp.get(level, 0)
            sets_planned = stats.level_sets.get(level, 0)
            parallel_work = pairs * c.check_seconds + valid * c.cost_seconds
            sequential_work = sets_planned * c.set_seconds + c.level_overhead_seconds
            total += sequential_work + parallel_work / effective
        return total

    def producer_consumer_time(self, stats: OptimizerStats, threads: int) -> float:
        """Simulated time for DPE's producer/consumer execution."""
        c = self.constants
        effective = self.effective_threads(threads)
        pairs = stats.evaluated_pairs
        valid = stats.ccp_pairs
        producer = pairs * (c.enumerate_seconds + c.buffer_seconds)
        consumer = valid * c.cost_seconds / max(effective - 1.0, 1.0)
        memo_merge = stats.connected_sets * c.set_seconds
        # Producer and consumers overlap; the run finishes when the slower of
        # the two pipelines drains, plus the sequential memo merge.
        return max(producer, consumer) + memo_merge

    def sequential_time(self, stats: OptimizerStats) -> float:
        """Simulated single-core time (used to normalise speedup curves)."""
        c = self.constants
        return (
            stats.evaluated_pairs * c.check_seconds
            + stats.ccp_pairs * c.cost_seconds
            + stats.connected_sets * c.set_seconds
        )

    # ------------------------------------------------------------------ #
    def simulate(self, stats: OptimizerStats, threads: int,
                 algorithm: Optional[str] = None, *,
                 execution_style: Optional[str] = None) -> float:
        """Simulated time for a recorded run with ``threads`` workers.

        Dispatch is driven by the optimizer's declared ``execution_style``
        (see :class:`~repro.optimizers.base.OptimizerCapabilities`):
        ``"producer_consumer"`` uses the producer/consumer model, every
        other style the level-parallel model (with ``threads=1`` both reduce
        to the same sequential sum, modulo the per-level overheads).

        When only an ``algorithm`` name is given, the style is resolved
        through the planner's :data:`~repro.planner.registry.DEFAULT_REGISTRY`;
        a name the registry does not know raises :class:`ValueError` — pass
        ``execution_style`` for unregistered optimizers.  One of the two
        must be given.
        """
        if execution_style is None:
            if algorithm is None:
                raise ValueError(
                    "simulate() needs either an algorithm name or an "
                    "explicit execution_style")
            execution_style = self._resolve_style(algorithm)
        if execution_style == "producer_consumer":
            return self.producer_consumer_time(stats, threads)
        return self.level_parallel_time(stats, threads)

    def fit_contention(self, stats: OptimizerStats,
                       measured: Mapping[int, float], *,
                       execution_style: str = "level_parallel",
                       grid: Optional[Iterable[float]] = None,
                       ) -> "ParallelCPUModel":
        """A copy of this model with ``contention_factor`` re-fit to reality.

        ``measured`` maps worker counts to *measured* speedups over the
        one-worker run (see :func:`measured_speedup_curve`).  The factor is
        chosen from ``grid`` (default: 0.00 .. 0.50 in steps of 0.005) to
        minimise the summed squared log-ratio between the simulated and
        measured speedup curves on the measured worker counts — log space,
        so relative (not absolute) deviations are penalised, matching how
        Figure 12 curves are read.
        """
        if not measured:
            raise ValueError("fit_contention needs at least one measured point")
        candidates = (tuple(grid) if grid is not None
                      else tuple(step * 0.005 for step in range(101)))
        best_factor = self.contention_factor
        best_error = math.inf
        for factor in candidates:
            model = replace(self, contention_factor=factor)
            curve = speedup_curve(model, stats, thread_counts=measured.keys(),
                                  execution_style=execution_style)
            error = sum(
                math.log(curve[threads] / measured[threads]) ** 2
                for threads in measured)
            if error < best_error:
                best_error = error
                best_factor = factor
        return replace(self, contention_factor=best_factor)

    @staticmethod
    def _resolve_style(algorithm: str) -> str:
        from ..planner.registry import DEFAULT_REGISTRY

        style = DEFAULT_REGISTRY.execution_style_of(algorithm)
        if style is None:
            raise ValueError(
                f"algorithm name {algorithm!r} is not in the optimizer "
                "registry (repro.planner.registry.DEFAULT_REGISTRY); pass "
                "execution_style= or register the optimizer")
        return style


def speedup_curve(model: ParallelCPUModel, stats: OptimizerStats,
                  algorithm: Optional[str] = None,
                  thread_counts: Iterable[int] = (), *,
                  execution_style: Optional[str] = None) -> Dict[int, float]:
    """Speedup over the same algorithm's single-thread simulated time.

    This is the quantity plotted in Figure 12 (CPU scalability on
    MusicBrainz): each algorithm is normalised to itself at one thread.

    Like :meth:`ParallelCPUModel.simulate`, dispatch takes either a
    registered ``algorithm`` name or an explicit ``execution_style``; the
    style is resolved *once* and forwarded to every curve point (an
    unregistered name raises :class:`ValueError`).
    """
    if execution_style is None:
        if algorithm is None:
            raise ValueError(
                "speedup_curve() needs either an algorithm name or an "
                "explicit execution_style")
        execution_style = ParallelCPUModel._resolve_style(algorithm)
    baseline = model.simulate(stats, 1, execution_style=execution_style)
    curve: Dict[int, float] = {}
    for threads in thread_counts:
        curve[threads] = baseline / model.simulate(
            stats, threads, execution_style=execution_style)
    return curve


def measured_speedup_curve(wall_times: Mapping[int, float]) -> Dict[int, float]:
    """Measured wall-clock times per worker count -> Figure 12 speedups.

    Normalised to the *smallest* measured worker count (the paper normalises
    to one thread; pass a 1-worker time to match it exactly).
    """
    if not wall_times:
        raise ValueError("need at least one measured wall-clock time")
    baseline = wall_times[min(wall_times)]
    return {workers: baseline / seconds
            for workers, seconds in wall_times.items()}


def curve_shape_divergence(simulated: Mapping[int, float],
                           measured: Mapping[int, float]) -> float:
    """Shape disagreement of two speedup curves: max absolute log-ratio.

    Both curves are re-normalised to their value at the smallest *common*
    worker count, so a constant factor between them (e.g. per-level IPC
    overhead the simulation does not charge) does not count as shape
    divergence — only differing curvature (saturation behaviour) does.
    Returns ``inf`` when the curves share no worker counts.
    """
    common = sorted(set(simulated) & set(measured))
    if not common:
        return math.inf
    base = common[0]
    divergence = 0.0
    for threads in common:
        sim = simulated[threads] / simulated[base]
        meas = measured[threads] / measured[base]
        divergence = max(divergence, abs(math.log(sim / meas)))
    return divergence
