"""Figure 12, measured: real multicore wall-clock scalability of MPDP/DPsub.

``bench_fig12_cpu_scalability.py`` reproduces the paper's Figure 12 from
*simulated* thread times (the counters-through-a-model approach documented
in ``src/repro/parallel/model.py``).  Since the multicore kernel backend
executes DP levels across real worker processes, this benchmark measures
the same quantity for real: full MPDP (and DPsub) optimizations at 1/2/4/8
workers on clique n=14-16 and MusicBrainz-like n=18-20 queries, normalised
Figure 12-style, with per-run plan/cost equality asserted against the
single-core vectorized baseline before any timing is recorded.

It then *recalibrates the simulation against reality*: the simulated
speedup curve (same per-level counters, ``ParallelCPUModel``) is compared
to the measured one with :func:`repro.parallel.curve_shape_divergence`
(max |log-ratio| after normalising both at the smallest common worker
count), and the model's contention factor is re-fit to the measured curve
via :meth:`ParallelCPUModel.fit_contention`.  The documented tolerance is
``SHAPE_TOLERANCE`` = 0.35 — both curves must show the same sub-linear
saturation shape within ~40% relative deviation at every worker count.
Shape checks and the >= 2x acceptance assertion only run on machines with
at least 4 usable CPUs: with fewer, workers time-slice the same cores and
measured "speedup" is just scheduler noise — the JSON still records the
measured curve and the CPU count so the regression is visible either way.

Results land in ``BENCH_multicore.json`` at the repository root.  The
default grid keeps one size per topology so the sweep stays interactive;
set ``BENCH_FULL=1`` for the paper's full n ranges.

Run standalone (writes the JSON):

    PYTHONPATH=src python benchmarks/bench_fig12_real_scalability.py

or through pytest (same sweep, same JSON, plus assertions):

    PYTHONPATH=src python -m pytest benchmarks/bench_fig12_real_scalability.py -s
"""

from __future__ import annotations

import json
import os
import statistics
import time
from pathlib import Path

from repro.cost.cout import CoutCostModel
from repro.exec.backend import _available_cpus
from repro.exec.multicore import POOL_REGISTRY, _start_method
from repro.gpu.pipeline import GPUPipelineModel
from repro.optimizers import DPSub, MPDP
from repro.parallel import (
    ParallelCPUModel,
    curve_shape_divergence,
    measured_speedup_curve,
    speedup_curve,
)
from repro.workloads import clique_query, musicbrainz_query

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_multicore.json"

WORKER_COUNTS = (1, 2, 4, 8)

#: Documented shape-agreement tolerance between the simulated and measured
#: speedup curves (max absolute log-ratio; 0.35 ~= 40% relative deviation).
SHAPE_TOLERANCE = 0.35

TOPOLOGIES = {
    "clique": lambda n: clique_query(n, seed=0, cost_model=CoutCostModel()),
    "musicbrainz": lambda n: musicbrainz_query(n, seed=0,
                                               cost_model=CoutCostModel()),
}

ALGORITHMS = {"MPDP": MPDP, "DPsub": DPSub}

#: (topology, algorithm, sizes, repeats).  The default grid covers the
#: acceptance configs; BENCH_FULL=1 extends to the paper's full n ranges.
QUICK_CONFIGS = [
    ("clique", "MPDP", [14], 1),
    ("clique", "DPsub", [14], 1),
    ("musicbrainz", "MPDP", [18], 2),
]
FULL_CONFIGS = [
    ("clique", "MPDP", [14, 15, 16], 1),
    ("clique", "DPsub", [14, 15], 1),
    ("musicbrainz", "MPDP", [18, 19, 20], 2),
    ("musicbrainz", "DPsub", [18], 1),
]


def _configs():
    return FULL_CONFIGS if os.environ.get("BENCH_FULL") else QUICK_CONFIGS


def _time_once(topology: str, algorithm: str, n: int, backend: str,
               workers=None):
    query = TOPOLOGIES[topology](n)  # fresh query: cold caches per run
    kwargs = {"backend": backend}
    if workers is not None:
        kwargs["workers"] = workers
    optimizer = ALGORITHMS[algorithm](**kwargs)
    start = time.perf_counter()
    result = optimizer.optimize(query)
    return time.perf_counter() - start, result


def run_config(topology: str, algorithm: str, n: int, repeats: int) -> dict:
    baseline_times = []
    multicore_times = {workers: [] for workers in WORKER_COUNTS}
    reference = None
    # Untimed warm-up: the first heavy optimization in a fresh process pays
    # for numpy paging and allocator growth; measured runs must not.
    _time_once(topology, algorithm, n, "vectorized")
    for _ in range(repeats):
        elapsed, result = _time_once(topology, algorithm, n, "vectorized")
        baseline_times.append(elapsed)
        reference = result
        for workers in WORKER_COUNTS:
            POOL_REGISTRY.lease(workers)  # startup amortised, not measured
            elapsed, mc_result = _time_once(topology, algorithm, n,
                                            "multicore", workers)
            multicore_times[workers].append(elapsed)
            if (mc_result.cost != result.cost
                    or mc_result.plan != result.plan
                    or mc_result.stats.level_ccp != result.stats.level_ccp):
                raise AssertionError(
                    f"{topology}/{algorithm} n={n} workers={workers}: "
                    "multicore disagrees with vectorized — bit-identity "
                    "contract broken")

    baseline_median = statistics.median(baseline_times)
    multicore_medians = {workers: statistics.median(times)
                         for workers, times in multicore_times.items()}
    measured = measured_speedup_curve(multicore_medians)

    model = ParallelCPUModel()
    simulated = speedup_curve(model, reference.stats,
                              thread_counts=WORKER_COUNTS,
                              execution_style="level_parallel")
    divergence = curve_shape_divergence(simulated, measured)
    fitted = model.fit_contention(reference.stats, measured,
                                  execution_style="level_parallel")
    gpu_comparison = GPUPipelineModel(
        uses_subset_unranking=True,
        uses_block_decomposition=(algorithm == "MPDP"),
    ).compare_to_measurement(reference.stats, n,
                             min(multicore_medians.values()))

    return {
        "topology": topology,
        "algorithm": algorithm,
        "n": n,
        "repeats": repeats,
        "evaluated_pairs": reference.stats.evaluated_pairs,
        "ccp_pairs": reference.stats.ccp_pairs,
        "vectorized_median_s": baseline_median,
        "multicore_median_s": {str(w): t for w, t in multicore_medians.items()},
        "measured_speedup_vs_1worker": {str(w): s for w, s in measured.items()},
        "speedup_4w_vs_vectorized": baseline_median / multicore_medians[4],
        "simulated_speedup": {str(w): s for w, s in simulated.items()},
        "sim_vs_measured_shape_divergence": divergence,
        "fitted_contention_factor": fitted.contention_factor,
        "gpu_model_comparison": gpu_comparison,
    }


def run_sweep(verbose: bool = True) -> dict:
    cpus = _available_cpus()
    rows = []
    for topology, algorithm, sizes, repeats in _configs():
        for n in sizes:
            row = run_config(topology, algorithm, n, repeats)
            rows.append(row)
            if verbose:
                speedups = " ".join(
                    f"{w}w={row['vectorized_median_s'] / float(row['multicore_median_s'][str(w)]):4.2f}x"
                    for w in WORKER_COUNTS)
                print(f"{topology:>12s} {algorithm:>5s} n={n:>2d}: "
                      f"vectorized={row['vectorized_median_s'] * 1e3:8.1f}ms "
                      f"vs multicore {speedups} "
                      f"(shape div {row['sim_vs_measured_shape_divergence']:.3f})")
    report = {
        "benchmark": "fig12_real_scalability",
        "description": "measured multicore wall-clock speedups (full "
                       "optimizations, C_out, bit-identity asserted per "
                       "run) vs the simulated ParallelCPUModel curves; "
                       f"shape tolerance {SHAPE_TOLERANCE} applies on "
                       "machines with >= 4 usable CPUs",
        "usable_cpus": cpus,
        "start_method": _start_method(),
        "worker_counts": list(WORKER_COUNTS),
        "shape_tolerance": SHAPE_TOLERANCE,
        "speedup_assertions_apply": cpus >= 4,
        "configs": rows,
    }
    OUTPUT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    if verbose:
        print(f"wrote {OUTPUT_PATH} (usable CPUs: {cpus})")
    return report


def _config(report: dict, topology: str, algorithm: str, n: int) -> dict:
    return next(c for c in report["configs"]
                if c["topology"] == topology and c["n"] == n
                and c["algorithm"] == algorithm)


def test_fig12_real_scalability(benchmark):
    report = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    for config in report["configs"]:
        assert config["evaluated_pairs"] > 0
    if not report["speedup_assertions_apply"]:
        import pytest

        pytest.skip(f"measured-speedup assertions need >= 4 usable CPUs, "
                    f"have {report['usable_cpus']} (JSON still written)")
    clique = _config(report, "clique", "MPDP", 14)
    # Acceptance bar: >= 2x wall-clock at 4 workers vs vectorized 1-core.
    assert clique["speedup_4w_vs_vectorized"] >= 2.0
    # The simulation's sub-linear saturation shape matches reality within
    # the documented tolerance.
    for config in report["configs"]:
        assert config["sim_vs_measured_shape_divergence"] <= SHAPE_TOLERANCE


if __name__ == "__main__":
    run_sweep()
