"""Vectorized-kernel benchmark: batched numpy DP levels vs the scalar loops.

Times full MPDP optimizations (and DPsub where its size ceiling allows) on
the paper's topologies two ways:

* **scalar** — ``backend="scalar"``, the reference per-pair Python loops of
  :class:`repro.exec.backend.ScalarBackend`;
* **vectorized** — ``backend="vectorized"``, one batched array kernel per DP
  level (:class:`repro.exec.vectorized.VectorizedBackend`): dense-matrix
  split unranking, searchsorted CCP mask-filters over the arena's
  connectivity columns, one ``cost_batch`` evaluation, scatter-min winners.

Every run uses a fresh query (cold enumeration caches).  The main sweep
runs under both cost models — ``C_out`` and the PostgreSQL-like default,
each with its own numpy ``cost_batch`` kernel.  Plans and counters are
asserted identical per config — the backends must agree bit-for-bit before
a timing is recorded.

A ``cost_kernel`` section times ``PostgresCostModel.cost_batch`` alone
against the per-pair loop every model without a kernel gets
(``CostModel.cost_batch``), on 2^16 pairs with 4096 distinct rows values
and with all distinct.

A ``break_even`` section times MPDP (and MPDP:Tree on the acyclic
shapes) under the PostgreSQL-like model on six shapes at 3-12 relations,
best of interleaved repeats; it is the measurement behind
``repro.exec.AUTO_VECTORIZE_MIN_RELATIONS``, the size from which
``backend="auto"`` vectorizes.

Medians (best-of values for ``break_even``) are written to
``BENCH_vectorized.json`` at the repository root; the acceptance bar is a
>= 3x median speedup on clique n>=14 and MusicBrainz n>=18 level sweeps
under ``C_out`` and on clique n=12 under the PostgreSQL-like model.  A
lighter ``perf_smoke`` guard runs in tier-1
(``tests/test_exec_backends.py``).

Run standalone (writes the JSON):

    PYTHONPATH=src python benchmarks/bench_vectorized_kernels.py

or through pytest (same sweep, same JSON, plus assertions):

    PYTHONPATH=src python -m pytest benchmarks/bench_vectorized_kernels.py -s
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

import numpy as np

from repro.cost.base import CostModel
from repro.cost.cout import CoutCostModel
from repro.cost.postgres import PostgresCostModel
from repro.exec import AUTO_VECTORIZE_MIN_RELATIONS
from repro.optimizers import DPSub, MPDP
from repro.optimizers.mpdp import MPDPTree
from repro.workloads import (
    chain_query,
    clique_query,
    cycle_query,
    musicbrainz_query,
    random_connected_query,
    snowflake_query,
    star_query,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_vectorized.json"

TOPOLOGIES = {
    "chain": chain_query,
    "star": star_query,
    "snowflake": snowflake_query,
    "cycle": cycle_query,
    "clique": clique_query,
    "random": random_connected_query,
    "musicbrainz": musicbrainz_query,
}

COST_MODELS = {
    "cout": CoutCostModel,
    "postgres": PostgresCostModel,
}

#: (cost model, topology, algorithm, sizes, repeats) sweep grid.  DPsub
#: walks the whole powerset per set, so it stops at its practical ceiling;
#: the clique n=14 scalar MPDP run costs 20-30 s, hence the single repeat.
CONFIGS = [
    ("cout", "star", "MPDP", [12, 16], 3),
    ("cout", "snowflake", "MPDP", [12, 16], 3),
    ("cout", "clique", "MPDP", [12, 14], 1),
    ("cout", "clique", "DPsub", [12, 14], 1),
    ("cout", "musicbrainz", "MPDP", [14, 18, 20], 2),
    ("cout", "musicbrainz", "DPsub", [14], 2),
    ("postgres", "star", "MPDP", [12], 3),
    ("postgres", "snowflake", "MPDP", [12], 3),
    ("postgres", "clique", "MPDP", [12], 1),
    ("postgres", "musicbrainz", "MPDP", [18], 2),
]

ALGORITHMS = {
    "MPDP": MPDP,
    "MPDP:Tree": MPDPTree,
    "DPsub": DPSub,
}

#: (topology, algorithm, sizes) of the break-even section, all under the
#: PostgreSQL-like model: MPDP on every shape (IDP2 fragments and cyclic
#: queries), MPDP:Tree on the acyclic ones (whole acyclic queries).
BREAK_EVEN = [
    ("chain", "MPDP", range(3, 13)),
    ("star", "MPDP", range(3, 13)),
    ("snowflake", "MPDP", range(3, 13)),
    ("cycle", "MPDP", range(3, 13)),
    ("clique", "MPDP", range(3, 11)),
    ("random", "MPDP", range(3, 13)),
    ("chain", "MPDP:Tree", range(3, 13)),
    ("star", "MPDP:Tree", range(3, 13)),
    ("snowflake", "MPDP:Tree", range(3, 13)),
]
BREAK_EVEN_REPEATS = 5


def _run_once(topology: str, algorithm: str, n: int, backend: str,
              cost_model: str):
    # Fresh query per run: timings must cover cold enumeration-context and
    # arena state, not cache warm-up from the other backend's run.
    query = TOPOLOGIES[topology](n, seed=0, cost_model=COST_MODELS[cost_model]())
    optimizer = ALGORITHMS[algorithm](backend=backend)
    start = time.perf_counter()
    result = optimizer.optimize(query)
    elapsed = time.perf_counter() - start
    return elapsed, result


def _check_identical(label: str, scalar_result, vectorized_result) -> None:
    if (scalar_result.cost != vectorized_result.cost
            or scalar_result.plan != vectorized_result.plan
            or scalar_result.stats.level_pairs != vectorized_result.stats.level_pairs
            or scalar_result.stats.level_ccp != vectorized_result.stats.level_ccp):
        raise AssertionError(
            f"{label}: backends disagree — bit-identity contract broken")


def run_config(cost_model: str, topology: str, algorithm: str, n: int,
               repeats: int) -> dict:
    scalar_times, vectorized_times = [], []
    for _ in range(repeats):
        scalar_elapsed, scalar_result = _run_once(
            topology, algorithm, n, "scalar", cost_model)
        scalar_times.append(scalar_elapsed)
        vectorized_elapsed, vectorized_result = _run_once(
            topology, algorithm, n, "vectorized", cost_model)
        vectorized_times.append(vectorized_elapsed)
        _check_identical(f"{cost_model} {topology}/{algorithm} n={n}",
                         scalar_result, vectorized_result)
    scalar_median = statistics.median(scalar_times)
    vectorized_median = statistics.median(vectorized_times)
    return {
        "cost_model": cost_model,
        "topology": topology,
        "algorithm": algorithm,
        "n": n,
        "repeats": repeats,
        "evaluated_pairs": scalar_result.stats.evaluated_pairs,
        "ccp_pairs": scalar_result.stats.ccp_pairs,
        "scalar_median_s": scalar_median,
        "vectorized_median_s": vectorized_median,
        "speedup": (scalar_median / vectorized_median
                    if vectorized_median > 0 else float("inf")),
    }


def run_cost_kernel(verbose: bool = True, pairs: int = 1 << 16) -> dict:
    """``PostgresCostModel.cost_batch`` vs the base class's per-pair loop.

    Lanes draw rows from 4096 values (the sharing a DP level's gathered
    child statistics show) or from all-distinct values (the kernel's worst
    case: one ``math.log2`` per lane).  Best of three runs each.
    """
    model = PostgresCostModel()
    rng = np.random.default_rng(0)
    costs = [rng.random(pairs) * 1e6 for _ in range(2)]
    output_rows = rng.random(pairs) * 1e9
    pool = 10 ** rng.uniform(0.0, 12.0, 4096)
    cases = {
        "4096_distinct_rows": [pool[rng.integers(0, len(pool), pairs)]
                               for _ in range(2)],
        "all_distinct_rows": [10 ** rng.uniform(0.0, 12.0, pairs)
                              for _ in range(2)],
    }
    rows = []
    for case, (left_rows, right_rows) in cases.items():
        args = (left_rows, costs[0], right_rows, costs[1], output_rows)
        best = {}
        for label, fn in (("kernel", model.cost_batch),
                          ("loop", lambda *a: CostModel.cost_batch(model, *a))):
            times = []
            for _ in range(3):
                start = time.perf_counter()
                result = fn(*args)
                times.append(time.perf_counter() - start)
            best[label] = (min(times), result)
        if not np.array_equal(best["kernel"][1], best["loop"][1]):
            raise AssertionError(f"cost kernel {case}: kernel != per-pair loop")
        row = {"case": case, "pairs": pairs,
               "kernel_best_s": best["kernel"][0],
               "loop_best_s": best["loop"][0],
               "speedup": best["loop"][0] / best["kernel"][0]}
        rows.append(row)
        if verbose:
            print(f"cost kernel {case:>18s}: kernel="
                  f"{row['kernel_best_s'] * 1e3:7.1f}ms loop="
                  f"{row['loop_best_s'] * 1e3:7.1f}ms "
                  f"speedup={row['speedup']:5.1f}x ({pairs} pairs)")
    return {"cost_model": "postgres", "cases": rows}


def run_break_even(verbose: bool = True) -> dict:
    """Scalar vs vectorized at small sizes under the PostgreSQL-like model.

    Each size is timed best-of-``BREAK_EVEN_REPEATS``, the two backends
    interleaved so machine drift hits both alike.  A series' ``break_even_n``
    is the smallest measured size from which vectorized is faster at every
    larger measured size (``None`` when it never is); ``median_break_even_n``
    is their median over all series, ``None`` counted as never.
    """
    series = []
    for topology, algorithm, sizes in BREAK_EVEN:
        points = []
        for n in sizes:
            best = {"scalar": float("inf"), "vectorized": float("inf")}
            results = {}
            for _ in range(BREAK_EVEN_REPEATS):
                for backend in best:
                    elapsed, results[backend] = _run_once(
                        topology, algorithm, n, backend, "postgres")
                    best[backend] = min(best[backend], elapsed)
            _check_identical(f"break-even {topology}/{algorithm} n={n}",
                             results["scalar"], results["vectorized"])
            points.append({"n": n, "scalar_best_s": best["scalar"],
                           "vectorized_best_s": best["vectorized"]})
        break_even_n = None
        for point in reversed(points):
            if point["vectorized_best_s"] >= point["scalar_best_s"]:
                break
            break_even_n = point["n"]
        series.append({"topology": topology, "algorithm": algorithm,
                       "break_even_n": break_even_n, "points": points})
        if verbose:
            cells = " ".join(
                f"{p['n']}:{p['scalar_best_s'] * 1e3:.1f}/"
                f"{p['vectorized_best_s'] * 1e3:.1f}" for p in points)
            print(f"{topology:>10s} {algorithm:>9s} break-even "
                  f"n={break_even_n}  (n:scalar/vectorized ms) {cells}")
    return {
        "cost_model": "postgres",
        "repeats": BREAK_EVEN_REPEATS,
        "auto_vectorize_min_relations": AUTO_VECTORIZE_MIN_RELATIONS,
        "median_break_even_n": median_break_even(series),
        "series": series,
    }


def median_break_even(series: list) -> float:
    """Median per-series break-even size; a series that never breaks even
    counts as larger than every measured size."""
    return statistics.median(
        float("inf") if s["break_even_n"] is None else s["break_even_n"]
        for s in series)


def run_sweep(verbose: bool = True) -> dict:
    rows = []
    for cost_model, topology, algorithm, sizes, repeats in CONFIGS:
        for n in sizes:
            row = run_config(cost_model, topology, algorithm, n, repeats)
            rows.append(row)
            if verbose:
                print(
                    f"{cost_model:>8s} {topology:>12s} {algorithm:>5s} n={n:>2d}: "
                    f"scalar={row['scalar_median_s'] * 1e3:9.1f}ms "
                    f"vectorized={row['vectorized_median_s'] * 1e3:8.1f}ms "
                    f"speedup={row['speedup']:5.1f}x "
                    f"({row['evaluated_pairs']} pairs)"
                )
    report = {
        "benchmark": "vectorized_kernels",
        "description": "full optimizations, scalar loops vs batched numpy "
                       "level kernels under C_out and the PostgreSQL-like "
                       "model (medians in seconds; backends asserted "
                       "bit-identical per config), the PostgreSQL cost "
                       "kernel alone and the auto policy's break-even sweep "
                       "(best-of seconds)",
        "configs": rows,
        "cost_kernel": run_cost_kernel(verbose),
        "break_even": run_break_even(verbose),
    }
    OUTPUT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    if verbose:
        print(f"wrote {OUTPUT_PATH}")
    return report


def _config(report: dict, topology: str, algorithm: str, n: int,
            cost_model: str = "cout") -> dict:
    return next(c for c in report["configs"]
                if c["topology"] == topology and c["n"] == n
                and c["algorithm"] == algorithm
                and c["cost_model"] == cost_model)


def test_vectorized_kernel_speedup(benchmark):
    report = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    # Acceptance bar: >= 3x medians on the adversarial dense case and on the
    # MusicBrainz-like graphs at large sizes.
    assert _config(report, "clique", "MPDP", 14)["speedup"] >= 3.0
    assert _config(report, "musicbrainz", "MPDP", 18)["speedup"] >= 3.0
    assert _config(report, "musicbrainz", "MPDP", 20)["speedup"] >= 3.0
    assert _config(report, "clique", "MPDP", 12, "postgres")["speedup"] >= 3.0
    for config in report["configs"]:
        assert config["evaluated_pairs"] > 0


if __name__ == "__main__":
    run_sweep()
