"""Tables 1-2, scaled: the kernelized heuristic ladder on 100-1000-relation
queries.

The paper's headline claim is not MPDP in isolation but MPDP *as the inner
exact step of the large-query heuristics*: IDP2-MPDP(k) and UnionDP plan
100-1000-relation queries near-optimally because the parallel DP kernel
makes large ``k`` affordable.  This benchmark reproduces that scenario band
end-to-end on the kernel execution layer:

* **workloads** — synthetic chain / star / snowflake / clique plus the
  scaled MusicBrainz random-walk workload, at n up to 1000 (``--quick``
  caps at 200 for CI);
* **ladder sweep** — GOO, LinDP, IDP2-MPDP(k) and UnionDP-MPDP(k) wall
  clock and plan cost per (workload, n), with the paper's quality ordering
  (IDP2 <= UnionDP <= LinDP <= GOO on cost, reverse on time) recorded per
  point;
* **kernelized vs scalar-factory** — the acceptance measurement: IDP2 with
  the kernel backend vs IDP2 on the seed-era scalar path at n = 200 must be
  >= 3x (single CPU, vectorized backend);
* **backend bit-identity** — every benchmarked workload is planned by every
  driver on scalar / vectorized / multicore and the plans must match
  bit-for-bit before any timing is reported, at n = 50 and — because the
  kernel columns are multi-word — again beyond the one-lane boundary at
  n = 65.

Costs are evaluated under ``C_out``, the model of the linearized-DP
literature (``bench_vectorized_kernels.py`` times the exact kernels under
both ``C_out`` and the PostgreSQL-like model).

Results land in ``BENCH_large_queries.json`` at the repository root.

Run standalone (writes the JSON)::

    PYTHONPATH=src python benchmarks/bench_large_queries.py          # full
    PYTHONPATH=src python benchmarks/bench_large_queries.py --quick  # n <= 200

or through pytest (quick sweep unless BENCH_FULL=1, plus assertions)::

    PYTHONPATH=src python -m pytest benchmarks/bench_large_queries.py -s -m large_query
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

import pytest

from repro.cost.cout import CoutCostModel
from repro.heuristics import GOO, IDP2, AdaptiveLinDP, UnionDP
from repro.workloads import (
    chain_query,
    clique_query,
    scaled_musicbrainz_query,
    snowflake_query,
    star_query,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_large_queries.json"

#: The paper's evaluation sizes (Tables 1-2).
FULL_SIZES = (50, 100, 200, 500, 1000)
QUICK_SIZES = (50, 100, 200)

#: Acceptance bar for the kernelized-vs-scalar IDP2 comparison at n = 200.
SPEEDUP_ACCEPTANCE = 3.0

#: Wide bit-identity coverage: just past the single-lane boundary every
#: mask needs two uint64 words, which exercises the multi-word kernel
#: columns end to end.  Restricted to the cheaper driver set so the
#: scalar reference stays interactive.
WIDE_IDENTITY_N = 65
WIDE_IDENTITY_WORKLOADS = ("chain", "snowflake")
WIDE_IDENTITY_ALGORITHMS = ("GOO", "LinDP", "IDP2")

WORKLOADS: Dict[str, Callable[[int], object]] = {
    "chain": lambda n: chain_query(n, seed=1, cost_model=CoutCostModel()),
    "star": lambda n: star_query(n, seed=1, cost_model=CoutCostModel()),
    "snowflake": lambda n: snowflake_query(n, seed=1,
                                           cost_model=CoutCostModel()),
    "clique": lambda n: clique_query(n, seed=1, cost_model=CoutCostModel()),
    "musicbrainz": lambda n: scaled_musicbrainz_query(
        n, seed=1, cost_model=CoutCostModel()),
}

#: Per-workload size ceilings for the heavyweight drivers; pure Python makes
#: some paper-scale combinations non-interactive (clique IDP2's dense
#: fragments, star's O(n) UnionDP contraction rounds) — ceilings are
#: recorded in the JSON so the gap is visible, not silent.
IDP2_MAX = {"chain": 1000, "star": 200, "snowflake": 500, "clique": 100,
            "musicbrainz": 200}
UNIONDP_MAX = {"chain": 1000, "star": 500, "snowflake": 500, "clique": 200,
               "musicbrainz": 1000}
#: LinDP's ceiling is the planner's lindp_threshold (the paper's 300).
LINDP_MAX = 300
#: Clique sizes run with a smaller fragment k (dense fragments), and the
#: very large sizes shrink k the way the paper's time budget would.
CLIQUE_SIZES = (50, 100, 200)


def fragment_k(workload: str, n: int) -> int:
    if workload == "clique":
        return 10
    if n >= 500:
        return 12
    return 16


def make_driver(name: str, workload: str, n: int, backend: str,
                workers: Optional[int] = None):
    k = fragment_k(workload, n)
    if name == "GOO":
        return GOO()  # scalar-only: no kernel loop for a backend to change
    if name == "LinDP":
        return AdaptiveLinDP(backend=backend, workers=workers)
    if name == "IDP2":
        return IDP2(k=k, backend=backend, workers=workers)
    if name == "UnionDP":
        return UnionDP(k=k, backend=backend, workers=workers,
                       max_rounds=max(64, n))
    raise KeyError(name)


def algorithms_for(workload: str, n: int) -> List[str]:
    names = ["GOO"]
    if n <= LINDP_MAX:
        names.append("LinDP")
    if n <= IDP2_MAX[workload]:
        names.append("IDP2")
    if n <= UNIONDP_MAX[workload]:
        names.append("UnionDP")
    return names


def sizes_for(workload: str, sizes, quick: bool = False) -> List[int]:
    if workload == "clique":
        # Dense-graph GOO/LinDP at n=200 cost ~2 CPU-minutes; the quick CI
        # band keeps clique at n <= 100 (the speedup acceptance runs on
        # snowflake/musicbrainz either way).
        ceiling = 100 if quick else max(CLIQUE_SIZES)
        return [n for n in sizes if n in CLIQUE_SIZES and n <= ceiling]
    return list(sizes)


def _run_once(name: str, workload: str, n: int, backend: str,
              workers: Optional[int] = None):
    query = WORKLOADS[workload](n)  # fresh query: cold caches per run
    driver = make_driver(name, workload, n, backend, workers)
    start = time.perf_counter()
    result = driver.optimize(query)
    return time.perf_counter() - start, result


# ------------------------------------------------------------------ #
# Sections
# ------------------------------------------------------------------ #
def backend_identity_section(verbose: bool) -> List[dict]:
    """Every workload x driver: scalar / vectorized / multicore plans must
    be bit-identical — at n = 50 (one-lane masks, scalar reference stays
    interactive for every driver) and at n = 65 (two-word masks: the
    multi-word kernel columns, remap packing and wide snapshot lookups all
    participate in the plans being compared)."""
    rows = []
    cases = [(workload, 50, algorithms_for(workload, 50))
             for workload in WORKLOADS]
    cases += [(workload, WIDE_IDENTITY_N,
               [name for name in algorithms_for(workload, WIDE_IDENTITY_N)
                if name in WIDE_IDENTITY_ALGORITHMS])
              for workload in WIDE_IDENTITY_WORKLOADS]
    for workload, n, algorithms in cases:
        for name in algorithms:
            _, reference = _run_once(name, workload, n, "scalar")
            for backend, workers in (("vectorized", None), ("multicore", 2)):
                _, other = _run_once(name, workload, n, backend, workers)
                if (other.cost != reference.cost
                        or other.plan != reference.plan):
                    raise AssertionError(
                        f"{workload}/{name} n={n} {backend}: heuristic plan "
                        "differs from the scalar reference — bit-identity "
                        "contract broken")
        rows.append({"workload": workload, "n": n,
                     "algorithms": algorithms,
                     "backends": ["scalar", "vectorized", "multicore"],
                     "bit_identical": True})
        if verbose:
            print(f"identity {workload:>12s} n={n}: "
                  f"{'/'.join(algorithms)} identical across backends")
    return rows


def ladder_section(sizes, verbose: bool, quick: bool = False) -> List[dict]:
    """The Table 1/2 sweep: cost + wall clock per (workload, n, driver)."""
    rows = []
    for workload in WORKLOADS:
        for n in sizes_for(workload, sizes, quick):
            entry = {"workload": workload, "n": n,
                     "k": fragment_k(workload, n), "algorithms": {}}
            for name in algorithms_for(workload, n):
                seconds, result = _run_once(name, workload, n, "vectorized")
                entry["algorithms"][name] = {
                    "seconds": seconds,
                    "cost": result.cost,
                    "evaluated_pairs": result.stats.evaluated_pairs,
                }
            costs = {name: stats["cost"]
                     for name, stats in entry["algorithms"].items()}
            tolerance = 1.0 + 1e-9
            entry["quality_ordering"] = {
                "idp2_le_goo": ("IDP2" not in costs
                                or costs["IDP2"] <= costs["GOO"] * tolerance),
                "idp2_le_uniondp": ("IDP2" not in costs or "UnionDP" not in costs
                                    or costs["IDP2"] <= costs["UnionDP"] * tolerance),
                "uniondp_le_goo": ("UnionDP" not in costs
                                   or costs["UnionDP"] <= costs["GOO"] * tolerance),
                "lindp_le_goo": ("LinDP" not in costs
                                 or costs["LinDP"] <= costs["GOO"] * tolerance),
            }
            rows.append(entry)
            if verbose:
                summary = "  ".join(
                    f"{name}={stats['seconds']:6.2f}s/{stats['cost']:.3g}"
                    for name, stats in entry["algorithms"].items())
                print(f"{workload:>12s} n={n:>4d} k={entry['k']:>2d}: {summary}")
    return rows


def speedup_section(quick: bool, verbose: bool) -> List[dict]:
    """Kernelized vs scalar-factory IDP2 — the acceptance measurement."""
    configs = [("snowflake", 200, 16)]
    if not quick:
        configs.append(("musicbrainz", 200, 16))
    rows = []
    for workload, n, k in configs:
        scalar_s, scalar_result = _run_once("IDP2", workload, n, "scalar")
        kernel_s, kernel_result = _run_once("IDP2", workload, n, "vectorized")
        if (kernel_result.cost != scalar_result.cost
                or kernel_result.plan != scalar_result.plan):
            raise AssertionError(
                f"{workload} n={n}: kernelized IDP2 plan differs from the "
                "scalar path — bit-identity contract broken")
        row = {
            "workload": workload, "n": n, "k": k,
            "scalar_seconds": scalar_s,
            "vectorized_seconds": kernel_s,
            "speedup": scalar_s / kernel_s,
            "acceptance_floor": SPEEDUP_ACCEPTANCE,
        }
        rows.append(row)
        if verbose:
            print(f"speedup {workload:>12s} n={n} k={k}: scalar {scalar_s:.2f}s "
                  f"vs kernelized {kernel_s:.2f}s = {row['speedup']:.2f}x")
    return rows


def run_sweep(quick: bool = False, verbose: bool = True) -> dict:
    sizes = QUICK_SIZES if quick else FULL_SIZES
    report = {
        "benchmark": "large_queries",
        "description": "kernelized heuristic ladder (GOO / LinDP / "
                       "IDP2-MPDP(k) / UnionDP-MPDP(k), vectorized backend) "
                       "on chain/star/snowflake/clique/scaled-MusicBrainz "
                       "workloads; C_out costs; bit-identity asserted "
                       "across scalar/vectorized/multicore (n=50 and the "
                       "two-word n=65) before timing",
        "cost_model": "cout",
        "quick": quick,
        "sizes": list(sizes),
        "driver_size_ceilings": {"IDP2": IDP2_MAX, "UnionDP": UNIONDP_MAX,
                                 "LinDP": LINDP_MAX},
        "backend_identity": backend_identity_section(verbose),
        "ladder": ladder_section(sizes, verbose, quick),
        "idp2_kernelized_vs_scalar": speedup_section(quick, verbose),
    }
    OUTPUT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    if verbose:
        print(f"wrote {OUTPUT_PATH}")
    return report


def enforce_acceptance(report: dict) -> None:
    """The acceptance bars — raised by standalone runs AND the pytest entry
    (the CI step invokes the script directly, so the guards must not live
    only behind pytest)."""
    for row in report["backend_identity"]:
        assert row["bit_identical"], row
    # IDP2 refines a GOO tentative plan, so it never loses to GOO.
    for entry in report["ladder"]:
        assert entry["quality_ordering"]["idp2_le_goo"], entry
    # Acceptance: kernelized IDP2 >= 3x over the scalar path at n = 200.
    for row in report["idp2_kernelized_vs_scalar"]:
        assert row["speedup"] >= SPEEDUP_ACCEPTANCE, row


# ------------------------------------------------------------------ #
# pytest entries (same sweep + assertions as the standalone script)
# ------------------------------------------------------------------ #
@pytest.mark.large_query
def test_wide_perf_smoke():
    """CI wide-graph guard: one 100-relation snowflake, two ways.

    The smallest measurement that still covers the whole wide-kernel
    claim: native multi-word kernels must beat the scalar path by
    >= 3x and produce its bit-identical plan (38 fragments of two-word
    masks route through the remap packing on every level).
    """
    scalar_s, scalar_result = _run_once("IDP2", "snowflake", 100, "scalar")
    native_s, native_result = _run_once("IDP2", "snowflake", 100,
                                        "vectorized")
    assert native_result.cost == scalar_result.cost, \
        "native wide kernels diverged from the scalar reference"
    assert native_result.plan == scalar_result.plan
    speedup = scalar_s / native_s
    assert speedup >= SPEEDUP_ACCEPTANCE, (
        f"native wide kernels only {speedup:.2f}x over scalar at n=100 "
        f"(floor {SPEEDUP_ACCEPTANCE}x): scalar {scalar_s:.2f}s vs "
        f"native {native_s:.2f}s")


@pytest.mark.large_query
def test_large_query_band(benchmark):
    quick = not os.environ.get("BENCH_FULL")
    report = benchmark.pedantic(run_sweep, args=(quick,), rounds=1,
                                iterations=1)
    enforce_acceptance(report)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI mode: n <= 200 and one speedup config")
    arguments = parser.parse_args()
    enforce_acceptance(run_sweep(quick=arguments.quick))
