"""Enumeration-engine benchmark: incremental index vs the seed enumerator.

Times the per-level ``S_k`` sweep every DP optimizer performs (consume all
connected subsets of sizes ``1 .. n``) two ways:

* **old** — the seed's :func:`iter_connected_subsets_of_size_baseline`
  (defined here), which re-derives each level from singletons
  (``O(sum_k k * |S_k|)`` churn);
* **new** — a fresh :class:`repro.core.enumeration.EnumerationContext`, whose
  level-synchronous index materialises each level from the previous one
  exactly once (``O(sum_k |S_k|)``).

Topologies follow the paper's figures — star (fig06), snowflake (fig07),
clique (fig08, the adversarial dense case) and MusicBrainz-like random walks
(fig09) — at n in {12, 16, 20}.  Medians over a few repeats are written to
``BENCH_enumeration.json`` at the repository root so the perf trajectory is
tracked across PRs; the acceptance bar is a >= 2x median speedup on clique
n=16 and on the largest MusicBrainz size.

Run standalone (writes the JSON):

    PYTHONPATH=src python benchmarks/bench_enumeration_engine.py

or through pytest (same sweep, same JSON, plus assertions):

    PYTHONPATH=src python -m pytest benchmarks/bench_enumeration_engine.py -s
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

from repro.core import bitmapset as bms
from repro.core.enumeration import EnumerationContext
from repro.workloads import clique_query, musicbrainz_query, snowflake_query, star_query

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_enumeration.json"

SIZES = [12, 16, 20]
TOPOLOGIES = {
    "star": lambda n: star_query(n, seed=0),
    "snowflake": lambda n: snowflake_query(n, seed=0),
    "clique": lambda n: clique_query(n, seed=0),
    "musicbrainz": lambda n: musicbrainz_query(n, seed=0),
}
#: Per-(topology, n) repeat counts; the dense clique cases are expensive under
#: the old enumerator (the whole point), so the largest runs once.
DEFAULT_REPEATS = 3
REPEAT_OVERRIDES = {("clique", 16): 2, ("clique", 20): 1}


def iter_connected_subsets_of_size_baseline(graph, size: int):
    """The seed's from-scratch ``S_size`` enumerator.

    Re-derives ``S_size`` by ``size - 1`` rounds of breadth-first expansion
    from singletons on *every* call, deduplicating with a seen-set.  It
    enumerates exactly the subsets the engine does, in the same
    (ascending-mask) order.
    """
    if size <= 0 or size > graph.n_relations:
        return
    current = {bms.bit(v) for v in range(graph.n_relations)}
    for _ in range(size - 1):
        nxt = set()
        for subset in current:
            for neighbour in bms.iter_bits(graph.neighbours_of_set(subset)):
                nxt.add(subset | bms.bit(neighbour))
        current = nxt
    yield from sorted(current)


def _sweep_old(graph, n: int) -> int:
    total = 0
    for size in range(1, n + 1):
        for _ in iter_connected_subsets_of_size_baseline(graph, size):
            total += 1
    return total


def _sweep_new(graph, n: int) -> int:
    # A fresh context per repeat: the measurement covers building the index,
    # not serving pre-built levels.
    context = EnumerationContext(graph)
    return sum(len(context.connected_subsets(size)) for size in range(1, n + 1))


def run_config(topology: str, n: int) -> dict:
    graph = TOPOLOGIES[topology](n).graph
    repeats = REPEAT_OVERRIDES.get((topology, n), DEFAULT_REPEATS)
    old_times, new_times = [], []
    subsets_old = subsets_new = 0
    for _ in range(repeats):
        start = time.perf_counter()
        subsets_old = _sweep_old(graph, n)
        old_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        subsets_new = _sweep_new(graph, n)
        new_times.append(time.perf_counter() - start)
    if subsets_old != subsets_new:
        raise AssertionError(
            f"{topology} n={n}: enumerators disagree ({subsets_old} vs {subsets_new})"
        )
    old_median = statistics.median(old_times)
    new_median = statistics.median(new_times)
    return {
        "topology": topology,
        "n": n,
        "connected_subsets": subsets_new,
        "repeats": repeats,
        "old_median_s": old_median,
        "new_median_s": new_median,
        "speedup": old_median / new_median if new_median > 0 else float("inf"),
    }


def run_sweep(verbose: bool = True) -> dict:
    configs = []
    for topology in TOPOLOGIES:
        for n in SIZES:
            row = run_config(topology, n)
            configs.append(row)
            if verbose:
                print(
                    f"{topology:>12s} n={n:>2d}: old={row['old_median_s'] * 1e3:9.1f}ms "
                    f"new={row['new_median_s'] * 1e3:8.1f}ms "
                    f"speedup={row['speedup']:6.1f}x "
                    f"({row['connected_subsets']} subsets)"
                )
    report = {
        "benchmark": "enumeration_engine",
        "description": "per-level connected-subset sweep: seed enumerator vs "
                       "incremental EnumerationContext index (medians in seconds)",
        "sizes": SIZES,
        "configs": configs,
    }
    OUTPUT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    if verbose:
        print(f"wrote {OUTPUT_PATH}")
    return report


def _config(report: dict, topology: str, n: int) -> dict:
    return next(c for c in report["configs"] if c["topology"] == topology and c["n"] == n)


def test_enumeration_engine_speedup(benchmark):
    report = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    # Acceptance bar: >= 2x on the adversarial clique at n=16 and on the
    # MusicBrainz-like graphs at the largest benchmarked size.
    assert _config(report, "clique", 16)["speedup"] >= 2.0
    assert _config(report, "musicbrainz", SIZES[-1])["speedup"] >= 2.0
    # Both enumerators must agree on every config (checked inside run_config).
    for config in report["configs"]:
        assert config["connected_subsets"] > 0


if __name__ == "__main__":
    run_sweep()
