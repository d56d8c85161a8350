"""Heuristic optimization of a very large (100-relation) snowflake query.

Run with::

    python examples/large_query_heuristics.py

Exact DP cannot join-order 100 relations, so the paper's heuristics take over.
This example compares the plan quality (under the PostgreSQL-like cost model)
and optimization time of the baseline heuristics (GOO, IKKBZ, LinDP, GE-QO)
against the paper's IDP2-MPDP and UnionDP-MPDP on a 100-relation snowflake
query with pushed-down selections — the Table 1 scenario at example scale.
"""

import time

from repro.heuristics import GEQO, GOO, IDP2, IKKBZ, AdaptiveLinDP, UnionDP
from repro.workloads import snowflake_query


def main() -> None:
    query = snowflake_query(100, seed=7, selection_probability=0.7)
    print(f"Query: {query.name} — {query.n_relations} relations, "
          f"{query.graph.n_edges} PK-FK join edges\n")

    # backend="vectorized" runs each heuristic's inner DP (and LinDP's
    # interval merge) on the batched numpy kernels; plans are bit-identical
    # to backend="scalar", only the optimization time moves.
    heuristics = [
        ("GOO", GOO()),
        ("IKKBZ", IKKBZ()),
        ("LinDP", AdaptiveLinDP(linearized_threshold=100,
                                backend="vectorized")),
        ("GE-QO", GEQO(seed=1, generations=150)),
        ("IDP2-MPDP (k=10)", IDP2(k=10, backend="vectorized")),
        ("UnionDP-MPDP (k=10)", UnionDP(k=10, backend="vectorized")),
    ]

    rows = []
    for name, optimizer in heuristics:
        start = time.perf_counter()
        result = optimizer.optimize(query)
        elapsed = time.perf_counter() - start
        rows.append((name, result.cost, elapsed))

    best_cost = min(cost for _, cost, _ in rows)
    print(f"{'technique':22s} {'relative cost':>14s} {'optimization time':>19s}")
    for name, cost, elapsed in sorted(rows, key=lambda row: row[1]):
        print(f"{name:22s} {cost / best_cost:>14.2f} {elapsed:>17.2f} s")

    print("\nRelative cost 1.00 marks the best plan found by any technique —")
    print("the same normalisation the paper's Tables 1 and 2 use.")


if __name__ == "__main__":
    main()
