"""``repro-plan`` console script: plan one query, or run the service.

Three subcommands (a bare invocation defaults to ``plan``):

``repro-plan [plan] "select ..."``
    Parse an inner-equi-join SQL query, route it through the
    :class:`~repro.planner.service.AdaptivePlanner` front door and print
    the classification, the routing decision and the chosen plan.

``repro-plan serve --catalog cat.json [--queries file]``
    Start a :class:`~repro.planner.server.PlannerService` on the catalog
    and serve SQL statements (one per line, from ``--queries`` or stdin),
    printing one reply line per statement and the service stats at EOF.

``repro-plan replay --queries file [--requests N --threads T]``
    Replay a zipfian request stream over the file's distinct queries
    through a fresh service and print the ``BENCH_service.json``-style
    summary (qps, p50/p99 latency, hit rate, shed count) as JSON.

Catalog statistics come from an optional JSON file (``--catalog``)::

    {
      "tables": {
        "a": {"rows": 1000000, "columns": {"x": {"n_distinct": 50000}}},
        "b": {"rows": 20000}
      }
    }

Tables the queries reference but the catalog does not define are registered
automatically with ``--default-rows`` rows, so the commands work out of the
box for quick plan-shape exploration.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Tuple

from ..catalog.schema import Catalog
from ..optimizers.base import OptimizationError
from ..sql.parser import SQLParseError, referenced_tables
from .service import AdaptivePlanner

__all__ = ["main", "build_parser", "build_serve_parser",
           "build_replay_parser", "catalog_from_spec"]

_SUBCOMMANDS = ("plan", "serve", "replay")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-plan",
        description="Classify and plan an inner-equi-join SQL query through "
                    "the adaptive planner (exact MPDP -> IDP2 -> LinDP -> GOO).",
    )
    parser.add_argument("sql", nargs="?", default=None,
                        help="the query text (or pass --file)")
    parser.add_argument("--file", "-f", default=None,
                        help="read the query text from this file")
    parser.add_argument("--catalog", "-c", default=None,
                        help="JSON file with table statistics (see module docs)")
    parser.add_argument("--default-rows", type=float, default=1e6,
                        help="row count assumed for tables missing from the "
                             "catalog (default: 1e6)")
    parser.add_argument("--time-budget", type=float, default=None,
                        help="per-query optimization budget in seconds")
    parser.add_argument("--backend",
                        choices=("scalar", "vectorized", "multicore", "auto"),
                        default="auto",
                        help="kernel execution backend for the DP inner loops "
                             "— both the exact rungs and the IDP2/LinDP "
                             "heuristic tiers' inner optimizers and merge "
                             "kernels (default: auto — multicore worker "
                             "processes or vectorized numpy kernels for "
                             "large queries, scalar loops for small ones); "
                             "plans are identical either way")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker-process count for the multicore backend "
                             "(default: one per usable CPU; must be >= 1)")
    parser.add_argument("--no-plan", action="store_true",
                        help="print the routing decision only, not the plan tree")
    return parser


def catalog_from_spec(spec: Optional[dict], table_names: List[str],
                      default_rows: float) -> Catalog:
    """Build a catalog from a JSON spec, auto-filling missing tables.

    Raises ``ValueError`` with a readable message on malformed specs, so the
    CLI can report them through its normal error path.
    """
    catalog = Catalog()
    tables_spec = (spec or {}).get("tables", {})
    if not isinstance(tables_spec, dict):
        raise ValueError("catalog spec: 'tables' must be an object mapping "
                         "table names to {rows, columns}")
    for name, table_spec in tables_spec.items():
        if not isinstance(table_spec, dict):
            raise ValueError(f"catalog spec: table {name!r} must be an object")
        try:
            rows = float(table_spec.get("rows", default_rows))
        except (TypeError, ValueError):
            raise ValueError(
                f"catalog spec: table {name!r} has a non-numeric 'rows' value "
                f"({table_spec.get('rows')!r})") from None
        table = catalog.add_table(name.lower(), rows)
        columns_spec = table_spec.get("columns", {})
        if not isinstance(columns_spec, dict):
            raise ValueError(f"catalog spec: table {name!r} 'columns' must be an object")
        for column_name, column_spec in columns_spec.items():
            if not isinstance(column_spec, dict):
                raise ValueError(f"catalog spec: column {name}.{column_name} "
                                 "must be an object")
            table.add_column(
                column_name.lower(),
                n_distinct=column_spec.get("n_distinct"),
                is_primary_key=bool(column_spec.get("is_primary_key", False)),
            )
    for name in table_names:
        if not catalog.has_table(name):
            catalog.add_table(name, default_rows)
    return catalog


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in _SUBCOMMANDS:
        command, rest = argv[0], argv[1:]
    else:
        command, rest = "plan", argv  # legacy flat invocation
    if command == "serve":
        return _main_serve(rest)
    if command == "replay":
        return _main_replay(rest)
    return _main_plan(rest)


def _main_plan(argv: List[str]) -> int:
    args = build_parser().parse_args(argv)
    if (args.sql is None) == (args.file is None):
        print("error: provide the query text either inline or via --file",
              file=sys.stderr)
        return 2
    try:
        sql = args.sql
        if args.file is not None:
            with open(args.file, "r", encoding="utf-8") as handle:
                sql = handle.read()

        spec = None
        if args.catalog is not None:
            with open(args.catalog, "r", encoding="utf-8") as handle:
                spec = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    # Late import: repro.sql.frontdoor pulls the planner service back in.
    from ..sql.frontdoor import plan_sql

    try:
        catalog = catalog_from_spec(spec, referenced_tables(sql), args.default_rows)
        planned = plan_sql(
            sql, catalog,
            planner=AdaptivePlanner(time_budget_seconds=args.time_budget,
                                    backend=args.backend,
                                    workers=args.workers),
        )
    except (SQLParseError, OptimizationError, ValueError) as error:
        # OptimizationError covers plannable-looking text the optimizers
        # reject (e.g. a FROM list with no join predicates -> cross product);
        # ValueError covers malformed catalog specs.
        print(f"error: {error}", file=sys.stderr)
        return 1

    decision = planned.outcome.decision
    query = planned.parsed.query
    try:
        print(f"query     : {query.n_relations} relations, "
              f"{query.graph.n_edges} join predicates")
        print(f"shape     : {decision.shape}")
        print(f"signature : {decision.signature}")
        print(f"algorithm : {decision.algorithm}")
        print(f"backend   : {decision.backend}"
              + (f" (workers={decision.workers})"
                 if decision.workers is not None else ""))
        print(f"reason    : {decision.reason}")
        print(f"plan cost : {planned.outcome.cost:,.1f}")
        print(f"planned in: {decision.elapsed_seconds * 1e3:.2f} ms")
        if not args.no_plan:
            print("\nplan:")
            print(planned.outcome.plan.to_string(query.graph.relation_names))
    except BrokenPipeError:
        # Downstream (e.g. `repro-plan ... | head`) closed the pipe; swap in
        # devnull so the interpreter's exit-time stdout flush stays quiet.
        sys.stdout = open(os.devnull, "w")
        return 0
    return 0


# --------------------------------------------------------------------------- #
# serve / replay: the PlannerService front ends
# --------------------------------------------------------------------------- #
def _add_service_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--catalog", "-c", default=None,
                        help="JSON file with table statistics (see module docs)")
    parser.add_argument("--default-rows", type=float, default=1e6,
                        help="row count assumed for tables missing from the "
                             "catalog (default: 1e6)")
    parser.add_argument("--time-budget", type=float, default=None,
                        help="per-query optimization budget in seconds")
    parser.add_argument("--backend",
                        choices=("scalar", "vectorized", "multicore", "auto"),
                        default="auto",
                        help="kernel execution backend for the DP inner "
                             "loops (default: auto); plans are identical "
                             "either way")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker-process count for the multicore kernel "
                             "backend (default: one per usable CPU)")
    parser.add_argument("--threads", type=int, default=4,
                        help="service worker-thread count (default: 4)")
    parser.add_argument("--queue-limit", type=int, default=64,
                        help="bounded request-queue depth; admission sheds "
                             "beyond it (default: 64)")
    parser.add_argument("--deadline", type=float, default=None,
                        help="per-request queue deadline in seconds "
                             "(expired requests are answered without "
                             "planning; default: no deadline)")
    parser.add_argument("--warm-start", default=None, metavar="PATH",
                        help="plan-cache persistence file: restored at "
                             "startup when present, saved at shutdown")


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-plan serve",
        description="Start a planner service on a catalog and serve SQL "
                    "statements (one per line) from a file or stdin.")
    parser.add_argument("--queries", "-q", default=None,
                        help="file with one SQL statement per line "
                             "(default: read stdin); blank lines and "
                             "#-comments are skipped")
    _add_service_options(parser)
    return parser


def build_replay_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-plan replay",
        description="Replay a zipfian request stream over a query file "
                    "through the planner service and print the "
                    "BENCH_service.json-style summary.")
    parser.add_argument("--queries", "-q", required=True,
                        help="file with one SQL statement per line (the "
                             "distinct query population)")
    parser.add_argument("--requests", "-n", type=int, default=10_000,
                        help="replay length (default: 10000)")
    parser.add_argument("--zipf-s", type=float, default=1.1,
                        help="zipf skew exponent (default: 1.1)")
    parser.add_argument("--seed", type=int, default=0,
                        help="replay RNG seed (default: 0)")
    _add_service_options(parser)
    return parser


def _read_statements(path: Optional[str]) -> List[str]:
    """One SQL statement per non-blank, non-comment line."""
    if path is None:
        lines = sys.stdin.readlines()
    else:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    statements = []
    for line in lines:
        text = line.strip().rstrip(";").strip()
        if text and not text.startswith("#"):
            statements.append(text)
    return statements


def _load_workload(args, statements: List[str]):
    """(catalog, parsed queries) for a statement list; raises ValueError/
    SQLParseError with readable messages."""
    from ..sql.parser import parse_join_query

    spec = None
    if args.catalog is not None:
        with open(args.catalog, "r", encoding="utf-8") as handle:
            spec = json.load(handle)
    tables: List[str] = []
    for statement in statements:
        tables.extend(referenced_tables(statement))
    catalog = catalog_from_spec(spec, tables, args.default_rows)
    parsed = [parse_join_query(statement, catalog, name=f"q{index}")
              for index, statement in enumerate(statements)]
    return catalog, parsed


def _make_service(args):
    from .server import PlannerService

    planner = AdaptivePlanner(time_budget_seconds=args.time_budget,
                              backend=args.backend, workers=args.workers)
    return PlannerService(planner, workers=args.threads,
                          queue_limit=args.queue_limit,
                          deadline_seconds=args.deadline,
                          warm_start_path=args.warm_start)


def _main_serve(argv: List[str]) -> int:
    args = build_serve_parser().parse_args(argv)
    if args.threads < 1 or args.queue_limit < 1:
        print("error: --threads and --queue-limit must be >= 1",
              file=sys.stderr)
        return 2
    try:
        statements = _read_statements(args.queries)
        catalog, parsed = _load_workload(args, statements)
    except (OSError, json.JSONDecodeError, ValueError,
            SQLParseError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if not parsed:
        print("error: no SQL statements to serve", file=sys.stderr)
        return 1
    service = _make_service(args)
    try:
        for index, item in enumerate(parsed):
            reply = service.plan(item.query)
            if reply.status == "ok":
                decision = reply.outcome.decision
                print(f"q{index}: ok algorithm={decision.algorithm} "
                      f"shape={decision.shape} "
                      f"cost={reply.outcome.cost:,.1f} "
                      f"cache_hit={decision.cache_hit} "
                      f"ms={(reply.queue_seconds + reply.plan_seconds) * 1e3:.2f}")
            else:
                print(f"q{index}: {reply.status}"
                      + (f" ({reply.error})" if reply.error else ""))
        stats = service.stats()
        cache = stats["cache"]
        print(f"served {stats['submitted']} requests: "
              f"{stats['statuses']}; "
              f"cache entries={cache.get('entries', 0)} "
              f"hit_rate={cache.get('hit_rate', 0.0):.2%}"
              + (f"; warm-started {stats['restored_entries']} entries"
                 if stats["restored_entries"] else ""))
    finally:
        service.close()
    return 0


def _main_replay(argv: List[str]) -> int:
    args = build_replay_parser().parse_args(argv)
    if args.threads < 1 or args.queue_limit < 1 or args.requests < 1:
        print("error: --threads, --queue-limit and --requests must be >= 1",
              file=sys.stderr)
        return 2
    from .server import replay_zipfian

    try:
        statements = _read_statements(args.queries)
        catalog, parsed = _load_workload(args, statements)
    except (OSError, json.JSONDecodeError, ValueError,
            SQLParseError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if not parsed:
        print("error: no SQL statements to replay", file=sys.stderr)
        return 1
    service = _make_service(args)
    try:
        summary = replay_zipfian(
            service, [item.query for item in parsed], args.requests,
            client_threads=args.threads, zipf_s=args.zipf_s, seed=args.seed,
            deadline_seconds=args.deadline)
        stats = service.stats()
        summary["statuses"] = dict(summary["statuses"])
        summary["coalesced_plans"] = stats["coalesced_plans"]
        summary["restored_entries"] = stats["restored_entries"]
    except OptimizationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        service.close()
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via console script
    sys.exit(main())
