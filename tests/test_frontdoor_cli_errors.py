"""Error-path coverage for the SQL front door and the ``repro-plan`` CLI.

The happy paths are covered by ``test_planner.py`` / ``test_sql_parser.py``;
this module pins the failure behaviour the serving layer depends on:
malformed SQL and catalogs report readable errors (CLI exit code 1, typed
exceptions from ``plan_sql``), unknown backend names and invalid worker
counts are rejected up front, and >62-relation queries quietly degrade the
multicore/vectorized request to the scalar loops instead of failing.
"""

from __future__ import annotations

import json

import pytest

from repro.catalog.schema import Catalog
from repro.exec import ScalarBackend, resolve_backend
from repro.optimizers.base import OptimizationError
from repro.planner.cli import main
from repro.sql import plan_sql, plan_sql_many
from repro.sql.parser import SQLParseError


def _catalog(*tables: str) -> Catalog:
    catalog = Catalog()
    for table in tables:
        catalog.add_table(table, 1e4)
    return catalog


class TestFrontDoorErrors:
    def test_malformed_sql_raises_parse_error(self):
        catalog = _catalog("a", "b")
        for bad in ("",                                   # no FROM clause
                    "select * from",                      # empty table list
                    "select * from a where a.x =",        # dangling predicate
                    "select * from a where x = y",        # unqualified columns
                    "select * from a, b where c.x = b.x"  # unknown alias
                    ):
            with pytest.raises(SQLParseError):
                plan_sql(bad, catalog)

    def test_cross_product_raises_optimization_error(self):
        catalog = _catalog("a", "b")
        with pytest.raises(OptimizationError, match="disconnected"):
            plan_sql("select * from a, b", catalog)

    def test_unknown_backend_name_rejected(self):
        catalog = _catalog("a", "b")
        with pytest.raises(ValueError, match="unknown kernel backend"):
            plan_sql("select * from a, b where a.x = b.x", catalog,
                     backend="simd")

    def test_workers_below_one_rejected(self):
        catalog = _catalog("a", "b")
        with pytest.raises(ValueError, match="positive integer"):
            plan_sql("select * from a, b where a.x = b.x", catalog,
                     workers=0)

    def test_plan_sql_many_propagates_and_isolates_errors(self):
        catalog = _catalog("a", "b", "c")
        good = "select * from a, b where a.x = b.x"
        with pytest.raises(SQLParseError):
            plan_sql_many([good, "selec nonsense"], catalog)
        # A disconnected statement parses but cannot be planned; the batch
        # API surfaces that as OptimizationError (planner's on_error="raise").
        with pytest.raises(OptimizationError):
            plan_sql_many([good, "select * from a, c"], catalog)

    def test_wide_query_multicore_request_runs_natively(self):
        """>62 relations ride multi-word kernel columns: the multicore
        request must resolve to the real backend and produce a plan."""
        n = 65
        tables = [f"t{i}" for i in range(n)]
        catalog = _catalog(*tables)
        predicates = " and ".join(
            f"t0.c{i} = t{i}.c{i}" for i in range(1, n))
        sql = f"select * from {', '.join(tables)} where {predicates}"
        planned = plan_sql(sql, catalog, backend="multicore", workers=2)
        assert planned.outcome.plan is not None
        assert planned.outcome.decision.backend == "multicore"
        from repro.exec.multicore import MulticoreBackend

        query = planned.parsed.query
        assert isinstance(resolve_backend("multicore", query, workers=2),
                          MulticoreBackend)


class TestCLIErrorPaths:
    def test_no_query_given(self, capsys):
        assert main([]) == 2
        assert "provide the query" in capsys.readouterr().err

    def test_both_inline_and_file(self, capsys, tmp_path):
        query_file = tmp_path / "q.sql"
        query_file.write_text("select * from a")
        assert main(["select * from a", "--file", str(query_file)]) == 2

    def test_missing_file(self, capsys):
        assert main(["--file", "/nonexistent/query.sql"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_sql(self, capsys):
        assert main(["select * from a where a.x ="]) == 1
        assert "error:" in capsys.readouterr().err

    def test_cross_product_query(self, capsys):
        assert main(["select * from a, b"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_catalog_json(self, capsys, tmp_path):
        bad_catalog = tmp_path / "catalog.json"
        bad_catalog.write_text("{not json")
        assert main(["select * from a, b where a.x = b.x",
                     "--catalog", str(bad_catalog)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("rows,message", [
        ("many", "non-numeric"),
        (float("nan"), "positive, finite"),
        ("nan", "positive, finite"),
        (float("inf"), "positive, finite"),
    ])
    def test_catalog_spec_type_errors(self, capsys, tmp_path, rows, message):
        bad_catalog = tmp_path / "catalog.json"
        # json writes the floats as NaN / Infinity, which json.load accepts.
        bad_catalog.write_text(json.dumps({"tables": {"a": {"rows": rows}}}))
        assert main(["select * from a, b where a.x = b.x",
                     "--catalog", str(bad_catalog)]) == 1
        assert message in capsys.readouterr().err

    def test_unknown_backend_is_an_argparse_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["select * from a, b where a.x = b.x",
                  "--backend", "simd"])
        assert excinfo.value.code == 2

    def test_workers_below_one(self, capsys):
        assert main(["select * from a, b where a.x = b.x",
                     "--workers", "0"]) == 1
        assert "positive integer" in capsys.readouterr().err

    def test_non_integer_workers_is_an_argparse_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["select * from a, b where a.x = b.x",
                  "--workers", "two"])
        assert excinfo.value.code == 2
