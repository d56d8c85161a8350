"""Schema objects and statistics.

A :class:`Catalog` plays the role of PostgreSQL's system catalog in this
reproduction: it records every table, its row count, its columns (with
number-of-distinct-values statistics) and the declared foreign keys.  The
workload generators build catalogs programmatically (star, snowflake,
MusicBrainz-like, IMDB-like) and the cardinality estimator reads the
statistics when assigning selectivities to join edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = ["Column", "Table", "ForeignKey", "Catalog"]


@dataclass(frozen=True)
class Column:
    """A table column with the statistics the estimator needs.

    Attributes:
        name: column name, unique within its table.
        n_distinct: estimated number of distinct values.  For a primary key
            this equals the table's row count.
        is_primary_key: True when the column is (part of) the primary key.
    """

    name: str
    n_distinct: float
    is_primary_key: bool = False

    def __post_init__(self) -> None:
        if self.n_distinct <= 0:
            raise ValueError(f"n_distinct must be positive, got {self.n_distinct}")


@dataclass(frozen=True)
class ForeignKey:
    """A declared foreign key from one table/column to another."""

    table: str
    column: str
    referenced_table: str
    referenced_column: str


@dataclass
class Table:
    """A base table: name, row count and columns."""

    name: str
    rows: float
    columns: Dict[str, Column] = field(default_factory=dict)
    pages: Optional[float] = None
    tuples_per_page: float = 100.0

    def __post_init__(self) -> None:
        if not 0 < self.rows < math.inf:
            raise ValueError(f"table {self.name!r} must have a positive, finite "
                             f"row count, got {self.rows!r}")
        if self.pages is None:
            self.pages = max(1.0, self.rows / self.tuples_per_page)

    def add_column(self, name: str, n_distinct: Optional[float] = None,
                   is_primary_key: bool = False) -> Column:
        """Add a column; a primary key defaults its distinct count to the row count."""
        if name in self.columns:
            raise ValueError(f"duplicate column {name!r} on table {self.name!r}")
        if n_distinct is None:
            n_distinct = self.rows if is_primary_key else max(1.0, self.rows / 10.0)
        column = Column(name=name, n_distinct=min(n_distinct, self.rows) if n_distinct > 1 else n_distinct,
                        is_primary_key=is_primary_key)
        self.columns[name] = column
        return column

    def column(self, name: str) -> Column:
        """Look up a column by name; raises KeyError if missing."""
        return self.columns[name]

    @property
    def primary_key(self) -> Optional[Column]:
        """The first primary-key column, if one is declared."""
        for column in self.columns.values():
            if column.is_primary_key:
                return column
        return None


class Catalog:
    """A collection of tables plus foreign-key metadata."""

    def __init__(self) -> None:
        self._tables: Dict[str, Table] = {}
        self._foreign_keys: List[ForeignKey] = []

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_table(self, name: str, rows: float, tuples_per_page: float = 100.0) -> Table:
        """Create and register a table."""
        if name in self._tables:
            raise ValueError(f"duplicate table {name!r}")
        table = Table(name=name, rows=rows, tuples_per_page=tuples_per_page)
        self._tables[name] = table
        return table

    def add_foreign_key(self, table: str, column: str,
                        referenced_table: str, referenced_column: str) -> ForeignKey:
        """Register a foreign key; both endpoints must already exist."""
        self.table(table).column(column)
        self.table(referenced_table).column(referenced_column)
        fk = ForeignKey(table, column, referenced_table, referenced_column)
        self._foreign_keys.append(fk)
        return fk

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def table(self, name: str) -> Table:
        """Look up a table by name; raises KeyError if missing."""
        if name not in self._tables:
            raise KeyError(f"unknown table {name!r}")
        return self._tables[name]

    def has_table(self, name: str) -> bool:
        return name in self._tables

    @property
    def tables(self) -> List[Table]:
        """Every table, in insertion order."""
        return list(self._tables.values())

    @property
    def table_names(self) -> List[str]:
        return list(self._tables.keys())

    @property
    def foreign_keys(self) -> Tuple[ForeignKey, ...]:
        return tuple(self._foreign_keys)

    def __len__(self) -> int:
        return len(self._tables)

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def __iter__(self) -> Iterator[Table]:
        return iter(self._tables.values())

    # ------------------------------------------------------------------ #
    # Statistics helpers
    # ------------------------------------------------------------------ #
    def join_selectivity(self, left_table: str, left_column: str,
                         right_table: str, right_column: str) -> float:
        """System-R equi-join selectivity: ``1 / max(ndv(left), ndv(right))``."""
        left_ndv = self.table(left_table).column(left_column).n_distinct
        right_ndv = self.table(right_table).column(right_column).n_distinct
        return 1.0 / max(left_ndv, right_ndv, 1.0)

    def is_pk_fk_join(self, left_table: str, left_column: str,
                      right_table: str, right_column: str) -> bool:
        """True when either side is a declared PK referenced by the other's FK."""
        for fk in self._foreign_keys:
            if (fk.table == left_table and fk.column == left_column
                    and fk.referenced_table == right_table and fk.referenced_column == right_column):
                return True
            if (fk.table == right_table and fk.column == right_column
                    and fk.referenced_table == left_table and fk.referenced_column == left_column):
                return True
        return False
