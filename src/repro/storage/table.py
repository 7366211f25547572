"""Tables: a schema bound to a heap file of rows.

Besides the heap and the primary-key map a table can carry **ordered
column indexes** (paper section 5: dimension indexes are common and
query registration uses them transparently).  There is one index
structure: per column, the non-NULL values in sorted order beside the
heap positions of their rows.  Bisection answers ``=``, ``IN``,
``BETWEEN`` and the four inequalities in O(log N + k), and the
positions are put back into heap order before rows are returned, so an
index-served selection yields exactly the rows, in exactly the order,
that a scan filtered by the predicate would.  NULLs are left out of the
index because a comparison against NULL is false
(:mod:`repro.query.predicate`).

An index is built on first use (:meth:`Table.select`) or on request
(:meth:`Table.create_index`) from a heap-ordered row list all of a
table's indexes share.  ``insert`` and ``upsert`` *invalidate*: they
drop the row list and mark every index stale, and the next lookup
rebuilds what it needs.  Dimension tables change rarely and are small,
so a rebuild (one sort) is cheaper to keep correct than in-place
maintenance; fact tables carry no index and pay two attribute tests per
insert.  A column whose values cannot be put in one order (mixed
incomparable types, NaN) has no usable index: lookups on it answer
"cannot serve" and the caller scans.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable
from operator import ne

from repro.catalog.schema import TableSchema
from repro.errors import StorageError
from repro.query.predicate import (
    Between,
    Comparison,
    InList,
    Predicate,
    TruePredicate,
    implied_interval,
)
from repro.storage.heap import HeapFile
from repro.storage.page import DEFAULT_ROWS_PER_PAGE


class _OrderedIndex:
    """One column's non-NULL values, sorted, beside their heap positions.

    ``values[i]`` belongs to the row at heap position ``positions[i]``;
    the sort is stable, so equal values keep ascending positions.
    ``values is None`` marks a column that cannot be ordered.
    """

    __slots__ = ("values", "positions")

    def __init__(self, column: list) -> None:
        positions = [
            position
            for position, value in enumerate(column)
            if value is not None
        ]
        self.values = self.positions = None
        try:
            positions.sort(key=column.__getitem__)
        except TypeError:  # mixed incomparable types
            return
        values = [column[position] for position in positions]
        if any(map(ne, values, values)):  # NaN: sort() did not order it
            return
        self.values = values
        self.positions = positions

    def span(self, low, high, low_inclusive=True, high_inclusive=True):
        """Heap positions of the values in the interval (sorted-value order).

        A ``None`` bound is unbounded.  Returns None when the column
        cannot be ordered or a bound cannot be compared with it (another
        type, NaN).
        """
        values = self.values
        if values is None or low != low or high != high:  # NaN bound
            return None
        try:
            if low is None:
                start = 0
            elif low_inclusive:
                start = bisect_left(values, low)
            else:
                start = bisect_right(values, low)
            if high is None:
                stop = len(values)
            elif high_inclusive:
                stop = bisect_right(values, high)
            else:
                stop = bisect_left(values, high)
        except TypeError:
            return None
        return self.positions[start:stop]  # empty when the range is inverted


class Table:
    """A row-store table.

    Rows are plain tuples in schema column order, stored append-only in
    a :class:`~repro.storage.heap.HeapFile`.  Reads on the query path
    go through scans (:mod:`repro.storage.scan`) so that I/O is charged
    to a buffer pool; direct accessors exist for tests and bulk
    internal work.
    """

    def __init__(
        self,
        schema: TableSchema,
        rows_per_page: int = DEFAULT_ROWS_PER_PAGE,
    ) -> None:
        self.schema = schema
        self.heap = HeapFile(rows_per_page)
        self._pk_index: dict[object, tuple[int, int]] | None = (
            {} if schema.primary_key is not None else None
        )
        #: every row in heap order, shared by the ordered indexes
        #: (None = not built, or dropped by an insert/upsert)
        self._rows: list[tuple] | None = None
        #: column name -> ordered index (None = declared but stale)
        self._indexes: dict[str, _OrderedIndex | None] = {}

    @classmethod
    def from_rows(
        cls,
        schema: TableSchema,
        rows: Iterable[tuple],
        rows_per_page: int = DEFAULT_ROWS_PER_PAGE,
    ) -> "Table":
        """Build a table and bulk-insert ``rows`` (validated)."""
        table = cls(schema, rows_per_page)
        for row in rows:
            table.insert(row)
        return table

    @classmethod
    def from_validated_rows(
        cls,
        schema: TableSchema,
        rows: list[tuple],
        rows_per_page: int = DEFAULT_ROWS_PER_PAGE,
    ) -> "Table":
        """Bulk-load rows that are already known schema-valid.

        The fast path for rehosting a slice of an existing table (fact
        shards in the data-parallel drain, DESIGN.md section 8):
        pages are built by slicing, skipping per-row validation, and no
        primary-key index is maintained.  The schema is stored without
        its primary key so key lookups fail loudly (None) instead of
        silently missing rows; ordered column indexes build from the
        heap as on any table.
        """
        from repro.storage.page import Page

        table = cls(schema.without_primary_key(), rows_per_page)
        heap = table.heap
        for page_id, start in enumerate(range(0, len(rows), rows_per_page)):
            page = Page(page_id, rows_per_page)
            page.rows = list(rows[start:start + rows_per_page])
            heap.pages.append(page)
        heap._row_count = len(rows)
        return table

    def insert(self, row: tuple) -> tuple[int, int]:
        """Validate and append ``row``; return its (page, slot) address.

        Raises:
            SchemaError: if the row does not match the schema.
            StorageError: on duplicate primary key.
        """
        row = tuple(row)
        self.schema.validate_row(row)
        if self._pk_index is not None:
            key = row[self.schema.column_index(self.schema.primary_key)]
            if key in self._pk_index:
                raise StorageError(
                    f"duplicate primary key {key!r} in table {self.schema.name!r}"
                )
            address = self.heap.append_row(row)
            self._pk_index[key] = address
        else:
            address = self.heap.append_row(row)
        self._invalidate_indexes()
        return address

    def upsert(self, row: tuple) -> tuple[int, int]:
        """Insert ``row``, or replace the row sharing its primary key.

        The replace happens in place at the existing heap address, so
        row count, page layout, and scan order are all unchanged —
        which is what lets the streaming-ingest path upsert dimensions
        under the continuous scan without disturbing its stable-order
        guarantee (DESIGN.md section 15).  Column indexes are
        invalidated and rebuild on their next use.

        Raises:
            SchemaError: if the row does not match the schema.
            StorageError: if the table has no primary key (fact tables
                take plain appends, not upserts).
        """
        row = tuple(row)
        self.schema.validate_row(row)
        if self._pk_index is None:
            raise StorageError(
                f"table {self.schema.name!r} has no primary key; "
                f"upsert targets keyed (dimension) tables"
            )
        key = row[self.schema.column_index(self.schema.primary_key)]
        address = self._pk_index.get(key)
        if address is None:
            return self.insert(row)
        self.heap.write_row(*address, row)
        self._invalidate_indexes()
        return address

    def lookup_pk(self, key: object) -> tuple | None:
        """Return the row with primary key ``key``, or None.

        This is an in-memory index lookup (no I/O charge): the paper
        allows indexes on dimension tables, and CJOIN's admission path
        uses them transparently (section 5).
        """
        if self._pk_index is None:
            raise StorageError(
                f"table {self.schema.name!r} has no primary key index"
            )
        address = self._pk_index.get(key)
        if address is None:
            return None
        return self.heap.read_row(*address)

    # ------------------------------------------------------------------
    # Ordered column indexes (module docstring; paper section 5)
    # ------------------------------------------------------------------
    def create_index(self, column_name: str) -> None:
        """Build the ordered index on ``column_name`` (idempotent)."""
        self._ordered_index(column_name)

    def has_index(self, column_name: str) -> bool:
        """True iff an index on ``column_name`` was created or used."""
        return column_name in self._indexes

    def index_lookup(self, column_name: str, values) -> list[tuple]:
        """Rows whose indexed column equals any of ``values``, heap order.

        An in-memory index access: no buffer-pool I/O is charged,
        matching the treatment of the primary-key index.

        Raises:
            StorageError: if the column has no index, or its values (or
                a probe value) cannot be ordered.
        """
        if column_name not in self._indexes:
            raise StorageError(
                f"table {self.schema.name!r} has no index on {column_name!r}"
            )
        rows = self._rows_equal_to(column_name, values)
        if rows is None:
            raise StorageError(
                f"column {self.schema.name}.{column_name} cannot be "
                f"ordered against {sorted(values, key=repr)!r}"
            )
        return rows

    def select(self, predicate: Predicate) -> list[tuple] | None:
        """Rows satisfying ``predicate`` in heap order, without a scan.

        Serves ``TruePredicate`` from the shared row list and a
        single-column ``=``, ``<``, ``<=``, ``>``, ``>=``, ``BETWEEN``
        or ``IN`` from that column's ordered index, building it on
        first use.  Returns None — the caller scans — for every other
        shape (composites, ``!=``, NULL operands) and when the column
        or an operand cannot be ordered.  No buffer-pool I/O is charged.
        """
        if isinstance(predicate, TruePredicate):
            return list(self._heap_rows())
        if isinstance(predicate, InList):
            return self._rows_equal_to(predicate.column, predicate.values)
        if isinstance(predicate, Comparison):
            if predicate.op == "!=" or predicate.value is None:
                return None
        elif isinstance(predicate, Between):
            if predicate.low is None or predicate.high is None:
                return None
        else:
            return None
        column_name = predicate.column
        positions = self._ordered_index(column_name).span(
            *implied_interval(predicate, column_name)
        )
        if positions is None:
            return None
        return self._rows_at(positions)

    def _rows_equal_to(self, column_name: str, values) -> list[tuple] | None:
        """Rows whose column equals any of ``values``; None = cannot serve."""
        index = self._ordered_index(column_name)
        # equal probes (1, 1.0, True) hit one span: the set keeps each
        # row once
        positions: set[int] = set()
        for value in values:
            if value is None:
                return None  # IN (..., NULL) matches NULL rows: scan
            span = index.span(value, value)
            if span is None:
                return None
            positions.update(span)
        return self._rows_at(positions)

    def _rows_at(self, positions) -> list[tuple]:
        """The rows at ``positions``, put back into heap order."""
        return list(map(self._heap_rows().__getitem__, sorted(positions)))

    def _heap_rows(self) -> list[tuple]:
        rows = self._rows
        if rows is None:
            rows = self._rows = list(self.heap.iter_rows())
        return rows

    def _ordered_index(self, column_name: str) -> _OrderedIndex:
        index = self._indexes.get(column_name)
        if index is None:
            position = self.schema.column_index(column_name)  # raises
            index = self._indexes[column_name] = _OrderedIndex(
                [row[position] for row in self._heap_rows()]
            )
        return index

    def _invalidate_indexes(self) -> None:
        if self._rows is not None or self._indexes:
            self._rows = None
            self._indexes = dict.fromkeys(self._indexes)

    @property
    def row_count(self) -> int:
        """Number of rows in the table."""
        return self.heap.row_count

    @property
    def page_count(self) -> int:
        """Number of pages in the table's heap."""
        return self.heap.page_count

    def all_rows(self) -> list[tuple]:
        """Return every row in heap order (test/bulk helper, no I/O charge)."""
        return list(self.heap.iter_rows())

    def __repr__(self) -> str:
        return f"Table({self.schema.name!r}, rows={self.row_count})"
