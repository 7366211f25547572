"""The client cursor: execute, describe, fetch, stream, cancel.

A PEP-249-shaped cursor over the warehouse's unified submission
pipeline (DESIGN.md section 10).  ``execute()`` parses and binds the
statement *before* anything touches the pipeline, submits through
``Warehouse.submit`` (mid-scan under a running service driver), and
exposes the results as the familiar ``fetchone`` / ``fetchmany`` /
``fetchall`` / iteration surface plus two warehouse-native extensions:
``rows_so_far()`` (the query's live partial snapshot while its scan
cycle is still running) and ``cancel()`` (mid-scan deregistration that
frees the in-flight slot).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.catalog.schema import DataType, StarSchema
from repro.client.exceptions import (
    InterfaceError,
    ProgrammingError,
    translated,
)
from repro.query.aggregates import AggregateSpec
from repro.query.star import StarQuery
from repro.sql import ast
from repro.sql.parser import bind_parameters, bind_star_query, parse_select

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cjoin.registry import QueryHandle
    from repro.client.connection import Connection


class _DBAPITypeObject:
    """PEP 249 type object: equal to every member DataType."""

    def __init__(self, name: str, *members: DataType) -> None:
        self._name = name
        self._members = frozenset(members)

    def __eq__(self, other) -> bool:
        return other is self or other in self._members

    def __hash__(self) -> int:
        return hash(self._name)

    def __repr__(self) -> str:
        return f"<DBAPIType {self._name}>"


#: Compare ``description`` type codes against these (PEP 249 style).
STRING = _DBAPITypeObject("STRING", DataType.STRING)
NUMBER = _DBAPITypeObject(
    "NUMBER", DataType.INT, DataType.FLOAT, DataType.DATE
)


def _aggregate_name(spec: AggregateSpec) -> str:
    """Canonical display name for an unaliased aggregate column."""
    if spec.is_count_star:
        return "count(*)"
    if spec.column2 is not None:
        return f"{spec.kind}({spec.column} {spec.combine} {spec.column2})"
    return f"{spec.kind}({spec.column})"


def _aggregate_type(spec: AggregateSpec, star: StarSchema) -> DataType:
    """Result type of an aggregate column."""
    if spec.is_count_star or spec.kind == "count":
        return DataType.INT
    if spec.kind == "avg":
        return DataType.FLOAT
    return star.table(spec.table).column(spec.column).dtype


def describe(
    statement: ast.SelectStatement, query: StarQuery, star: StarSchema
) -> tuple:
    """Build the PEP 249 ``description`` for a bound statement.

    One 7-tuple ``(name, type_code, None, None, None, None, False)``
    per output column, in result-row order: the plain select columns
    first (matching the binder's select order), then the aggregates —
    exactly the layout of every result row.
    """
    entries = []
    aliases = [
        item.alias
        for item in statement.select_items
        if isinstance(item, ast.SelectColumn)
    ]
    for ref, alias in zip(query.select, aliases):
        dtype = star.table(ref.table).column(ref.column).dtype
        entries.append((alias or ref.column, dtype, None, None, None, None, False))
    for spec in query.aggregates:
        entries.append(
            (
                spec.alias or _aggregate_name(spec),
                _aggregate_type(spec, star),
                None,
                None,
                None,
                None,
                False,
            )
        )
    return tuple(entries)


class Cursor:
    """One statement execution context over a :class:`Connection`.

    Attributes:
        connection: the owning connection (PEP 249 extension).
        arraysize: default :meth:`fetchmany` size (PEP 249; default 1).
    """

    def __init__(self, connection: "Connection") -> None:
        self.connection = connection
        self.arraysize = 1
        self._closed = False
        self._handles: list["QueryHandle"] = []
        self._description: tuple | None = None
        self._rows: list[tuple] | None = None
        self._index = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the cursor (idempotent); further use raises.

        Also deregisters from the connection, so a long-lived session
        that opens a cursor per statement does not accumulate them.
        """
        if self._closed:
            return
        self._closed = True
        self._handles = []
        self._rows = None
        self._description = None
        self.connection._forget(self)

    def __enter__(self) -> "Cursor":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise InterfaceError("cursor is closed")
        self.connection._check_open()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, sql: str, params=None) -> "Cursor":
        """Parse, bind, and submit one statement; returns self.

        Parsing and parameter binding complete before the pipeline is
        touched, so a malformed statement or mismatched parameters
        leave no query behind.  Under a running service driver the
        query is admitted mid-scan and completes in the background;
        fetches block until its scan cycle wraps.
        """
        self._check_open()
        with translated():
            statement = parse_select(sql)
            bound = bind_parameters(statement, params)
            star = self.connection.warehouse.star
            query = bind_star_query(bound, star)
            handle = self.connection.warehouse.submit(query)
        self._handles = [handle]
        self._description = describe(statement, query, star)
        self._rows = None
        self._index = 0
        return self

    def executemany(self, sql: str, seq_of_params) -> "Cursor":
        """Execute one statement once per parameter set.

        The statement is parsed once; each binding is submitted
        immediately, so the whole family fans out over the service's
        admission queue and shares the continuous scan.  Fetches return
        the concatenated results in submission order.
        """
        self._check_open()
        with translated():
            statement = parse_select(sql)
            star = self.connection.warehouse.star
            # bind every parameter set before submitting anything, so a
            # bad binding leaves no query behind (same contract as
            # execute()); a submission failure mid-fan-out cancels the
            # queries already in flight for the same reason
            queries = [
                bind_star_query(bind_parameters(statement, params), star)
                for params in seq_of_params
            ]
            description: tuple | None = (
                describe(statement, queries[0], star) if queries else None
            )
            handles: list["QueryHandle"] = []
            try:
                for query in queries:
                    handles.append(self.connection.warehouse.submit(query))
            except BaseException:
                for handle in handles:
                    handle.cancel()
                raise
        self._handles = handles
        self._description = description
        # zero bindings is a statement that was executed zero times:
        # fetches return an empty result set, not 'never executed'
        self._rows = None if handles else []
        self._index = 0
        return self

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def description(self) -> tuple | None:
        """Per-column 7-tuples for the last statement (PEP 249)."""
        return self._description

    @property
    def rowcount(self) -> int:
        """Rows in the result set; -1 until the first fetch."""
        if self._rows is None:
            return -1
        return len(self._rows)

    def _ensure_rows(self) -> list[tuple]:
        if self._rows is None:
            self._check_executed()
            rows: list[tuple] = []
            with translated():
                for handle in self._handles:
                    self.connection._complete(handle)
                    rows.extend(
                        handle.results(timeout=self.connection.fetch_timeout)
                    )
            self._rows = rows
        return self._rows

    def fetchone(self) -> tuple | None:
        """The next result row, or None when exhausted (blocks first)."""
        self._check_open()
        rows = self._ensure_rows()
        if self._index >= len(rows):
            return None
        row = rows[self._index]
        self._index += 1
        return row

    def fetchmany(self, size: int | None = None) -> list[tuple]:
        """The next ``size`` rows (default :attr:`arraysize`)."""
        self._check_open()
        if size is None:
            size = self.arraysize
        if size < 0:
            raise InterfaceError(f"fetchmany size must be >= 0, got {size}")
        rows = self._ensure_rows()
        chunk = rows[self._index:self._index + size]
        self._index += len(chunk)
        return chunk

    def fetchall(self) -> list[tuple]:
        """Every remaining result row."""
        self._check_open()
        rows = self._ensure_rows()
        chunk = rows[self._index:]
        self._index = len(rows)
        return chunk

    def __iter__(self) -> "Cursor":
        return self

    def __next__(self) -> tuple:
        row = self.fetchone()
        if row is None:
            raise StopIteration
        return row

    # ------------------------------------------------------------------
    # Warehouse-native extensions
    # ------------------------------------------------------------------
    def _check_executed(self) -> None:
        if not self._handles and self._rows is None:
            raise ProgrammingError(
                "no statement executed yet; call execute() first"
            )

    def rows_so_far(self) -> list[tuple]:
        """Live partial results while the scan cycle is running.

        Concatenates each in-flight query's latest Distributor-fed
        snapshot; equals the final result set after completion.  Never
        blocks.
        """
        self._check_open()
        self._check_executed()
        rows: list[tuple] = []
        for handle in self._handles:
            rows.extend(handle.rows_so_far())
        return rows

    def cancel(self) -> int:
        """Cancel the statement's in-flight queries.

        Mid-scan queries are deregistered through the manager's stall
        protocol (their slots free within one scan cycle); queued ones
        are dropped where they wait.  Returns how many queries were
        cancelled; completed queries keep their results.  Fetching from
        a cancelled statement raises
        :class:`~repro.client.exceptions.OperationalError`.
        """
        self._check_open()
        self._check_executed()
        with translated():
            return sum(1 for handle in self._handles if handle.cancel())
