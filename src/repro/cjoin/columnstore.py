"""CJOIN over a column-store fact table (paper section 5).

The continuous scan becomes a continuous *merge* of only those fact
columns the query mix needs: the foreign keys of the star's dimensions
plus whatever fact attributes queries touch.  The rest of the pipeline
is unchanged — merged rows are full-arity tuples with ``None`` in
unread positions, so Filters and output operators run as-is, while the
buffer pool observes proportionally less I/O (the benefit the paper
describes).

The scanned column set is fixed when the operator is built (a
deployment decision, like a projection in C-Store); admission rejects
queries that need unscanned fact columns.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.catalog.catalog import Catalog
from repro.catalog.schema import StarSchema
from repro.cjoin.operator import CJoinOperator
from repro.cjoin.registry import QueryHandle
from repro.errors import AdmissionError
from repro.query.star import StarQuery
from repro.storage.buffer import BufferPool
from repro.storage.column import ColumnStoreTable


def fact_columns_needed(query: StarQuery, star: StarSchema) -> set[str]:
    """Fact columns a query reads: FKs of referenced dims, fact

    predicate inputs, and fact-side outputs (group-by/select/aggregate
    columns on the fact table).
    """
    needed: set[str] = set()
    for name in query.referenced_dimensions():
        needed.add(star.fact.foreign_key_to(name).column)
    if query.fact_predicate is not None:
        needed |= query.fact_predicate.referenced_columns()
    for ref in [*query.group_by, *query.select]:
        if ref.table == query.fact_table:
            needed.add(ref.column)
    for spec in query.aggregates:
        if spec.table == query.fact_table:
            needed.add(spec.column)
            if spec.column2 is not None:
                needed.add(spec.column2)
    return needed


class ColumnMergeContinuousScan:
    """A circular merge-scan over selected columns of a column store.

    A scan source (see :class:`~repro.storage.scan.ContinuousScan`);
    unselected columns are ``None`` in the produced rows.
    """

    def __init__(
        self,
        table: ColumnStoreTable,
        column_names: Iterable[str],
        buffer_pool: BufferPool,
    ) -> None:
        self.table = table
        self.buffer_pool = buffer_pool
        self.column_names = sorted(set(column_names))
        for name in self.column_names:
            if name not in table.column_heaps:
                raise AdmissionError(
                    f"column store has no column {name!r}"
                )
        self._readers = [
            (table.schema.column_index(name), table.column_heaps[name])
            for name in self.column_names
        ]
        self._position = 0
        self._tuples_returned = 0

    @property
    def next_position(self) -> int:
        """Position of the first row the next :meth:`next_run` returns."""
        if self._position >= self.table.row_count:
            return 0
        return self._position

    @property
    def row_count(self) -> int:
        """Rows one cycle visits."""
        return self.table.row_count

    @property
    def tuples_returned(self) -> int:
        """Total tuples produced since construction."""
        return self._tuples_returned

    def next_run(self, max_rows: int) -> tuple[int, list[tuple]] | None:
        """Return ``(start_position, merged rows)``, or None when empty.

        A run never crosses a value page or the table end, so each
        scanned column costs one buffer-pool fetch per run; the value
        slices are zipped back into full-arity rows.
        """
        row_count = self.table.row_count
        if row_count == 0 or max_rows < 1:
            return None
        if self._position >= row_count:
            self._position = 0
        position = self._position
        values_per_page = self.table.values_per_page
        page_id, slot_id = divmod(position, values_per_page)
        available = min(
            values_per_page - slot_id, row_count - position, max_rows
        )
        # unread positions all share one column of Nones
        columns = [[None] * available] * self.table.schema.arity
        for column_index, heap in self._readers:
            page = self.buffer_pool.fetch(heap, page_id)
            columns[column_index] = [
                boxed[0] for boxed in page.rows[slot_id:slot_id + available]
            ]
        self._position = position + available
        self._tuples_returned += available
        return position, list(zip(*columns))


class ColumnStoreCJoinOperator(CJoinOperator):
    """CJOIN whose continuous scan merges a fixed fact-column set.

    The catalog's fact entry must be the :class:`ColumnStoreTable`
    itself (the operator only needs its schema and row count there).
    """

    def __init__(
        self,
        catalog: Catalog,
        star: StarSchema,
        column_fact: ColumnStoreTable,
        scanned_columns: Iterable[str] | None = None,
        **kwargs,
    ) -> None:
        self.column_fact = column_fact
        if scanned_columns is None:
            # default projection: all foreign keys (any star query joins
            # through them) — callers add measure columns as needed
            scanned_columns = [
                fk.column for fk in star.fact.foreign_keys
            ]
        self._scanned_columns = list(scanned_columns)
        super().__init__(catalog, star, **kwargs)

    def _make_scan(self) -> ColumnMergeContinuousScan:
        return ColumnMergeContinuousScan(
            self.column_fact, self._scanned_columns, self.buffer_pool
        )

    def submit(self, query: StarQuery) -> QueryHandle:
        """Admit ``query`` after checking its fact columns are scanned.

        Raises:
            AdmissionError: if the query reads a fact column outside
                the operator's projection.
        """
        needed = fact_columns_needed(query, self.star)
        missing = needed - set(self.scan.column_names)
        if missing:
            raise AdmissionError(
                f"query needs unscanned fact columns {sorted(missing)}; "
                f"operator projection is {self.scan.column_names}"
            )
        return super().submit(query)

    def pages_per_cycle(self) -> int:
        """Column pages one scan cycle reads (the I/O-volume win)."""
        return self.column_fact.pages_for_columns(self.scan.column_names)
