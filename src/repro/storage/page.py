"""Fixed-capacity tuple pages.

Rows are grouped into pages so that I/O is charged in page units, the
granularity at which the paper's disk-bound effects (sequential scan
bandwidth vs random seeks) occur.  A page stores plain Python tuples;
capacity is a row count fixed per heap at creation.

The continuous scan re-reads the same pages forever, so a page also
keeps the value columns the pipeline's Filters ask for (DESIGN.md
section 3): built on the first ask, never at load, and dropped by
whatever changes the page's rows.
"""

from __future__ import annotations

from operator import itemgetter

from repro.errors import StorageError

#: Default number of rows per page.  Chosen so that a milli-scale SSB
#: fact table spans hundreds of pages (enough for I/O patterns to be
#: meaningful) without per-row page overhead dominating.
DEFAULT_ROWS_PER_PAGE = 128


class Page:
    """A fixed-capacity, append-only slotted page of rows."""

    __slots__ = ("page_id", "capacity", "rows", "columns_built", "_columns")

    def __init__(self, page_id: int, capacity: int = DEFAULT_ROWS_PER_PAGE) -> None:
        if capacity < 1:
            raise StorageError(f"page capacity must be >= 1, got {capacity}")
        self.page_id = page_id
        self.capacity = capacity
        self.rows: list[tuple] = []
        #: value columns built since creation (rebuilds included)
        self.columns_built = 0
        #: column index -> that column of ``rows``.  A change to the
        #: rows installs a new dict instead of clearing this one: a
        #: :class:`PageRun` cut before the change still holds the dict
        #: that matches its rows
        self._columns: dict[int, list] = {}

    @property
    def is_full(self) -> bool:
        """True iff no more rows fit on this page."""
        return len(self.rows) >= self.capacity

    def append(self, row: tuple) -> int:
        """Append ``row``; return its slot index.

        Raises:
            StorageError: if the page is full.
        """
        if self.is_full:
            raise StorageError(f"page {self.page_id} is full")
        self.rows.append(row)
        if self._columns:
            self._columns = {}
        return len(self.rows) - 1

    def write(self, slot_id: int, row: tuple) -> None:
        """Replace the row stored in ``slot_id``.

        Raises:
            StorageError: if the slot does not exist.
        """
        self.slot(slot_id)
        self.rows[slot_id] = row
        self._columns = {}

    def run(self, start: int, stop: int) -> PageRun:
        """Copy slots ``start .. stop-1`` out as one :class:`PageRun`."""
        run = PageRun(self.rows[start:stop])
        run._page = self
        run._columns = self._columns
        run._start = start
        return run

    def slot(self, slot_id: int) -> tuple:
        """Return the row stored in ``slot_id``.

        Raises:
            StorageError: if the slot does not exist.
        """
        if not 0 <= slot_id < len(self.rows):
            raise StorageError(
                f"page {self.page_id} has no slot {slot_id} "
                f"({len(self.rows)} rows)"
            )
        return self.rows[slot_id]

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return f"Page(id={self.page_id}, rows={len(self.rows)}/{self.capacity})"


class PageRun(list):
    """Consecutive rows copied off one page, as the scan hands them on.

    A plain list of row tuples to everyone but
    :meth:`~repro.cjoin.batch.FactBatch.key_column`, which asks it for
    one column of those rows and gets a slice of the page's resident
    column instead of an extraction pass over the tuples.
    """

    __slots__ = ("_page", "_columns", "_start")

    def column(self, column_index: int) -> list:
        """Values of column ``column_index`` for exactly these rows."""
        page = self._page
        columns = self._columns
        values = columns.get(column_index)
        if values is None:
            values = list(map(itemgetter(column_index), page.rows))
            if page._columns is not columns:
                # the page changed after this run was cut: what was
                # just built may not match these rows, nor may it be
                # kept for the runs cut since
                return list(map(itemgetter(column_index), self))
            columns[column_index] = values
            page.columns_built += 1
        return values[self._start:self._start + len(self)]
