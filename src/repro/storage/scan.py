"""One-shot and continuous table scans.

The continuous scan is the heart of CJOIN's sharing model (paper
section 3.1): the fact table becomes an endless, order-stable stream.
Queries attach at an arbitrary *position* (row ordinal) and complete
when the scan wraps around to that position, having seen every tuple
exactly once.

Order stability across wrap-arounds (paper section 3.3.3) holds by
construction here: heaps are append-only, pages are filled in order,
and the scan visits positions ``0 .. row_count-1`` cyclically.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.storage.buffer import BufferPool
from repro.storage.table import Table


class TableScan:
    """A single sequential pass over a table, page by page.

    Used by the query-at-a-time baseline engine; every page fetch is
    charged to the buffer pool.
    """

    def __init__(self, table: Table, buffer_pool: BufferPool) -> None:
        self.table = table
        self.buffer_pool = buffer_pool

    def __iter__(self) -> Iterator[tuple]:
        heap = self.table.heap
        for page_id in heap.page_ids():
            page = self.buffer_pool.fetch(heap, page_id)
            yield from page.rows

    def iter_with_positions(self) -> Iterator[tuple[int, tuple]]:
        """Yield (position, row) pairs, position being the row ordinal."""
        position = 0
        for row in self:
            yield position, row
            position += 1


class ContinuousScan:
    """A circular scan that never terminates while the table has rows.

    Positions are global row ordinals.  Because the heap is append-only
    with fixed rows-per-page, position ``p`` always maps to
    ``(p // rows_per_page, p % rows_per_page)`` and the visiting order
    is identical on every cycle.  Rows appended mid-cycle are reached
    when the scan arrives at their position, extending the cycle.

    This class is also the *scan-source seam* of the CJOIN pipeline:
    the Preprocessor reads exactly ``next_position``, ``row_count``,
    ``next_run(max_rows)`` and ``tuples_returned``, so the paper's
    section-5 extensions (column-store merge, partition pruning,
    compressed pages) are other classes with these four members
    (DESIGN.md section 6).
    """

    def __init__(self, table: Table, buffer_pool: BufferPool) -> None:
        self.table = table
        self.buffer_pool = buffer_pool
        self._position = 0
        self._tuples_returned = 0
        self._current_page = None
        self._current_page_id = -1

    @property
    def next_position(self) -> int:
        """Position of the first row the next :meth:`next_run` returns.

        This is the admission mark: a query registered now starts at
        this position and completes when the scan returns to it.
        """
        if self._position >= self.table.row_count:
            return 0
        return self._position

    @property
    def row_count(self) -> int:
        """Rows one cycle visits; 0 means the source cannot produce."""
        return self.table.row_count

    @property
    def tuples_returned(self) -> int:
        """Total tuples produced since construction (across cycles)."""
        return self._tuples_returned

    @property
    def cycles_completed(self) -> float:
        """Approximate number of full passes over the current table."""
        if self.table.row_count == 0:
            return 0.0
        return self._tuples_returned / self.table.row_count

    def next_run(self, max_rows: int) -> tuple[int, list[tuple]] | None:
        """Return ``(start_position, rows)`` for a contiguous scan run.

        Produces up to ``max_rows`` consecutive rows in one call,
        never crossing a page boundary or the table end, so one
        buffer-pool fetch covers the whole run (DESIGN.md section 5).
        The rows are the page's own :class:`~repro.storage.page.PageRun`
        copy, which a batch carries unchanged and asks for key columns.
        Returns None when the table is empty.  Positions
        ``0 .. row_count-1`` are visited cyclically, in the same order
        on every cycle, whatever the run sizes asked for.
        """
        row_count = self.table.row_count
        if row_count == 0 or max_rows < 1:
            return None
        if self._position >= row_count:
            self._position = 0
        position = self._position
        rows_per_page = self.table.heap.rows_per_page
        page_id, slot_id = divmod(position, rows_per_page)
        if page_id != self._current_page_id:
            self._current_page = self.buffer_pool.fetch(self.table.heap, page_id)
            self._current_page_id = page_id
        page = self._current_page
        available = min(len(page) - slot_id, row_count - position, max_rows)
        self._position = position + available
        self._tuples_returned += available
        return position, page.run(slot_id, slot_id + available)
