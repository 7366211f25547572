"""Heap files: ordered sequences of pages.

A heap file assigns monotonically increasing page ids, which is what
lets :class:`~repro.storage.iostats.IOStats` distinguish sequential
from random access and lets the continuous scan guarantee a stable
tuple order across wrap-arounds (paper section 3.3.3).
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

from repro.errors import StorageError
from repro.storage.page import DEFAULT_ROWS_PER_PAGE, Page

_heap_ids = itertools.count()


class HeapFile:
    """An append-only list of pages holding one table's rows."""

    def __init__(self, rows_per_page: int = DEFAULT_ROWS_PER_PAGE) -> None:
        self.heap_id = next(_heap_ids)
        self.rows_per_page = rows_per_page
        self.pages: list[Page] = []
        self._row_count = 0

    def append_row(self, row: tuple) -> tuple[int, int]:
        """Append ``row``; return its (page_id, slot_id) address."""
        if not self.pages or self.pages[-1].is_full:
            self.pages.append(Page(len(self.pages), self.rows_per_page))
        page = self.pages[-1]
        slot_id = page.append(row)
        self._row_count += 1
        return page.page_id, slot_id

    def page(self, page_id: int) -> Page:
        """Return page ``page_id``.

        Raises:
            StorageError: if the page does not exist.
        """
        if not 0 <= page_id < len(self.pages):
            raise StorageError(
                f"heap {self.heap_id} has no page {page_id} "
                f"({len(self.pages)} pages)"
            )
        return self.pages[page_id]

    def read_row(self, page_id: int, slot_id: int) -> tuple:
        """Return the row at (``page_id``, ``slot_id``)."""
        return self.page(page_id).slot(slot_id)

    def write_row(self, page_id: int, slot_id: int, row: tuple) -> None:
        """Replace the row at (``page_id``, ``slot_id``) in place.

        The page count, row count, and every address are unchanged, so
        the continuous scan's stable-order guarantee holds across the
        write (the dimension-upsert path relies on this).

        Raises:
            StorageError: if the address does not hold a row.
        """
        self.page(page_id).write(slot_id, tuple(row))

    @property
    def page_count(self) -> int:
        """Number of pages in the heap."""
        return len(self.pages)

    @property
    def row_count(self) -> int:
        """Number of rows in the heap."""
        return self._row_count

    @property
    def columns_built(self) -> int:
        """Page value columns built so far, over every page."""
        return sum(page.columns_built for page in self.pages)

    def page_ids(self) -> range:
        """Page ids in heap order."""
        return range(len(self.pages))

    def iter_rows(self) -> Iterator[tuple]:
        """Yield all rows in heap order, bypassing the buffer pool.

        For bulk internal use (e.g. building statistics); query
        execution paths go through a scan so I/O is accounted.
        """
        for page in self.pages:
            yield from page.rows
