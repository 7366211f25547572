"""Multi-version visibility for snapshot isolation.

The paper assumes snapshot isolation (section 2.1) and sketches two
CJOIN adaptations for mixed query/update workloads (section 3.5).  We
implement the first: the continuous scan exposes per-tuple version
metadata, and the Preprocessor treats "visible in query's snapshot" as
a virtual fact-table predicate.

Versioning model (simplified PostgreSQL-style):

* every committed transaction gets an increasing id;
* a tuple's ``xmin`` is the id of the transaction that inserted it and
  ``xmax`` the id of the one that deleted it (None while live);
* snapshot ``s`` sees a tuple iff ``xmin <= s`` and ``xmax is None or
  xmax > s``.

Rows are never physically removed, which preserves the continuous
scan's stable-order guarantee.

Storage layout (DESIGN.md section 3): versions are two machine i64
columns, ``xmin`` and ``xmax``, parallel to the row positions, with
:data:`LIVE` (above any transaction id) standing for "not deleted" so
visibility is the single comparison ``xmin <= s < xmax``.  Beside them
sit three per-heap-page summaries (lowest and highest ``xmin``, lowest
``xmax``) that ``insert``/``delete`` keep current, so the Preprocessor
settles a whole scan run's visibility in O(1) and only builds a per-row
mask for a run a commit boundary or a delete actually cuts through.
:class:`TupleVersion` and :meth:`Snapshot.can_see` remain the per-row
definition every oracle uses; :meth:`VersionedTable.version_at` builds
one on demand.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import NamedTuple

from repro.errors import SnapshotError
from repro.storage.table import Table


#: ``xmax`` of a row no transaction has deleted: above any transaction
#: id, so "live" needs no special case in ``xmin <= s < xmax``
LIVE = (1 << 63) - 1


class TupleVersion(NamedTuple):
    """Insertion/deletion transaction ids for one stored tuple."""

    xmin: int
    xmax: int | None


@dataclass(frozen=True)
class Snapshot:
    """A point-in-time view of the database."""

    snapshot_id: int

    def can_see(self, version: TupleVersion) -> bool:
        """Return True iff a tuple with ``version`` is visible here."""
        if version.xmin > self.snapshot_id:
            return False
        return version.xmax is None or version.xmax > self.snapshot_id


class VersionedTable:
    """A table with parallel per-row version metadata.

    The underlying :class:`Table` holds the row payloads (and thus
    drives paging and scans); two i64 columns hold each row's
    visibility interval, and three more hold its bounds per heap page
    (see the module docstring).  Writers must not run beside a reader:
    the warehouse mutates under the Pipeline Manager's write barrier
    with the Preprocessor stalled.
    """

    def __init__(self, table: Table) -> None:
        self.table = table
        rows = table.row_count
        pages = table.heap.page_count
        self._rows_per_page = table.heap.rows_per_page
        # bulk-loaded rows: inserted by transaction 0, never deleted
        self._xmin = array("q", bytes(8 * rows))
        self._xmax = array("q", [LIVE]) * rows
        self._page_oldest = array("q", bytes(8 * pages))
        self._page_newest = array("q", bytes(8 * pages))
        self._page_first_delete = array("q", [LIVE]) * pages
        #: highest transaction id written here: the snapshot that sees
        #: every committed change ("latest" for the reference evaluator)
        self.last_commit_id = 0

    @property
    def schema(self):
        """The underlying table's schema."""
        return self.table.schema

    @property
    def row_count(self) -> int:
        """Number of stored row versions (live and dead)."""
        return self.table.row_count

    def insert(self, row: tuple, xmin: int) -> int:
        """Append ``row`` visible from transaction ``xmin``; return position."""
        position = len(self._xmin)
        self.table.insert(row)
        self._xmin.append(xmin)
        self._xmax.append(LIVE)
        page = position // self._rows_per_page
        if page == len(self._page_oldest):
            self._page_oldest.append(xmin)
            self._page_newest.append(xmin)
            self._page_first_delete.append(LIVE)
        elif xmin > self._page_newest[page]:
            self._page_newest[page] = xmin
        elif xmin < self._page_oldest[page]:
            self._page_oldest[page] = xmin
        if xmin > self.last_commit_id:
            self.last_commit_id = xmin
        return position

    def delete(self, position: int, xmax: int) -> None:
        """Mark the row at ``position`` as deleted by transaction ``xmax``.

        Raises:
            SnapshotError: on unknown position or double delete.
        """
        if not 0 <= position < len(self._xmax):
            raise SnapshotError(f"no row at position {position}")
        deleted_by = self._xmax[position]
        if deleted_by != LIVE:
            raise SnapshotError(f"row {position} already deleted by {deleted_by}")
        self._xmax[position] = xmax
        page = position // self._rows_per_page
        if xmax < self._page_first_delete[page]:
            self._page_first_delete[page] = xmax
        if xmax > self.last_commit_id:
            self.last_commit_id = xmax

    def version_at(self, position: int) -> TupleVersion:
        """Return the version metadata of the row at ``position``."""
        if not 0 <= position < len(self._xmin):
            raise SnapshotError(f"no row at position {position}")
        xmax = self._xmax[position]
        return TupleVersion(self._xmin[position], None if xmax == LIVE else xmax)

    def page_bounds(
        self, position: int, stop: int | None = None
    ) -> tuple[int, int, int]:
        """``(oldest xmin, newest xmin, first xmax)`` of a row's heap page.

        These bracket every row of a scan run that starts at
        ``position``: snapshot ``s`` sees all of it when ``newest <= s
        < first xmax`` and none of it when ``s < oldest``.  Anything
        else needs :meth:`visibility_mask`.  A run of this table's own
        scan never crosses a page; a source paged differently (a
        partition's heap) passes the run's ``stop`` and gets the bounds
        over every page the run touches.
        """
        page = position // self._rows_per_page
        if not 0 <= page < len(self._page_oldest):
            raise SnapshotError(f"no row at position {position}")
        last = page if stop is None else (stop - 1) // self._rows_per_page
        if last == page:
            return (
                self._page_oldest[page],
                self._page_newest[page],
                self._page_first_delete[page],
            )
        return (
            min(self._page_oldest[page:last + 1]),
            max(self._page_newest[page:last + 1]),
            min(self._page_first_delete[page:last + 1]),
        )

    def visibility_mask(self, snapshot_id: int, start: int, stop: int) -> list[bool]:
        """Per-row visibility of positions ``start..stop-1`` in one pass.

        Raises:
            SnapshotError: when the range reaches past the last version
                (a row appended without its version stamp: a writer ran
                beside the scan).
        """
        if not 0 <= start <= stop <= len(self._xmin):
            raise SnapshotError(f"no row at position {stop - 1}")
        return [
            xmin <= snapshot_id < xmax
            for xmin, xmax in zip(self._xmin[start:stop], self._xmax[start:stop])
        ]

    def visible_rows(self, snapshot: Snapshot) -> list[tuple]:
        """Materialize the rows visible in ``snapshot`` (test helper)."""
        return [
            row
            for position, row in enumerate(self.table.heap.iter_rows())
            if snapshot.can_see(self.version_at(position))
        ]


class TransactionManager:
    """Issues snapshot ids and applies committed write sets.

    The id counter starts at 0: bulk-loaded data carries ``xmin=0`` and
    is visible to every snapshot.
    """

    def __init__(self) -> None:
        self._committed = 0

    def current_snapshot(self) -> Snapshot:
        """Return a snapshot of everything committed so far."""
        return Snapshot(self._committed)

    def restore(self, snapshot_id: int) -> None:
        """Fast-forward the id counter past recovered history.

        Recovered rows are bulk-loaded with ``xmin=0`` (visible
        everywhere), so only the counter needs to continue — a
        post-restart commit must not reuse a snapshot id that was
        already handed out as an ingest receipt before the crash.
        """
        self._committed = max(self._committed, int(snapshot_id))

    def commit(
        self,
        table: VersionedTable,
        inserts: list[tuple] | None = None,
        deletes: list[int] | None = None,
    ) -> Snapshot:
        """Atomically apply a write set; return the post-commit snapshot.

        Updates are expressed as delete + insert, as in the paper's
        append-mostly warehouse model.
        """
        txn_id = self._committed + 1
        for position in deletes or []:
            table.delete(position, xmax=txn_id)
        for row in inserts or []:
            table.insert(row, xmin=txn_id)
        self._committed = txn_id
        return Snapshot(txn_id)
