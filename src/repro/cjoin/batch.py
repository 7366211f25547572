"""Columnar fact batches: how fact rows travel (DESIGN.md section 5).

Handling fact tuples one at a time would pay several Python calls per
tuple per Filter — the opposite of the paper's "one pass, shared work"
economics.  With :class:`FactBatch` the Preprocessor emits one batch
per few runs of consecutive fact tuples, each Filter makes *one* call
per batch (amortizing dispatch and testing the batch-level probe skip
once), and the Distributor routes survivors grouped by identical
bit-vectors.

A batch is what the scan returned, not a repacking of it.  ``runs``
lists the scan runs it holds as ``(first sequence, first position,
rows)`` — consecutive sequence numbers and scan positions from there —
and ``rows`` is the run's own list when there is one run, one
concatenation when there are several.  ``bitvectors`` is the one
per-row column the pipeline writes (arbitrary-precision ints: queries
beyond bit 63 must not overflow silently), and ``live`` the still-alive
row indices in scan order: ``range(n)`` until the first Filter drops a
row, a list after.  ``sequences``, ``positions`` and ``alive`` are
derived from these on demand; only tests and tools read them.

:meth:`FactBatch.key_column` is one fact column of the batch's rows.
A run cut from a heap page (:class:`~repro.storage.page.PageRun`)
answers with a slice of the page's resident column, so the scan pays
the extraction once per page, not once per cycle; rows from any other
scan source are extracted here, once per batch.

Dimension attachments (section 3.2.2) are per batch
(``attach_dim_lookup``): each Filter attaches one O(1)
``(foreign-key column index, key -> dimension row)`` pair per
dimension per batch, and the output operators re-derive the join on
demand through getters compiled against :meth:`dim_lookup_state` —
one constant-time attachment per batch instead of one dict insert per
surviving row.

Batches never cross a control tuple: the Preprocessor flushes the
current batch before emitting QueryStart/QueryEnd, which preserves the
section 3.3.3 control-tuple ordering at every batch size.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain
from operator import itemgetter, or_ as _or

from repro import bitvec


def _joined(parts: list[list]) -> list:
    """The parts as one list; the part itself when there is only one."""
    if len(parts) == 1:
        return parts[0]
    return list(chain.from_iterable(parts))


class FactBatch:
    """The scan runs that travel the pipeline together, as columns."""

    __slots__ = (
        "runs",
        "rows",
        "bitvectors",
        "live",
        "_dim_lookups",
        "_key_columns",
    )

    def __init__(self, runs: list[tuple], bitvectors: list[int]) -> None:
        #: the scan runs held, in scan order: ``(sequence of the first
        #: row, scan position of the first row, the run's rows)``
        self.runs = runs
        self.rows: list[tuple] = _joined([rows for _, _, rows in runs])
        if len(self.rows) != len(bitvectors):
            raise ValueError("FactBatch columns must have equal length")
        self.bitvectors = bitvectors
        #: per-batch dimension attachments (section 3.2.2 pointer rows):
        #: dimension name -> (fk column index, key -> dimension row)
        self._dim_lookups: dict[str, tuple] = {}
        #: still-alive row indices in scan order; every drop path also
        #: writes bit-vector 0 back, so dead rows read as 0 there
        self.live = range(len(bitvectors))
        #: fk column index -> key column (built on demand)
        self._key_columns: dict[int, list] = {}

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def live_count(self) -> int:
        """Number of rows still in flight."""
        return len(self.live)

    def _numbered(self, first_of: int) -> list[int]:
        """Consecutive numbers from each run's ``first_of`` field."""
        return [
            number
            for run in self.runs
            for number in range(run[first_of], run[first_of] + len(run[2]))
        ]

    @property
    def sequences(self) -> list[int]:
        """Every row's sequence number, in scan order."""
        return self._numbered(0)

    @property
    def positions(self) -> list[int]:
        """Every row's scan position, in scan order."""
        return self._numbered(1)

    @property
    def alive(self) -> int:
        """``live`` as a bit-mask: bit r set iff row r is alive."""
        return bitvec.pack_positions(self.live)

    def key_column(self, column_index: int) -> list:
        """The batch's values for fact column ``column_index``.

        Per run, a slice of the page's resident column when the run
        still knows its page, one extraction pass otherwise; cached, so
        every Filter probing the same column of this batch shares it.
        """
        column = self._key_columns.get(column_index)
        if column is None:
            # a PageRun has ``column``; a plain list of rows does not
            column = self._key_columns[column_index] = _joined([
                rows.column(column_index)
                if hasattr(rows, "column")
                else list(map(itemgetter(column_index), rows))
                for _, _, rows in self.runs
            ])
        return column

    def attach_dim_lookup(
        self, name: str, fk_index: int, rows_of: dict
    ) -> None:
        """Attach one dimension's joins for the whole batch at once.

        O(1) — just ``(foreign-key column index, key -> stored row)``;
        consumers re-derive the key from the fact row on access.  Any
        consumer reading dimension ``name`` for a routed row is
        guaranteed a hit: a row whose key missed the hash table had
        every bit of a query referencing ``name`` cleared by that
        Filter, so no such query can be routed to it.
        """
        self._dim_lookups[name] = (fk_index, rows_of)

    def dim_lookup_state(self, names) -> tuple | None:
        """The attached ``(fk index, key -> row)`` lookups for ``names``.

        None when any named dimension has no batch-level attachment.
        The returned tuple is the output operators' getter-cache key: its
        elements wrap the dimension tables' own ``key -> row`` dicts,
        each one object for the life of its table, so comparing states
        costs a few pointer checks per routed batch.
        """
        state = tuple(map(self._dim_lookups.get, names))
        return None if None in state else state

    def union_bits(self) -> int:
        """OR of the live rows' bit-vectors (the batch relevance union).

        Reduced over the *full* column at C level: every drop path
        writes the zero bit-vector back before clearing liveness, so
        dead rows cannot contribute and no index gather is needed.
        """
        return reduce(_or, self.bitvectors, 0)

    def __repr__(self) -> str:
        return (
            f"FactBatch(rows={len(self.rows)}, live={len(self.live)}, "
            f"seq={self.runs[0][0] if self.runs else '-'}..)"
        )
