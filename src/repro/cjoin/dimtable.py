"""Dimension hash tables (paper section 3.2.1).

``HD_j`` stores the *union* of the dimension tuples selected by any
active query, keyed by the dimension's primary key.  Each stored tuple
carries a bit-vector ``b_delta``; the table also keeps one complement
bitmap ``b_Dj`` — the bit-vector of any tuple *not* stored — defined
as ``b_Dj[i] = 1`` iff query ``Q_i`` does not reference this
dimension.

The paper's defining property (used by the Filtering Invariant):

    ``probe(tau)[i] = 1``  iff  ``Q_i`` references ``D_j`` and the
    joining tuple satisfies ``c_ij``, **or** ``Q_i`` does not
    reference ``D_j`` at all.

**Who touches a table, and the invalidate-after-mutate rule.**  The
Pipeline Manager mutates tables from whichever thread admits or cleans
up (serialized by the manager lock); the Filter probes them from the
scan's thread, through :meth:`DimensionHashTable.columnar_view`'s
cached snapshot on the batched path.  Every mutator therefore
(1) holds the table's rebuild lock while it changes ``_entries`` and
(2) drops the cached snapshot *after* the change, still under that
lock.  A rebuild takes the same lock, so it iterates a table no mutator
is inside and can never cache a half-registered state; the per-batch
hit path takes no lock and keeps using the last complete snapshot,
which is correct because the bits a mutation in progress adds or clears
belong to queries no fact tuple carries yet (admission) or any more
(cleanup).

Cleanup is a *group* operation (:meth:`unregister_queries`): the ids
that finished together — in a closed loop, a whole scan cycle's worth —
are cleared with one combined mask in one pass over the entries.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable

from repro import bitvec
from repro.catalog.schema import TableSchema
from repro.errors import PipelineError


class _DimEntry:
    """One stored dimension tuple and its query bit-vector."""

    __slots__ = ("row", "bits")

    def __init__(self, row: tuple, bits: int) -> None:
        self.row = row
        self.bits = bits


class DimensionHashTable:
    """The shared hash table for one dimension (the paper's ``HD_j``)."""

    def __init__(self, schema: TableSchema) -> None:
        if schema.primary_key is None:
            raise PipelineError(
                f"dimension {schema.name!r} must have a primary key"
            )
        self.schema = schema
        self.name = schema.name
        self._key_index = schema.column_index(schema.primary_key)
        self._entries: dict[object, _DimEntry] = {}
        #: lazily rebuilt (key -> bits, key -> row) snapshot for the
        #: batched path; dropped after every change to stored bits
        self._columnar_cache: tuple[dict, dict] | None = None
        #: held by every mutator and by the snapshot rebuild (module
        #: docstring); never taken on the per-batch hit path
        self._rebuild_lock = threading.Lock()
        #: the paper's b_Dj: bit i set iff Q_i does NOT reference this dim
        self.complement_bitmap: int = 0

    # ------------------------------------------------------------------
    # Probing (the Filter hot path)
    # ------------------------------------------------------------------
    def probe(self, key: object) -> tuple[int, tuple | None]:
        """Return (filtering bit-vector, joined row or None) for ``key``.

        Implements section 3.2.2: a found entry contributes
        ``b_delta``; a miss contributes ``b_Dj``.
        """
        entry = self._entries.get(key)
        if entry is None:
            return self.complement_bitmap, None
        return entry.bits, entry.row

    def entries_view(self) -> dict:
        """The live key -> entry mapping, for introspection.

        Callers treat the view as read-only; entries expose ``.bits``
        and ``.row``.
        """
        return self._entries

    def columnar_view(self) -> tuple[dict, dict]:
        """``(key -> bits, key -> row)`` snapshot dicts for the batched path.

        Plain dicts let :func:`repro.cjoin.kernels.filter_batch` drive
        the whole probe/AND pass through C-level ``map`` calls
        (``dict.get`` with the complement bitmap as the miss default)
        with no per-row entry attribute access.  The snapshot is rebuilt lazily after a
        registration change and shared by every batch in between —
        registration is per *query*, so the rebuild amortizes over the
        hundreds of batches scanned while the query mix is stable.
        """
        cache = self._columnar_cache
        if cache is None:
            with self._rebuild_lock:
                cache = self._columnar_cache
                if cache is None:
                    entries = self._entries
                    cache = self._columnar_cache = (
                        {key: entry.bits for key, entry in entries.items()},
                        {key: entry.row for key, entry in entries.items()},
                    )
        return cache

    def __getstate__(self) -> dict:
        """Pickle without the lock and the snapshot (both are rebuilt)."""
        state = self.__dict__.copy()
        del state["_rebuild_lock"]
        state["_columnar_cache"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._rebuild_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Registration bookkeeping (Algorithms 1 and 2)
    # ------------------------------------------------------------------
    def mark_query_not_referencing(self, query_id: int) -> None:
        """Record that an admitted query does not reference this dimension.

        (Algorithm 1 line 10: ``b_Dj[n] = 1``.)  Every stored tuple
        must also show bit n, since the query implicitly selects all
        dimension tuples.
        """
        bit = bitvec.bit_for_query(query_id)
        with self._rebuild_lock:
            self.complement_bitmap |= bit
            for entry in self._entries.values():
                entry.bits |= bit
            self._columnar_cache = None

    def mark_query_referencing(self, query_id: int) -> None:
        """Record that an admitted query references this dimension.

        (Algorithm 1 line 8: ``b_Dj[n] = 0``.)  Selected tuples gain
        bit n individually via :meth:`register_selected_rows`.
        """
        self.complement_bitmap = bitvec.clear_bit(self.complement_bitmap, query_id)

    def register_selected_rows(self, query_id: int, rows: Iterable[tuple]) -> int:
        """Insert/update the rows selected by query ``query_id``.

        (Algorithm 1 lines 11-16.)  A row absent from the table is
        inserted with bits initialized to ``b_Dj`` before gaining bit
        n, exactly as the paper specifies.  Returns the number of rows
        registered.
        """
        count = 0
        bit = bitvec.bit_for_query(query_id)
        key_index = self._key_index
        entries = self._entries
        entries_get = entries.get
        with self._rebuild_lock:
            complement = self.complement_bitmap
            for row in rows:
                key = row[key_index]
                entry = entries_get(key)
                if entry is None:
                    entry = entries[key] = _DimEntry(row, complement)
                entry.bits |= bit
                count += 1
            self._columnar_cache = None
        return count

    def unregister_queries(self, query_ids: Iterable[int]) -> None:
        """Remove all traces of a group of finished queries (Algorithm 2).

        One combined mask, one pass over the entries, however many
        queries finished together.

        The paper's Algorithm 2 sets ``b_Dj[n] = 1`` and clears entry
        bits only for referenced dimensions, leaving the neutral
        all-ones state for id ``n``.  That makes id *reuse* subtle:
        entries inserted while the id is parked would inherit a stale
        1-bit.  We instead maintain the invariant that **unallocated
        ids carry bit 0 everywhere** (complement bitmap and every
        entry); Algorithm 1 then re-establishes the correct bits from
        a clean slate on reuse.  Entries whose bit-vector drops to
        zero are garbage-collected (section 3.3.2).
        """
        mask = ~bitvec.or_reduce(map(bitvec.bit_for_query, query_ids))
        entries = self._entries
        with self._rebuild_lock:
            self.complement_bitmap &= mask
            dead_keys = []
            for key, entry in entries.items():
                entry.bits = bits = entry.bits & mask
                if not bits:
                    dead_keys.append(key)
            for key in dead_keys:
                del entries[key]
            self._columnar_cache = None

    def unregister_query(self, query_id: int) -> None:
        """The one-element form of :meth:`unregister_queries`."""
        self.unregister_queries((query_id,))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def tuple_count(self) -> int:
        """Number of stored dimension tuples."""
        return len(self._entries)

    @property
    def is_empty(self) -> bool:
        """True when no tuples remain (filter can be removed)."""
        return not self._entries

    def bits_for_key(self, key: object) -> int:
        """The stored bit-vector for ``key`` (b_Dj if absent) — test hook."""
        entry = self._entries.get(key)
        return self.complement_bitmap if entry is None else entry.bits

    def __repr__(self) -> str:
        return (
            f"DimensionHashTable({self.name!r}, tuples={self.tuple_count}, "
            f"bDj={bin(self.complement_bitmap)})"
        )
