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

**Who touches a table.**  The table is two dicts, ``key -> bits`` and
``key -> row``, and that pair *is* :meth:`DimensionHashTable.columnar_view`
— the same two objects for the life of the table.  The Pipeline Manager
mutates them in place from whichever thread admits or cleans up
(serialized by the manager lock and the table's mutator lock); the
Filter reads them from the scan's thread with single ``dict.get`` calls
and no lock.  That is correct because the bits a mutation adds or
clears belong to queries no in-flight fact tuple carries yet
(admission) or any more (cleanup), a row is stored before its bits and
dropped after them (a key with bits always has its row), and an entry
is deleted only when no active query selects it — a probe that misses
it then reads the same bits from ``b_Dj``.

Registration and cleanup are *group* operations.
:meth:`register_group` takes the queries admitted together: the
complement bitmap is patched for all of them at once, the table is
walked at most once, and the rows of each distinct predicate gain one
combined mask (the queries that share a predicate share its key list).
:meth:`unregister_queries` clears the ids that finished together with
one combined mask, from the entries their registrations touched.  The
one-query names are their one-element forms.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Sequence
from itertools import chain
from operator import itemgetter
from types import SimpleNamespace

from repro import bitvec
from repro.catalog.schema import TableSchema
from repro.errors import PipelineError


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
        #: the one stored representation: (key -> b_delta, key -> row)
        self._view: tuple[dict, dict] = ({}, {})
        #: query id -> the keys its registration touched
        self._selected_keys: dict[int, list] = {}
        #: bits of finished non-referencing queries still set on entries
        self._stale_bits: int = 0
        #: held by every mutator (module docstring); readers take none
        self._mutator_lock = threading.Lock()
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
        bits = self._view[0].get(key)
        if bits is None:
            return self.complement_bitmap, None
        return bits, self._view[1].get(key)

    def entries_view(self) -> dict:
        """A key -> entry copy of the stored tuples, for introspection.

        Entries expose ``.bits`` and ``.row``; stale bits are masked
        out, and a tuple holding nothing else is as good as deleted.
        """
        bits_by_key, rows_by_key = self._view
        live = ~self._stale_bits
        return {
            key: SimpleNamespace(bits=bits & live, row=rows_by_key[key])
            for key, bits in bits_by_key.items()
            if bits & live
        }

    def columnar_view(self) -> tuple[dict, dict]:
        """The live ``(key -> bits, key -> row)`` dicts, as the Filter reads them.

        Plain dicts let :func:`repro.cjoin.kernels.filter_batch` drive
        the whole probe/AND pass through C-level ``map`` calls
        (``dict.get`` with the complement bitmap as the miss default)
        with no per-row entry attribute access.  The same two objects
        for the life of the table: read-only to callers, and never
        iterated beside a mutator (module docstring).
        """
        return self._view

    def __getstate__(self) -> dict:
        """Pickle without the lock (rebuilt on load)."""
        state = self.__dict__.copy()
        del state["_mutator_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._mutator_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Registration bookkeeping (Algorithms 1 and 2)
    # ------------------------------------------------------------------
    # Every mutator returns the number of entries it wrote (what
    # ``PipelineStats.dim_entries_touched`` sums).
    def register_group(
        self,
        not_referencing: Iterable[int],
        selections: Iterable[tuple[Sequence[int], list[tuple]]],
    ) -> int:
        """Register the queries admitted together (Algorithm 1).

        ``not_referencing`` are the ids of the group that do not
        reference this dimension (line 10: ``b_Dj[n] = 1``, and every
        stored tuple shows bit n, since such a query implicitly selects
        all of them).  ``selections`` holds one ``(ids, rows)`` pair per
        distinct predicate on this dimension: the ids of the queries
        that carry it (line 8: ``b_Dj[n] = 0``) and the rows it selects
        (lines 11-16).  The table is walked at most once — to set the
        non-referencing bits, and to clear a bit left stale by the
        previous holder of a referencing id — and each selection's rows
        gain one combined mask; a row absent from the table is inserted
        with bits initialized to ``b_Dj``, exactly as the paper
        specifies.  The ids of one selection share one key list.
        """
        bit_for = bitvec.bit_for_query
        add = bitvec.or_reduce(map(bit_for, not_referencing))
        masked = [
            (query_ids, bitvec.or_reduce(map(bit_for, query_ids)), rows)
            for query_ids, rows in selections
        ]
        referencing = bitvec.or_reduce(mask for _, mask, _ in masked)
        bits_by_key, rows_by_key = self._view
        bits_get = bits_by_key.get
        key_of = itemgetter(self._key_index)
        selected_keys = self._selected_keys
        with self._mutator_lock:
            self.complement_bitmap = (
                self.complement_bitmap | add
            ) & ~referencing
            touched = 0
            if add or self._stale_bits & referencing:
                touched = self._sweep(0, add)
            complement = self.complement_bitmap
            stale = self._stale_bits
            live = ~stale
            for query_ids, mask, rows in masked:
                keys = list(map(key_of, rows))
                for query_id in query_ids:
                    earlier = selected_keys.get(query_id)
                    # a new list, never an extend: lists are shared
                    selected_keys[query_id] = (
                        earlier + keys if earlier else keys
                    )
                for key, row in zip(keys, rows):
                    bits = bits_get(key)
                    # absent, or as good as: only stale bits left
                    if bits is None or (stale and not bits & live):
                        rows_by_key[key] = row
                        bits = complement
                    bits_by_key[key] = bits | mask
                touched += len(keys)
        return touched

    def mark_query_not_referencing(self, query_id: int) -> int:
        """:meth:`register_group` for one query that does not reference
        this dimension."""
        return self.register_group((query_id,), ())

    def mark_query_referencing(self, query_id: int) -> int:
        """:meth:`register_group` for one query that references this
        dimension and selects nothing (yet)."""
        return self.register_group((), (((query_id,), []),))

    def register_selected_rows(self, query_id: int, rows: Iterable[tuple]) -> int:
        """:meth:`register_group` for one referencing query's rows."""
        return self.register_group((), (((query_id,), list(rows)),))

    def unregister_queries(self, query_ids: Iterable[int]) -> int:
        """Remove all traces of a group of finished queries (Algorithm 2).

        One combined mask however many queries finished together,
        applied to the keys the group's registrations touched — or to
        the whole table in one pass when that is no more work.

        The paper's Algorithm 2 sets ``b_Dj[n] = 1`` and clears entry
        bits only for referenced dimensions, leaving the neutral
        all-ones state for id ``n``.  That makes id *reuse* subtle:
        entries inserted while the id is parked would inherit a stale
        1-bit.  We instead maintain the invariant that **an id carries
        bit 0 everywhere when it is registered again**: complement and
        selected-entry bits go now; a non-referencing query's bits, set
        on every entry, turn *stale* and go with the next whole-table
        pass, at the latest :meth:`register_group`'s for a stale
        referencing id.  Entries whose bit-vector drops to zero are
        garbage-collected (section 3.3.2).
        """
        mask = 0
        key_lists = {}  # by identity: groupmates may share one list
        for query_id in query_ids:
            mask |= bitvec.bit_for_query(query_id)
            keys = self._selected_keys.pop(query_id, None)
            if keys:
                key_lists[id(keys)] = keys
        touched = sum(map(len, key_lists.values()))
        bits_by_key, rows_by_key = self._view
        with self._mutator_lock:
            self._stale_bits |= self.complement_bitmap & mask
            self.complement_bitmap &= ~mask
            if touched >= len(bits_by_key):
                return self._sweep(mask, 0)
            keep = ~(mask | self._stale_bits)
            for key in chain.from_iterable(key_lists.values()):
                bits = bits_by_key.get(key, 0) & keep
                if bits:
                    bits_by_key[key] = bits
                elif key in bits_by_key:  # else it died with a groupmate
                    del bits_by_key[key]
                    del rows_by_key[key]
        return touched

    def unregister_query(self, query_id: int) -> int:
        """The one-element form of :meth:`unregister_queries`."""
        return self.unregister_queries((query_id,))

    def _sweep(self, clear: int, add: int) -> int:
        """One pass over every entry, under the mutator lock.

        Clears ``clear`` and every stale bit, deletes the entries left
        with none, and sets ``add`` on the rest.
        """
        bits_by_key, rows_by_key = self._view
        keep = ~(clear | self._stale_bits)
        self._stale_bits = 0
        touched = len(bits_by_key)
        if keep == -1:  # nothing to clear: half the work per entry
            for key, bits in bits_by_key.items():
                bits_by_key[key] = bits | add
            return touched
        dead_keys = []
        for key, bits in bits_by_key.items():
            bits &= keep
            if bits:
                bits_by_key[key] = bits | add
            else:
                dead_keys.append(key)
        for key in dead_keys:
            del bits_by_key[key]
            del rows_by_key[key]
        return touched

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def tuple_count(self) -> int:
        """Number of stored dimension tuples."""
        return len(self._view[0])

    @property
    def is_empty(self) -> bool:
        """True when no tuples remain (filter can be removed)."""
        return not self._view[0]

    def bits_for_key(self, key: object) -> int:
        """What a probe of ``key`` contributes (b_Dj if absent), stale
        bits masked out — test hook."""
        bits = self._view[0].get(key, self.complement_bitmap)
        return bits & ~self._stale_bits

    def __repr__(self) -> str:
        return (
            f"DimensionHashTable({self.name!r}, tuples={self.tuple_count}, "
            f"bDj={bin(self.complement_bitmap)})"
        )
