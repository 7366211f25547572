"""Columnar fact batches: how fact rows travel (DESIGN.md section 5).

Handling fact tuples one at a time would pay several Python calls per
tuple per Filter — the opposite of the paper's "one pass, shared work"
economics.  With :class:`FactBatch` the Preprocessor emits one batch
per run of consecutive fact tuples, each Filter makes *one* call per
batch (amortizing dispatch, deduplicating hash-table probes by key, and
testing the batch-level probe skip once), and the Distributor routes
survivors grouped by identical bit-vectors.

A batch is parallel arrays plus two liveness views of the same state:

* ``live`` — the list of still-alive row indices, in scan order (what
  the hot loops iterate);
* ``alive`` — the same set as a bit-mask (bit r set iff row r is
  alive), maintained with :mod:`repro.bitvec` bulk operations so
  invariants are cheap to check and cheap to reason about.

``sequences`` and ``positions`` are ``array('q')`` buffers: machine
i64 columns (8 bytes/row instead of a PyObject* plus an int object),
sharing small-int objects on element access and supporting the
buffer protocol, so the shared-memory shard transport
(:mod:`repro.storage.shm`) can view them zero-copy.  ``rows`` and
``bitvectors`` stay plain lists — rows are heterogeneous tuples, and
bit-vectors are arbitrary-precision ints (queries beyond bit 63 must
not overflow silently).

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
from operator import itemgetter, or_ as _or

from repro import bitvec


class FactBatch:
    """A run of consecutive fact tuples in columnar form."""

    __slots__ = (
        "sequences",
        "positions",
        "rows",
        "bitvectors",
        "live",
        "alive",
        "_dim_lookups",
        "_key_columns",
    )

    def __init__(
        self,
        sequences,
        positions,
        rows: list[tuple],
        bitvectors: list[int],
    ) -> None:
        if not (
            len(sequences) == len(positions) == len(rows) == len(bitvectors)
        ):
            raise ValueError("FactBatch columns must have equal length")
        #: scan sequence / scan position columns; ``array('q')`` on the
        #: production path (the Preprocessor), any indexable works
        self.sequences = sequences
        self.positions = positions
        self.rows = rows
        self.bitvectors = bitvectors
        #: per-batch dimension attachments (section 3.2.2 pointer rows):
        #: dimension name -> (fk column index, key -> dimension row)
        self._dim_lookups: dict[str, tuple] = {}
        #: still-alive row indices in scan order (the hot-loop view)
        self.live: list[int] = list(range(len(rows)))
        #: the same liveness as a bit-mask — the batch's shared BitVec.
        #: Hot loops iterate ``live``; the mask is the O(1)-to-combine
        #: summary (tests cross-check the two views stay in sync)
        self.alive: int = bitvec.all_ones(len(rows))
        #: fk column index -> extracted key column (built on demand)
        self._key_columns: dict[int, list] = {}

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def live_count(self) -> int:
        """Number of rows still in flight."""
        return len(self.live)

    def key_column(self, column_index: int) -> list:
        """The batch's values for fact column ``column_index``.

        Extracted once per batch and cached, so every Filter probing
        the same foreign-key column shares one extraction pass (and
        the Distributor's columnar consumers reuse it as the fact
        value column).
        """
        column = self._key_columns.get(column_index)
        if column is None:
            column = list(map(itemgetter(column_index), self.rows))
            self._key_columns[column_index] = column
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

    def drop_rows(self, dropped_mask: int, survivors: list[int]) -> None:
        """Install a Filter's verdict: clear dropped bits, shrink live.

        ``survivors`` must be the live list minus exactly the rows in
        ``dropped_mask`` (the Filter builds both in its probe loop).
        """
        self.alive &= ~dropped_mask
        self.live = survivors

    def replace_live(self, survivors: list[int]) -> None:
        """Install a Filter's verdict from the surviving side.

        Equivalent to :meth:`drop_rows` but rebuilds the alive mask
        from the survivors — the cheaper side when a Filter drops most
        of a batch.
        """
        self.alive = bitvec.pack_positions(survivors)
        self.live = survivors

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
            f"seq={self.sequences[0] if len(self.sequences) else '-'}..)"
        )
