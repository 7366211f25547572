"""A left-deep hash-join pipeline for one star query.

The plan shape the paper verified in both comparison systems: the
fact table is the outer (probe) relation; each referenced dimension
contributes one in-memory hash table built from its selected tuples.
A fact tuple survives iff every referenced dimension has a matching,
predicate-satisfying build row.

The probe loop reuses CJOIN's output operators: each fact page's
survivors go to ``consume_rows`` as one
:class:`~repro.cjoin.batch.FactBatch` with this plan's own
``key -> row`` hash tables attached as the join lookups, so result
normalization is identical across engines.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.catalog.catalog import Catalog
from repro.catalog.schema import StarSchema
from repro.cjoin.aggregation import make_output_operator
from repro.cjoin.batch import FactBatch
from repro.query.star import StarQuery
from repro.storage.buffer import BufferPool
from repro.storage.mvcc import Snapshot, VersionedTable
from repro.storage.scan import TableScan


class HashJoinPipeline:
    """Build-then-probe evaluation of one star query."""

    def __init__(
        self,
        query: StarQuery,
        catalog: Catalog,
        star: StarSchema,
        buffer_pool: BufferPool,
        dimension_order: list[str] | None = None,
        versioned_fact: VersionedTable | None = None,
    ) -> None:
        query.validate(star)
        self.query = query
        self.catalog = catalog
        self.star = star
        self.buffer_pool = buffer_pool
        self.versioned_fact = versioned_fact
        self.dimension_order = (
            list(dimension_order)
            if dimension_order is not None
            else query.referenced_dimensions()
        )
        self._built = False
        self._hash_tables: dict[str, dict] = {}
        self._fk_indexes: dict[str, int] = {}
        #: build-side sizes, exposed for memory accounting
        self.build_rows = 0

    # ------------------------------------------------------------------
    # Build phase
    # ------------------------------------------------------------------
    def build(self) -> None:
        """Scan each referenced dimension, hash its selected tuples."""
        for name in self.dimension_order:
            dimension = self.catalog.table(name)
            matcher = self.query.predicate_on(name).bind(dimension.schema)
            key_index = dimension.schema.column_index(
                dimension.schema.primary_key
            )
            table: dict = {}
            for row in TableScan(dimension, self.buffer_pool):
                if matcher(row):
                    table[row[key_index]] = row
            self._hash_tables[name] = table
            self._fk_indexes[name] = self.star.fact_fk_index(name)
            self.build_rows += len(table)
        self._built = True

    # ------------------------------------------------------------------
    # Probe phase
    # ------------------------------------------------------------------
    def probe_pages(self, start_page: int = 0) -> Iterator[int]:
        """Drive the fact scan one page at a time, yielding after each.

        Yielding per page lets the engine interleave several plans over
        one buffer pool — the concurrency model whose I/O pattern the
        experiments measure.  Callers must exhaust the iterator.

        Args:
            start_page: first page to read; the scan wraps circularly
                and still covers every page exactly once.  Hash
                aggregation is order-insensitive, so results are
                unaffected.  Non-zero starts model PostgreSQL's
                synchronized scans, where a new scan attaches at the
                reported position of one already underway.
        """
        if not self._built:
            self.build()
        query = self.query
        star = self.star
        operator = make_output_operator(query, star)
        self._operator = operator
        fact_matcher = None
        if query.fact_predicate is not None:
            fact_matcher = query.fact_predicate.bind(star.fact)
        snapshot = None
        if query.snapshot_id is not None and self.versioned_fact is not None:
            snapshot = Snapshot(query.snapshot_id)
        fact = self.catalog.table(query.fact_table)
        heap = fact.heap
        rows_per_page = heap.rows_per_page
        probes = [
            (name, self._fk_indexes[name], self._hash_tables[name])
            for name in self.dimension_order
        ]
        page_count = heap.page_count
        start_page = start_page % page_count if page_count else 0
        page_order = [
            (start_page + offset) % page_count for offset in range(page_count)
        ]
        for page_id in page_order:
            page = self.buffer_pool.fetch(heap, page_id)
            survivors = []
            for slot_id, row in enumerate(page.rows):
                if snapshot is not None:
                    position = page_id * rows_per_page + slot_id
                    if not snapshot.can_see(
                        self.versioned_fact.version_at(position)
                    ):
                        continue
                if fact_matcher is not None and not fact_matcher(row):
                    continue
                for _, fk_index, hash_table in probes:
                    if row[fk_index] not in hash_table:
                        break
                else:
                    survivors.append(row)
            if survivors:
                # a private plan: one query, so no sequence, position
                # or bit-vector is ever read — only rows + lookups
                batch = FactBatch([(0, 0, survivors)], [1] * len(survivors))
                for name, fk_index, hash_table in probes:
                    batch.attach_dim_lookup(name, fk_index, hash_table)
                operator.consume_rows(batch, batch.live)
            yield page_id

    def execute(self) -> list[tuple]:
        """Run the full plan to completion; return canonical results."""
        for _ in self.probe_pages():
            pass
        return self._operator.results()

    def results(self) -> list[tuple]:
        """Results after :meth:`probe_pages` is exhausted."""
        return self._operator.results()
