"""CJOIN over a range-partitioned fact table (paper section 5).

The optimizer tags each query with the partitions it must scan
(derived from its fact predicate and the partitioning column); the
continuous scan then covers only the *union* of partitions needed by
the active queries, and queries terminate as soon as the scan wraps
around their start — which now happens after one pass over the union
rather than the whole table.

Correctness rests on two facts:

* a query's fact predicate rejects every tuple outside its needed
  partitions (``implied_interval`` is a conservative superset of the
  accepted values), so scanning extra partitions for other queries is
  harmless;
* each query's needed set is augmented with the partition containing
  its start position, so the scan always returns to that position and
  the standard wrap-around finalization fires.
"""

from __future__ import annotations

from repro.catalog.catalog import Catalog
from repro.catalog.schema import StarSchema
from repro.cjoin.operator import CJoinOperator
from repro.cjoin.registry import QueryHandle
from repro.errors import PipelineError, StorageError
from repro.query.predicate import implied_interval
from repro.query.star import StarQuery
from repro.storage.buffer import BufferPool
from repro.storage.partition import PartitionedTable
from repro.storage.table import Table


class PartitionedContinuousScan:
    """A continuous scan over the needed-partition union.

    A scan source (see :class:`~repro.storage.scan.ContinuousScan`)
    over a stable global position space (partition offsets are frozen
    at construction).  Partitions are ref-counted: a partition is
    scanned while at least one active query needs it.
    """

    def __init__(self, table: PartitionedTable, buffer_pool: BufferPool) -> None:
        self.table = table
        self.buffer_pool = buffer_pool
        self._offsets = table.partition_offsets()
        self._row_counts = table.partition_row_counts()
        self._need_counts: dict[int, int] = {}
        self._partition_index = 0  # current partition (index into table list)
        self._local_position = 0
        self._tuples_returned = 0

    # ------------------------------------------------------------------
    # Needed-set maintenance (ref-counted by the operator)
    # ------------------------------------------------------------------
    def acquire_partitions(self, partition_ids: set[int]) -> None:
        """Pin ``partition_ids`` into the scanned union."""
        for partition_id in partition_ids:
            if not 0 <= partition_id < len(self._row_counts):
                raise StorageError(f"no partition {partition_id}")
            self._need_counts[partition_id] = (
                self._need_counts.get(partition_id, 0) + 1
            )

    def release_partitions(self, partition_ids: set[int]) -> None:
        """Unpin ``partition_ids``; fully released partitions are skipped."""
        for partition_id in partition_ids:
            count = self._need_counts.get(partition_id, 0)
            if count <= 1:
                self._need_counts.pop(partition_id, None)
            else:
                self._need_counts[partition_id] = count - 1

    def needed_partitions(self) -> list[int]:
        """Currently pinned partitions, ascending."""
        return sorted(self._need_counts)

    def partition_of_position(self, position: int) -> int:
        """Return the partition id containing a global position."""
        for partition_id in range(len(self._offsets) - 1, -1, -1):
            if position >= self._offsets[partition_id]:
                if position < self._offsets[partition_id] + self._row_counts[
                    partition_id
                ]:
                    return partition_id
                break
        raise StorageError(f"position {position} outside all partitions")

    # ------------------------------------------------------------------
    # Scan-source interface
    # ------------------------------------------------------------------
    @property
    def row_count(self) -> int:
        """Rows in the currently pinned partitions.

        Zero covers both "no pinned partitions" and "every pinned
        partition is empty": the source is idle either way.
        """
        row_counts = self._row_counts
        return sum(row_counts[pinned] for pinned in self._need_counts)

    @property
    def next_position(self) -> int:
        """Global position of the next tuple to be returned."""
        if self.row_count == 0:
            return 0
        self._align()
        return self._offsets[self._partition_index] + self._local_position

    @property
    def tuples_returned(self) -> int:
        """Total tuples produced since construction."""
        return self._tuples_returned

    def next_run(self, max_rows: int) -> tuple[int, list[tuple]] | None:
        """Return ``(global start position, rows)``, or None when idle.

        A run never leaves its partition page, so it costs one
        buffer-pool fetch and its positions are contiguous.
        """
        if max_rows < 1 or self.row_count == 0:
            return None
        self._align()
        index = self._partition_index
        local = self._local_position
        heap = self.table.partitions[index].heap
        page_id, slot_id = divmod(local, heap.rows_per_page)
        page = self.buffer_pool.fetch(heap, page_id)
        # offsets are frozen: never read past the partition's counted rows
        available = min(max_rows, self._row_counts[index] - local)
        rows = page.rows[slot_id:slot_id + available]
        self._local_position = local + len(rows)
        if self._local_position >= self._row_counts[index]:
            self._partition_index = (index + 1) % len(self._row_counts)
            self._local_position = 0
        self._tuples_returned += len(rows)
        return self._offsets[index] + local, rows

    def _align(self) -> None:
        """Move the cursor to the next pinned, non-empty partition."""
        if not self._need_counts:
            return
        for _ in range(len(self._row_counts) + 1):
            needed = self._partition_index in self._need_counts
            non_empty = self._row_counts[self._partition_index] > 0
            in_range = self._local_position < self._row_counts[
                self._partition_index
            ]
            if needed and non_empty and in_range:
                return
            self._partition_index = (
                (self._partition_index + 1) % len(self._row_counts)
            )
            self._local_position = 0
        raise PipelineError("no scannable partition despite pinned set")


class PartitionedCJoinOperator(CJoinOperator):
    """CJOIN with partition pruning and early query termination."""

    def __init__(
        self,
        catalog: Catalog,
        star: StarSchema,
        partitioned_fact: PartitionedTable,
        **kwargs,
    ) -> None:
        self.partitioned_fact = partitioned_fact
        super().__init__(catalog, star, **kwargs)
        self._query_partitions: dict[int, set[int]] = {}
        # Finalization must release the query's pinned partitions before
        # the manager's standard cleanup runs.
        original_callback = self.manager.on_query_finished

        def on_finished(query_id: int) -> None:
            pinned = self._query_partitions.pop(query_id, None)
            if pinned is not None:
                self.scan.release_partitions(pinned)
            original_callback(query_id)

        self.distributor.on_query_finished = on_finished

    def _make_scan(self) -> PartitionedContinuousScan:
        return PartitionedContinuousScan(self.partitioned_fact, self.buffer_pool)

    def submit(self, query: StarQuery) -> QueryHandle:
        """Admit ``query``, pinning only the partitions it needs."""
        needed = self.partitions_for(query)
        # A pin set whose partitions are all empty would never wrap the
        # scan back to the query's start.  Pin one non-empty partition
        # as a carrier; the query's fact predicate rejects its tuples,
        # so only the wrap-around (and thus termination) is affected.
        row_counts = self.partitioned_fact.partition_row_counts()
        if not any(row_counts[p] > 0 for p in needed):
            fallback = next(
                (p for p, count in enumerate(row_counts) if count > 0), None
            )
            if fallback is not None:
                needed.add(fallback)
        self.scan.acquire_partitions(needed)
        handle = super().submit(query)
        registration = handle.registration
        if registration.start_position is not None:
            start_partition = self.scan.partition_of_position(
                registration.start_position
            )
            if start_partition not in needed:
                needed.add(start_partition)
                self.scan.acquire_partitions({start_partition})
        self._query_partitions[registration.query_id] = needed
        handle.set_progress_total(
            sum(
                self.partitioned_fact.partition_row_counts()[p] for p in needed
            )
        )
        return handle

    def partitions_for(self, query: StarQuery) -> set[int]:
        """Partitions a query must scan, from its fact predicate."""
        partitioning = self.partitioned_fact.partitioning
        if query.fact_predicate is None:
            return set(range(partitioning.partition_count))
        low, high, low_inc, high_inc = implied_interval(
            query.fact_predicate, partitioning.column
        )
        return set(
            partitioning.partitions_for_interval(low, high, low_inc, high_inc)
        )


def as_catalog_table(partitioned: PartitionedTable) -> Table:
    """Materialize a partitioned table as a plain catalog table.

    The operator needs a catalog entry for the fact table (for row
    counts and schema); rows are stored in global-position order so
    both representations agree position-for-position.
    """
    table = Table(partitioned.schema, partitioned.partitions[0].heap.rows_per_page
                  if partitioned.partitions else 128)
    for partition in partitioned.partitions:
        for row in partition.heap.iter_rows():
            table.insert(row)
    return table
