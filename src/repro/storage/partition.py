"""Range partitioning of the fact table (paper section 5).

The fact table may be range-partitioned, typically on a date column
tied to data loading.  CJOIN exploits this by tagging each query with
the set of partitions it must scan and emitting the end-of-query
control tuple as soon as the query's partitions are covered, so
queries terminate early (see ``repro.cjoin`` integration).

This module provides the storage-side pieces: the partitioning scheme,
a partitioned table whose global positions are stable, and partition
pruning for interval predicates.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterable
from dataclasses import dataclass

from repro.catalog.schema import TableSchema
from repro.errors import StorageError
from repro.storage.page import DEFAULT_ROWS_PER_PAGE
from repro.storage.table import Table


@dataclass(frozen=True)
class RangePartitioning:
    """Partitioning scheme: ``column`` split at ascending ``boundaries``.

    ``boundaries = [b0, b1, ..., bk-1]`` creates k+1 partitions:
    ``(-inf, b0), [b0, b1), ..., [bk-1, +inf)``.
    """

    column: str
    boundaries: tuple

    def __post_init__(self) -> None:
        if list(self.boundaries) != sorted(set(self.boundaries)):
            raise StorageError("partition boundaries must be strictly ascending")

    @property
    def partition_count(self) -> int:
        """Number of partitions."""
        return len(self.boundaries) + 1

    def partition_of(self, value) -> int:
        """Return the partition id holding ``value``."""
        if value is None:
            raise StorageError(
                f"NULL in partitioning column {self.column!r}"
            )
        return bisect.bisect_right(self.boundaries, value)

    def partitions_for_interval(
        self, low, high, low_inclusive: bool = True, high_inclusive: bool = True
    ) -> list[int]:
        """Return partition ids overlapping [low, high] (None = unbounded).

        This is the pruning primitive: a query whose partitioning-column
        predicate implies this interval only needs these partitions.
        """
        first = 0 if low is None else self.partition_of(low)
        last = self.partition_count - 1 if high is None else self.partition_of(high)
        if low is not None and not low_inclusive and first < last:
            # an open lower bound exactly on a boundary can skip one partition
            if first < len(self.boundaries) and self.boundaries[first] == low:
                pass  # conservative: keep partition, correctness over pruning
        if not high_inclusive and high is not None and last > first:
            last_boundary = last - 1
            if (
                0 <= last_boundary < len(self.boundaries)
                and self.boundaries[last_boundary] == high
            ):
                last -= 1
        return list(range(first, last + 1))


class PartitionedTable:
    """A fact table stored as one :class:`Table` per range partition.

    Global row positions are assigned per-partition in partition order
    *after loading is frozen*, so the continuous scan can traverse the
    union of partitions with stable positions.
    """

    def __init__(
        self,
        schema: TableSchema,
        partitioning: RangePartitioning,
        rows_per_page: int = DEFAULT_ROWS_PER_PAGE,
    ) -> None:
        if not schema.has_column(partitioning.column):
            raise StorageError(
                f"partitioning column {partitioning.column!r} not in "
                f"table {schema.name!r}"
            )
        self.schema = schema
        self.partitioning = partitioning
        self.partitions: list[Table] = [
            Table(_unkeyed(schema), rows_per_page)
            for _ in range(partitioning.partition_count)
        ]
        self._column_index = schema.column_index(partitioning.column)

    @classmethod
    def from_rows(
        cls,
        schema: TableSchema,
        partitioning: RangePartitioning,
        rows: Iterable[tuple],
        rows_per_page: int = DEFAULT_ROWS_PER_PAGE,
    ) -> "PartitionedTable":
        """Build a partitioned table and route ``rows`` to partitions."""
        table = cls(schema, partitioning, rows_per_page)
        for row in rows:
            table.insert(row)
        return table

    def insert(self, row: tuple) -> tuple[int, int]:
        """Route ``row`` to its partition; return (partition_id, local position)."""
        row = tuple(row)
        self.schema.validate_row(row)
        partition_id = self.partitioning.partition_of(row[self._column_index])
        table = self.partitions[partition_id]
        table.insert(row)
        return partition_id, table.row_count - 1

    @property
    def row_count(self) -> int:
        """Total rows across partitions."""
        return sum(table.row_count for table in self.partitions)

    def partition_row_counts(self) -> list[int]:
        """Row counts per partition, in partition order."""
        return [table.row_count for table in self.partitions]

    def partition_offsets(self) -> list[int]:
        """Global position of each partition's first row."""
        offsets = []
        total = 0
        for table in self.partitions:
            offsets.append(total)
            total += table.row_count
        return offsets

    def partition_span(self, partition_id: int) -> tuple[int, int]:
        """Return the [start, end) global position span of a partition."""
        if not 0 <= partition_id < len(self.partitions):
            raise StorageError(f"no partition {partition_id}")
        offsets = self.partition_offsets()
        start = offsets[partition_id]
        return start, start + self.partitions[partition_id].row_count


def contiguous_spans(row_count: int, segment_count: int) -> list[tuple[int, int]]:
    """Split ``[0, row_count)`` into balanced contiguous ``[start, end)`` spans.

    The segmentation primitive shared by range partitioning consumers
    and the data-parallel sharded drain (DESIGN.md section 8): spans
    are contiguous in global scan order, sizes differ by at most one
    row, and when ``row_count < segment_count`` the trailing spans are
    empty (never dropped), so callers can map segment index -> worker
    statically.

    Raises:
        StorageError: on a non-positive segment count or negative
            row count.
    """
    if segment_count < 1:
        raise StorageError(
            f"segment_count must be >= 1, got {segment_count}"
        )
    if row_count < 0:
        raise StorageError(f"row_count must be >= 0, got {row_count}")
    base, extra = divmod(row_count, segment_count)
    spans: list[tuple[int, int]] = []
    start = 0
    for segment in range(segment_count):
        length = base + (1 if segment < extra else 0)
        spans.append((start, start + length))
        start += length
    return spans


def _unkeyed(schema: TableSchema) -> TableSchema:
    """Copy ``schema`` without a primary key.

    Partitions share one logical key space, so per-partition PK indexes
    would be misleading; uniqueness is the loader's responsibility.
    """
    return schema.without_primary_key()
