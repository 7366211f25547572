"""The scan-source seam: four sources, one contract, one pipeline.

The Preprocessor reads ``next_position`` / ``row_count`` /
``next_run(max_rows)`` / ``tuples_returned`` and nothing else
(DESIGN.md section 6), so the section-5 extensions are scan sources.
Checked here:

* the contract itself, as one property over all four sources — any
  sequence of run sizes (pins and unpins interleaved for the
  partitioned one) yields the source's cyclic position order, a run
  never leaves its page / partition / table, and the counters add up;
* every extension operator equals ``query/reference.py`` at batch
  sizes on both sides of a page, including one row per batch;
* the column store's I/O claim: a scan cycle reads each projected
  column page from disk exactly once.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.catalog.schema import Column, DataType, TableSchema
from repro.cjoin.columnstore import (
    ColumnMergeContinuousScan,
    ColumnStoreCJoinOperator,
)
from repro.cjoin.executor import ExecutorConfig
from repro.cjoin.partitioned import (
    PartitionedCJoinOperator,
    PartitionedContinuousScan,
)
from repro.query.aggregates import AggregateSpec
from repro.query.predicate import Between, Comparison
from repro.query.reference import evaluate_star_query
from repro.query.star import ColumnRef, StarQuery
from repro.storage.buffer import BufferPool
from repro.storage.column import ColumnStoreTable
from repro.storage.compression import (
    DecompressingContinuousScan,
    compress_table,
)
from repro.storage.iostats import IOStats
from repro.storage.mvcc import TransactionManager, VersionedTable
from repro.storage.partition import PartitionedTable, RangePartitioning
from repro.storage.scan import ContinuousScan
from repro.storage.table import Table
from tests.test_cjoin_columnstore import column_setup
from tests.test_cjoin_compressed import CompressedCJoinOperator, compressed_ssb
from tests.test_cjoin_partitioned import partitioned_setup

SCHEMA = TableSchema(
    "t",
    [
        Column("k", DataType.INT),
        Column("label", DataType.STRING),
        Column("v", DataType.INT),
    ],
)
LABELS = ("ash", "birch", "cedar")


def rows_of(count):
    return [(i % 7, LABELS[i % 3], i) for i in range(count)]


# ----------------------------------------------------------------------
# The contract, source by source
# ----------------------------------------------------------------------
class SingleHeapModel:
    """Positions ``0 .. n-1`` cyclically, ``page`` rows to a page."""

    def __init__(self, rows, page):
        self.rows, self.page, self.cursor = rows, page, 0

    def pinned_rows(self):
        return len(self.rows)

    def expect_run(self, max_rows):
        """(start, rows) of the longest run allowed from the cursor."""
        start = self.cursor % len(self.rows)
        length = min(
            max_rows, self.page - start % self.page, len(self.rows) - start
        )
        self.cursor = start + length
        return start, self.rows[start:start + length]


class PartitionedModel:
    """The pinned-partition union in partition order, cyclically."""

    def __init__(self, partitioned, page):
        self.parts = [table.all_rows() for table in partitioned.partitions]
        self.offsets = partitioned.partition_offsets()
        self.page = page
        self.pins: dict[int, int] = {}
        self.part, self.local = 0, 0

    def pin(self, ids, delta):
        for partition_id in ids:
            count = self.pins.get(partition_id, 0) + delta
            if count > 0:
                self.pins[partition_id] = count
            else:
                self.pins.pop(partition_id, None)

    def pinned_rows(self):
        return sum(len(self.parts[p]) for p in self.pins)

    def expect_run(self, max_rows):
        while not (
            self.part in self.pins and self.local < len(self.parts[self.part])
        ):
            self.part, self.local = (self.part + 1) % len(self.parts), 0
        rows = self.parts[self.part]
        length = min(
            max_rows, self.page - self.local % self.page, len(rows) - self.local
        )
        start = self.offsets[self.part] + self.local
        run = rows[self.local:self.local + length]
        self.local += length
        return start, run


def build_source(kind, row_count, page):
    """(scan source, model of what it must produce)."""
    rows = rows_of(row_count)
    pool = BufferPool(8)
    if kind == "row":
        return ContinuousScan(Table.from_rows(SCHEMA, rows, page), pool), (
            SingleHeapModel(rows, page)
        )
    if kind == "compressed":
        compressed = compress_table(Table.from_rows(SCHEMA, rows, page), ["label"])
        return DecompressingContinuousScan(compressed, pool), (
            SingleHeapModel(rows, page)
        )
    if kind == "column":
        column_fact = ColumnStoreTable.from_rows(SCHEMA, rows, values_per_page=page)
        merged = [(k, None, v) for k, _, v in rows]  # label is not scanned
        return ColumnMergeContinuousScan(column_fact, ["k", "v"], pool), (
            SingleHeapModel(merged, page)
        )
    partitioned = PartitionedTable.from_rows(
        SCHEMA, RangePartitioning("k", (2, 5)), rows, rows_per_page=page
    )
    return PartitionedContinuousScan(partitioned, pool), (
        PartitionedModel(partitioned, page)
    )


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["row", "compressed", "column", "partitioned"]),
    row_count=st.integers(0, 40),
    page=st.integers(1, 6),
    steps=st.lists(
        st.one_of(
            st.tuples(st.just("run"), st.integers(0, 9)),
            st.tuples(
                st.sampled_from(["acquire", "release"]),
                st.sets(st.integers(0, 2), min_size=1),
            ),
        ),
        min_size=1,
        max_size=40,
    ),
)
def test_runs_concatenate_to_the_cyclic_position_order(
    kind, row_count, page, steps
):
    scan, model = build_source(kind, row_count, page)
    returned = 0
    for action, argument in steps:
        if action != "run":
            if kind == "partitioned":
                getattr(scan, f"{action}_partitions")(argument)
                model.pin(argument, +1 if action == "acquire" else -1)
            continue
        assert scan.row_count == model.pinned_rows()
        if argument == 0 or model.pinned_rows() == 0:
            # nothing asked for, or a source that cannot produce
            assert scan.next_run(argument) is None
            if model.pinned_rows() == 0:
                assert scan.next_position == 0
            continue
        expected_start, expected_rows = model.expect_run(argument)
        assert scan.next_position == expected_start
        start, rows = scan.next_run(argument)
        # the longest run that stays on its page / partition / table,
        # picking up exactly where the last one stopped
        assert (start, list(rows)) == (expected_start, expected_rows)
        returned += len(rows)
        assert scan.tuples_returned == returned


# ----------------------------------------------------------------------
# Extension operators on the one pipeline
# ----------------------------------------------------------------------
def tiny_star_queries():
    """Aggregations, a listing (the galaxy sub-plan shape), prunable
    fact predicates, and a predicate that selects nothing."""
    return [
        StarQuery.build(
            "sales",
            dimension_predicates={"store": Comparison("s_city", "=", "lyon")},
            group_by=[ColumnRef("product", "p_category")],
            aggregates=[AggregateSpec("sum", "sales", "f_total")],
        ),
        StarQuery.build(
            "sales",
            dimension_predicates={
                "product": Comparison("p_category", "=", "food")
            },
            select=[ColumnRef("store", "s_city"), ColumnRef("sales", "f_qty")],
        ),
        StarQuery.build(
            "sales",
            fact_predicate=Between("f_qty", 1, 2),
            aggregates=[AggregateSpec("count")],
        ),
        StarQuery.build(
            "sales",
            fact_predicate=Comparison("f_qty", ">=", 4),
            group_by=[ColumnRef("sales", "f_store")],
            aggregates=[AggregateSpec("max", "sales", "f_total")],
        ),
        StarQuery.build(
            "sales",
            fact_predicate=Comparison("f_qty", ">", 1000),
            aggregates=[AggregateSpec("count")],
        ),
    ]


def ssb_queries():
    """The same shapes over the compressed SSB fact, one predicate on
    a dictionary-coded column (evaluated on the decompressed row)."""
    return [
        StarQuery.build(
            "lineorder",
            dimension_predicates={"date": Comparison("d_year", "=", 1992)},
            group_by=[ColumnRef("date", "d_month")],
            aggregates=[AggregateSpec("sum", "lineorder", "lo_revenue")],
        ),
        StarQuery.build(
            "lineorder",
            fact_predicate=Comparison("lo_shipmode", "=", "AIR"),
            aggregates=[AggregateSpec("count")],
        ),
        StarQuery.build(
            "lineorder",
            dimension_predicates={"date": Comparison("d_year", "=", 1993)},
            fact_predicate=Comparison("lo_quantity", "<", 3),
            select=[
                ColumnRef("lineorder", "lo_shipmode"),
                ColumnRef("date", "d_month"),
            ],
        ),
        StarQuery.build(
            "lineorder",
            fact_predicate=Comparison("lo_shipmode", "=", "ZEPPELIN"),
            aggregates=[AggregateSpec("count")],
        ),
    ]


def build_operator(kind, batch_size):
    """(extension operator, reference catalog, queries).

    ``batch_size`` may be ``"page+1"``: one row more than a page of
    the operator's fact storage holds.
    """

    def config(rows_per_page):
        if batch_size == "page+1":
            return ExecutorConfig(batch_size=rows_per_page + 1)
        return ExecutorConfig(batch_size=batch_size)

    if kind == "column":
        catalog, star, column_fact, row_catalog = column_setup()
        operator = ColumnStoreCJoinOperator(
            catalog,
            star,
            column_fact,
            scanned_columns=[column.name for column in star.fact.columns],
            executor_config=config(column_fact.values_per_page),
        )
        return operator, row_catalog, tiny_star_queries()
    if kind == "partitioned":
        catalog, star, partitioned = partitioned_setup()
        operator = PartitionedCJoinOperator(
            catalog, star, partitioned, executor_config=config(4)
        )
        return operator, catalog, tiny_star_queries()
    catalog, star, compressed = compressed_ssb()
    operator = CompressedCJoinOperator(
        catalog,
        star,
        compressed,
        executor_config=config(compressed.physical.heap.rows_per_page),
    )
    return operator, catalog, ssb_queries()


# one row per batch, a batch inside a page, one row past a page, and
# (on the 4-rows-per-page tiny star) every page in one batch
@pytest.mark.parametrize("batch_size", [1, 3, "page+1", 300])
@pytest.mark.parametrize("kind", ["column", "partitioned", "compressed"])
def test_extension_operators_match_the_reference(kind, batch_size):
    operator, reference_catalog, queries = build_operator(kind, batch_size)
    handles = [operator.submit(query) for query in queries[:2]]
    operator.executor.step()  # the rest arrive mid-scan
    handles += [operator.submit(query) for query in queries[2:]]
    operator.run_until_drained()
    for query, handle in zip(queries, handles):
        assert handle.results() == evaluate_star_query(
            query, reference_catalog
        ), query
    assert any(handle.results() for handle in handles)
    assert operator.stats.tuples_scanned == operator.scan.tuples_returned


@pytest.mark.parametrize("batch_size", [1, 3, 5, 300])
def test_partition_pruning_terminates_early_at_every_batch_size(batch_size):
    catalog, star, partitioned = partitioned_setup()
    operator = PartitionedCJoinOperator(
        catalog,
        star,
        partitioned,
        executor_config=ExecutorConfig(batch_size=batch_size),
    )
    query = tiny_star_queries()[3]  # f_qty >= 4: the last partition only
    assert operator.execute(query) == evaluate_star_query(query, catalog)
    start, end = partitioned.partition_span(2)
    assert operator.stats.tuples_scanned == end - start < partitioned.row_count


@pytest.mark.parametrize("batch_size", [1, 3, 5, 300])
def test_partition_runs_under_snapshots_span_version_pages(batch_size):
    """A partition's pages do not line up with the version store's.

    Visibility is settled per run from the bounds of every version
    page the run touches, so deletes and stale snapshots stay exact on
    a source paged differently from the versioned table.
    """
    catalog, star, partitioned = partitioned_setup()
    versioned = VersionedTable(catalog.table("sales"))
    transactions = TransactionManager()
    deleted = transactions.commit(versioned, deletes=[3, 4, 9]).snapshot_id
    operator = PartitionedCJoinOperator(
        catalog,
        star,
        partitioned,
        versioned_fact=versioned,
        executor_config=ExecutorConfig(batch_size=batch_size),
    )
    queries = [
        StarQuery.build(
            "sales",
            fact_predicate=fact_predicate,
            aggregates=[
                AggregateSpec("count"),
                AggregateSpec("sum", "sales", "f_total"),
            ],
            snapshot_id=snapshot_id,
        )
        for snapshot_id in (0, deleted)
        for fact_predicate in (None, Comparison("f_qty", ">=", 2))
    ]
    handles = [operator.submit(query) for query in queries]
    operator.run_until_drained()
    results = [handle.results() for handle in handles]
    assert results == [
        evaluate_star_query(query, catalog, versioned_fact=versioned)
        for query in queries
    ]
    assert results[0] != results[2]  # the deletes are visible to one side


# ----------------------------------------------------------------------
# Column-store I/O volume
# ----------------------------------------------------------------------
@pytest.mark.parametrize("batch_size", [1, 3, 300])
def test_column_store_cycle_reads_each_projected_page_once(batch_size):
    catalog, star, column_fact, row_catalog = column_setup()
    projection = ["f_store", "f_product", "f_total"]
    io_stats = IOStats()
    operator = ColumnStoreCJoinOperator(
        catalog,
        star,
        column_fact,
        scanned_columns=projection,
        # one resident page per projected column is enough: a run
        # fetches each column's page once and never returns to a page
        buffer_pool=BufferPool(len(projection), io_stats),
        executor_config=ExecutorConfig(batch_size=batch_size),
    )
    query = StarQuery.build(
        "sales", aggregates=[AggregateSpec("sum", "sales", "f_total")]
    )
    assert operator.execute(query) == evaluate_star_query(query, row_catalog)
    assert io_stats.disk_reads == operator.pages_per_cycle() == 9
