"""Tests for CJOIN over a range-partitioned fact table (section 5)."""


from repro.catalog.catalog import Catalog
from repro.cjoin.partitioned import (
    PartitionedCJoinOperator,
    PartitionedContinuousScan,
    as_catalog_table,
)
from repro.query.aggregates import AggregateSpec
from repro.query.predicate import Between, Comparison
from repro.query.reference import evaluate_star_query
from repro.query.star import StarQuery
from repro.storage.buffer import BufferPool
from repro.storage.partition import PartitionedTable, RangePartitioning
from tests.conftest import make_tiny_star, take_rows


def partitioned_setup():
    """The tiny star with its fact range-partitioned on f_qty."""
    base_catalog, star = make_tiny_star()
    rows = base_catalog.table("sales").all_rows()
    partitioning = RangePartitioning("f_qty", (2, 4))  # 3 partitions
    partitioned = PartitionedTable.from_rows(
        star.fact, partitioning, rows, rows_per_page=4
    )
    catalog = Catalog()
    for name in ("store", "product"):
        catalog.register_table(base_catalog.table(name))
    catalog.register_table(as_catalog_table(partitioned))
    catalog.register_star(star)
    return catalog, star, partitioned


def count_query(fact_predicate=None):
    return StarQuery.build(
        "sales",
        fact_predicate=fact_predicate,
        aggregates=[AggregateSpec("count"), AggregateSpec("sum", "sales", "f_total")],
    )


class TestPartitionedScan:
    def test_covers_pinned_partitions_cyclically(self):
        _, _, partitioned = partitioned_setup()
        scan = PartitionedContinuousScan(partitioned, BufferPool(16))
        scan.acquire_partitions({0, 2})
        span0 = partitioned.partition_span(0)
        span2 = partitioned.partition_span(2)
        expected = set(range(*span0)) | set(range(*span2))
        assert scan.row_count == len(expected)
        seen = [p for p, _ in take_rows(scan, len(expected))]
        assert set(seen) == expected
        # second cycle repeats the same order
        second = [p for p, _ in take_rows(scan, len(expected), max_rows=5)]
        assert second == seen

    def test_idle_without_pins(self):
        _, _, partitioned = partitioned_setup()
        scan = PartitionedContinuousScan(partitioned, BufferPool(16))
        assert scan.next_run(8) is None
        assert scan.row_count == 0 and scan.next_position == 0

    def test_release_shrinks_union(self):
        _, _, partitioned = partitioned_setup()
        scan = PartitionedContinuousScan(partitioned, BufferPool(16))
        scan.acquire_partitions({0, 1})
        scan.acquire_partitions({1})
        scan.release_partitions({0, 1})
        assert scan.needed_partitions() == [1]

    def test_partition_of_position(self):
        _, _, partitioned = partitioned_setup()
        scan = PartitionedContinuousScan(partitioned, BufferPool(16))
        for partition_id in range(3):
            start, end = partitioned.partition_span(partition_id)
            if end > start:
                assert scan.partition_of_position(start) == partition_id
                assert scan.partition_of_position(end - 1) == partition_id


class TestPartitionedOperator:
    def test_unpredicated_query_scans_everything_correctly(self):
        catalog, star, partitioned = partitioned_setup()
        operator = PartitionedCJoinOperator(catalog, star, partitioned)
        query = count_query()
        assert operator.execute(query) == evaluate_star_query(query, catalog)

    def test_pruned_query_matches_reference(self):
        catalog, star, partitioned = partitioned_setup()
        operator = PartitionedCJoinOperator(catalog, star, partitioned)
        query = count_query(Between("f_qty", 1, 2))  # only partition 0
        assert operator.execute(query) == evaluate_star_query(query, catalog)

    def test_pruned_query_scans_fewer_tuples(self):
        catalog, star, partitioned = partitioned_setup()
        pruned_operator = PartitionedCJoinOperator(catalog, star, partitioned)
        pruned_operator.execute(count_query(Comparison("f_qty", ">=", 5)))
        pruned_tuples = pruned_operator.stats.tuples_scanned

        full_operator = PartitionedCJoinOperator(catalog, star, partitioned)
        full_operator.execute(count_query())
        full_tuples = full_operator.stats.tuples_scanned
        assert pruned_tuples < full_tuples

    def test_partitions_for_derives_from_interval(self):
        catalog, star, partitioned = partitioned_setup()
        operator = PartitionedCJoinOperator(catalog, star, partitioned)
        # boundaries (2, 4): partitions are (-inf,2), [2,4), [4,inf)
        assert operator.partitions_for(count_query(Between("f_qty", 1, 1))) == {0}
        assert operator.partitions_for(
            count_query(Between("f_qty", 1, 2))
        ) == {0, 1}
        assert operator.partitions_for(
            count_query(Comparison("f_qty", ">", 4))
        ) == {2}
        assert operator.partitions_for(count_query()) == {0, 1, 2}

    def test_concurrent_queries_with_different_partitions(self):
        catalog, star, partitioned = partitioned_setup()
        operator = PartitionedCJoinOperator(catalog, star, partitioned)
        queries = [
            count_query(Between("f_qty", 1, 2)),
            count_query(Comparison("f_qty", ">=", 3)),
            count_query(),
        ]
        handles = [operator.submit(query) for query in queries]
        operator.run_until_drained()
        for query, handle in zip(queries, handles):
            assert handle.results() == evaluate_star_query(query, catalog)

    def test_pins_released_after_completion(self):
        catalog, star, partitioned = partitioned_setup()
        operator = PartitionedCJoinOperator(catalog, star, partitioned)
        handle = operator.submit(count_query(Between("f_qty", 1, 2)))
        operator.run_until_drained()
        operator.manager.process_finished()
        assert handle.done
        assert operator.scan.needed_partitions() == []
