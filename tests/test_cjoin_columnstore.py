"""Tests for CJOIN over a column-store fact table (section 5)."""

import pytest

from repro.catalog.catalog import Catalog
from repro.cjoin.columnstore import (
    ColumnMergeContinuousScan,
    ColumnStoreCJoinOperator,
    fact_columns_needed,
)
from repro.errors import AdmissionError
from repro.query.aggregates import AggregateSpec
from repro.query.predicate import Comparison
from repro.query.reference import evaluate_star_query
from repro.query.star import ColumnRef, StarQuery
from repro.storage.buffer import BufferPool
from repro.storage.column import ColumnStoreTable
from repro.storage.iostats import IOStats
from tests.conftest import make_tiny_star, take_rows


def column_setup():
    """The tiny star with its fact table stored column-wise."""
    row_catalog, star = make_tiny_star()
    rows = row_catalog.table("sales").all_rows()
    column_fact = ColumnStoreTable.from_rows(star.fact, rows, values_per_page=4)
    catalog = Catalog()
    for name in ("store", "product"):
        catalog.register_table(row_catalog.table(name))
    catalog.register_table(column_fact)  # duck-typed fact entry
    catalog.register_star(star)
    return catalog, star, column_fact, row_catalog


def city_query(city):
    return StarQuery.build(
        "sales",
        dimension_predicates={"store": Comparison("s_city", "=", city)},
        group_by=[ColumnRef("product", "p_category")],
        aggregates=[AggregateSpec("count")],
    )


class TestFactColumnsNeeded:
    def test_collects_fks_predicates_and_outputs(self, tiny_star):
        _, star = tiny_star
        query = StarQuery.build(
            "sales",
            dimension_predicates={"store": Comparison("s_id", "=", 1)},
            fact_predicate=Comparison("f_qty", ">", 1),
            group_by=[ColumnRef("sales", "f_product")],
            aggregates=[
                AggregateSpec(
                    "sum", "sales", "f_total", column2="f_qty", combine="-"
                )
            ],
        )
        assert fact_columns_needed(query, star) == {
            "f_store",      # FK of referenced store
            "f_qty",        # fact predicate + aggregate input 2
            "f_product",    # fact-side group-by
            "f_total",      # aggregate input 1
        }


class TestColumnMergeScan:
    def test_wraps_with_stable_order(self):
        _, star, column_fact, _ = column_setup()
        scan = ColumnMergeContinuousScan(
            column_fact, ["f_store", "f_qty"], BufferPool(32)
        )
        rows = column_fact.row_count
        first = take_rows(scan, rows, max_rows=3)
        second = take_rows(scan, rows, max_rows=rows)
        assert first == second
        position, row = first[0]
        assert position == 0
        assert row[0] is not None and row[2] is not None  # f_store, f_qty
        assert row[1] is None and row[3] is None          # unselected

    def test_unknown_column_rejected(self):
        _, _, column_fact, _ = column_setup()
        with pytest.raises(AdmissionError):
            ColumnMergeContinuousScan(column_fact, ["wat"], BufferPool(8))


class TestColumnStoreOperator:
    def test_matches_reference(self):
        catalog, star, column_fact, row_catalog = column_setup()
        operator = ColumnStoreCJoinOperator(
            catalog,
            star,
            column_fact,
            scanned_columns=["f_store", "f_product"],
        )
        query = city_query("paris")
        handle = operator.submit(query)
        operator.run_until_drained()
        assert handle.results() == evaluate_star_query(query, row_catalog)

    def test_concurrent_queries_share_the_merge_scan(self):
        catalog, star, column_fact, row_catalog = column_setup()
        operator = ColumnStoreCJoinOperator(
            catalog,
            star,
            column_fact,
            scanned_columns=["f_store", "f_product", "f_total"],
        )
        queries = [city_query(c) for c in ("lyon", "nice")]
        queries.append(
            StarQuery.build(
                "sales",
                group_by=[ColumnRef("store", "s_city")],
                aggregates=[AggregateSpec("sum", "sales", "f_total")],
            )
        )
        handles = [operator.submit(query) for query in queries]
        operator.run_until_drained()
        for query, handle in zip(queries, handles):
            assert handle.results() == evaluate_star_query(query, row_catalog)

    def test_query_needing_unscanned_column_rejected(self):
        catalog, star, column_fact, _ = column_setup()
        operator = ColumnStoreCJoinOperator(
            catalog, star, column_fact,
            scanned_columns=["f_store", "f_product"],
        )
        needs_qty = StarQuery.build(
            "sales",
            fact_predicate=Comparison("f_qty", ">", 1),
            aggregates=[AggregateSpec("count")],
        )
        with pytest.raises(AdmissionError):
            operator.submit(needs_qty)
        # and the rejected admission must not leak a query id slot
        operator.submit(city_query("lyon"))

    def test_io_volume_scales_with_projection_width(self):
        catalog, star, column_fact, row_catalog = column_setup()
        reads = {}
        for columns in (["f_store", "f_product"],
                        ["f_store", "f_product", "f_qty", "f_total"]):
            stats = IOStats()
            operator = ColumnStoreCJoinOperator(
                catalog,
                star,
                column_fact,
                scanned_columns=columns,
                buffer_pool=BufferPool(2, stats),
            )
            handle = operator.submit(city_query("lyon"))
            operator.run_until_drained()
            assert handle.done
            reads[len(columns)] = stats.disk_reads
        assert reads[2] < reads[4]

    def test_default_projection_covers_all_foreign_keys(self):
        catalog, star, column_fact, row_catalog = column_setup()
        operator = ColumnStoreCJoinOperator(catalog, star, column_fact)
        assert set(operator.scan.column_names) == {"f_store", "f_product"}
        query = city_query("lyon")
        handle = operator.submit(query)
        operator.run_until_drained()
        assert handle.results() == evaluate_star_query(query, row_catalog)

    def test_pages_per_cycle_reports_projection_volume(self):
        catalog, star, column_fact, _ = column_setup()
        narrow = ColumnStoreCJoinOperator(
            catalog, star, column_fact, scanned_columns=["f_store", "f_product"]
        )
        wide = ColumnStoreCJoinOperator(
            catalog, star, column_fact,
            scanned_columns=["f_store", "f_product", "f_qty", "f_total"],
        )
        assert narrow.pages_per_cycle() < wide.pages_per_cycle()
