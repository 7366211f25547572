"""Run-shaped batches and page-resident key columns (DESIGN.md sections 3, 5).

A Filter's key column is a slice of a column the *page* keeps from one
scan cycle to the next, so the new way to be silently wrong is a page
that changed under a column built before the change.  These tests pin
the invalidation rule from every writer that reaches a fact page — the
ingest append into a partly filled last page, ``apply_update``, a bare
``HeapFile.write_row`` — against ``query/reference.py``, count the
builds (a second cycle builds nothing, an append rebuilds one page),
hold a batch in flight across a write, and count the scan runs a cycle
takes once batches end on page boundaries.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.catalog.catalog import Catalog
from repro.cjoin import CJoinOperator
from repro.cjoin.batch import FactBatch
from repro.engine import Warehouse
from repro.query.aggregates import AggregateSpec
from repro.query.predicate import Comparison, InList
from repro.query.reference import evaluate_star_query
from repro.query.star import ColumnRef, StarQuery
from repro.storage.table import Table
from tests.conftest import make_tiny_star

#: conftest's 12 sales rows minus the last two: pages of 4, 4 and 2 rows
LOADED_ROWS = 10
F_STORE, F_PRODUCT = 0, 1


def make_partly_filled_star() -> tuple[Catalog, object]:
    """The tiny star with a fact table whose last page has room."""
    catalog, star = make_tiny_star()
    sales = catalog.table("sales")
    partial = Catalog()
    partial.register_table(
        Table.from_rows(
            sales.schema, sales.all_rows()[:LOADED_ROWS], rows_per_page=4
        )
    )
    partial.register_table(catalog.table("store"))
    partial.register_table(catalog.table("product"))
    partial.register_star(star)
    return partial, star


def by_city_query() -> StarQuery:
    """Probes ``f_store`` (predicate) and ``f_product`` (group-by join)."""
    return StarQuery.build(
        "sales",
        dimension_predicates={
            "store": InList("s_city", ["lyon", "paris"]),
            "product": Comparison("p_price", ">", 0),
        },
        group_by=[ColumnRef("store", "s_city")],
        aggregates=[
            AggregateSpec("sum", "sales", "f_total"),
            AggregateSpec("count"),
        ],
    )


def answer(warehouse: Warehouse, query: StarQuery) -> list[tuple]:
    handle = warehouse.submit(query)
    warehouse.run()
    return handle.results(timeout=30.0)


def reference(warehouse: Warehouse, query: StarQuery) -> list[tuple]:
    """``query/reference.py`` on the warehouse's data as of now."""
    return evaluate_star_query(
        dataclasses.replace(query, snapshot_id=warehouse.current_snapshot_id),
        warehouse.catalog,
        versioned_fact=warehouse.versioned_fact,
    )


def cached_columns(heap) -> list[set[int]]:
    return [set(page._columns) for page in heap.pages]


@pytest.fixture(params=[{}, {"enable_updates": True}], ids=["plain", "mvcc"])
def warehouse(request):
    catalog, star = make_partly_filled_star()
    warehouse = Warehouse(catalog, star, **request.param)
    yield warehouse
    warehouse.close()


# ----------------------------------------------------------------------
# (a) ingest appends into a partly filled page whose columns are cached
# ----------------------------------------------------------------------
def test_ingest_append_into_a_cached_partly_filled_page(warehouse):
    query = by_city_query()
    heap = warehouse.catalog.table("sales").heap
    assert answer(warehouse, query) == reference(warehouse, query)
    # the last page holds 2 of 4 rows and both key columns are resident
    assert len(heap.pages[-1]) == 2
    assert cached_columns(heap) == [{F_STORE, F_PRODUCT}] * 3
    before = reference(warehouse, query)
    # two rows for the open page, one that opens a fourth page
    warehouse.ingest(
        fact_rows=[(1, 10, 1, 1000), (2, 20, 1, 2000), (1, 30, 1, 4000)]
    )
    assert warehouse.apply_pending_ingest() == 3
    after = answer(warehouse, query)
    assert [len(page) for page in heap.pages] == [4, 4, 4, 1]
    assert after == reference(warehouse, query) != before
    assert sum(total for _, total, _ in after) == (
        sum(total for _, total, _ in before) + 7000
    )


# ----------------------------------------------------------------------
# (b) a fact row's foreign key changes after its column was cached
# ----------------------------------------------------------------------
def test_apply_update_after_caching_is_seen_by_the_next_cycle():
    catalog, star = make_partly_filled_star()
    warehouse = Warehouse(catalog, star, enable_updates=True)
    try:
        query = by_city_query()
        before = answer(warehouse, query)
        # move row 0 from lyon to nice: the old version dies, the new
        # one lands in the cached, partly filled last page
        row = catalog.table("sales").all_rows()[0]
        assert row[F_STORE] == 1
        warehouse.apply_update(inserts=[(3,) + row[1:]], deletes=[0])
        after = answer(warehouse, query)
        assert after == reference(warehouse, query) != before
    finally:
        warehouse.close()


def test_write_row_after_caching_is_seen_by_the_next_cycle():
    catalog, star = make_partly_filled_star()
    warehouse = Warehouse(catalog, star)
    try:
        query = by_city_query()
        before = answer(warehouse, query)
        heap = catalog.table("sales").heap
        row = heap.read_row(1, 2)
        assert row[F_STORE] != 3 and F_STORE in heap.pages[1]._columns
        heap.write_row(1, 2, (3,) + row[1:])  # to nice: no longer selected
        assert cached_columns(heap) == [
            {F_STORE, F_PRODUCT}, set(), {F_STORE, F_PRODUCT}
        ]
        after = answer(warehouse, query)
        assert after == reference(warehouse, query) != before
    finally:
        warehouse.close()


# ----------------------------------------------------------------------
# (c) how many columns a cycle builds
# ----------------------------------------------------------------------
def test_second_cycle_builds_nothing_and_an_append_rebuilds_one_page():
    catalog, star = make_partly_filled_star()
    warehouse = Warehouse(catalog, star)
    try:
        query = by_city_query()
        heap = catalog.table("sales").heap
        assert heap.columns_built == 0  # nothing at load
        answer(warehouse, query)
        # two probed columns on each of three pages, none for f_qty/f_total
        assert heap.columns_built == 6
        answer(warehouse, query)
        assert heap.columns_built == 6
        warehouse.ingest(fact_rows=[(1, 10, 1, 1000)])
        answer(warehouse, query)
        assert heap.columns_built == 8
        assert [page.columns_built for page in heap.pages] == [2, 2, 4]
    finally:
        warehouse.close()


# ----------------------------------------------------------------------
# (d) a batch in flight keeps the rows and keys it was cut with
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cached_first", [True, False], ids=["cached", "unbuilt"])
def test_batch_in_flight_keeps_its_slice_when_the_page_mutates(cached_first):
    catalog, star = make_partly_filled_star()
    operator = CJoinOperator(catalog, star)
    heap = catalog.table("sales").heap
    if cached_first:
        operator.submit(by_city_query())
        operator.run_until_drained()
    operator.submit(by_city_query())
    items = operator.preprocessor.next_batched_items(64)
    [batch] = [item for item in items if isinstance(item, FactBatch)]
    assert len(batch) == LOADED_ROWS
    rows_before = list(batch.rows)
    stores_before = [row[F_STORE] for row in rows_before]
    # a writer gets in behind the batch: one row rewritten on the first
    # page, one appended to the last
    heap.write_row(0, 1, (3,) + rows_before[1][1:])
    catalog.table("sales").insert((3, 10, 1, 1))
    assert stores_before[1] != 3
    assert batch.rows == rows_before
    assert batch.key_column(F_STORE) == stores_before
    assert batch.key_column(F_PRODUCT) == [row[F_PRODUCT] for row in rows_before]
    # nothing built for the batch was kept for the page's later runs
    assert F_STORE not in heap.pages[0]._columns
    for item in items:
        operator.pipeline.process_item(item)
    operator.run_until_drained()
    # ... which see the write
    handle = operator.submit(by_city_query())
    [batch] = [
        item
        for item in operator.preprocessor.next_batched_items(64)
        if isinstance(item, FactBatch)
    ]
    # (the scan resumes at the appended row, then wraps)
    assert batch.positions == [10, *range(LOADED_ROWS)]
    stores_now = dict(zip(batch.positions, batch.key_column(F_STORE)))
    assert stores_now == dict(
        enumerate(row[F_STORE] for row in catalog.table("sales").all_rows())
    )
    assert stores_now[1] == 3 and not handle.done


# ----------------------------------------------------------------------
# Batches end on page boundaries
# ----------------------------------------------------------------------
def test_runs_per_cycle_bounded_by_pages_plus_admissions(ssb_small, ssb_workload):
    """A control tuple spends one item of budget; the batch after it
    must not leave every later batch straddling three pages."""
    catalog, star = ssb_small
    operator = CJoinOperator(catalog, star)
    scan = operator.scan
    pages = catalog.table(star.fact.name).heap.page_count
    calls = []
    next_run = scan.next_run

    def counted(max_rows):
        produced = next_run(max_rows)
        calls.append(len(produced[1]))
        return produced

    scan.next_run = counted
    # a first admission at position 0, two more wherever a few steps
    # leave the scan; every one of them may split one page's run
    admissions = 0
    for query, steps in zip(ssb_workload[:3], (3, 5, 0)):
        operator.submit(query)
        admissions += 1
        for _ in range(steps):
            operator.executor.step()
    operator.run_until_drained()
    cycles = scan.tuples_returned / scan.row_count
    assert 1.0 < cycles < 2.0
    assert sum(calls) == scan.tuples_returned
    assert len(calls) <= cycles * pages + admissions + 1
    batch_size = operator.executor.config.batch_size
    assert max(calls) <= batch_size
