"""Streaming ingest: equivalence, back-pressure, close().

The subsystem contract (DESIGN.md section 15, docs/PROTOCOL.md
section 10): a dataset built by streaming appends and dimension
upserts through the bounded ingest buffer must answer every query
exactly like the same dataset bulk-loaded — through the always-on scan
and the sharded library drain, with and without MVCC, and over the
wire — writes
beyond the buffer get typed back-pressure instead of blocking, and a
clean ``Warehouse.close()`` drains or rejects every staged batch
deterministically.
"""

from __future__ import annotations

import asyncio

import pytest

import repro
from repro.cjoin import execute_process_parallel
from repro.client import OperationalError, ProgrammingError
from repro.engine import Warehouse
from repro.errors import IngestBackpressureError, IngestError
from repro.query.aggregates import AggregateSpec
from repro.query.reference import evaluate_star_query
from repro.query.star import ColumnRef, StarQuery
from repro.tuning import TuningConfig
from tests.conftest import make_tiny_star

COUNT_SQL = "SELECT COUNT(*) FROM sales, store WHERE f_store = s_id"
CITY_SQL = (
    "SELECT s_city, SUM(f_total) AS total FROM sales, store "
    "WHERE f_store = s_id GROUP BY s_city"
)

#: the tail of conftest's 12 sales rows, streamed instead of bulk-loaded
STREAMED_SALES = [
    (2, 20, 2, 60),
    (3, 10, 4, 20),
    (1, 40, 3, 36),
    (2, 40, 1, 12),
    (3, 30, 2, 16),
    (1, 10, 1, 5),
]

def make_partial_star():
    """The conftest tiny star minus the streamed tail, plus one stale
    dimension row (nice's size is wrong until an upsert corrects it)."""
    catalog, star = make_tiny_star()
    sales = catalog.table("sales")
    rebuilt = type(sales).from_rows(
        sales.schema,
        sales.all_rows()[: len(sales.all_rows()) - len(STREAMED_SALES)],
        rows_per_page=4,
    )
    partial = type(catalog)()
    partial.register_table(rebuilt)
    store = catalog.table("store")
    stale_store = type(store).from_rows(
        store.schema,
        [(1, "lyon", 100), (2, "paris", 250), (3, "nice", 999)],
        rows_per_page=4,
    )
    partial.register_table(stale_store)
    partial.register_table(catalog.table("product"))
    partial.register_star(star)
    return partial, star


def stream_the_tail(warehouse: Warehouse) -> dict:
    """Append the held-back sales rows and fix the stale store row."""
    with warehouse.writer(batch_rows=2) as writer:
        for row in STREAMED_SALES:
            writer.append(row)
        writer.upsert("store", (3, "nice", 50))
    return writer.last_receipt


def grouped_query() -> StarQuery:
    return StarQuery.build(
        "sales",
        group_by=[ColumnRef("store", "s_city")],
        aggregates=[
            AggregateSpec("sum", "sales", "f_total"),
            AggregateSpec("count"),
        ],
        label="ingest-equivalence",
    )


class TestStreamingEquivalence:
    """Streamed + upserted == bulk-loaded, on every drain."""

    @pytest.mark.parametrize(
        "kwargs, sharded",
        [({}, False), ({"enable_updates": True}, False), ({}, True)],
        ids=["serial", "serial-mvcc", "process"],
    )
    def test_streamed_dataset_matches_bulk(self, kwargs, sharded):
        bulk_catalog, _ = make_tiny_star()
        partial, star = make_partial_star()
        query = grouped_query()
        expected = evaluate_star_query(query, bulk_catalog)
        warehouse = Warehouse(partial, star, **kwargs)
        try:
            receipt = stream_the_tail(warehouse)
            assert receipt["rows"] == len(STREAMED_SALES) + 1
            if sharded:
                [rows] = execute_process_parallel(
                    warehouse.catalog, star, [query], workers=2
                )
            else:
                handle = warehouse.submit(query)
                warehouse.run()
                rows = handle.results(timeout=30.0)
            assert rows == expected
        finally:
            warehouse.close()

    def test_streamed_dataset_matches_bulk_with_service(self):
        bulk_catalog, _ = make_tiny_star()
        partial, star = make_partial_star()
        query = grouped_query()
        expected = evaluate_star_query(query, bulk_catalog)
        warehouse = Warehouse(partial, star, enable_updates=True)
        warehouse.start_service()
        try:
            stream_the_tail(warehouse)
            assert warehouse.submit(query).results(timeout=30.0) == expected
        finally:
            warehouse.close()

    def test_streamed_dataset_matches_bulk_over_the_wire(self, server_class):
        bulk_catalog, bulk_star = make_tiny_star()
        with repro.connect(catalog=bulk_catalog, star=bulk_star) as bulk:
            expected_count = bulk.execute(COUNT_SQL).fetchall()
            expected_cities = sorted(bulk.execute(CITY_SQL).fetchall())
        partial, star = make_partial_star()
        server = server_class(
            Warehouse(partial, star), owns_warehouse=True
        )
        with server:
            with repro.connect(server.url) as connection:
                receipt = connection.ingest(
                    fact_rows=STREAMED_SALES,
                    dim_upserts={"store": [(3, "nice", 50)]},
                )
                assert receipt["rows"] == len(STREAMED_SALES) + 1
                assert receipt["generation"] >= 1
                assert connection.execute(COUNT_SQL).fetchall() == (
                    expected_count
                )
                assert sorted(connection.execute(CITY_SQL).fetchall()) == (
                    expected_cities
                )

    def test_async_client_streams_the_same_dataset(self, server_class):
        bulk_catalog, bulk_star = make_tiny_star()
        with repro.connect(catalog=bulk_catalog, star=bulk_star) as bulk:
            expected_count = bulk.execute(COUNT_SQL).fetchall()
        partial, star = make_partial_star()
        server = server_class(
            Warehouse(partial, star), owns_warehouse=True
        )

        async def scenario():
            pool = await repro.connect_async(server.url, pool_size=2)
            try:
                receipt = await pool.ingest(
                    fact_rows=STREAMED_SALES,
                    dim_upserts={"store": [(3, "nice", 50)]},
                )
                cursor = await pool.execute(COUNT_SQL)
                return receipt, await cursor.fetchall()
            finally:
                await pool.close()

        with server:
            receipt, count = asyncio.run(scenario())
        assert receipt["rows"] == len(STREAMED_SALES) + 1
        assert count == expected_count


class TestBackpressureAndValidation:
    def test_full_buffer_raises_typed_backpressure(self, tiny_star):
        catalog, star = tiny_star
        warehouse = Warehouse(catalog, star, ingest_buffer_rows=4)
        try:
            ticket = warehouse.ingest(
                fact_rows=[(1, 10, 1, 5)] * 4
            )  # stages, nothing drains without a driver
            with pytest.raises(IngestBackpressureError):
                warehouse.ingest(fact_rows=[(1, 10, 1, 5)])
            assert not ticket.done
        finally:
            warehouse.close()
        assert ticket.applied  # close() drained the staged batch

    def test_invalid_rows_and_unknown_dimensions_are_rejected(
        self, tiny_star
    ):
        from repro.errors import SchemaError

        catalog, star = tiny_star
        with Warehouse(catalog, star) as warehouse:
            with pytest.raises(SchemaError):
                warehouse.ingest(fact_rows=[(1, 10, 1)])  # arity
            with pytest.raises(SchemaError):
                warehouse.ingest(dim_upserts={"nope": [(1, "x", 2)]})
            with pytest.raises(SchemaError):
                # fact table has no primary key: no upserts
                warehouse.ingest(dim_upserts={"sales": [(1, 10, 1, 5)]})
            with pytest.raises(IngestError):
                warehouse.ingest()  # empty write set

    def test_per_connection_bound_is_typed_over_the_wire(self, server_class):
        catalog, star = make_tiny_star()
        server = server_class(
            Warehouse(catalog, star),
            owns_warehouse=True,
            max_pending_ingest_rows_per_connection=4,
        )
        with server:
            with repro.connect(server.url) as connection:
                with pytest.raises(OperationalError, match="ingest"):
                    connection.ingest(fact_rows=[(1, 10, 1, 5)] * 5)
                # the connection survives typed back-pressure
                assert connection.ingest(
                    fact_rows=[(1, 10, 1, 5)]
                )["rows"] == 1

    def test_remote_schema_violation_is_programming_error(self, server_class):
        catalog, star = make_tiny_star()
        server = server_class(
            Warehouse(catalog, star), owns_warehouse=True
        )
        with server:
            with repro.connect(server.url) as connection:
                with pytest.raises(ProgrammingError):
                    connection.ingest(fact_rows=[(1, 10, 1)])


class TestCloseDeterminism:
    def test_close_applies_unblocked_batches(self, tiny_star):
        catalog, star = tiny_star
        warehouse = Warehouse(catalog, star)
        ticket = warehouse.ingest(fact_rows=[(1, 10, 7, 35)])
        warehouse.close()
        assert ticket.applied
        assert ticket.result(timeout=0)["rows"] == 1
        assert catalog.table("sales").row_count == 13

    def test_close_rejects_batches_stuck_behind_queries(self, tiny_star):
        catalog, star = tiny_star
        # non-MVCC: applies defer
        warehouse = Warehouse(catalog, star, tuning=TuningConfig(batch_size=4))
        handle = warehouse.submit(grouped_query())
        warehouse.service.pump()  # registered at the boundary, undrained
        ticket = warehouse.ingest(fact_rows=[(1, 10, 7, 35)])
        warehouse.close()
        assert ticket.done and not ticket.applied
        with pytest.raises(IngestError, match="closed"):
            ticket.result(timeout=0)
        assert catalog.table("sales").row_count == 12  # nothing torn
        assert not handle.done

    def test_ingest_after_close_is_rejected(self, tiny_star):
        from repro.errors import QueryError

        catalog, star = tiny_star
        warehouse = Warehouse(catalog, star)
        warehouse.close()
        with pytest.raises(QueryError):
            warehouse.ingest(fact_rows=[(1, 10, 1, 5)])
