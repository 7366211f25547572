"""The client session layer (DESIGN.md section 10).

Covers connect()/Connection/Cursor end to end: lifecycle and context
management, parameterized execution, fetch semantics, iteration,
description metadata, executemany fan-out, error mapping, streaming
equivalence, and the submission log / latency telemetry.
"""

from __future__ import annotations

import dataclasses
import threading

import pytest

import repro
from repro.client import (
    NUMBER,
    STRING,
    InterfaceError,
    NotSupportedError,
    OperationalError,
    ProgrammingError,
)
from repro.engine import Warehouse
from repro.engine.submission import ROUTE_SERVICE
from repro.query.aggregates import AggregateSpec
from repro.query.predicate import Comparison
from repro.query.reference import evaluate_star_query
from repro.query.star import StarQuery
from repro.sql.render import render_star_query

CITY_COUNT_SQL = (
    "SELECT COUNT(*) FROM sales, store "
    "WHERE f_store = s_id AND s_city = ?"
)
GROUPED_SQL = (
    "SELECT s_city, COUNT(*) AS orders, SUM(f_total) AS total "
    "FROM sales, store WHERE f_store = s_id GROUP BY s_city"
)


def city_query(city: str) -> StarQuery:
    return StarQuery.build(
        "sales",
        dimension_predicates={"store": Comparison("s_city", "=", city)},
        aggregates=[AggregateSpec("count")],
    )


@pytest.fixture(params=["local", "remote"])
def connection(request, tiny_star):
    """One client session per transport: every test using this fixture
    runs in-process and over the TCP server (the remote path passes the
    same cursor-semantics tests)."""
    catalog, star = tiny_star
    if request.param == "local":
        with repro.connect(catalog=catalog, star=star) as conn:
            yield conn
    else:
        from repro.server import WarehouseServer

        with WarehouseServer(
            Warehouse(catalog, star), owns_warehouse=True
        ) as server:
            with repro.connect(server.url) as conn:
                yield conn


@pytest.fixture
def local_connection(tiny_star):
    """In-process session, for tests that introspect the warehouse."""
    catalog, star = tiny_star
    with repro.connect(catalog=catalog, star=star) as conn:
        yield conn


class TestConnectionLifecycle:
    def test_connect_starts_and_stops_the_service(self, tiny_star):
        catalog, star = tiny_star
        before = set(threading.enumerate())
        conn = repro.connect(catalog=catalog, star=star)
        assert conn.warehouse.service.running
        conn.close()
        assert not conn.warehouse.service.running
        assert conn.closed
        assert set(threading.enumerate()) == before
        conn.close()  # idempotent

    def test_connect_accepts_warehouse_keyword_alias(self, tiny_star):
        """The pre-URL parameter name keeps working as a keyword."""
        catalog, star = tiny_star
        warehouse = Warehouse(catalog, star)
        with repro.connect(warehouse=warehouse) as conn:
            assert conn.warehouse is warehouse
        with pytest.raises(InterfaceError, match="not both"):
            repro.connect(warehouse, warehouse=warehouse)
        warehouse.close()

    def test_connect_wraps_existing_warehouse_without_closing_it(
        self, tiny_star
    ):
        catalog, star = tiny_star
        warehouse = Warehouse(catalog, star)
        with repro.connect(warehouse) as conn:
            assert conn.warehouse is warehouse
            assert warehouse.service.running
        assert not warehouse.service.running
        assert not warehouse.closed  # still usable
        assert warehouse.execute_sql(
            "SELECT COUNT(*) FROM sales, store WHERE f_store = s_id"
        ) == [(12,)]

    def test_connect_owns_built_warehouse(self, tiny_star):
        catalog, star = tiny_star
        conn = repro.connect(catalog=catalog, star=star)
        warehouse = conn.warehouse
        conn.close()
        assert warehouse.closed

    def test_warehouse_and_kwargs_are_mutually_exclusive(self, tiny_star):
        catalog, star = tiny_star
        warehouse = Warehouse(catalog, star)
        with pytest.raises(InterfaceError, match="not both"):
            repro.connect(warehouse, scale_factor=0.001)
        warehouse.close()

    def test_catalog_requires_star(self, tiny_star):
        catalog, _ = tiny_star
        with pytest.raises(InterfaceError, match="star"):
            repro.connect(catalog=catalog)

    def test_closed_connection_rejects_everything(self, tiny_star):
        catalog, star = tiny_star
        conn = repro.connect(catalog=catalog, star=star)
        cursor = conn.cursor()
        conn.close()
        with pytest.raises(InterfaceError, match="closed"):
            conn.cursor()
        with pytest.raises(InterfaceError, match="closed"):
            cursor.execute(GROUPED_SQL)

    def test_no_service_connection_drains_on_fetch(self, tiny_star):
        catalog, star = tiny_star
        with repro.connect(
            catalog=catalog, star=star, start_service=False
        ) as conn:
            assert not conn.warehouse.service.running
            rows = conn.execute(CITY_COUNT_SQL, ("lyon",)).fetchall()
            assert rows == [(5,)]

    def test_transaction_surface(self, connection):
        connection.commit()  # no-op
        with pytest.raises(NotSupportedError):
            connection.rollback()

    def test_dbapi_module_globals(self):
        from repro import client

        assert client.apilevel == "2.0"
        assert client.threadsafety == 2
        assert client.paramstyle == "qmark"


class TestCursorSemantics:
    def test_execute_returns_self_and_fetchall(self, connection):
        cursor = connection.cursor()
        assert cursor.execute(CITY_COUNT_SQL, ("lyon",)) is cursor
        assert cursor.fetchall() == [(5,)]
        assert cursor.fetchall() == []  # exhausted

    def test_fetchone_walks_then_returns_none(self, connection):
        cursor = connection.execute(GROUPED_SQL)
        seen = []
        while (row := cursor.fetchone()) is not None:
            seen.append(row)
        assert seen == connection.execute(GROUPED_SQL).fetchall()
        assert len(seen) == 3  # lyon, nice, paris
        assert cursor.fetchone() is None

    def test_fetchmany_chunks_with_arraysize_default(self, connection):
        cursor = connection.execute(GROUPED_SQL)
        assert len(cursor.fetchmany()) == 1  # arraysize defaults to 1
        cursor.arraysize = 2
        assert len(cursor.fetchmany()) == 2
        assert cursor.fetchmany() == []
        with pytest.raises(InterfaceError, match=">= 0"):
            cursor.fetchmany(-1)

    def test_iteration_streams_all_rows(self, connection):
        cursor = connection.execute(GROUPED_SQL)
        rows = list(cursor)
        assert rows == connection.execute(GROUPED_SQL).fetchall()

    def test_rowcount_before_and_after_fetch(self, connection):
        cursor = connection.execute(GROUPED_SQL)
        assert cursor.rowcount == -1
        cursor.fetchall()
        assert cursor.rowcount == 3

    def test_description_names_and_types(self, connection):
        cursor = connection.execute(GROUPED_SQL)
        names = [entry[0] for entry in cursor.description]
        types = [entry[1] for entry in cursor.description]
        assert names == ["s_city", "orders", "total"]
        assert types[0] == STRING
        assert types[1] == NUMBER and types[2] == NUMBER
        # unaliased aggregates get canonical names
        cursor = connection.execute(
            "SELECT COUNT(*), SUM(f_total), AVG(f_qty) FROM sales"
        )
        assert [entry[0] for entry in cursor.description] == [
            "count(*)", "sum(f_total)", "avg(f_qty)",
        ]

    def test_description_matches_row_layout(self, connection):
        cursor = connection.execute(GROUPED_SQL)
        row = cursor.fetchone()
        assert len(row) == len(cursor.description)
        assert isinstance(row[0], str) and isinstance(row[1], int)

    def test_fetch_before_execute_raises(self, connection):
        cursor = connection.cursor()
        with pytest.raises(ProgrammingError, match="no statement"):
            cursor.fetchall()
        with pytest.raises(ProgrammingError, match="no statement"):
            cursor.rows_so_far()
        with pytest.raises(ProgrammingError, match="no statement"):
            cursor.cancel()

    def test_closed_cursor_raises(self, connection):
        cursor = connection.execute(GROUPED_SQL)
        cursor.close()
        with pytest.raises(InterfaceError, match="cursor is closed"):
            cursor.fetchall()
        cursor.close()  # idempotent

    def test_cursor_context_manager(self, connection):
        with connection.cursor() as cursor:
            cursor.execute(GROUPED_SQL)
        with pytest.raises(InterfaceError):
            cursor.fetchone()

    def test_executemany_concatenates_in_submission_order(self, connection):
        cursor = connection.executemany(
            CITY_COUNT_SQL, [("lyon",), ("paris",), ("nice",)]
        )
        assert cursor.fetchall() == [(5,), (4,), (3,)]
        assert cursor.description is not None

    def test_executemany_is_atomic_over_bad_bindings(self, local_connection):
        warehouse = local_connection.warehouse
        submissions_before = len(warehouse.submissions)
        with pytest.raises(ProgrammingError):
            local_connection.executemany(
                CITY_COUNT_SQL, [("lyon",), ("paris", "extra")]
            )
        # the good first binding was never submitted: no orphan queries
        assert len(warehouse.submissions) == submissions_before

    def test_executemany_with_no_bindings_is_an_empty_result_set(
        self, connection
    ):
        cursor = connection.executemany(CITY_COUNT_SQL, [])
        assert cursor.fetchall() == []
        assert cursor.fetchone() is None
        assert cursor.rowcount == 0
        assert cursor.rows_so_far() == []
        assert cursor.cancel() == 0

    def test_named_parameters(self, connection):
        cursor = connection.execute(
            "SELECT COUNT(*) FROM sales, store "
            "WHERE f_store = s_id AND s_city = :city",
            {"city": "paris"},
        )
        assert cursor.fetchall() == [(4,)]


class TestErrorMapping:
    def test_parse_error_is_programming_error(self, connection):
        with pytest.raises(ProgrammingError):
            connection.execute("SELEC nonsense")

    def test_unknown_column_is_programming_error(self, connection):
        with pytest.raises(ProgrammingError):
            connection.execute("SELECT nope FROM sales")

    def test_param_mismatch_is_programming_error(self, connection):
        with pytest.raises(ProgrammingError):
            connection.execute(CITY_COUNT_SQL)  # no params given
        with pytest.raises(ProgrammingError):
            connection.execute(CITY_COUNT_SQL, ("lyon", "extra"))

    def test_unbindable_param_type_is_programming_error(self, connection):
        """Both transports map a non-int/float/str parameter value to
        ProgrammingError (never a raw serialization TypeError)."""
        import datetime

        for bad in (datetime.date(2020, 1, 1), object(), [1, 2]):
            with pytest.raises(ProgrammingError, match="int, float, or str"):
                connection.execute(CITY_COUNT_SQL, (bad,))
            with pytest.raises(ProgrammingError, match="int, float, or str"):
                connection.execute(
                    "SELECT COUNT(*) FROM sales, store "
                    "WHERE f_store = s_id AND s_city = :city",
                    {"city": bad},
                )

    def test_parse_errors_leave_no_state_behind(self, local_connection):
        warehouse = local_connection.warehouse
        submissions_before = len(warehouse.submissions)
        with pytest.raises(ProgrammingError):
            local_connection.execute(CITY_COUNT_SQL, (None,))
        assert len(warehouse.submissions) == submissions_before
        assert warehouse.cjoin.active_query_count == 0

    def test_cancelled_fetch_is_operational_error(self, tiny_star):
        catalog, star = tiny_star
        # no driver: the query stays mid-scan until we cancel it
        with repro.connect(
            catalog=catalog, star=star, start_service=False
        ) as conn:
            cursor = conn.execute(GROUPED_SQL)
            assert cursor.cancel() == 1
            with pytest.raises(OperationalError, match="cancelled"):
                cursor.fetchall()


class TestStreamingEquivalence:
    """ISSUE 4 acceptance: cursor-streamed rows == batch-drain results."""

    def test_serial_backend_workload(self, ssb_small, ssb_workload):
        catalog, star = ssb_small
        sqls = [render_star_query(query, star) for query in ssb_workload]
        # batch drain on a fresh warehouse, handle.results() reference
        drain = Warehouse(catalog, star)
        drained = [drain.submit(query) for query in ssb_workload]
        drain.run()
        expected = [handle.results() for handle in drained]
        # live service + cursor iteration (mid-scan, incremental)
        with repro.connect(Warehouse(catalog, star)) as conn:
            cursors = [conn.execute(sql) for sql in sqls]
            streamed = [list(cursor) for cursor in cursors]
        assert streamed == expected

    def test_rows_so_far_converges_to_results(self, tiny_star):
        catalog, star = tiny_star
        from repro.cjoin import CJoinOperator, ExecutorConfig
        from repro.engine import WarehouseService

        operator = CJoinOperator(
            catalog, star, executor_config=ExecutorConfig(batch_size=4)
        )
        operator.distributor.stream_interval = 2
        service = WarehouseService(operator)
        handle = service.submit(
            StarQuery.build(
                "sales",
                dimension_predicates={},
                group_by=[],
                select=[],
                aggregates=[AggregateSpec("sum", "sales", "f_total")],
            )
        )
        assert handle.rows_so_far() == []  # opts into streaming
        service.pump(batches=2)
        partial = handle.rows_so_far()
        assert partial and partial[0][0] > 0  # mid-scan partial sum
        service.drain()
        assert handle.rows_so_far() == handle.results()
        assert list(handle) == handle.results()


class TestRouteTelemetry:
    """The submission log and the latency records tell one story."""

    def test_all_routes_in_one_summary(self, tiny_star):
        catalog, star = tiny_star
        warehouse = Warehouse(catalog, star)
        for city in ("lyon", "paris"):
            warehouse.submit(dataclasses.replace(city_query(city), label=city))
        warehouse.run()
        assert warehouse.latency_summary()["count"] == 2.0
        # latency records join the submission log
        assert sorted(
            record.label for record in warehouse.latency_records
        ) == sorted(submission.label for submission in warehouse.submissions)

    def test_submission_log_covers_all_routes(self, tiny_star):
        catalog, star = tiny_star
        warehouse = Warehouse(catalog, star)
        warehouse.submit(city_query("lyon"))
        warehouse.submit(city_query("paris"))
        routes = [submission.route for submission in warehouse.submissions]
        assert routes == [ROUTE_SERVICE, ROUTE_SERVICE]
        assert not any(s.admitted for s in warehouse.submissions)
        warehouse.run()
        assert all(submission.done for submission in warehouse.submissions)


class TestWarehouseContextManager:
    """ISSUE 4 satellite: Warehouse.close() and with-scoping."""

    def test_with_scope_stops_service_and_closes(self, tiny_star):
        catalog, star = tiny_star
        before = set(threading.enumerate())
        with Warehouse(catalog, star) as warehouse:
            warehouse.start_service()
            handle = warehouse.submit(city_query("lyon"))
            assert handle.results(timeout=10.0) == evaluate_star_query(
                city_query("lyon"), catalog
            )
        assert warehouse.closed
        assert not warehouse.service.running
        assert set(threading.enumerate()) == before

    def test_close_is_idempotent_and_rejects_submissions(self, tiny_star):
        catalog, star = tiny_star
        warehouse = Warehouse(catalog, star)
        warehouse.close()
        warehouse.close()
        from repro.errors import QueryError

        with pytest.raises(QueryError, match="closed"):
            warehouse.submit(city_query("lyon"))
        with pytest.raises(QueryError, match="closed"):
            warehouse.submit_sql(
                "SELECT COUNT(*) FROM sales, store WHERE f_store = s_id"
            )
        with pytest.raises(QueryError, match="closed"):
            warehouse.run()
