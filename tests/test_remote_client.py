"""The TCP warehouse server and the socket-backed client (ISSUE 5/6).

Covers what `tests/test_client_api.py` (whose shared `connection`
fixture already runs every cursor-semantics test over all transports)
cannot: server lifecycle, per-connection admission and fairness, the
deterministic cancel-while-queued path, remote executemany atomicity
observed server-side, URL validation, and the 8-client soak —
concurrent execute/stream/cancel against one server with results
reference-equal to an in-process drain and no leaked threads or
sockets afterwards.
"""

from __future__ import annotations

import threading
import time

import pytest

import repro
from repro.client import (
    InterfaceError,
    OperationalError,
    ProgrammingError,
    RemoteConnection,
)
from repro.client.remote import parse_url
from repro.engine import Warehouse
from repro.server import WarehouseServer
from repro.server.session import ServerSession
from repro.sql.render import render_star_query

COUNT_SQL = "SELECT COUNT(*) FROM sales, store WHERE f_store = s_id"

def wait_until(predicate, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class TestServerLifecycle:
    def test_start_stop_leaves_no_threads_or_sockets(self, tiny_star):
        catalog, star = tiny_star
        before = set(threading.enumerate())
        server = WarehouseServer(Warehouse(catalog, star), owns_warehouse=True)
        server.start()
        assert server.running
        assert server.url.startswith("tcp://127.0.0.1:")
        server.stop()
        assert not server.running
        assert server.warehouse.closed
        assert set(threading.enumerate()) == before
        server.stop()  # idempotent

    def test_double_start_raises(self, tiny_star):
        catalog, star = tiny_star
        with WarehouseServer(
            Warehouse(catalog, star), owns_warehouse=True
        ) as server:
            with pytest.raises(InterfaceError, match="already running"):
                server.start()

    def test_address_before_start_raises(self, tiny_star):
        catalog, star = tiny_star
        warehouse = Warehouse(catalog, star)
        server = WarehouseServer(warehouse)
        with pytest.raises(InterfaceError, match="not started"):
            server.address
        warehouse.close()

    def test_per_connection_bound_is_validated(self, tiny_star):
        catalog, star = tiny_star
        warehouse = Warehouse(catalog, star)
        with pytest.raises(InterfaceError, match=">= 1"):
            WarehouseServer(warehouse, max_in_flight_per_connection=0)
        warehouse.close()

    def test_stop_disconnects_clients(self, tiny_star):
        catalog, star = tiny_star
        server = WarehouseServer(
            Warehouse(catalog, star), owns_warehouse=True
        ).start()
        conn = repro.connect(server.url)
        assert conn.execute(COUNT_SQL).fetchall() == [(12,)]
        server.stop()
        with pytest.raises(OperationalError):
            conn.execute(COUNT_SQL)
        conn.close()  # no error: teardown is best-effort

    def test_unreachable_server_raises_operational_error(self):
        # bind-then-close guarantees a port nobody is listening on
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(OperationalError, match="connect"):
            repro.connect(f"tcp://127.0.0.1:{port}")


class TestConnectDispatch:
    def test_parse_url(self):
        assert parse_url("tcp://127.0.0.1:5477") == ("127.0.0.1", 5477)
        for bad in ("http://x:1", "tcp://", "tcp://host", "tcp://host:x"):
            with pytest.raises(InterfaceError):
                parse_url(bad)

    def test_url_and_build_kwargs_are_mutually_exclusive(self):
        with pytest.raises(InterfaceError, match="not both"):
            repro.connect("tcp://127.0.0.1:1", scale_factor=0.001)

    def test_closed_remote_connection_rejects_everything(self, tiny_star):
        catalog, star = tiny_star
        with WarehouseServer(
            Warehouse(catalog, star), owns_warehouse=True
        ) as server:
            conn = repro.connect(server.url)
            assert isinstance(conn, RemoteConnection)
            cursor = conn.cursor()
            conn.close()
            assert conn.closed
            with pytest.raises(InterfaceError, match="closed"):
                conn.cursor()
            with pytest.raises(InterfaceError, match="closed"):
                cursor.execute(COUNT_SQL)
            conn.close()  # idempotent


def session_of(server) -> ServerSession:
    """The server-side session of the server's one connection."""
    (conn,) = server._connections
    return conn.session


class TestPerConnectionAdmission:
    """The fairness layer: one connection's statements beyond its bound
    wait in its own SubmissionQueue, not in the shared pipeline."""

    @pytest.fixture
    def offline_server(self, tiny_star):
        """A server whose service driver is stopped: nothing is admitted
        or scanned, so queue states hold still until the test calls
        ``start_service()``."""
        catalog, star = tiny_star
        with WarehouseServer(
            Warehouse(catalog, star),
            owns_warehouse=True,
            max_in_flight_per_connection=1,
        ) as server:
            server.warehouse.stop_service()
            yield server
        assert server.leaked_tasks == []

    def test_cancel_while_queued_per_connection(self, offline_server):
        with repro.connect(offline_server.url) as conn:
            first = conn.execute(COUNT_SQL)  # holds the connection slot
            queued = conn.execute(COUNT_SQL)  # parks in the FIFO
            assert len(session_of(offline_server).pending) == 1
            assert queued.cancel() == 1  # dropped in place
            assert len(session_of(offline_server).pending) == 0
            with pytest.raises(OperationalError, match="cancelled"):
                queued.fetchall()
            offline_server.warehouse.start_service()
            assert first.fetchall() == [(12,)]  # survivor unaffected

    def test_queued_statements_complete_in_order(self, offline_server):
        with repro.connect(offline_server.url) as conn:
            cursors = [
                conn.execute(
                    "SELECT COUNT(*) FROM sales, store "
                    "WHERE f_store = s_id AND s_city = ?",
                    (city,),
                )
                for city in ("lyon", "paris", "nice")
            ]
            # one statement inside the warehouse, two in the connection's
            # own FIFO behind it
            assert offline_server.warehouse.service.queued == 1
            assert len(session_of(offline_server).pending) == 2
            offline_server.warehouse.start_service()
            # fetching the LAST one waits for completions to pump the
            # whole FIFO through the warehouse
            assert cursors[-1].fetchall() == [(3,)]
            assert cursors[0].fetchall() == [(5,)]
            assert cursors[1].fetchall() == [(4,)]

    def test_flooding_client_does_not_starve_another(self, offline_server):
        warehouse = offline_server.warehouse
        with repro.connect(offline_server.url) as flooder:
            hogs = [flooder.execute(COUNT_SQL) for _ in range(5)]
            flooded = session_of(offline_server)
            with repro.connect(offline_server.url) as polite:
                mine = polite.execute(COUNT_SQL)
                # the flooder holds 1 slot + 4 queued statements; the
                # polite client's statement reaches the warehouse at once
                assert len(flooded.pending) == 4
                assert warehouse.service.queued == 2
                warehouse.start_service()
                assert mine.fetchall() == [(12,)]
                # and the flooder's backlog still drains
                assert [hog.fetchall() for hog in hogs] == [[(12,)]] * 5

    def test_partial_polling_alone_pumps_the_queue(self):
        """Regression: a client that never issues a blocking FETCH must
        still see its queued statements admitted — every frame pumps
        the per-connection FIFO, not just a blocking fetch's wait."""
        server = WarehouseServer(
            Warehouse.from_ssb(scale_factor=0.002, seed=31),
            owns_warehouse=True,
            max_in_flight_per_connection=1,
        ).start()
        try:
            with repro.connect(server.url) as conn:
                count_sql = (
                    "SELECT COUNT(*) FROM lineorder, date "
                    "WHERE lo_orderdate = d_datekey"
                )
                first = conn.execute(count_sql)
                queued = conn.execute(count_sql)  # parks if first is live
                # poll ONLY partial-mode fetches: once the first query
                # completes, a poll must pump the queued one into the
                # warehouse, whose driver then completes it
                assert wait_until(
                    lambda: queued.rows_so_far() != [], timeout=60.0
                ), "queued statement was never admitted via polling"
                assert first.fetchall() == queued.fetchall()
        finally:
            server.stop()

    def test_ingest_staged_while_stopped_is_applied_after_start(
        self, offline_server
    ):
        """An INGEST that arrives while the driver is stopped waits for
        a scan boundary; ``start_service()`` brings one, the ack comes
        back and a FETCH sees the row."""
        warehouse = offline_server.warehouse
        with repro.connect(offline_server.url) as conn:
            outcome: dict = {}

            def ingest() -> None:
                outcome["receipt"] = conn.ingest(
                    fact_rows=[(1, 10, 1, 5)], timeout=10.0
                )

            thread = threading.Thread(target=ingest)
            thread.start()
            assert wait_until(
                lambda: warehouse.ingest_buffer.pending_rows == 1
            ), "the INGEST was never staged"
            time.sleep(0.05)
            assert warehouse.ingest_buffer.pending_rows == 1  # not applied
            warehouse.start_service()
            thread.join(10.0)
            assert not thread.is_alive()
            assert outcome["receipt"]["rows"] == 1
            assert conn.execute(COUNT_SQL).fetchall() == [(13,)]

    def test_vanished_connection_frees_its_queries(self, offline_server):
        conn = repro.connect(offline_server.url)
        conn.execute(COUNT_SQL)
        conn.execute(COUNT_SQL)
        # drop the socket without CLOSE: the handler teardown must
        # cancel both (one in-warehouse, one queued per-connection)
        conn._abandon_socket()
        assert wait_until(lambda: offline_server.connection_count == 0)
        warehouse = offline_server.warehouse
        assert wait_until(
            lambda: all(
                submission.done or submission.cancelled
                for submission in warehouse.submissions
            )
        )


class TestRemoteExecutemany:
    def test_atomic_over_bad_bindings_server_side(self, tiny_star):
        catalog, star = tiny_star
        with WarehouseServer(
            Warehouse(catalog, star), owns_warehouse=True
        ) as server:
            with repro.connect(server.url) as conn:
                before = len(server.warehouse.submissions)
                with pytest.raises(ProgrammingError):
                    conn.executemany(
                        "SELECT COUNT(*) FROM sales, store "
                        "WHERE f_store = s_id AND s_city = ?",
                        [("lyon",), ("paris", "extra")],
                    )
                # the server bound every set before submitting any:
                # the good first binding left no orphan behind
                assert len(server.warehouse.submissions) == before


class TestSoak:
    """ISSUE 5 satellite: 8 socket clients x execute/stream/cancel."""

    CLIENTS = 8
    QUERIES_PER_CLIENT = 3

    def test_eight_concurrent_clients(self, ssb_small, ssb_workload):
        catalog, star = ssb_small
        sqls = [render_star_query(query, star) for query in ssb_workload]
        # reference: a plain in-process batch drain
        drain = Warehouse(catalog, star)
        drained = [drain.submit(query) for query in ssb_workload]
        drain.run()
        expected = [handle.results() for handle in drained]
        drain.close()

        before = set(threading.enumerate())
        errors: list[BaseException] = []
        outputs: dict[int, list[list[tuple]]] = {}

        def client(index: int, url: str) -> None:
            try:
                with repro.connect(url) as conn:
                    picks = [
                        (index + offset) % len(sqls)
                        for offset in range(self.QUERIES_PER_CLIENT)
                    ]
                    cursors = [conn.execute(sqls[pick]) for pick in picks]
                    # a long statement to watch and abandon mid-scan
                    doomed = conn.execute(
                        "SELECT COUNT(*) FROM lineorder, date "
                        "WHERE lo_orderdate = d_datekey"
                    )
                    doomed.rows_so_far()  # never blocks
                    doomed.cancel()  # either cancels or lost the race
                    collected = []
                    for position, cursor in enumerate(cursors):
                        if position % 2:
                            collected.append(list(cursor))  # iteration
                        else:
                            collected.append(cursor.fetchall())
                    outputs[index] = collected
                    if doomed.cancel():  # idempotent: True if cancelled
                        with pytest.raises(OperationalError):
                            doomed.fetchall()
                    else:
                        doomed.fetchall()  # completed first: rows stand
            except BaseException as error:  # surfaced below
                errors.append(error)

        with WarehouseServer(Warehouse(catalog, star)) as server:
            threads = [
                threading.Thread(target=client, args=(index, server.url))
                for index in range(self.CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120.0)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors, errors
            # every client's rows are reference-equal to the drain
            for index in range(self.CLIENTS):
                picks = [
                    (index + offset) % len(sqls)
                    for offset in range(self.QUERIES_PER_CLIENT)
                ]
                assert outputs[index] == [expected[pick] for pick in picks]
            # no leaked sockets: every connection tore down
            assert wait_until(lambda: server.connection_count == 0)
            server.warehouse.close()
        # no leaked threads once the server stopped
        assert wait_until(
            lambda: set(threading.enumerate()) - before == set()
        )
