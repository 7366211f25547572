"""Fault injection against the warehouse server (ISSUE 6 satellite).

Every :mod:`tests.netchaos` scenario runs against a live
:class:`~repro.server.tcp.WarehouseServer`, and every run asserts the
same postconditions:

- the connection's task set is reclaimed (no leaks, checked via
  ``threading.enumerate`` and the server's ``leaked_tasks`` ledger);
- the warehouse slots the faulty client held are freed — each of its
  submissions ends done or cancelled within one scan cycle;
- the server still serves: a well-behaved client completes a query
  end to end after the chaos.

Plus the ISSUE 6 client-side regression: a server dying mid-stream
surfaces a typed ``OperationalError`` from cursor pages and
``rows_so_far()``, never a raw ``ConnectionResetError`` or a hang.
"""

from __future__ import annotations

import threading
import time

import pytest

import repro
from repro.client import OperationalError
from repro.engine import Warehouse
from repro.server import WarehouseServer

import netchaos
from tests.conftest import make_tiny_star


def wait_until(predicate, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


@pytest.fixture
def chaos_server(server_class, tiny_star):
    """A live server with leak bookkeeping around it."""
    catalog, star = tiny_star
    before = set(threading.enumerate())
    server = server_class(
        Warehouse(catalog, star), owns_warehouse=True
    ).start()
    yield server
    server.stop()
    # the invariant every scenario shares: nothing leaked
    assert wait_until(
        lambda: set(threading.enumerate()) - before == set()
    ), f"leaked threads: {set(threading.enumerate()) - before}"
    assert server.leaked_tasks == []


@pytest.mark.parametrize("scenario", sorted(netchaos.SCENARIOS))
def test_scenario_leaves_no_leaks(chaos_server, scenario):
    """Chaos, then: connections reclaimed, slots freed, still serving."""
    netchaos.SCENARIOS[scenario](chaos_server.address)
    # the faulty connection tears down completely
    assert wait_until(lambda: chaos_server.connection_count == 0)
    # every submission the faulty client managed to place is not
    # holding a slot: done or cancelled within one scan cycle
    warehouse = chaos_server.warehouse
    assert wait_until(
        lambda: all(
            submission.done or submission.cancelled
            for submission in warehouse.submissions
        )
    )
    # the server still serves a polite client end to end
    with repro.connect(chaos_server.url) as conn:
        assert conn.execute(netchaos.COUNT_SQL).fetchall() == [(12,)]
    assert wait_until(lambda: chaos_server.connection_count == 0)


def test_chaos_does_not_disturb_a_live_neighbor(chaos_server):
    """A victim connection mid-session sees none of the chaos."""
    with repro.connect(chaos_server.url) as victim:
        cursor = victim.execute(netchaos.COUNT_SQL)
        netchaos.torn_body(chaos_server.address)
        netchaos.garbage_after_hello(chaos_server.address)
        netchaos.disconnect_mid_execute(chaos_server.address)
        assert cursor.fetchall() == [(12,)]
        # and the victim can keep going afterwards
        assert victim.execute(netchaos.COUNT_SQL).fetchall() == [(12,)]


class TestServerDiesMidStream:
    """ISSUE 6 fix: typed OperationalError, promptly, not a raw
    ConnectionResetError or a hang, when the server vanishes."""

    def test_fetch_surfaces_operational_error(self, tiny_star, server_class):
        catalog, star = tiny_star
        server = server_class(
            Warehouse(catalog, star), owns_warehouse=True
        ).start()
        conn = repro.connect(server.url)
        cursor = conn.execute(netchaos.COUNT_SQL)
        server.stop()
        started = time.monotonic()
        with pytest.raises(OperationalError):
            cursor.fetchall()
        # fail-fast, not a fetch_timeout hang
        assert time.monotonic() - started < 30.0
        # every later page/partial fails the same typed way
        with pytest.raises(OperationalError):
            cursor.fetchall()
        with pytest.raises(OperationalError):
            cursor.rows_so_far()
        conn.close()  # teardown is best-effort, never raises

    def test_rows_so_far_surfaces_operational_error(
        self, tiny_star, server_class
    ):
        catalog, star = tiny_star
        server = server_class(
            Warehouse(catalog, star), owns_warehouse=True
        ).start()
        conn = repro.connect(server.url)
        cursor = conn.execute(netchaos.COUNT_SQL)
        assert cursor.rows_so_far() is not None  # transport healthy
        server.stop()
        with pytest.raises(OperationalError):
            cursor.rows_so_far()
        conn.close()


class TestServerRestartMidSession:
    """ISSUE 10 satellite: kill and restart the server against the
    same durable ``data_dir``.  Reconnecting clients see every acked
    pre-restart ingest; clients holding dead sessions fail with the
    typed mid-stream error; nothing leaks across the restart —
    threads, tasks, or warehouse slots."""

    def test_restart_preserves_acked_ingest(self, tmp_path, server_class):
        before = set(threading.enumerate())
        data_dir = str(tmp_path / "wh")
        catalog, star = make_tiny_star()
        server = server_class(
            Warehouse(catalog, star, data_dir=data_dir),
            owns_warehouse=True,
        ).start()
        new_server = None
        try:
            # a client mid-session when the server goes down
            stranded = repro.connect(server.url)
            assert (
                stranded.execute(netchaos.COUNT_SQL).fetchall() == [(12,)]
            )
            receipt = stranded.ingest(fact_rows=[(1, 10, 1, 4242)])
            assert receipt["rows"] == 1
            in_flight = stranded.execute(netchaos.COUNT_SQL)

            def restart():
                nonlocal new_server
                # graceful stop: Warehouse.close() checkpoints, so the
                # acked batch is on disk either via the WAL (fsynced
                # before the ack) or the close-time snapshot.  The
                # crash-crash variants live in tests/test_persistence.py.
                server.stop()
                new_server = server_class(
                    Warehouse.open(data_dir), owns_warehouse=True
                ).start()
                return new_server.address

            observation = netchaos.server_restart_mid_session(
                server.address, restart=restart
            )
            assert observation["old_socket_dead"]
            assert observation["rows_before"] in ([[12]], [[13]])
            assert observation["rows_after"] == [[13]]

            # the stranded client fails the typed way, never raw/hung
            with pytest.raises(OperationalError):
                in_flight.fetchall()
            with pytest.raises(OperationalError):
                stranded.execute(netchaos.COUNT_SQL).fetchall()
            stranded.close()  # best-effort teardown, never raises

            # a reconnecting client sees the post-ingest dataset and a
            # generation at least as new as its last receipt
            with repro.connect(new_server.url) as conn:
                assert (
                    conn.execute(netchaos.COUNT_SQL).fetchall() == [(13,)]
                )
                assert conn.ingest_generation() >= receipt["generation"]
        finally:
            server.stop()
            if new_server is not None:
                new_server.stop()
        # nothing leaked across the restart, either server generation
        assert wait_until(
            lambda: set(threading.enumerate()) - before == set()
        ), f"leaked threads: {set(threading.enumerate()) - before}"
        for generation in (server, new_server):
            assert generation.leaked_tasks == []


class TestAsyncClientFaults:
    """The async client fails typed too when its server vanishes."""

    def test_pending_requests_fail_typed(self, tiny_star):
        import asyncio

        catalog, star = tiny_star
        server = WarehouseServer(
            Warehouse(catalog, star), owns_warehouse=True
        ).start()

        async def scenario() -> None:
            pool = await repro.connect_async(server.url, pool_size=2)
            cursor = await pool.execute(netchaos.COUNT_SQL)
            assert await cursor.fetchall() == [(12,)]
            server.stop()
            with pytest.raises(OperationalError):
                await (await pool.cursor().execute(netchaos.COUNT_SQL)
                       ).fetchall()
            # the pool closes cleanly even over dead sockets
            await pool.close()

        asyncio.run(scenario())
        assert server.leaked_tasks == []
