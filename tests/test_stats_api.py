"""One stats schema over every transport (docs/PROTOCOL.md section 9).

``Connection.stats()`` (local), ``RemoteConnection.stats()`` (STATS
frame over the server), ``AsyncRemoteConnection`` /
``AsyncConnectionPool.stats()`` (multiplexed STATS) must all return
the same JSON-able telemetry snapshot shape.
"""

from __future__ import annotations

import asyncio

import pytest

import repro
from repro.engine import Warehouse

STATS_KEYS = {"latency", "pipeline", "service", "tuning", "ingest"}

COUNT_SQL = "SELECT COUNT(*) FROM sales, store WHERE f_store = s_id"

@pytest.fixture
def running_server(server_class, tiny_star):
    catalog, star = tiny_star
    server = server_class(Warehouse(catalog, star), owns_warehouse=True)
    server.start()
    try:
        yield server
    finally:
        server.stop()


def assert_stats_shape(stats: dict) -> None:
    import json

    assert set(stats) == STATS_KEYS
    json.dumps(stats)
    assert set(stats["service"]) == {
        "running", "in_flight", "queued", "max_in_flight",
        "admission_queue_depth", "idle_sleep",
    }
    assert "p95" in stats["latency"]
    assert "queries_completed" in stats["pipeline"]
    assert {
        "rows_applied", "generation", "buffer_rows", "snapshot_id",
    } <= set(stats["ingest"])


class TestLocalStats:
    def test_local_connection_stats(self, tiny_star):
        catalog, star = tiny_star
        with repro.connect(catalog=catalog, star=star) as connection:
            connection.execute(COUNT_SQL).fetchall()
            stats = connection.stats()
        assert_stats_shape(stats)
        assert stats["pipeline"]["queries_completed"] >= 1

    def test_closed_connection_rejects_stats(self, tiny_star):
        from repro.client import InterfaceError

        catalog, star = tiny_star
        connection = repro.connect(catalog=catalog, star=star)
        connection.close()
        with pytest.raises(InterfaceError):
            connection.stats()


class TestRemoteStats:
    def test_remote_matches_local_schema(self, running_server):
        with repro.connect(running_server.url) as connection:
            connection.execute(COUNT_SQL).fetchall()
            stats = connection.stats()
        assert_stats_shape(stats)
        assert stats["pipeline"]["queries_completed"] >= 1


class TestAsyncStats:
    def test_pool_and_connection_stats(self, running_server):
        async def scenario():
            pool = await repro.connect_async(running_server.url, pool_size=2)
            try:
                cursor = await pool.execute(COUNT_SQL)
                await cursor.fetchall()
                return await pool.stats()
            finally:
                await pool.close()

        stats = asyncio.run(scenario())
        assert_stats_shape(stats)
        assert stats["pipeline"]["queries_completed"] >= 1
