"""One stats schema over every transport (docs/PROTOCOL.md section 9).

``Connection.stats()`` (local), ``RemoteConnection.stats()`` (STATS
frame over the server), ``AsyncRemoteConnection`` /
``AsyncConnectionPool.stats()`` (multiplexed STATS) must all return
the same JSON-able snapshot shape — telemetry plus the adaptive
controller's decision audit.
"""

from __future__ import annotations

import asyncio

import pytest

import repro
from repro.engine import Warehouse

STATS_KEYS = {
    "latency", "pipeline", "service", "tuning", "autotune", "ingest",
}

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
    assert {"enabled", "decisions"} <= set(stats["autotune"])
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

    def test_decision_audit_flows_through_stats(self, tiny_star):
        from repro.engine.autotune import TuningPolicy
        from repro.tuning import TuningConfig

        catalog, star = tiny_star
        warehouse = Warehouse(
            catalog, star, tuning=TuningConfig(max_in_flight=4)
        )
        try:
            tuner = warehouse.enable_autotuning(
                policy=TuningPolicy(cooldown_seconds=0.0), interval=60.0
            )
            # drive one deterministic decision through the real probe
            tuner.probe = None
            decision = tuner.tick()  # idle tick; builds the streak only
            assert decision is None
            stats = warehouse.stats()
            assert stats["autotune"]["enabled"]
            # decisions (possibly empty) are dicts, JSON-able
            for entry in stats["autotune"]["decisions"]:
                assert {"rule", "signals", "action", "applied"} <= set(entry)
        finally:
            warehouse.close()


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
