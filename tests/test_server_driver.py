"""The served warehouse's scan runs on the server's event loop.

:class:`~repro.server.tcp.WarehouseServer` hands its loop to the
warehouse service, which drives the continuous scan there as one task
between socket callbacks instead of on a ``warehouse-service`` thread
(:mod:`repro.engine.service`).  These tests pin the lifecycle of that
driver — who runs it, what stopping, crashing and restarting it does
to parked FETCHes, what an idle one costs, the hand-over with a thread
driver that was already running — plus the two properties one thread
has to earn: the scan keeps its share of the loop under a storm of
frames, and a blue-green swap through the server moves the scan from
one warehouse's task to the other's.
"""

from __future__ import annotations

import asyncio
import json
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.client import OperationalError
from repro.engine import Warehouse
from repro.errors import PipelineError
from repro.query.reference import evaluate_star_query
from repro.server import WarehouseServer
from repro.ssb.queries import ssb_workload_generator
from repro.tuning import TuningConfig
from tests.conftest import count_overlapping_steps, make_tiny_star

COUNT_SQL = "SELECT COUNT(*) FROM sales, store WHERE f_store = s_id"
SSB_COUNT_SQL = (
    "SELECT COUNT(*) FROM lineorder, date WHERE lo_orderdate = d_datekey"
)
CITY_SQL = (
    "SELECT COUNT(*) FROM sales, store WHERE f_store = s_id AND s_city = ?"
)
STORM_CLIENT = Path(__file__).resolve().parent / "frame_storm_client.py"


def wait_until(predicate, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


def driver_threads() -> list[threading.Thread]:
    return [
        thread
        for thread in threading.enumerate()
        if thread.name == "warehouse-service"
    ]


def slow_scan_warehouse() -> tuple[Warehouse, threading.Event]:
    """A scan that sleeps a millisecond at every batch boundary while
    the returned event is set: a query then stays in flight for most of
    a second, long enough to park a FETCH on it and act meanwhile, and
    the sleep lets the test's own threads in as a blocking call would."""
    warehouse = Warehouse.from_ssb(
        scale_factor=0.002, seed=31, tuning=TuningConfig(batch_size=16)
    )
    boundary = warehouse.service.cycle_hook
    slow = threading.Event()
    slow.set()

    def slow_boundary() -> None:
        if slow.is_set():
            time.sleep(0.001)
        boundary()

    warehouse.service.cycle_hook = slow_boundary
    return warehouse, slow


def fetch_in_thread(cursor) -> tuple[threading.Thread, dict]:
    """Run ``cursor.fetchall()`` on a thread; the outcome lands in the
    returned dict as ``rows`` or ``error``."""
    outcome: dict = {}

    def fetch() -> None:
        try:
            outcome["rows"] = cursor.fetchall()
        except BaseException as error:  # asserted on by the caller
            outcome["error"] = error

    thread = threading.Thread(target=fetch)
    thread.start()
    return thread, outcome


class TestOneThread:
    def test_served_warehouse_runs_no_driver_thread(self, tiny_star):
        """(a) The scan runs on the loop: the service is running and no
        ``warehouse-service`` thread exists."""
        catalog, star = tiny_star
        with WarehouseServer(
            Warehouse(catalog, star), owns_warehouse=True
        ) as server:
            assert server.warehouse.service.running
            assert driver_threads() == []
            with repro.connect(server.url) as conn:
                assert conn.execute(COUNT_SQL).fetchall() == [(12,)]
            assert driver_threads() == []
        assert server.leaked_tasks == []

    def test_running_thread_driver_is_taken_over_and_handed_back(
        self, tiny_star
    ):
        """(e) One driver per warehouse: the server takes a running
        thread driver over at start and hands it back at stop."""
        catalog, star = tiny_star
        warehouse = Warehouse(catalog, star)
        warehouse.start_service()
        try:
            assert len(driver_threads()) == 1
            server = WarehouseServer(warehouse).start()
            try:
                assert warehouse.service.running
                assert driver_threads() == []
                with repro.connect(server.url) as conn:
                    assert conn.execute(COUNT_SQL).fetchall() == [(12,)]
            finally:
                server.stop()
            assert server.leaked_tasks == []
            assert warehouse.service.running
            assert len(driver_threads()) == 1
            handle = warehouse.submit_sql(COUNT_SQL)
            assert handle.results(timeout=10.0) == [(12,)]
        finally:
            warehouse.close()
        assert driver_threads() == []

    def test_idle_server_costs_under_five_percent_of_a_core(self, tiny_star):
        """(d) An idle loop-hosted driver waits on the wake or
        ``idle_sleep``; it never spins."""
        catalog, star = tiny_star

        def share_of_a_core() -> float:
            cpu, wall = time.process_time(), time.monotonic()
            time.sleep(1.0)
            return (time.process_time() - cpu) / (time.monotonic() - wall)

        with WarehouseServer(
            Warehouse(catalog, star), owns_warehouse=True
        ):
            # a busy host only adds CPU time: the better of two seconds
            shares = [share_of_a_core(), share_of_a_core()]
        print(f"\nidle server: {shares[0]:.1%}, {shares[1]:.1%} of a core")
        assert min(shares) < 0.05


def assert_still_parked(server, warehouse, thread) -> None:
    """The FETCH waits out a stopped driver: nothing else scans."""
    time.sleep(0.2)
    assert thread.is_alive() and server._parked
    assert not warehouse.submissions[-1].done


class TestStopAndRestart:
    @pytest.mark.parametrize("where", ["foreign_thread", "loop_coroutine"])
    def test_stop_service_pauses_then_start_reattaches(self, where):
        """(b) Stopping the loop-hosted driver — from another thread or
        from a coroutine on the loop itself — pauses a parked FETCH;
        starting it again puts the scan back on the loop, not on a
        thread, and the FETCH gets the reference rows."""
        warehouse, slow = slow_scan_warehouse()
        expected = [(warehouse.catalog.table("lineorder").row_count,)]
        with WarehouseServer(warehouse, owns_warehouse=True) as server:
            with repro.connect(server.url) as conn:
                cursor = conn.execute(SSB_COUNT_SQL)
                thread, outcome = fetch_in_thread(cursor)
                assert wait_until(lambda: server._parked), "FETCH never parked"
                if where == "foreign_thread":
                    warehouse.stop_service()
                else:

                    async def stop_on_loop() -> None:
                        warehouse.stop_service()
                        assert not warehouse.service.running

                    asyncio.run_coroutine_threadsafe(
                        stop_on_loop(), server._loop
                    ).result(10.0)
                assert not warehouse.service.running
                assert_still_parked(server, warehouse, thread)
                slow.clear()
                warehouse.start_service()
                assert warehouse.service.running
                thread.join(30.0)
                assert outcome == {"rows": expected}
                assert driver_threads() == []
                assert conn.execute(SSB_COUNT_SQL).fetchall() == expected
                assert driver_threads() == []
        assert server.leaked_tasks == []

    def test_restart_beside_a_parked_fetch_never_runs_two_steppers(self):
        """Regression: FETCHes parked while the driver is stopped wait
        for it; none of them scans in its stead, so a restart leaves
        one stepper and every answer is the reference one."""
        warehouse = Warehouse.from_ssb(
            scale_factor=0.002, seed=3, tuning=TuningConfig(batch_size=16)
        )
        counts = count_overlapping_steps(warehouse)
        sql = (
            "SELECT COUNT(*) FROM lineorder, date "
            "WHERE lo_orderdate = d_datekey AND d_year = ?"
        )
        with WarehouseServer(warehouse, owns_warehouse=True) as server:
            warehouse.stop_service()
            idle_steps = counts["steps"]  # the driver's, before the stop
            with repro.connect(server.url) as conn:
                cursors = [
                    conn.execute(sql, (1992 + index % 7,))
                    for index in range(8)
                ]
                outcome: dict = {}

                def fetch() -> None:
                    try:
                        outcome["rows"] = [c.fetchall() for c in cursors]
                    except BaseException as error:  # asserted below
                        outcome["error"] = error

                thread = threading.Thread(target=fetch)
                thread.start()
                # restart once the FETCH is parked (or, were anything
                # to scan in the driver's stead, once that has begun)
                assert wait_until(
                    lambda: server._parked or counts["steps"] > idle_steps
                ), "FETCH never parked"
                warehouse.start_service()
                thread.join(60.0)
                assert not thread.is_alive(), "FETCH hung after the restart"
        print(
            f"\nrestart beside parked FETCHes: {counts['steps']} steps, "
            f"{counts['overlaps']} overlapping"
        )
        assert counts["overlaps"] == 0, f"{counts} (two steppers)"
        assert "error" not in outcome, outcome
        assert outcome["rows"] == [
            evaluate_star_query(submission.handle.query, warehouse.catalog)
            for submission in warehouse.submissions
        ]
        assert server.leaked_tasks == []


def inject_step_failure(warehouse: Warehouse) -> threading.Event:
    """Make the executor's next step raise once the returned event is
    set (the event clears itself as the fault fires)."""
    executor = warehouse.cjoin.executor
    real_step = executor.step
    armed = threading.Event()

    def step() -> int:
        if armed.is_set():
            armed.clear()
            raise RuntimeError("injected step failure")
        return real_step()

    executor.step = step
    return armed


class TestCrash:
    def test_crash_makes_stop_raise_and_restart_reattaches(self, tiny_star):
        """(c) A step that raises ends the run: ``stop()`` reports it as
        ``PipelineError``, and ``start()`` — what ``serve.py``'s
        ``restart`` sends — puts the driver back on the loop, where the
        query left behind completes."""
        catalog, star = tiny_star
        warehouse = Warehouse(catalog, star)
        armed = inject_step_failure(warehouse)
        with WarehouseServer(warehouse, owns_warehouse=True) as server:
            with repro.connect(server.url) as conn:
                armed.set()
                cursor = conn.execute(COUNT_SQL)
                assert wait_until(lambda: not warehouse.service.running)
                with pytest.raises(PipelineError, match="crashed") as info:
                    warehouse.service.stop()
                assert "injected" in str(info.value.__cause__)
                assert not warehouse.submissions[-1].done
                warehouse.service.start()
                assert warehouse.service.running
                assert driver_threads() == []
                assert cursor.fetchall() == [(12,)]
                assert conn.execute(COUNT_SQL).fetchall() == [(12,)]
        assert server.leaked_tasks == []

    def test_fetch_parked_at_a_crash_completes_after_restart(self):
        """(c) A FETCH parked on the loop when the driver dies waits
        for the restart, then gets the reference rows."""
        warehouse, slow = slow_scan_warehouse()
        expected = [(warehouse.catalog.table("lineorder").row_count,)]
        armed = inject_step_failure(warehouse)
        with WarehouseServer(warehouse, owns_warehouse=True) as server:
            with repro.connect(server.url) as conn:
                cursor = conn.execute(SSB_COUNT_SQL)
                thread, outcome = fetch_in_thread(cursor)
                assert wait_until(lambda: server._parked), "FETCH never parked"
                armed.set()
                assert wait_until(lambda: not warehouse.service.running)
                assert_still_parked(server, warehouse, thread)
                with pytest.raises(PipelineError, match="crashed"):
                    warehouse.service.stop()
                slow.clear()
                warehouse.service.start()
                thread.join(30.0)
                assert outcome == {"rows": expected}
                assert driver_threads() == []
        assert server.leaked_tasks == []

    def test_fetch_parked_at_a_crash_does_not_hang(self):
        """(c) Nobody restarts the dead driver: a FETCH parked at the
        crash ends with a typed error within its own timeout, never a
        hang, and the server stops cleanly, reporting the crash."""
        warehouse, _ = slow_scan_warehouse()
        armed = inject_step_failure(warehouse)
        server = WarehouseServer(warehouse, owns_warehouse=True).start()
        try:
            with repro.connect(server.url, fetch_timeout=1.0) as conn:
                cursor = conn.execute(SSB_COUNT_SQL)
                thread, outcome = fetch_in_thread(cursor)
                assert wait_until(lambda: server._parked), "FETCH never parked"
                armed.set()
                started = time.monotonic()
                thread.join(30.0)
                assert not thread.is_alive(), "FETCH hung after the crash"
                assert time.monotonic() - started < 5.0
                assert isinstance(outcome.get("error"), OperationalError)
                assert "within 1.0 seconds" in str(outcome["error"])
        finally:
            with pytest.raises(PipelineError, match="crashed"):
                server.stop()
        assert server.leaked_tasks == []


class TestFrameStorm:
    """One thread runs both the sockets and the scan: a loop turn full
    of ready frames must not starve the scan."""

    POLLERS = 256
    QUERIES = 32
    WINDOW_S = 1.0

    def test_scan_keeps_half_its_rate_under_a_frame_storm(self):
        warehouse = Warehouse.from_ssb(scale_factor=0.002, seed=31)
        queries = ssb_workload_generator(
            seed=3, catalog=warehouse.catalog
        ).generate(self.QUERIES, selectivity=0.01)
        stop = threading.Event()
        handles: list = []

        def keep_running(query) -> None:
            # a closed loop on the scan itself: each completion
            # resubmits on the loop, so no client round trip sits
            # between two queries and only the scan's share is measured
            def resubmit(_handle) -> None:
                if not stop.is_set():
                    keep_running(query)

            handle = warehouse.submit(query)
            handles.append(handle)
            handle.on_complete(resubmit)

        def scan_rate() -> float:
            scanned = warehouse.stats()["pipeline"]["tuples_scanned"]
            started = time.monotonic()
            time.sleep(self.WINDOW_S)
            return (
                warehouse.stats()["pipeline"]["tuples_scanned"] - scanned
            ) / (time.monotonic() - started)

        with WarehouseServer(warehouse, owns_warehouse=True) as server:
            with subprocess.Popen(
                [sys.executable, str(STORM_CLIENT), server.url,
                 str(self.POLLERS)],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
            ) as storm:
                try:
                    # the pollers' own statements ran on an idle scan
                    assert storm.stdout.readline().strip() == "ready"
                    for query in queries:
                        keep_running(query)
                    quiet = scan_rate()
                    storm.stdin.write("go\n")
                    storm.stdin.flush()
                    assert storm.stdout.readline().strip() == "storming"
                    polls_at = time.monotonic()
                    stormy = scan_rate()
                    storm.stdin.close()
                    report = json.loads(storm.stdout.readline())
                    polls_s = report["answered"] / (
                        time.monotonic() - polls_at
                    )
                finally:
                    if storm.poll() is None:
                        storm.kill()
            stop.set()
            assert wait_until(
                lambda: all(handle.done for handle in list(handles)), 30.0
            ), "a query never finished"
        assert server.leaked_tasks == []
        print(
            f"\nframe storm: scan {quiet:,.0f} tuples/s quiet, "
            f"{stormy:,.0f} tuples/s under {self.POLLERS} pollers "
            f"({stormy / quiet:.0%}), ~{polls_s:,.0f} partial FETCHes/s"
        )
        assert report["answered"] > 0
        assert stormy >= 0.5 * quiet


class TestBlueGreenSwapThroughServer:
    """A swap through ``server.swap_warehouse``: 8 remote clients keep
    streaming, every result matches the dataset version that admitted
    it, and the shadow's scan takes over on the server's loop."""

    CLIENTS = 8

    def test_swap_under_remote_clients(self, tiny_star):
        catalog, star = tiny_star
        before = set(threading.enumerate())
        # a row per step, so queries are still in flight at the flip
        tuning = TuningConfig(batch_size=1)
        live = Warehouse(catalog, star, tuning=tuning)
        # the next version: one extra lyon row, so answers differ
        catalog2, star2 = make_tiny_star()
        shadow = Warehouse(catalog2, star2, tuning=tuning)
        shadow.ingest(fact_rows=[(1, 10, 7, 7000)])
        shadow.apply_pending_ingest()
        old_rows, new_rows = [(5,)], [(6,)]

        swapped = threading.Event()
        stop = threading.Event()
        failures: list[str] = []
        counts = [0] * self.CLIENTS

        def client(index: int, url: str) -> None:
            try:
                with repro.connect(url) as conn:
                    while not stop.is_set():
                        # sent after the flip, a statement can only
                        # reach the shadow; which version took one sent
                        # during the swap is checked server-side below
                        after_swap = swapped.is_set()
                        rows = conn.execute(CITY_SQL, ("lyon",)).fetchall()
                        if rows not in (old_rows, new_rows) or (
                            after_swap and rows != new_rows
                        ):
                            failures.append(f"client {index}: {rows}")
                            return
                        counts[index] += 1
            except BaseException as error:  # a dropped session
                failures.append(f"client {index}: {error!r}")

        server = WarehouseServer(live, owns_warehouse=True).start()
        threads = [
            threading.Thread(target=client, args=(index, server.url))
            for index in range(self.CLIENTS)
        ]
        try:
            for thread in threads:
                thread.start()
            assert wait_until(
                lambda: min(counts) >= 3
            ), f"no warm-up: {counts}"
            report = server.swap_warehouse(shadow)
            swapped.set()
            assert server.warehouse is shadow
            assert report.retired and live.closed
            assert report.shadow_started
            assert shadow.service.running and driver_threads() == []
            after = list(counts)
            assert wait_until(
                lambda: all(c >= a + 3 for c, a in zip(counts, after))
            ), f"clients stalled after the swap: {counts} vs {after}"
        finally:
            stop.set()
            for thread in threads:
                thread.join(30.0)
            server.stop()
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        # every admitted query ran on the version that admitted it
        for warehouse, rows in ((live, old_rows), (shadow, new_rows)):
            for submission in warehouse.submissions:
                assert submission.handle.results() == rows
        assert shadow.closed
        assert server.leaked_tasks == []
        assert wait_until(
            lambda: set(threading.enumerate()) - before == set()
        ), f"leaked threads: {set(threading.enumerate()) - before}"
