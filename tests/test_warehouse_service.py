"""The always-on warehouse service (DESIGN.md section 9).

Covers the serving surface end to end: background continuous scan,
mid-scan online admission from many threads, bounded admission
queueing, handle quality-of-life (blocking results, latency
timestamps, completion callbacks), latency telemetry, idle
throttling, clean shutdown, and the open-loop soak acceptance test.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.engine import Warehouse, WarehouseService
from repro.errors import AdmissionError, PipelineError
from repro.query.aggregates import AggregateSpec
from repro.query.predicate import Between, Comparison
from repro.query.reference import evaluate_star_query
from repro.query.star import ColumnRef, StarQuery
from repro.ssb.generator import load_ssb
from repro.tuning import TuningConfig
from tests.conftest import count_overlapping_steps


def city_query(city: str, label: str | None = None) -> StarQuery:
    return StarQuery.build(
        "sales",
        dimension_predicates={"store": Comparison("s_city", "=", city)},
        aggregates=[AggregateSpec("count"), AggregateSpec("sum", "sales", "f_total")],
        label=label,
    )


def _wait_until(predicate, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.001)
    return predicate()


class TestServiceLifecycle:
    def test_start_stop_no_leaked_threads(self, tiny_star):
        catalog, star = tiny_star
        warehouse = Warehouse(catalog, star)
        before = set(threading.enumerate())
        service = warehouse.start_service()
        assert service.running
        warehouse.stop_service()
        assert not service.running
        assert set(threading.enumerate()) == before

    def test_double_start_rejected(self, tiny_star):
        catalog, star = tiny_star
        warehouse = Warehouse(catalog, star)
        warehouse.start_service()
        try:
            with pytest.raises(PipelineError, match="already running"):
                warehouse.start_service()
        finally:
            warehouse.stop_service()

    def test_stop_is_idempotent_and_restartable(self, tiny_star):
        catalog, star = tiny_star
        warehouse = Warehouse(catalog, star)
        warehouse.stop_service()  # never started: no-op
        warehouse.start_service()
        warehouse.stop_service()
        warehouse.stop_service()
        warehouse.start_service()  # restart over the same pipeline state
        handle = warehouse.submit(city_query("lyon"))
        assert handle.results(timeout=10.0) == evaluate_star_query(
            city_query("lyon"), catalog
        )
        warehouse.stop_service()

    def test_idle_service_burns_no_scan_work(self, tiny_star):
        catalog, star = tiny_star
        warehouse = Warehouse(
            catalog, star, tuning=TuningConfig(idle_sleep=0.0005)
        )
        warehouse.start_service()
        try:
            time.sleep(0.05)
            assert warehouse.cjoin.stats.tuples_scanned == 0
        finally:
            warehouse.stop_service()

    def test_stop_preserves_in_flight_queries(self, tiny_star):
        """Stopping mid-query is clean; run() later completes it."""
        catalog, star = tiny_star
        warehouse = Warehouse(catalog, star)
        # no driver running: the query waits in the FIFO; the driver
        # admits it at its first boundary
        handle = warehouse.submit(city_query("paris"))
        warehouse.start_service()
        warehouse.stop_service()
        warehouse.run()
        assert handle.results() == evaluate_star_query(
            city_query("paris"), catalog
        )


class TestSubmission:
    def test_submit_completes_in_background(self, tiny_star):
        catalog, star = tiny_star
        warehouse = Warehouse(catalog, star)
        warehouse.start_service()
        try:
            handle = warehouse.submit(city_query("nice"))
            assert handle.results(timeout=10.0) == evaluate_star_query(
                city_query("nice"), catalog
            )
        finally:
            warehouse.stop_service()

    def test_results_timeout_expires(self, tiny_star):
        catalog, star = tiny_star
        warehouse = Warehouse(catalog, star)
        # service not running: nothing will complete the query
        handle = warehouse.submit(city_query("lyon"))
        with pytest.raises(AdmissionError, match="did not complete within"):
            handle.results(timeout=0.01)

    def test_nonblocking_results_contract_unchanged(self, tiny_star):
        catalog, star = tiny_star
        warehouse = Warehouse(catalog, star)
        handle = warehouse.submit(city_query("lyon"))
        with pytest.raises(AdmissionError, match="has not completed"):
            handle.results()

    def test_admission_queue_overflow_rejected(self, tiny_star):
        catalog, star = tiny_star
        warehouse = Warehouse(
            catalog,
            star,
            tuning=TuningConfig(max_in_flight=1, admission_queue_depth=2),
        )
        for _ in range(3):  # 1 free slot + 2 queue depth
            warehouse.submit(city_query("lyon"))
        with pytest.raises(AdmissionError, match="admission queue is full"):
            warehouse.submit(city_query("lyon"))
        warehouse.run()  # the accepted ones still all complete

    def test_invalid_query_rejected_at_submission(self, tiny_star):
        from repro.errors import SchemaError

        catalog, star = tiny_star
        warehouse = Warehouse(catalog, star, tuning=TuningConfig(max_in_flight=1))
        warehouse.submit(city_query("lyon"))  # occupy the slot
        bad = StarQuery.build(
            "sales",
            dimension_predicates={"nope": Comparison("x", "=", 1)},
            aggregates=[AggregateSpec("count")],
        )
        with pytest.raises(SchemaError):
            warehouse.submit(bad)  # validated up front, not on the driver

    def test_queued_submissions_keep_their_handle(self, tiny_star):
        """No placeholder forwarding: the queued handle is THE handle."""
        catalog, star = tiny_star
        warehouse = Warehouse(catalog, star, tuning=TuningConfig(max_in_flight=1))
        first = warehouse.submit(city_query("lyon"))
        queued = warehouse.submit(city_query("paris"))
        warehouse.service.pump()  # one slot: the boundary admits `first`
        assert warehouse.service.queued == 1
        assert first.registration is not None
        assert queued.registration is None  # not admitted yet
        warehouse.run()
        assert queued.registration is not None
        assert queued.done and first.done
        assert queued.wait_seconds >= 0.0


class TestHandleTelemetry:
    def test_latency_properties(self, tiny_star):
        catalog, star = tiny_star
        warehouse = Warehouse(catalog, star)
        handle = warehouse.submit(city_query("lyon"))
        with pytest.raises(AdmissionError):
            _ = handle.latency_seconds
        warehouse.run()
        assert handle.latency_seconds >= handle.wait_seconds >= 0.0
        assert handle.admitted_at is not None
        assert handle.first_result_at is not None
        assert handle.completed_at >= handle.admitted_at >= handle.submitted_at

    def test_wait_seconds_before_admission_raises(self, tiny_star):
        catalog, star = tiny_star
        warehouse = Warehouse(catalog, star, tuning=TuningConfig(max_in_flight=1))
        warehouse.submit(city_query("lyon"))
        queued = warehouse.submit(city_query("paris"))
        with pytest.raises(AdmissionError, match="not been admitted"):
            _ = queued.wait_seconds

    def test_on_complete_callback(self, tiny_star):
        catalog, star = tiny_star
        warehouse = Warehouse(catalog, star)
        seen = []
        handle = warehouse.submit(city_query("lyon"))
        handle.on_complete(seen.append)
        warehouse.run()
        assert seen == [handle]
        # registering on a done handle fires immediately
        handle.on_complete(seen.append)
        assert seen == [handle, handle]

    def test_latency_records_accumulate(self, tiny_star):
        catalog, star = tiny_star
        warehouse = Warehouse(catalog, star)
        for city in ("lyon", "paris", "nice"):
            warehouse.submit(city_query(city, label=city))
        warehouse.run()
        records = warehouse.service.latency_records
        assert [record.label for record in records] == ["lyon", "paris", "nice"]
        for record in records:
            assert record.latency_seconds >= record.wait_seconds >= 0.0
            assert record.scan_cycles > 0.0
        summary = warehouse.service.latency_summary()
        assert summary["count"] == 3.0
        assert summary["p99"] >= summary["p95"] >= summary["p50"] > 0.0


class TestMidScanAdmission:
    def test_second_query_joins_mid_scan(self, tiny_star):
        """A query admitted while another is mid-cycle still matches."""
        from repro.cjoin import CJoinOperator, ExecutorConfig

        catalog, star = tiny_star
        operator = CJoinOperator(
            catalog, star, executor_config=ExecutorConfig(batch_size=4)
        )
        service = WarehouseService(operator)
        first = service.submit(city_query("lyon"))
        service.pump(batches=1)  # advance the scan partway into the cycle
        assert not first.done
        second = service.submit(city_query("paris"))
        service.drain()
        assert second.registration.start_position > 0  # mid-scan, not 0
        assert second.registration.admitted_with_in_flight == 1
        assert first.results() == evaluate_star_query(city_query("lyon"), catalog)
        assert second.results() == evaluate_star_query(city_query("paris"), catalog)

    def test_pump_conflicts_with_running_driver(self, tiny_star):
        catalog, star = tiny_star
        warehouse = Warehouse(catalog, star)
        warehouse.start_service()
        try:
            with pytest.raises(PipelineError, match="running driver"):
                warehouse.service.pump()
        finally:
            warehouse.stop_service()

    def test_start_refuses_while_run_drives_on_a_calling_thread(
        self, tiny_star
    ):
        """One stepper: while ``run()`` drives the pipeline on one
        thread, ``start()`` — and any other ``drain()``/``pump()`` —
        refuses instead of stepping beside it."""
        catalog, star = tiny_star
        warehouse = Warehouse(catalog, star, tuning=TuningConfig(batch_size=1))
        counts = count_overlapping_steps(warehouse)
        boundary = warehouse.service.cycle_hook
        entered, release = threading.Event(), threading.Event()

        def first_boundary_waits() -> None:
            if not entered.is_set():
                entered.set()
                release.wait(10.0)
            boundary()

        warehouse.service.cycle_hook = first_boundary_waits
        cities = ("lyon", "paris", "nice")
        handles = [warehouse.submit(city_query(city)) for city in cities]
        runner = threading.Thread(target=warehouse.run)
        runner.start()
        try:
            assert entered.wait(10.0)
            with pytest.raises(PipelineError, match="calling thread"):
                warehouse.start_service()
            with pytest.raises(PipelineError, match="another thread"):
                warehouse.service.pump()
            assert not warehouse.service.running
        finally:
            release.set()
            runner.join(10.0)
        assert not runner.is_alive()
        assert counts["overlaps"] == 0 and counts["steps"] > 0
        for city, handle in zip(cities, handles):
            assert handle.results() == evaluate_star_query(
                city_query(city), catalog
            )
        warehouse.start_service()  # the drive returned: start() may run
        warehouse.close()


def _soak_query(index: int) -> StarQuery:
    windows = [
        (1992, 1998), (1993, 1995), (1994, 1997), (1992, 1994),
        (1995, 1998), (1993, 1997), (1992, 1996), (1996, 1998),
    ]
    first, last = windows[index % len(windows)]
    return StarQuery.build(
        "lineorder",
        dimension_predicates={"date": Between("d_year", first, last)},
        group_by=[ColumnRef("date", "d_year")],
        aggregates=[
            AggregateSpec("sum", "lineorder", "lo_revenue"),
            AggregateSpec("count"),
        ],
        label=f"soak-{index}",
    )


def test_open_loop_soak():
    """The ISSUE-3 acceptance soak: a live service, 64 queries arriving
    over time from 8 threads, every one admitted mid-scan, all results
    equal to the reference evaluator, clean shutdown with no leaked
    threads, and a p50/p95/p99 latency report."""
    catalog, star = load_ssb(scale_factor=0.002, seed=31)
    warehouse = Warehouse(catalog, star, tuning=TuningConfig(max_in_flight=16))
    threads_before = set(threading.enumerate())
    service = warehouse.start_service()

    # a pilot keeps the scan mid-cycle while the arrival threads spin up,
    # so every soak query joins a busy pipeline (mid-scan by construction)
    pilot = warehouse.submit(_soak_query(0))
    assert _wait_until(lambda: warehouse.cjoin.stats.tuples_scanned > 0)

    queries_per_thread = 8
    thread_count = 8
    handles: dict[int, object] = {}
    handles_lock = threading.Lock()
    errors: list[BaseException] = []

    def client(thread_index: int) -> None:
        try:
            for position in range(queries_per_thread):
                index = thread_index * queries_per_thread + position
                handle = warehouse.submit(_soak_query(index))
                with handles_lock:
                    handles[index] = handle
                time.sleep(0.0005 * (thread_index % 3))
        except BaseException as error:  # surfaced in the main thread
            errors.append(error)

    clients = [
        threading.Thread(target=client, args=(i,), name=f"soak-client-{i}")
        for i in range(thread_count)
    ]
    for thread in clients:
        thread.start()
    for thread in clients:
        thread.join(timeout=60)
    assert not errors, errors

    total = thread_count * queries_per_thread
    assert len(handles) == total
    results = {
        index: handle.results(timeout=60.0)
        for index, handle in handles.items()
    }
    assert pilot.results(timeout=60.0) == evaluate_star_query(
        _soak_query(0), catalog
    )

    service.drain(timeout=60.0)
    warehouse.stop_service()
    assert not service.running
    assert set(threading.enumerate()) == threads_before, "leaked threads"

    # every soak query was admitted mid-scan, not at a drain boundary
    soak_records = [
        record
        for record in service.latency_records
        if record.label and record.label.startswith("soak-")
    ]
    assert len(soak_records) == total + 1  # the 64 arrivals plus the pilot
    mid_scan = [
        record
        for record in service.latency_records
        if record.admitted_with_in_flight > 0
    ]
    assert len(mid_scan) >= total, (
        f"only {len(mid_scan)}/{total + 1} admissions were mid-scan"
    )

    # correctness: every arrival stream result equals the reference
    expected = {
        index: evaluate_star_query(_soak_query(index), catalog)
        for index in range(total)
    }
    assert results == expected

    summary = service.latency_summary()
    assert summary["count"] == float(total + 1)
    assert summary["p99"] >= summary["p95"] >= summary["p50"] > 0.0
    print(
        f"\nsoak: {total} queries over {thread_count} threads, "
        f"p50 {summary['p50'] * 1e3:.1f} ms, "
        f"p95 {summary['p95'] * 1e3:.1f} ms, "
        f"p99 {summary['p99'] * 1e3:.1f} ms, "
        f"wait p95 {summary['wait_p95'] * 1e3:.1f} ms, "
        f"{len(mid_scan)}/{total + 1} mid-scan admissions"
    )


class TestRunCompatibility:
    def test_run_waits_for_running_service(self, tiny_star):
        """run() with a live driver blocks until everything completes."""
        catalog, star = tiny_star
        warehouse = Warehouse(catalog, star)
        warehouse.start_service()
        try:
            handles = [
                warehouse.submit(city_query(city))
                for city in ("lyon", "paris", "nice")
            ]
            warehouse.run()
            for city, handle in zip(("lyon", "paris", "nice"), handles):
                assert handle.done
                assert handle.results() == evaluate_star_query(
                    city_query(city), catalog
                )
        finally:
            warehouse.stop_service()


class TestBlueGreenSwap:
    """ISSUE 10 tentpole: zero-downtime dataset swaps (DESIGN.md
    section 16).  Eight concurrent clients stream queries through a
    :func:`blue_green_swap`; every result must be reference-equal
    against the dataset version that admitted it, no client may see a
    dropped session, and the old warehouse must end retired with its
    service threads reclaimed."""

    def test_swap_under_concurrent_clients(self, tiny_star):
        from repro.engine import WarehouseHolder, blue_green_swap
        from repro.errors import QueryError
        from tests.conftest import make_tiny_star

        catalog, star = tiny_star
        before = set(threading.enumerate())
        live = Warehouse(catalog, star)
        live.start_service()
        holder = WarehouseHolder(live)

        # the next dataset version: same star, one extra fact row, so
        # blue and green answers are distinguishable
        catalog2, star2 = make_tiny_star()
        shadow = Warehouse(catalog2, star2)
        shadow.ingest(fact_rows=[(1, 10, 7, 7000)])
        shadow.apply_pending_ingest()

        clients = 8
        swapped = threading.Event()
        stop = threading.Event()
        failures: list[str] = []
        checked = [0] * clients

        def client(index: int) -> None:
            while not (stop.is_set() and swapped.is_set()):
                admitted = holder.warehouse  # capture, then submit
                try:
                    handle = admitted.submit(city_query("lyon"))
                    results = handle.results(timeout=10.0)
                except QueryError:
                    # lost the race against retirement: the captured
                    # version closed before the submit landed.  That
                    # is a retry, never a dropped session.
                    continue
                expected = evaluate_star_query(
                    city_query("lyon"), admitted.catalog
                )
                if results != expected:
                    failures.append(
                        f"client {index}: {results} != {expected}"
                    )
                    return
                checked[index] += 1
                if stop.is_set():
                    return

        threads = [
            threading.Thread(target=client, args=(index,), daemon=True)
            for index in range(clients)
        ]
        for thread in threads:
            thread.start()
        try:
            # every client is mid-stream before the cutover
            assert _wait_until(
                lambda: all(count > 0 for count in checked)
            ), f"clients never warmed up: {checked}"
            report = blue_green_swap(holder, shadow)
            swapped.set()
            assert holder.warehouse is shadow
            assert report.retired and live.closed
            assert report.shadow_started and shadow.service.running
            # every client keeps streaming against the new version
            after_swap = list(checked)
            assert _wait_until(
                lambda: all(
                    count > was
                    for count, was in zip(checked, after_swap)
                )
            ), f"clients stalled after swap: {checked} vs {after_swap}"
        finally:
            stop.set()
            swapped.set()
            for thread in threads:
                thread.join(timeout=10.0)
            shadow.close()
            if not live.closed:
                live.close()
        assert failures == []
        assert not any(thread.is_alive() for thread in threads)
        # the swap retired the old service's threads too
        assert _wait_until(
            lambda: set(threading.enumerate()) - before == set()
        ), f"leaked threads: {set(threading.enumerate()) - before}"
        # and the new version answers with its extra row visible
        expected = evaluate_star_query(city_query("lyon"), catalog2)
        assert expected != evaluate_star_query(city_query("lyon"), catalog)
