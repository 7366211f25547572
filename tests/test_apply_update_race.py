"""``Warehouse.apply_update`` from any thread, beside the live scan.

It used to call ``TransactionManager.commit`` with neither the Pipeline
Manager's write barrier nor a Preprocessor stall, unlike ingest apply:
the scan could reach a row whose version stamp was not written yet and
the driver died with ``SnapshotError: no row at position N``.  The same
unsynchronised admissions and cleanups popped Filters out of the chain
under a batch walking it, which then skipped the next Filter
(``KeyError: '<dimension>'`` in an output operator, or silently wrong
rows).  A writer thread and a delete thread commit here while four
threads run queries — half of them ``COUNT(*)``, which any row seen at
the wrong snapshot changes; every result must equal the reference at
the snapshot the query was stamped with.
"""

from __future__ import annotations

import sys
import threading
import time

from repro.engine.warehouse import Warehouse
from repro.query.aggregates import AggregateSpec
from repro.query.reference import evaluate_star_query
from repro.query.star import StarQuery
from repro.ssb.generator import load_ssb
from repro.ssb.queries import ssb_workload_generator

QUERY_THREADS = 4
QUERIES_PER_THREAD = 12
ROWS_PER_COMMIT = 5
MAX_COMMITS = 400  # bounds the table should the query threads stall


def test_writer_and_deleter_beside_four_query_threads():
    catalog, star = load_ssb(scale_factor=0.0005, seed=5)
    count_star = StarQuery.build(
        star.fact.name, aggregates=[AggregateSpec("count")]
    )
    queries = []
    for query in ssb_workload_generator(seed=9, catalog=catalog).generate(
        6, selectivity=0.2
    ):
        queries += [count_star, query]
    fact = catalog.table(star.fact.name)
    original_rows = fact.row_count
    template_row = next(fact.heap.iter_rows())
    store_row = fact.insert

    def store_row_then_yield(row):
        """Hand the GIL over with the row stored and its version not yet."""
        store_row(row)
        time.sleep(0)

    fact.insert = store_row_then_yield
    threads_before = set(threading.enumerate())
    warehouse = Warehouse(
        catalog, star, enable_updates=True
    )
    service = warehouse.start_service()
    failures: list[str] = []
    finished: list[object] = []  # completed handles, verified at the end
    queries_done = threading.Event()

    def guarded(body):
        def run(*args) -> None:
            try:
                body(*args)
            except Exception as error:  # a failed handle or a dead driver
                failures.append(f"{type(error).__name__}: {error}")

        return run

    @guarded
    def writer() -> None:
        for _ in range(MAX_COMMITS):
            if queries_done.is_set():
                return
            warehouse.apply_update(inserts=[template_row] * ROWS_PER_COMMIT)

    @guarded
    def deleter() -> None:
        for position in range(0, original_rows, 7):
            if queries_done.is_set():
                return
            warehouse.apply_update(deletes=[position])

    @guarded
    def client(thread_index: int) -> None:
        for position in range(QUERIES_PER_THREAD):
            query = queries[(thread_index * 5 + position) % len(queries)]
            handle = warehouse.submit(query)
            handle.results(timeout=60.0)
            finished.append(handle)

    clients = [
        threading.Thread(target=client, args=(i,), name=f"caller-{i}")
        for i in range(QUERY_THREADS)
    ]
    writers = [
        threading.Thread(target=writer, name="writer"),
        threading.Thread(target=deleter, name="deleter"),
    ]
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # hand the GIL over mid-commit, often
    try:
        for thread in clients + writers:
            thread.start()
        for thread in clients:
            thread.join(timeout=120)
        queries_done.set()
        for thread in writers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch_interval)
    try:
        assert not any(thread.is_alive() for thread in clients + writers)
        assert service.running, "the service driver died"
        assert not failures, failures[:5]
        assert len(finished) == QUERY_THREADS * QUERIES_PER_THREAD
        assert warehouse.current_snapshot_id > 0, "no commit ran beside the scan"
        snapshots = set()
        for handle in finished:
            snapshots.add(handle.query.snapshot_id)
            assert handle.results() == evaluate_star_query(
                handle.query, catalog, versioned_fact=warehouse.versioned_fact
            ), handle.query
        assert len(snapshots) > 1, "every query ran at one snapshot"
    finally:
        try:
            warehouse.close()
        except Exception:  # a crashed driver re-raises on stop
            pass
    assert set(threading.enumerate()) == threads_before, "leaked threads"
