"""``Warehouse.submit`` from any thread, at any moment, beside the scan.

The documented contract of the always-on service.  Admitting from a
thread other than the driver used to race the batch kernels' cached
hash-table snapshot (``DimensionHashTable.columnar_view``): the driver
died with ``dictionary changed size during iteration``, or cached a
half-registered snapshot and a query silently lost rows.  The hash
tables have since dropped the snapshot: mutators change the two dicts
the kernels read in place, under the argument in
:mod:`repro.cjoin.dimtable`; this drives the documented path hard
enough that the snapshot-era code fails it within a few hundred
queries.  tests/test_spread_admission.py is the deterministic twin.
"""

from __future__ import annotations

import sys
import threading

from repro.engine.warehouse import Warehouse
from repro.query.reference import evaluate_star_query
from repro.ssb.generator import load_ssb
from repro.ssb.queries import ssb_workload_generator

THREADS = 4
QUERIES_PER_THREAD = 120  # 480 closed-loop submissions in all
IN_FLIGHT_PER_THREAD = 4


def test_closed_loop_submit_from_four_threads_beside_the_scan():
    catalog, star = load_ssb(scale_factor=0.002, seed=5)
    queries = ssb_workload_generator(seed=9, catalog=catalog).generate(
        24, selectivity=0.05
    )
    expected = [evaluate_star_query(query, catalog) for query in queries]
    threads_before = set(threading.enumerate())
    warehouse = Warehouse(catalog, star)
    service = warehouse.start_service()
    failures: list[str] = []
    completed = [0] * THREADS

    def client(thread_index: int) -> None:
        """Keep a few queries in flight; replace each one on completion."""
        pending: list[tuple[int, object]] = []
        for position in range(QUERIES_PER_THREAD + IN_FLIGHT_PER_THREAD):
            try:
                if position >= IN_FLIGHT_PER_THREAD:
                    index, handle = pending.pop(0)
                    if handle.results(timeout=60.0) != expected[index]:
                        failures.append(f"query {index}: wrong rows")
                    completed[thread_index] += 1
                if position < QUERIES_PER_THREAD:
                    index = (thread_index * 7 + position) % len(queries)
                    pending.append((index, warehouse.submit(queries[index])))
            except Exception as error:  # a failed handle or a dead driver
                failures.append(f"{type(error).__name__}: {error}")
                return

    clients = [
        threading.Thread(target=client, args=(i,), name=f"caller-{i}")
        for i in range(THREADS)
    ]
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # hand the GIL over mid-mutation, often
    try:
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(switch_interval)
    try:
        assert not any(thread.is_alive() for thread in clients)
        assert service.running, "the service driver died"
        assert not failures, failures[:5]
        assert completed == [QUERIES_PER_THREAD] * THREADS
    finally:
        try:
            warehouse.close()
        except Exception:  # a crashed driver re-raises on stop
            pass
    assert set(threading.enumerate()) == threads_before, "leaked threads"
