"""``Warehouse.submit`` from any thread, at any moment, beside the scan.

The documented contract of the always-on service.  Callers only
*enqueue* now: ``submit`` validates, appends to the service FIFO, wakes
an idle driver and returns, and the driver thread admits whatever
queued up as one group at its next batch boundary (DESIGN.md section 9)
— so the hash tables are no longer mutated from caller threads at all
on this path.  What this guards is the hand-off: four threads appending
while the driver pops groups, handles completing on one thread while
their owners block on another, FIFO and the slot count staying
consistent under a switch interval that hands the GIL over mid-call —
no lost submission, no wrong rows, no dead driver, no leaked thread.

History: admitting on the caller's thread used to race the batch
kernels' cached hash-table snapshot (the driver died with ``dictionary
changed size during iteration``, or a query silently lost rows); the
tables then became two dicts mutated in place under the argument in
:mod:`repro.cjoin.dimtable`, which still covers ``CJoinOperator.submit``
beside a running scan.  tests/test_spread_admission.py is the
deterministic twin.
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
