"""Remote concurrency: N socket clients vs in-process (EXPERIMENTS.md
sections 8 and 9).

The TCP service boundary (DESIGN.md section 11) is only worth its
round trips if many independent clients actually share the continuous
scan.  This benchmark drives the same query mix two ways over
identically configured warehouses:

* **remote** — one warehouse server, N concurrent socket clients
  (each its own `repro.connect("tcp://...")` session and thread)
  executing and fetching over the docs/PROTOCOL.md wire protocol;
* **in-process** — the same N threads sharing one in-process
  `repro.connect(warehouse)` session over a live service.

Gates: every row set (both passes) equals the reference evaluator's,
every client completes, and no threads leak after `server.stop()`.
The wire-overhead ratio (remote wall / in-process wall) is reported
for eyeballing, never asserted — EXPERIMENTS.md section 1's policy.

Then the ISSUE 6 open-loop session-scaling pass (EXPERIMENTS.md
section 9): one process drives 1000+ concurrent remote sessions —
statements multiplexed over a small async connection pool against the
same server class — at a fixed arrival rate, at a low rung and a high rung, and reports the
connections-vs-p95 flatness ratio ``p95(low) / p95(high)`` (1.0 =
session count does not move tail latency; gated via
BENCH_baseline.json ``async_session_flatness``).

Knobs::

    PYTHONPATH=src python benchmarks/bench_remote_concurrency.py \
        [--clients N] [--queries-per-client M] [--smoke] \
        [--sessions N] [--sessions-low N]
"""

from __future__ import annotations

import argparse
import asyncio
import threading
import time

import repro
from repro.engine import Warehouse
from repro.query.aggregates import AggregateSpec
from repro.query.predicate import Between
from repro.query.reference import evaluate_star_query
from repro.query.star import ColumnRef, StarQuery
from repro.server import WarehouseServer
from repro.sql.render import render_star_query
from repro.tuning import TuningConfig

SCALE_FACTOR = 0.002
DEFAULT_CLIENTS = 8
DEFAULT_QUERIES_PER_CLIENT = 4
RESULT_TIMEOUT = 120.0

#: open-loop session-scaling rungs (EXPERIMENTS.md section 9)
DEFAULT_SESSIONS = 1024
DEFAULT_SESSIONS_LOW = 64
#: fixed arrival spacing: open-loop means the clock, not completions,
#: schedules session starts — identical at both rungs
SESSION_SPACING_SECONDS = 0.002
SESSION_POOL_SIZE = 4
#: fresh statements probed while every session at the rung stays open
DEFAULT_PROBES = 32

YEAR_WINDOWS = [
    (1992, 1998), (1993, 1995), (1994, 1997), (1992, 1994),
    (1995, 1998), (1993, 1997), (1992, 1996), (1996, 1998),
]


def workload(count: int) -> list[StarQuery]:
    """Deterministic grouped star queries (the open-loop mix)."""
    queries = []
    for index in range(count):
        first, last = YEAR_WINDOWS[index % len(YEAR_WINDOWS)]
        queries.append(
            StarQuery.build(
                "lineorder",
                dimension_predicates={"date": Between("d_year", first, last)},
                group_by=[ColumnRef("date", "d_year")],
                aggregates=[
                    AggregateSpec("sum", "lineorder", "lo_revenue"),
                    AggregateSpec("count"),
                ],
                label=f"remote-bench-{index}",
            )
        )
    return queries


def _run_clients(count, sqls_per_client, make_connection):
    """Fan N clients out on threads; returns (rows, latencies, wall)."""
    rows: dict[int, list[list[tuple]]] = {}
    latencies: list[float] = []
    errors: list[BaseException] = []
    lock = threading.Lock()

    def client(index: int) -> None:
        try:
            with make_connection() as connection:
                collected = []
                for sql in sqls_per_client[index]:
                    started = time.perf_counter()
                    result = connection.execute(sql).fetchall()
                    elapsed = time.perf_counter() - started
                    collected.append(result)
                    with lock:
                        latencies.append(elapsed)
                rows[index] = collected
        except BaseException as error:
            with lock:
                errors.append(error)

    threads = [
        threading.Thread(target=client, args=(index,))
        for index in range(count)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(RESULT_TIMEOUT)
    wall = time.perf_counter() - started
    if errors:
        raise errors[0]
    return rows, latencies, wall


def measure_remote_concurrency(
    clients: int = DEFAULT_CLIENTS,
    queries_per_client: int = DEFAULT_QUERIES_PER_CLIENT,
    scale_factor: float = SCALE_FACTOR,
) -> dict:
    """One measured pass of both transports; returns rows and gates."""
    queries = workload(clients * queries_per_client)
    per_client = [
        queries[index * queries_per_client:(index + 1) * queries_per_client]
        for index in range(clients)
    ]

    def build() -> Warehouse:
        return Warehouse.from_ssb(scale_factor=scale_factor, seed=31)

    reference_warehouse = build()
    star = reference_warehouse.star
    expected = {
        query.label: evaluate_star_query(query, reference_warehouse.catalog)
        for query in queries
    }
    sqls_per_client = [
        [render_star_query(query, star) for query in chunk]
        for chunk in per_client
    ]
    reference_warehouse.close()

    threads_before = set(threading.enumerate())

    # -- remote: one server, N socket clients -------------------------
    server = WarehouseServer(build(), owns_warehouse=True)
    server.start()
    try:
        remote_rows, remote_latencies, remote_wall = _run_clients(
            clients,
            sqls_per_client,
            lambda: repro.connect(server.url, fetch_timeout=RESULT_TIMEOUT),
        )
    finally:
        server.stop()
    threads_clean = set(threading.enumerate()) == threads_before

    # -- in-process: same threads over one shared session --------------
    local_warehouse = build()
    with repro.connect(
        local_warehouse, fetch_timeout=RESULT_TIMEOUT
    ) as connection:

        class _SharedSession:
            """Per-thread view of the one shared connection."""

            def __enter__(self):
                return connection

            def __exit__(self, *exc_info):
                pass  # the outer with owns the session

        local_rows, local_latencies, local_wall = _run_clients(
            clients, sqls_per_client, _SharedSession
        )
    local_warehouse.close()

    def matches(rows: dict[int, list[list[tuple]]]) -> bool:
        return all(
            rows[index]
            == [expected[query.label] for query in per_client[index]]
            for index in range(clients)
        )

    def percentile(values: list[float], fraction: float) -> float:
        from repro.cjoin.stats import percentile as pct

        return pct(values, fraction)

    return {
        "clients": clients,
        "queries": len(queries),
        "remote_ok": matches(remote_rows),
        "inprocess_ok": matches(local_rows),
        "threads_clean": threads_clean,
        "remote_wall": remote_wall,
        "inprocess_wall": local_wall,
        "wire_overhead": remote_wall / local_wall if local_wall else 0.0,
        "remote_p95": percentile(remote_latencies, 0.95),
        "inprocess_p95": percentile(local_latencies, 0.95),
    }


# ----------------------------------------------------------------------
# Open-loop session scaling over the async server (EXPERIMENTS.md
# section 9): p95 as a function of concurrent multiplexed sessions.
# ----------------------------------------------------------------------
async def _run_session_rung(
    url: str,
    sqls: list[str],
    expected: list[list[tuple]],
    sessions: int,
    pool_size: int,
    probes: int,
) -> dict:
    """One rung: N open-loop sessions held concurrently over a pool.

    Every session executes one statement, fetches its rows, verifies
    them, then HOLDS its cursor open — so the server demonstrably
    sustains N simultaneous query states multiplexed over
    ``pool_size`` sockets.  Once all N are open, a probe phase runs
    ``probes`` fresh statements and records THEIR latencies: the
    gated question is whether tail latency of live work depends on
    how many sessions the server is holding, not how fast one CPU
    can aggregate N concurrent ramp queries.
    """
    pool = await repro.connect_async(
        url, pool_size=pool_size, fetch_timeout=RESULT_TIMEOUT
    )
    ramp_latencies: list[float] = []
    probe_latencies: list[float] = []
    mismatches = 0
    open_sessions = 0
    peak = 0
    all_fetched = asyncio.Event()
    release = asyncio.Event()
    remaining = sessions

    async def session(index: int) -> None:
        nonlocal open_sessions, peak, remaining, mismatches
        # open-loop arrival: the clock schedules the start, not the
        # completion of any earlier session
        await asyncio.sleep(index * SESSION_SPACING_SECONDS)
        cursor = pool.cursor()
        open_sessions += 1
        peak = max(peak, open_sessions)
        started = time.perf_counter()
        await cursor.execute(sqls[index % len(sqls)])
        rows = await cursor.fetchall()
        ramp_latencies.append(time.perf_counter() - started)
        if rows != expected[index % len(sqls)]:
            mismatches += 1
        remaining -= 1
        if remaining == 0:
            all_fetched.set()
        await release.wait()  # hold the session open through probing
        await cursor.close()
        open_sessions -= 1

    tasks = [
        asyncio.create_task(session(index)) for index in range(sessions)
    ]
    try:
        await all_fetched.wait()
        # probe phase: every held session is still open server-side
        for index in range(probes):
            await asyncio.sleep(SESSION_SPACING_SECONDS)
            cursor = pool.cursor()
            started = time.perf_counter()
            await cursor.execute(sqls[index % len(sqls)])
            rows = await cursor.fetchall()
            probe_latencies.append(time.perf_counter() - started)
            if rows != expected[index % len(sqls)]:
                mismatches += 1
            await cursor.close()
    finally:
        release.set()
        await asyncio.gather(*tasks, return_exceptions=True)
        await pool.close()
    return {
        "ramp_latencies": ramp_latencies,
        "probe_latencies": probe_latencies,
        "peak_sessions": peak,
        "rows_ok": mismatches == 0,
    }


def measure_async_sessions(
    sessions: int = DEFAULT_SESSIONS,
    sessions_low: int = DEFAULT_SESSIONS_LOW,
    scale_factor: float = 0.001,
    pool_size: int = SESSION_POOL_SIZE,
    probes: int = DEFAULT_PROBES,
) -> dict:
    """Probe p95 at a low and a high concurrent-session rung.

    Flatness = ``probe p95(low rung) / probe p95(high rung)`` — 1.0
    means holding 16x more concurrent sessions does not move the tail
    latency of live statements, the serving-layer analogue of the
    paper's predictability claim.
    """
    queries = workload(len(YEAR_WINDOWS))
    warehouse = Warehouse.from_ssb(
        scale_factor=scale_factor,
        seed=31,
        max_concurrent=max(sessions, 256),
        tuning=TuningConfig(admission_queue_depth=max(2 * sessions, 1024)),
    )
    star = warehouse.star
    sqls = [render_star_query(query, star) for query in queries]
    expected = [
        evaluate_star_query(query, warehouse.catalog) for query in queries
    ]

    threads_before = set(threading.enumerate())
    server = WarehouseServer(
        warehouse,
        owns_warehouse=True,
        max_in_flight_per_connection=max(sessions, 16),
        max_pending_fetches=max(sessions, 1024),
    ).start()
    try:
        rungs = {}
        for rung in (sessions_low, sessions):
            observed = asyncio.run(
                _run_session_rung(
                    server.url, sqls, expected, rung, pool_size, probes
                )
            )
            rungs[rung] = {
                "probe_p95": _percentile(
                    observed["probe_latencies"], 0.95
                ),
                "ramp_p95": _percentile(
                    observed["ramp_latencies"], 0.95
                ),
                "peak_sessions": observed["peak_sessions"],
                "rows_ok": observed["rows_ok"],
            }
    finally:
        server.stop()
    # the ledger is final once stop() joined the loop thread
    leaked = list(server.leaked_tasks)
    threads_clean = set(threading.enumerate()) == threads_before

    low, high = rungs[sessions_low], rungs[sessions]
    return {
        "sessions_low": sessions_low,
        "sessions": sessions,
        "pool_size": pool_size,
        "probes": probes,
        "p95_low": low["probe_p95"],
        "p95_high": high["probe_p95"],
        "ramp_p95_low": low["ramp_p95"],
        "ramp_p95_high": high["ramp_p95"],
        "flatness": (
            low["probe_p95"] / high["probe_p95"]
            if high["probe_p95"]
            else 0.0
        ),
        "peak_sessions": high["peak_sessions"],
        "sustained_target": high["peak_sessions"] >= sessions,
        "rows_ok": low["rows_ok"] and high["rows_ok"],
        "tasks_clean": leaked == [],
        "threads_clean": threads_clean,
    }


def _percentile(values: list[float], fraction: float) -> float:
    from repro.cjoin.stats import percentile

    return percentile(values, fraction)


def _session_report(measured: dict) -> str:
    return (
        f"async sessions: probe p95 {measured['p95_low'] * 1e3:.1f} ms "
        f"@ {measured['sessions_low']} held sessions vs "
        f"{measured['p95_high'] * 1e3:.1f} ms @ {measured['sessions']} "
        f"held sessions over {measured['pool_size']} sockets; flatness "
        f"{measured['flatness']:.2f}; ramp p95 "
        f"{measured['ramp_p95_low'] * 1e3:.1f} / "
        f"{measured['ramp_p95_high'] * 1e3:.1f} ms; peak open "
        f"{measured['peak_sessions']}; rows ok: {measured['rows_ok']}, "
        f"tasks clean: {measured['tasks_clean']}, threads clean: "
        f"{measured['threads_clean']}"
    )


def _session_gates_pass(measured: dict) -> bool:
    return (
        measured["rows_ok"]
        and measured["sustained_target"]
        and measured["tasks_clean"]
        and measured["threads_clean"]
    )


def _report(measured: dict) -> str:
    return (
        f"remote concurrency: {measured['clients']} clients x "
        f"{measured['queries'] // measured['clients']} queries; "
        f"remote wall {measured['remote_wall']:.2f}s "
        f"(p95 {measured['remote_p95'] * 1e3:.1f} ms) vs in-process "
        f"{measured['inprocess_wall']:.2f}s "
        f"(p95 {measured['inprocess_p95'] * 1e3:.1f} ms); "
        f"wire overhead x{measured['wire_overhead']:.2f}; "
        f"remote ok: {measured['remote_ok']}, in-process ok: "
        f"{measured['inprocess_ok']}, threads clean: "
        f"{measured['threads_clean']}"
    )


def _gates_pass(measured: dict) -> bool:
    return (
        measured["remote_ok"]
        and measured["inprocess_ok"]
        and measured["threads_clean"]
    )


def test_remote_clients_match_in_process():
    """N socket clients produce reference-equal rows, leak nothing."""
    measured = measure_remote_concurrency(
        clients=4, queries_per_client=2, scale_factor=0.001
    )
    print()
    print(_report(measured))
    assert measured["remote_ok"], "remote rows diverged from reference"
    assert measured["inprocess_ok"], "in-process rows diverged"
    assert measured["threads_clean"], "server left threads behind"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--clients", type=int, default=DEFAULT_CLIENTS)
    parser.add_argument(
        "--queries-per-client",
        type=int,
        default=DEFAULT_QUERIES_PER_CLIENT,
    )
    parser.add_argument("--sessions", type=int, default=DEFAULT_SESSIONS)
    parser.add_argument(
        "--sessions-low", type=int, default=DEFAULT_SESSIONS_LOW
    )
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.smoke:
        measured = measure_remote_concurrency(
            clients=4, queries_per_client=2, scale_factor=0.001
        )
    else:
        measured = measure_remote_concurrency(
            clients=args.clients,
            queries_per_client=args.queries_per_client,
        )
    print(_report(measured))
    # the session-scaling pass (EXPERIMENTS.md section 9); smoke keeps
    # CI fast with scaled-down rungs over the same code path
    sessions = 128 if args.smoke else args.sessions
    sessions_low = 32 if args.smoke else args.sessions_low
    scaled = measure_async_sessions(
        sessions=sessions, sessions_low=sessions_low
    )
    print(_session_report(scaled))
    ok = _gates_pass(measured) and _session_gates_pass(scaled)
    print("remote concurrency bench ok" if ok else
          "remote concurrency bench FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
