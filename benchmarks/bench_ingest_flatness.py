"""Query latency flatness while streaming ingest races the scan.

The acceptance gate for the streaming-ingest subsystem (DESIGN.md
section 15, EXPERIMENTS.md section 12): an open-loop query stream runs
against the always-on service while a producer appends >= 2k fact
rows per second through the bounded ingest buffer, applied at scan
boundaries under snapshot isolation.  The paper's predictability claim
must survive the writes — per-query latency stays nearly flat because
applies land between cycles and never tear an in-flight query's view.

Two runs over the same seeded query mix:

* **quiet** — the query stream alone, no ingest;
* **racing** — the same stream with the producer appending
  ``INGEST_RATE_ROWS`` rows per second in bounded batches.

``ingest_flatness = p95(quiet) / p95(racing)`` is the headline ratio:
1.0 means writes are free, and the pytest gate requires >= 0.5 (p95
within 2x of the no-ingest run).  The gate also requires *freshness*:
after an INGEST ack, a probe query admitted immediately observes the
acked rows within two scan cycles — the ack-means-applied contract.
``measure_ingest_flatness`` feeds the ``ingest_flatness`` ratio
tracked by scripts/check_bench_regression.py; ``--smoke`` runs a
seconds-scale race (stream -> acked batch -> visible probe -> clean
stop) for the CI smoke gate::

    PYTHONPATH=src python benchmarks/bench_ingest_flatness.py --smoke
"""

from __future__ import annotations

import random
import sys
import threading
import time

from repro.engine import Warehouse
from repro.errors import IngestBackpressureError
from repro.tuning import TuningConfig
from repro.query.aggregates import AggregateSpec
from repro.query.predicate import Between
from repro.query.reference import evaluate_star_query
from repro.query.star import ColumnRef, StarQuery

ARRIVAL_SEED = 23
SCALE_FACTOR = 0.005
QUERIES_PER_RUN = 24
ARRIVAL_RATE_HZ = 6.0
MAX_IN_FLIGHT = 32
RESULT_TIMEOUT = 120.0
#: appended fact rows per second in the racing run (the ISSUE floor is
#: 2k/s; the producer paces batches to hold this rate)
INGEST_RATE_ROWS = 2500
INGEST_BATCH_ROWS = 250
REQUIRED_FLATNESS = 0.5
#: scan cycles an acked batch may take to become visible to a probe
#: admitted right after the ack (the freshness half of the gate)
REQUIRED_VISIBILITY_CYCLES = 2.0

#: (first year, last year) windows cycled across the arrival stream.
YEAR_WINDOWS = [
    (1992, 1998), (1993, 1995), (1994, 1997), (1992, 1994),
    (1995, 1998), (1993, 1997), (1992, 1996), (1996, 1998),
]


def ingest_queries(count: int = QUERIES_PER_RUN) -> list[StarQuery]:
    """A deterministic mix of grouped star queries over the date dim."""
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
                label=f"ingest-race-{index}",
            )
        )
    return queries


def probe_query() -> StarQuery:
    """A full-window count: sees every committed fact row."""
    return StarQuery.build(
        "lineorder",
        dimension_predicates={"date": Between("d_year", 1992, 1998)},
        aggregates=[AggregateSpec("count")],
        label="ingest-probe",
    )


def _build_warehouse(scale_factor: float) -> Warehouse:
    """The racing substrate: MVCC on, vectorized execution."""
    return Warehouse.from_ssb(
        scale_factor=scale_factor,
        seed=31,
        enable_updates=True,
        tuning=TuningConfig(max_in_flight=MAX_IN_FLIGHT),
    )


class _Producer(threading.Thread):
    """Appends cloned fact rows at a paced rate until stopped.

    Rows are copies of existing lineorder rows, so every foreign key
    joins; back-pressure (a full buffer) backs off one batch interval
    and retries — exactly what a real producer does.
    """

    def __init__(self, warehouse: Warehouse, rows_per_second: float) -> None:
        super().__init__(name="ingest-producer", daemon=True)
        self.warehouse = warehouse
        self.interval = INGEST_BATCH_ROWS / rows_per_second
        self.template = warehouse.catalog.table(
            warehouse.star.fact.name
        ).all_rows()[:INGEST_BATCH_ROWS]
        self.tickets: list = []
        self.rows_offered = 0
        self.backpressure_events = 0
        self._halt = threading.Event()

    def run(self) -> None:
        next_send = time.monotonic()
        while not self._halt.is_set():
            batch = [
                self.template[index % len(self.template)]
                for index in range(INGEST_BATCH_ROWS)
            ]
            try:
                self.tickets.append(self.warehouse.ingest(fact_rows=batch))
                self.rows_offered += INGEST_BATCH_ROWS
            except IngestBackpressureError:
                self.backpressure_events += 1
            next_send += self.interval
            self._halt.wait(max(0.0, next_send - time.monotonic()))

    def stop(self, timeout: float = 10.0) -> None:
        self._halt.set()
        self.join(timeout)


def run_race(
    queries: list[StarQuery],
    arrival_rate_hz: float,
    scale_factor: float = SCALE_FACTOR,
    ingest_rows_per_second: float = 0.0,
    seed: int = ARRIVAL_SEED,
) -> dict:
    """One open-loop run, optionally racing a streaming producer.

    Builds a fresh MVCC warehouse (fresh telemetry), starts the
    background driver (whose cycle hook applies staged batches at scan
    boundaries), submits every query at seeded exponential
    inter-arrival gaps while the producer streams appends, blocks on
    all results, acks the tail of the producer's batches, and stops
    cleanly.  Returns the latency summary, the collected result rows,
    and the ingest telemetry.
    """
    warehouse = _build_warehouse(scale_factor)
    rng = random.Random(seed)
    service = warehouse.start_service()
    producer = None
    try:
        if ingest_rows_per_second > 0:
            producer = _Producer(warehouse, ingest_rows_per_second)
            producer.start()
        handles = []
        for query in queries:
            time.sleep(rng.expovariate(arrival_rate_hz))
            handles.append(warehouse.submit(query))
        results = [
            handle.results(timeout=RESULT_TIMEOUT) for handle in handles
        ]
        if producer is not None:
            producer.stop()
            for ticket in producer.tickets:
                ticket.result(timeout=RESULT_TIMEOUT)
        freshness = measure_freshness(warehouse)
        # every committed row is visible to a fresh snapshot, so a
        # final pass over the mutated dataset must equal the reference
        # evaluator run on the same (post-ingest) catalog
        final_handles = [warehouse.submit(query) for query in queries]
        final_results = [
            handle.results(timeout=RESULT_TIMEOUT)
            for handle in final_handles
        ]
    finally:
        if producer is not None:
            producer.stop()
        warehouse.stop_service()
    expected = [
        evaluate_star_query(query, warehouse.catalog) for query in queries
    ]
    ingest_stats = warehouse.stats()["ingest"]
    warehouse.close()
    return {
        "arrival_rate_hz": arrival_rate_hz,
        "results": results,
        "identical": final_results == expected,
        "summary": service.latency_summary(),
        "queries": len(handles),
        "rows_applied": ingest_stats["rows_applied"],
        "rows_per_second": ingest_stats["rows_per_second"],
        "backpressure_events": (
            0 if producer is None else producer.backpressure_events
        ),
        "visibility_cycles": freshness["visibility_cycles"],
        "probe_saw_rows": freshness["probe_saw_rows"],
    }


def measure_freshness(warehouse: Warehouse) -> dict:
    """Ack one batch, probe immediately, report the cycle lag.

    The INGEST ack means applied, so a probe admitted after the ack
    stamps a snapshot that already covers the batch; it must therefore
    count the new rows, and complete within the gate's two scan
    cycles of the ack.
    """
    probe = probe_query()
    before = warehouse.submit(probe).results(timeout=RESULT_TIMEOUT)
    batch = warehouse.catalog.table(warehouse.star.fact.name).all_rows()[:16]
    ticket = warehouse.ingest(fact_rows=batch)
    ticket.result(timeout=RESULT_TIMEOUT)
    acked_at = warehouse.cjoin.scan.cycles_completed
    after = warehouse.submit(probe).results(timeout=RESULT_TIMEOUT)
    done_at = warehouse.cjoin.scan.cycles_completed
    return {
        "visibility_cycles": done_at - acked_at,
        "probe_saw_rows": after[0][0] - before[0][0] == len(batch),
    }


def measure_ingest_flatness(
    scale_factor: float = SCALE_FACTOR,
    count: int = QUERIES_PER_RUN,
    arrival_rate_hz: float = ARRIVAL_RATE_HZ,
    ingest_rows_per_second: float = INGEST_RATE_ROWS,
) -> dict:
    """Quiet-vs-racing comparison; the flatness headline.

    Returns ``quiet``/``racing`` run dicts, the ``flatness`` ratio
    (p95 quiet / p95 racing), ``identical`` — whether both runs match
    the reference evaluator over their final datasets — and the racing
    run's freshness measurements.
    """
    queries = ingest_queries(count)
    quiet = run_race(queries, arrival_rate_hz, scale_factor)
    racing = run_race(
        queries,
        arrival_rate_hz,
        scale_factor,
        ingest_rows_per_second=ingest_rows_per_second,
    )
    p95_quiet = quiet["summary"]["p95"]
    p95_racing = racing["summary"]["p95"]
    return {
        "quiet": quiet,
        "racing": racing,
        "flatness": p95_quiet / p95_racing if p95_racing > 0 else 0.0,
        "identical": quiet["identical"] and racing["identical"],
    }


def _format_run(tag: str, run: dict) -> str:
    summary = run["summary"]
    return (
        f"{tag}: rate {run['arrival_rate_hz']:.1f}/s, "
        f"{run['queries']} queries, "
        f"p50 {summary['p50'] * 1e3:.1f} ms, "
        f"p95 {summary['p95'] * 1e3:.1f} ms, "
        f"{run['rows_applied']} rows applied "
        f"({run['rows_per_second']:.0f}/s, "
        f"{run['backpressure_events']} backpressure), "
        f"visible in {run['visibility_cycles']:.2f} cycles"
    )


def test_ingest_latency_flat():
    """Streaming >= 2k rows/s must cost < 2x the quiet p95, and acked
    rows must be visible within two scan cycles."""
    measured = measure_ingest_flatness()
    print()
    print(_format_run("quiet", measured["quiet"]))
    print(_format_run("racing", measured["racing"]))
    print(f"flatness p95(quiet)/p95(racing): {measured['flatness']:.2f}")
    racing = measured["racing"]
    assert measured["identical"], "results diverged from reference"
    assert racing["rows_applied"] >= INGEST_BATCH_ROWS, (
        "the producer applied no batches; the race never happened"
    )
    assert racing["probe_saw_rows"], "acked rows invisible to the probe"
    assert racing["visibility_cycles"] <= REQUIRED_VISIBILITY_CYCLES, (
        f"acked rows took {racing['visibility_cycles']:.2f} scan cycles "
        f"to become visible (gate: {REQUIRED_VISIBILITY_CYCLES})"
    )
    assert measured["flatness"] >= REQUIRED_FLATNESS, (
        f"latency not flat under ingest: p95 grew "
        f"{1.0 / max(measured['flatness'], 1e-9):.1f}x"
    )


def _smoke() -> int:
    """Seconds-scale CI pass: race, ack, visible probe, clean stop."""
    queries = ingest_queries(6)
    run = run_race(
        queries,
        arrival_rate_hz=64.0,
        scale_factor=0.001,
        ingest_rows_per_second=2000.0,
    )
    print(_format_run("smoke", run))
    if not run["identical"]:
        print("FAIL: smoke results diverged from the reference evaluator")
        return 1
    if run["rows_applied"] < INGEST_BATCH_ROWS:
        print("FAIL: smoke run applied no ingest batches")
        return 1
    if not run["probe_saw_rows"]:
        print("FAIL: acked rows were not visible to the probe")
        return 1
    if run["visibility_cycles"] > REQUIRED_VISIBILITY_CYCLES:
        print(
            f"FAIL: acked rows took {run['visibility_cycles']:.2f} "
            f"cycles to become visible"
        )
        return 1
    print("ingest flatness smoke ok")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv == ["--smoke"]:
        return _smoke()
    if argv:
        print(f"unknown arguments {argv}; expected --smoke or nothing")
        return 2
    measured = measure_ingest_flatness()
    print(_format_run("quiet", measured["quiet"]))
    print(_format_run("racing", measured["racing"]))
    print(f"flatness p95(quiet)/p95(racing): {measured['flatness']:.2f}")
    print(f"identical to reference: {measured['identical']}")
    return 0 if measured["identical"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
