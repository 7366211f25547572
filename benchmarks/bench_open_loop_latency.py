"""Open-loop latency against the always-on warehouse service.

The acceptance gate for the service layer (DESIGN.md section 9,
EXPERIMENTS.md section 6): queries arrive at Poisson times while the
continuous scan runs in the background, every submission is admitted
mid-scan, and the paper's *predictability* claim holds — per-query
latency stays nearly flat as the arrival rate grows, because all
in-flight queries share the one scan.

Two arrival regimes over the same seeded query mix:

* **low** — mean inter-arrival well above the scan-cycle time, so the
  service is mostly single-query;
* **high** — 8x the low arrival rate, so a backlog forms and many
  queries ride the scan together.

``open_loop_flatness = p95(low) / p95(high)`` is the headline ratio:
1.0 is perfectly flat, a query-at-a-time engine degrades toward 1/8.
The pytest gate requires >= 0.2 (latency grows < 5x under 8x load)
and byte-identical results against the reference evaluator.
``measure_open_loop`` also feeds the ``open_loop_flatness`` ratio
tracked by scripts/check_bench_regression.py; ``--smoke`` runs a
seconds-scale arrival stream (start -> mid-scan admission -> clean
stop) for the CI smoke gate::

    PYTHONPATH=src python benchmarks/bench_open_loop_latency.py --smoke
"""

from __future__ import annotations

import random
import sys
import time

from repro.engine import Warehouse
from repro.tuning import TuningConfig
from repro.query.aggregates import AggregateSpec
from repro.query.predicate import Between
from repro.query.reference import evaluate_star_query
from repro.query.star import ColumnRef, StarQuery

ARRIVAL_SEED = 17
SCALE_FACTOR = 0.005
QUERIES_PER_RUN = 32
#: mean arrivals per second in the low regime; the high regime is 8x
LOW_RATE_HZ = 4.0
RATE_RATIO = 8.0
MAX_IN_FLIGHT = 32
RESULT_TIMEOUT = 120.0
REQUIRED_FLATNESS = 0.2

#: (first year, last year) windows cycled across the arrival stream;
#: varied widths keep filter predicates (and admission work) diverse.
YEAR_WINDOWS = [
    (1992, 1998), (1993, 1995), (1994, 1997), (1992, 1994),
    (1995, 1998), (1993, 1997), (1992, 1996), (1996, 1998),
]


def open_loop_queries(count: int = QUERIES_PER_RUN) -> list[StarQuery]:
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
                label=f"open-loop-{index}",
            )
        )
    return queries


def run_open_loop(
    queries: list[StarQuery],
    arrival_rate_hz: float,
    scale_factor: float = SCALE_FACTOR,
    seed: int = ARRIVAL_SEED,
) -> dict:
    """One open-loop run: Poisson arrivals against a live service.

    Builds a fresh warehouse (fresh telemetry), starts the background
    driver, submits every query at seeded exponential inter-arrival
    gaps, blocks on all results, and stops the service cleanly.
    Returns the latency summary plus the collected result rows and the
    count of mid-scan admissions.
    """
    warehouse = Warehouse.from_ssb(
        scale_factor=scale_factor,
        seed=31,
        tuning=TuningConfig(max_in_flight=MAX_IN_FLIGHT),
    )
    rng = random.Random(seed)
    service = warehouse.start_service()
    try:
        handles = []
        for query in queries:
            time.sleep(rng.expovariate(arrival_rate_hz))
            handles.append(warehouse.submit(query))
        results = [handle.results(timeout=RESULT_TIMEOUT) for handle in handles]
    finally:
        warehouse.stop_service()
    summary = service.latency_summary()
    mid_scan = sum(
        1 for record in service.latency_records
        if record.admitted_with_in_flight > 0
    )
    return {
        "arrival_rate_hz": arrival_rate_hz,
        "results": results,
        "summary": summary,
        "mid_scan_admissions": mid_scan,
        "queries": len(handles),
    }


def measure_open_loop(
    scale_factor: float = SCALE_FACTOR,
    count: int = QUERIES_PER_RUN,
    low_rate_hz: float = LOW_RATE_HZ,
    rate_ratio: float = RATE_RATIO,
) -> dict:
    """Low-vs-high arrival-rate comparison; the flatness headline.

    Returns ``low``/``high`` run dicts, the ``flatness`` ratio
    (p95 low / p95 high), and ``identical`` — whether both runs match
    the reference evaluator on every query.
    """
    queries = open_loop_queries(count)
    low = run_open_loop(queries, low_rate_hz, scale_factor)
    high = run_open_loop(queries, low_rate_hz * rate_ratio, scale_factor)
    reference_warehouse = Warehouse.from_ssb(scale_factor=scale_factor, seed=31)
    expected = [
        evaluate_star_query(query, reference_warehouse.catalog)
        for query in queries
    ]
    identical = low["results"] == expected and high["results"] == expected
    p95_low = low["summary"]["p95"]
    p95_high = high["summary"]["p95"]
    return {
        "low": low,
        "high": high,
        "flatness": p95_low / p95_high if p95_high > 0 else 0.0,
        "identical": identical,
    }


def _format_run(tag: str, run: dict) -> str:
    summary = run["summary"]
    return (
        f"{tag}: rate {run['arrival_rate_hz']:.1f}/s, "
        f"{run['queries']} queries, "
        f"p50 {summary['p50'] * 1e3:.1f} ms, "
        f"p95 {summary['p95'] * 1e3:.1f} ms, "
        f"p99 {summary['p99'] * 1e3:.1f} ms, "
        f"wait p95 {summary['wait_p95'] * 1e3:.1f} ms, "
        f"{run['mid_scan_admissions']}/{run['queries']} mid-scan"
    )


def test_open_loop_latency_flat():
    """8x the arrival rate must cost < 5x the p95 latency."""
    measured = measure_open_loop()
    print()
    print(_format_run("low", measured["low"]))
    print(_format_run("high", measured["high"]))
    print(f"flatness p95(low)/p95(high): {measured['flatness']:.2f}")
    assert measured["identical"], "service results diverged from reference"
    assert measured["flatness"] >= REQUIRED_FLATNESS, (
        f"latency not flat: p95 grew "
        f"{1.0 / max(measured['flatness'], 1e-9):.1f}x under "
        f"{RATE_RATIO:.0f}x load"
    )


def _smoke() -> int:
    """Seconds-scale CI pass: arrivals, mid-scan admission, clean stop."""
    queries = open_loop_queries(8)
    run = run_open_loop(
        queries, arrival_rate_hz=64.0, scale_factor=0.001
    )
    reference = Warehouse.from_ssb(scale_factor=0.001, seed=31)
    expected = [
        evaluate_star_query(query, reference.catalog) for query in queries
    ]
    print(_format_run("smoke", run))
    if run["results"] != expected:
        print("FAIL: smoke results diverged from the reference evaluator")
        return 1
    if run["summary"]["count"] < len(queries):
        print("FAIL: smoke run lost latency records")
        return 1
    print("open-loop service smoke ok")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv == ["--smoke"]:
        return _smoke()
    if argv:
        print(f"unknown arguments {argv}; expected --smoke or nothing")
        return 2
    measured = measure_open_loop()
    print(_format_run("low", measured["low"]))
    print(_format_run("high", measured["high"]))
    print(f"flatness p95(low)/p95(high): {measured['flatness']:.2f}")
    print(f"identical to reference: {measured['identical']}")
    return 0 if measured["identical"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
