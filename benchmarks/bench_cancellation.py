"""Cancellation under a live service (EXPERIMENTS.md section 7).

Measures what the client layer promises (DESIGN.md section 10):
cancelling one of N in-flight queries frees its slot within one scan
cycle and perturbs nothing else.  A live service admits N concurrent
queries mid-scan, a configurable fraction of them is cancelled partway
through the cycle, and the benchmark records *slot-free latency* —
wall-clock from ``cancel()`` returning to the service's in-flight
count dropping (the freed slot being observable, and therefore
reusable by the admission-queue pump).

Gates: every surviving query's results equal the reference
evaluator's, every cancelled handle raises ``CancelledError``, and the
follow-up queries submitted after the cancellations admit into the
freed slots without growing ``max_in_flight``.

Knobs::

    PYTHONPATH=src python benchmarks/bench_cancellation.py \
        [--queries N] [--cancel-fraction F] [--smoke]
"""

from __future__ import annotations

import argparse
import time

from repro.engine import Warehouse
from repro.errors import CancelledError
from repro.query.aggregates import AggregateSpec
from repro.query.predicate import Between
from repro.query.reference import evaluate_star_query
from repro.query.star import ColumnRef, StarQuery
from repro.tuning import TuningConfig

SCALE_FACTOR = 0.005
DEFAULT_QUERIES = 16
DEFAULT_CANCEL_FRACTION = 0.25
RESULT_TIMEOUT = 120.0
SLOT_FREE_TIMEOUT = 30.0

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
                label=f"cancel-bench-{index}",
            )
        )
    return queries


def _percentile(values: list[float], fraction: float) -> float:
    from repro.cjoin.stats import percentile

    return percentile(values, fraction)


def measure_cancellation(
    count: int = DEFAULT_QUERIES,
    cancel_fraction: float = DEFAULT_CANCEL_FRACTION,
    scale_factor: float = SCALE_FACTOR,
) -> dict:
    """One measured pass; returns latencies, gates, and counts."""
    if not 0.0 < cancel_fraction < 1.0:
        raise ValueError(
            f"cancel_fraction must be in (0, 1), got {cancel_fraction}"
        )
    queries = workload(count)
    cancel_count = max(1, int(count * cancel_fraction))
    victims = set(range(0, count, max(1, count // cancel_count)))
    victims = set(sorted(victims)[:cancel_count])

    warehouse = Warehouse.from_ssb(
        scale_factor=scale_factor,
        seed=31,
        tuning=TuningConfig(max_in_flight=count),
    )
    service = warehouse.start_service()
    slot_free_seconds: list[float] = []
    cancelled_ok = 0
    try:
        handles = [warehouse.submit(query) for query in queries]
        for index in sorted(victims):
            in_flight_before = service.in_flight
            started = time.perf_counter()
            if not handles[index].cancel():
                continue  # completed first; nothing to measure
            deadline = started + SLOT_FREE_TIMEOUT
            while (
                service.in_flight >= in_flight_before
                and time.perf_counter() < deadline
            ):
                time.sleep(0.0005)
            slot_free_seconds.append(time.perf_counter() - started)
            cancelled_ok += 1
        # the freed slots must be reusable: a follow-up wave admits
        # and completes without growing max_in_flight
        followups = [
            warehouse.submit(query) for query in workload(cancelled_ok)
        ]
        survivor_results = [
            handle.results(timeout=RESULT_TIMEOUT)
            for index, handle in enumerate(handles)
            if not handle.cancelled
        ]
        followup_results = [
            handle.results(timeout=RESULT_TIMEOUT) for handle in followups
        ]
        raised = 0
        for index, handle in enumerate(handles):
            if not handle.cancelled:
                continue
            try:
                handle.results()
            except CancelledError:
                raised += 1
    finally:
        warehouse.stop_service()

    expected = {
        label: evaluate_star_query(query, warehouse.catalog)
        for label, query in zip(
            (query.label for query in queries), queries
        )
    }
    survivors = [
        query.label
        for handle, query in zip(handles, queries)
        if not handle.cancelled
    ]
    survivors_ok = survivor_results == [
        expected[label] for label in survivors
    ]
    followups_ok = followup_results == [
        expected[query.label] for query in workload(cancelled_ok)
    ]
    return {
        "queries": count,
        "cancelled": cancelled_ok,
        #: at least one victim must actually have been torn down
        #: mid-scan; otherwise the run proved nothing about cancel()
        "cancel_exercised": cancelled_ok >= 1,
        "cancelled_raise": raised == cancelled_ok,
        "survivors_ok": survivors_ok,
        "followups_ok": followups_ok,
        "slot_free_p50": _percentile(slot_free_seconds, 0.50),
        "slot_free_p95": _percentile(slot_free_seconds, 0.95),
        "summary": service.latency_summary(),
    }


def _report(measured: dict) -> str:
    summary = measured["summary"]
    return (
        f"cancel bench: {measured['cancelled']}/{measured['queries']} "
        f"cancelled, slot-free p50 "
        f"{measured['slot_free_p50'] * 1e3:.1f} ms, p95 "
        f"{measured['slot_free_p95'] * 1e3:.1f} ms; survivor p95 "
        f"{summary['p95'] * 1e3:.1f} ms; survivors ok: "
        f"{measured['survivors_ok']}, follow-ups ok: "
        f"{measured['followups_ok']}, cancelled raise: "
        f"{measured['cancelled_raise']}"
    )


def test_cancellation_frees_slots_cleanly():
    """Survivors reference-equal, cancels raise, slots reused."""
    measured = measure_cancellation(count=8, scale_factor=0.002)
    print()
    print(_report(measured))
    assert measured["cancel_exercised"], (
        "no victim was cancelled mid-scan; the run was vacuous"
    )
    assert measured["survivors_ok"], "survivor results diverged"
    assert measured["followups_ok"], "freed slots were not reusable"
    assert measured["cancelled_raise"], "cancelled handle returned rows"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--queries", type=int, default=DEFAULT_QUERIES)
    parser.add_argument(
        "--cancel-fraction", type=float, default=DEFAULT_CANCEL_FRACTION
    )
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.smoke:
        # 0.002 keeps each scan cycle long enough that victims are
        # still mid-scan when cancel() lands, so the pass cannot be
        # vacuous on a fast machine
        measured = measure_cancellation(count=6, scale_factor=0.002)
    else:
        measured = measure_cancellation(
            count=args.queries, cancel_fraction=args.cancel_fraction
        )
    print(_report(measured))
    ok = (
        measured["cancel_exercised"]
        and measured["survivors_ok"]
        and measured["followups_ok"]
        and measured["cancelled_raise"]
    )
    print("cancellation bench ok" if ok else "cancellation bench FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
