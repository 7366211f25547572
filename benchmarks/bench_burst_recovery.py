"""Burst recovery with the adaptive right-sizing controller.

The acceptance gate for the controller (DESIGN.md section 13,
EXPERIMENTS.md section 10): a warehouse deliberately configured tight
(admission bound 4) faces a Poisson arrival stream that runs low-rate,
jumps to 8x for a burst, and falls back.  Run once *static* (the tight
config, no controller) and once *adaptive* (same initial config plus
:class:`~repro.engine.autotune.AutoTuner` at a fast cadence), over the
same seeded arrival schedule.

``burst_recovery_ratio = p95(static) / p95(adaptive)`` is the
headline.  Note the direction: scripts/check_bench_regression.py
treats every tracked ratio as higher-is-better, so the ratio is
*static over adaptive* — 1.0 means the controller at least matched
the static config, above 1.0 it beat it by relieving the admission
bottleneck mid-burst.  The pytest gate requires the controller to
never be meaningfully worse (>= 0.8), a non-empty decision audit, a
visibly grown admission bound, and reference-equal results from the
warehouse that resized mid-run.

``--smoke`` runs a seconds-scale pass (burst -> decisions -> clean
stop) for the CI smoke gate::

    PYTHONPATH=src python benchmarks/bench_burst_recovery.py --smoke
"""

from __future__ import annotations

import random
import sys
import threading
import time

from repro.engine import Warehouse
from repro.engine.autotune import TuningPolicy
from repro.query.aggregates import AggregateSpec
from repro.query.predicate import Between
from repro.query.reference import evaluate_star_query
from repro.query.star import ColumnRef, StarQuery
from repro.tuning import TuningConfig

ARRIVAL_SEED = 23
SCALE_FACTOR = 0.005
#: queries in the (low, burst, recovery) phases
PHASES = (8, 32, 8)
LOW_RATE_HZ = 8.0
BURST_RATIO = 8.0
#: the deliberately tight starting admission bound both runs share —
#: low enough that the 8x burst queues behind it, so the static run
#: pays admission waits the controller relieves by growing the bound
TIGHT_IN_FLIGHT = 2
RESULT_TIMEOUT = 120.0
#: the gate: the controller must not be meaningfully worse than static
REQUIRED_RATIO = 0.8

YEAR_WINDOWS = [
    (1992, 1998), (1993, 1995), (1994, 1997), (1992, 1994),
    (1995, 1998), (1993, 1997), (1992, 1996), (1996, 1998),
]


def burst_queries(phases: tuple[int, int, int] = PHASES) -> list[StarQuery]:
    """A deterministic grouped-star mix spanning all three phases."""
    queries = []
    for index in range(sum(phases)):
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
                label=f"burst-{index}",
            )
        )
    return queries


def arrival_gaps(
    phases: tuple[int, int, int],
    low_rate_hz: float,
    burst_ratio: float,
    seed: int = ARRIVAL_SEED,
) -> list[float]:
    """One seeded low -> burst -> recovery inter-arrival schedule.

    Materialized once so the static and adaptive runs replay *exactly*
    the same arrival times — the runs differ only in the controller.
    """
    rng = random.Random(seed)
    gaps = []
    rates = (low_rate_hz, low_rate_hz * burst_ratio, low_rate_hz)
    for count, rate in zip(phases, rates):
        gaps.extend(rng.expovariate(rate) for _ in range(count))
    return gaps


def run_burst(
    queries: list[StarQuery],
    gaps: list[float],
    adaptive: bool,
    scale_factor: float = SCALE_FACTOR,
    controller_interval: float = 0.02,
    tight: int = TIGHT_IN_FLIGHT,
) -> dict:
    """One burst run; ``adaptive`` enables the controller.

    Returns the latency summary, collected rows, the final tuning, and
    the controller's decision audit (empty list for the static run).
    The controller policy floors the bound at its starting value, so
    the adaptive run can only relieve the burst, never under-cut the
    static config it is compared against.
    """
    warehouse = Warehouse.from_ssb(
        scale_factor=scale_factor,
        seed=31,
        tuning=TuningConfig(max_in_flight=tight),
    )
    threads_before = threading.active_count()
    service = warehouse.start_service()
    if adaptive:
        warehouse.enable_autotuning(
            policy=TuningPolicy(
                min_in_flight=tight,
                max_in_flight=64,
                cooldown_seconds=0.05,
                shrink_patience=8,
            ),
            interval=controller_interval,
        )
    try:
        handles = []
        for query, gap in zip(queries, gaps):
            time.sleep(gap)
            handles.append(warehouse.submit(query))
        results = [
            handle.results(timeout=RESULT_TIMEOUT) for handle in handles
        ]
    finally:
        decisions = [
            decision.as_dict()
            for decision in (
                warehouse.autotuner.decisions if warehouse.autotuner else []
            )
        ]
        final_tuning = warehouse.tuning
        warehouse.disable_autotuning()
        warehouse.stop_service()
    # the controller and driver threads must both be gone
    deadline = time.monotonic() + 5.0
    while (
        threading.active_count() > threads_before
        and time.monotonic() < deadline
    ):
        time.sleep(0.01)
    return {
        "results": results,
        "summary": service.latency_summary(),
        "decisions": decisions,
        "final_max_in_flight": final_tuning.max_in_flight,
        "threads_clean": threading.active_count() <= threads_before,
    }


def measure_burst_recovery(
    scale_factor: float = SCALE_FACTOR,
    phases: tuple[int, int, int] = PHASES,
) -> dict:
    """Static-vs-adaptive burst comparison; the headline ratio.

    ``ratio`` is p95(static)/p95(adaptive) over the full run (the
    burst dominates the tail, so whole-run p95 is the burst story);
    ``identical`` covers both runs against the reference evaluator.
    """
    queries = burst_queries(phases)
    gaps = arrival_gaps(phases, LOW_RATE_HZ, BURST_RATIO)
    static = run_burst(queries, gaps, adaptive=False, scale_factor=scale_factor)
    adaptive = run_burst(queries, gaps, adaptive=True, scale_factor=scale_factor)
    reference = Warehouse.from_ssb(scale_factor=scale_factor, seed=31)
    expected = [
        evaluate_star_query(query, reference.catalog) for query in queries
    ]
    p95_static = static["summary"]["p95"]
    p95_adaptive = adaptive["summary"]["p95"]
    return {
        "static": static,
        "adaptive": adaptive,
        "ratio": p95_static / p95_adaptive if p95_adaptive > 0 else 0.0,
        "identical": (
            static["results"] == expected
            and adaptive["results"] == expected
        ),
        # the bound may shrink back during recovery, so "resized" means
        # some action was applied, not that the final value differs
        "resized": any(d["applied"] for d in adaptive["decisions"]),
    }


def _format_run(tag: str, run: dict) -> str:
    summary = run["summary"]
    applied = sum(1 for d in run["decisions"] if d["applied"])
    return (
        f"{tag}: p50 {summary['p50'] * 1e3:.1f} ms, "
        f"p95 {summary['p95'] * 1e3:.1f} ms, "
        f"wait p95 {summary['wait_p95'] * 1e3:.1f} ms, "
        f"final bound {run['final_max_in_flight']}, "
        f"{applied}/{len(run['decisions'])} decisions applied"
    )


def test_burst_recovery_adaptive_not_worse():
    """Mid-burst resizing must audit, grow, match results, not regress."""
    measured = measure_burst_recovery()
    print()
    print(_format_run("static  ", measured["static"]))
    print(_format_run("adaptive", measured["adaptive"]))
    print(f"burst_recovery_ratio p95(static)/p95(adaptive): "
          f"{measured['ratio']:.2f}")
    assert measured["identical"], "burst results diverged from reference"
    assert measured["adaptive"]["decisions"], "controller made no decisions"
    assert measured["resized"], "controller never moved the admission bound"
    assert measured["static"]["threads_clean"], "static run leaked threads"
    assert measured["adaptive"]["threads_clean"], "adaptive run leaked threads"
    assert measured["ratio"] >= REQUIRED_RATIO, (
        f"controller made the burst worse: ratio {measured['ratio']:.2f} "
        f"< {REQUIRED_RATIO}"
    )


def _smoke() -> int:
    """Seconds-scale CI pass: burst, decisions, clean stop."""
    # the burst must outrun a bound of 1 for several controller ticks
    # whatever the host's speed: 16 arrivals about 1 ms apart against a
    # scan cycle of a few ms (a lone query is admitted within one batch
    # now, so the old 8 arrivals 4 ms apart no longer reliably queue)
    phases = (2, 16, 2)
    queries = burst_queries(phases)
    gaps = arrival_gaps(phases, low_rate_hz=32.0, burst_ratio=32.0)
    run = run_burst(
        queries, gaps, adaptive=True, scale_factor=0.001,
        controller_interval=0.01, tight=1,
    )
    reference = Warehouse.from_ssb(scale_factor=0.001, seed=31)
    expected = [
        evaluate_star_query(query, reference.catalog) for query in queries
    ]
    print(_format_run("smoke", run))
    if run["results"] != expected:
        print("FAIL: smoke results diverged from the reference evaluator")
        return 1
    if not run["decisions"]:
        print("FAIL: controller made no decisions under the smoke burst")
        return 1
    if not run["threads_clean"]:
        print("FAIL: smoke run leaked threads")
        return 1
    print("burst-recovery smoke ok")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv == ["--smoke"]:
        return _smoke()
    if argv:
        print(f"unknown arguments {argv}; expected --smoke or nothing")
        return 2
    measured = measure_burst_recovery()
    print(_format_run("static  ", measured["static"]))
    print(_format_run("adaptive", measured["adaptive"]))
    print(f"burst_recovery_ratio: {measured['ratio']:.2f}")
    print(f"identical to reference: {measured['identical']}")
    return 0 if measured["identical"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
