"""Process-parallel sharded drain vs the serial batched drain.

The acceptance gate for the process backend (DESIGN.md section 8): on
a 4-core-or-better host, draining a distributor-heavy 24-query SSB
workload over 4 fact shards must be at least 2x faster wall-clock than
the serial batched drain, while producing identical results.  On hosts
with fewer than 4 CPUs the speedup test is *skipped* (the equivalence
tests in tests/test_parallel_equivalence.py still run everywhere).

The workload shape matters: shard parallelism amortizes scan and
distributor work, while the coordinator pays per-group merge costs.
The gate therefore uses group-light, survivor-heavy queries (GROUP BY
d_year — at most 7 groups — over wide year windows), the shape where
data parallelism should shine; see EXPERIMENTS.md for the record.

``measure_scaleup`` is also invoked by scripts/check_bench_regression.py
to compare the achieved speedup ratio against BENCH_baseline.json.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.cjoin import CJoinOperator, ExecutorConfig, execute_process_parallel
from repro.query.aggregates import AggregateSpec
from repro.query.predicate import Between
from repro.query.star import ColumnRef, StarQuery
from repro.ssb.generator import load_ssb
from repro.storage.buffer import BufferPool

WORKERS = 4
CONCURRENT_QUERIES = 24
SCALE_FACTOR = 0.02
BATCH_SIZE = 1024
TIMING_ROUNDS = 3
REQUIRED_SPEEDUP = 2.0

#: (first year, last year) windows cycled across the workload; wide
#: windows keep most fact tuples alive into the Distributor, which is
#: the work that shards actually parallelize.
YEAR_WINDOWS = [
    (1992, 1995), (1993, 1996), (1994, 1997), (1995, 1998),
    (1992, 1998), (1993, 1995), (1994, 1998), (1992, 1996),
]


def scaleup_workload(count: int = CONCURRENT_QUERIES) -> list[StarQuery]:
    """Group-light, survivor-heavy star queries over the date dimension."""
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
                    AggregateSpec("avg", "lineorder", "lo_quantity"),
                    AggregateSpec("min", "lineorder", "lo_extendedprice"),
                    AggregateSpec("max", "lineorder", "lo_extendedprice"),
                    AggregateSpec("count"),
                ],
                label=f"scaleup-{index}",
            )
        )
    return queries


def _serial_drain_seconds(catalog, star, queries):
    operator = CJoinOperator(
        catalog,
        star,
        buffer_pool=BufferPool(1024),
        executor_config=ExecutorConfig(batch_size=BATCH_SIZE),
    )
    handles = [operator.submit(query) for query in queries]
    started = time.perf_counter()
    operator.run_until_drained()
    elapsed = time.perf_counter() - started
    return elapsed, [handle.results() for handle in handles]


def measure_scaleup(
    workers: int = WORKERS,
    scale_factor: float = SCALE_FACTOR,
    rounds: int = TIMING_ROUNDS,
) -> dict:
    """Best-of-``rounds`` serial vs parallel drain comparison.

    Returns a dict with ``serial_seconds``, ``parallel_seconds``,
    ``speedup``, ``workers``, and ``identical``.  The parallel timing
    covers the whole sharded drain — worker admission, shard scans,
    partial-state transfer, and the coordinator merge — while the
    serial timing starts post-admission (admission code is shared, and
    drain-only, like ``python -m repro.bench --profile``).
    """
    catalog, star = load_ssb(scale_factor=scale_factor, seed=31)
    queries = scaleup_workload()
    serial_best = float("inf")
    parallel_best = float("inf")
    serial_results = parallel_results = None
    for _ in range(rounds):
        elapsed, serial_results = _serial_drain_seconds(
            catalog, star, queries
        )
        serial_best = min(serial_best, elapsed)
        started = time.perf_counter()
        parallel_results = execute_process_parallel(
            catalog,
            star,
            queries,
            workers=workers,
            batch_size=BATCH_SIZE,
        )
        parallel_best = min(parallel_best, time.perf_counter() - started)
    return {
        "workers": workers,
        "serial_seconds": serial_best,
        "parallel_seconds": parallel_best,
        "speedup": serial_best / parallel_best,
        "identical": parallel_results == serial_results,
    }


@pytest.mark.skipif(
    (os.cpu_count() or 1) < WORKERS,
    reason=f"scale-up gate needs >= {WORKERS} CPUs",
)
def test_parallel_scaleup_at_4_workers():
    """4 shard workers drain >= 2x faster than the serial drain."""
    measured = measure_scaleup()
    print(
        f"\n{CONCURRENT_QUERIES} queries, sf={SCALE_FACTOR}, "
        f"{measured['workers']} workers: serial "
        f"{measured['serial_seconds'] * 1e3:.0f} ms, parallel "
        f"{measured['parallel_seconds'] * 1e3:.0f} ms, speedup "
        f"{measured['speedup']:.2f}x"
    )
    assert measured["identical"]
    assert measured["speedup"] >= REQUIRED_SPEEDUP, (
        f"parallel drain only {measured['speedup']:.2f}x faster "
        f"(serial {measured['serial_seconds']:.3f}s vs parallel "
        f"{measured['parallel_seconds']:.3f}s)"
    )


def test_scaleup_workload_results_identical_everywhere():
    """The gate's workload itself is equivalence-checked on any host.

    Runs a miniature instance (so 1-core CI containers stay fast) —
    the timing assertion above is the only part that needs real cores.
    """
    catalog, star = load_ssb(scale_factor=0.002, seed=31)
    queries = scaleup_workload(6)
    _, serial_results = _serial_drain_seconds(catalog, star, queries)
    parallel_results = execute_process_parallel(
        catalog, star, queries, workers=WORKERS, batch_size=BATCH_SIZE
    )
    assert parallel_results == serial_results
