"""Run-time statistics for the CJOIN pipeline.

Three consumers:

* the Pipeline Manager's on-line optimizer, which orders Filters by
  their *observed* drop rates (section 3.4);
* tests and micro-benchmarks, which assert structural properties —
  e.g. at most K probes per fact tuple regardless of the number of
  concurrent queries (section 3.2.3);
* the always-on service layer (DESIGN.md section 9), which reports
  per-query latency/predictability telemetry: admission wait, scan
  cycles to completion, and end-to-end response time, summarized as
  p50/p95/p99 percentiles over the :data:`LATENCY_WINDOW` most recent
  queries beside an exact running count — so a ``stats()`` call costs
  the same after a million queries as after a thousand.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

#: Per-query latency records kept (and summarized) at any moment.  An
#: always-on service completes queries without end; the records are a
#: ring like autotune's decision audit, and only ``count`` is cumulative.
LATENCY_WINDOW = 1024


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (0.0 when empty).

    ``fraction`` is in (0, 1]; e.g. 0.95 for p95.  Nearest-rank keeps
    the result an actually-observed latency, which is what open-loop
    benchmark reports conventionally quote.
    """
    if not values:
        return 0.0
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    ordered = sorted(values)
    rank = math.ceil(fraction * len(ordered))
    return ordered[max(rank, 1) - 1]


@dataclass(frozen=True)
class QueryLatencyRecord:
    """Per-query latency breakdown, recorded at finalization cleanup.

    The three timings decompose the paper's "predictable response
    time" claim: a query waits for admission (bounded by the service's
    ``max_in_flight``), then rides the continuous scan for about one
    cycle regardless of concurrency, so end-to-end latency stays flat
    as load grows.
    """

    query_id: int
    label: str | None
    #: seconds from handle creation (submission) to pipeline admission
    wait_seconds: float
    #: pipeline scan cycles elapsed while the query was registered
    #: (tuples scanned during its lifetime / fact-table rows; ~1.0 for
    #: a query that completes after one wrap of the continuous scan)
    scan_cycles: float
    #: seconds from submission to completion (end-to-end latency)
    latency_seconds: float
    #: queries already registered when this one was admitted; > 0
    #: means the admission was mid-scan, not at a drain boundary
    admitted_with_in_flight: int
    #: continuous-scan position the query started at
    scan_position_at_admission: int


@dataclass
class FilterStats:
    """Counters for one Filter, reset on each re-optimization window."""

    tuples_in: int = 0
    tuples_dropped: int = 0
    probes: int = 0
    probe_skips: int = 0

    @property
    def pass_rate(self) -> float:
        """Fraction of input tuples that survived (1.0 when idle)."""
        if self.tuples_in == 0:
            return 1.0
        return 1.0 - (self.tuples_dropped / self.tuples_in)

    @property
    def drop_rate(self) -> float:
        """Fraction of input tuples dropped."""
        if self.tuples_in == 0:
            return 0.0
        return self.tuples_dropped / self.tuples_in

    def reset(self) -> None:
        """Zero all counters (start of a new observation window)."""
        self.tuples_in = 0
        self.tuples_dropped = 0
        self.probes = 0
        self.probe_skips = 0


@dataclass
class PipelineStats:
    """Whole-pipeline counters since operator construction."""

    tuples_scanned: int = 0
    tuples_preprocessor_dropped: int = 0
    tuples_distributed: int = 0
    control_tuples: int = 0
    probes_total: int = 0
    probe_skips_total: int = 0
    queries_admitted: int = 0
    queries_completed: int = 0
    #: queries deregistered early by cancel() (DESIGN.md section 10)
    queries_cancelled: int = 0
    reoptimizations: int = 0
    #: dimension hash-table entries written by admission and cleanup
    #: (Algorithms 1 and 2): the sharing-side work, counted where it
    #: happens
    dim_entries_touched: int = 0
    #: snapshot visibility (DESIGN.md section 3), counted
    #: per scan run per distinct active snapshot id: runs the page's
    #: xmin/xmax bounds settled (all or none of the run visible)
    visibility_runs_uniform: int = 0
    #: runs that needed a per-row mask (a commit boundary or a delete
    #: inside), same unit
    visibility_runs_masked: int = 0
    filter_orders: list[tuple[str, ...]] = field(default_factory=list)
    #: finalized queries recorded since construction (exact, cumulative)
    latencies_recorded: int = 0
    #: the LATENCY_WINDOW most recent QueryLatencyRecords, oldest first
    latency_records: deque[QueryLatencyRecord] = field(
        default_factory=lambda: deque(maxlen=LATENCY_WINDOW)
    )

    def record_order(self, order: tuple[str, ...]) -> None:
        """Log a (re)ordering of the filter sequence."""
        if not self.filter_orders or self.filter_orders[-1] != order:
            self.filter_orders.append(order)

    def record_latency(self, record: QueryLatencyRecord) -> None:
        """Log one finalized query's latency breakdown."""
        self.latency_records.append(record)
        self.latencies_recorded += 1

    def recent_latency_records(
        self, limit: int = LATENCY_WINDOW
    ) -> list[QueryLatencyRecord]:
        """The ``limit`` most recent records, oldest first.

        A C-level copy, so it is a consistent snapshot even while the
        scan's thread appends.
        """
        return list(self.latency_records)[-limit:]

    def latency_summary(self) -> dict[str, float]:
        """p50/p95/p99 over the most recent per-query latencies.

        Returns a dict with ``count`` (every query recorded since
        construction), end-to-end percentiles (``p50``/``p95``/``p99``),
        admission-wait percentiles (``wait_p50``/``wait_p95``/
        ``wait_p99``), and the mean scan cycles to completion
        (``mean_scan_cycles``) — the percentiles and the mean over the
        :data:`LATENCY_WINDOW` most recent queries; zeros when no query
        has finished yet.
        """
        count = self.latencies_recorded
        records = self.recent_latency_records()
        latencies = [r.latency_seconds for r in records]
        waits = [r.wait_seconds for r in records]
        cycles = [r.scan_cycles for r in records]
        return {
            "count": float(count),
            "p50": percentile(latencies, 0.50),
            "p95": percentile(latencies, 0.95),
            "p99": percentile(latencies, 0.99),
            "wait_p50": percentile(waits, 0.50),
            "wait_p95": percentile(waits, 0.95),
            "wait_p99": percentile(waits, 0.99),
            "mean_scan_cycles": (
                sum(cycles) / len(cycles) if cycles else 0.0
            ),
        }

    @property
    def probes_per_tuple(self) -> float:
        """Average dimension probes per scanned fact tuple."""
        if self.tuples_scanned == 0:
            return 0.0
        return self.probes_total / self.tuples_scanned
