"""Workloads, metrics and fixed parameters of the layered benchmark.

One place for every name the benchmark's contract uses: the six
workloads (four of them gated by the driver), the end-to-end metrics
with their bounds, and the per-layer metrics.  ``BENCHMARK.json`` at
the repository root restates the names for the driver;
``test_layered.py`` asserts the two agree.  README.md beside this file
explains every entry.
"""

from __future__ import annotations

from dataclasses import dataclass

#: data is fixed; only the query/ingest inputs vary with ``--seed``
DATA_SEED = 42
SCALE_FACTOR = 0.02
SMOKE_SCALE_FACTOR = 0.002
#: paper section 6.1.2 default predicate selectivity
SELECTIVITY = 0.01
#: a run is the warm-up plus ``seconds / window`` timed windows: many
#: short windows for the fast decile to choose from, each still holding
#: three scan cycles or more, which differ with the queries that ride
#: them (``shared_n256``, whose cycle is 0.6 s, has 2 s windows)
WINDOW_S = 1.0
WARMUP_S = 2.0
DEFAULT_SECONDS = 20.0
SMOKE_WINDOW_S = 0.4
SMOKE_SECONDS = 2.0
#: the tail percentile: the highest of p90/p95/p99 that has at least ten
#: samples beyond it on every workload at the default run length
#: (``solo_n1`` completes 220-280 queries, ``ingest_n8`` acks 200 batches)
TAIL = 0.90
#: set-ups per run; ``setup_s`` is their fast decile
SETUP_REPEATS = 3
#: rounds of n queries in the seam-traced pass
TRACE_ROUNDS = 3
#: length of the caller-thread probe, in windows as long as the warm-up
PROBE_WINDOWS = 2

#: a batch every 100 ms.  The issue's 2000 rows/s grows the 120 000-row
#: fact table by a third within one run, and query latency with it (311
#: -> 1440 ms over a recorded 240 s), so no two windows measured the
#: same thing; at 500 rows/s a run's windows differ by under 0.05 each
#: way and the WAL still takes its ten fsyncs a second
INGEST_ROWS_PER_S = 500
INGEST_BATCH_ROWS = 50
#: quiesced queries checked on the reopened warehouse after ingest
REOPEN_QUERIES = 8

#: every VERIFY_EVERY-th completion is kept for the reference check
VERIFY_EVERY = 50
VERIFY_CAP = 24
#: an operation with no completion after this long counts as failed
OP_TIMEOUT_S = 20.0
#: the watchdog looks at the driver when no completion arrives this long
WATCHDOG_POLL_S = 0.05


@dataclass(frozen=True)
class Workload:
    """One traffic mix; ``why`` is the reason it exists."""

    name: str
    in_flight: int
    why: str
    #: None for in-process workloads, else the server core serving them
    transport: str | None = None
    ingest: bool = False
    window_s: float = WINDOW_S

    @property
    def remote(self) -> bool:
        return self.transport is not None


WORKLOADS = (
    Workload(
        "solo_n1", 1,
        "one analyst on an idle warehouse: latency is one scan cycle, the "
        "Preprocessor is ~45% of it and sharing-side stages almost none",
    ),
    Workload(
        "shared_n32", 32,
        "the repo's habitual operating point: Filter kernels dominate the "
        "drain; also the no-wire control for the two remote workloads",
    ),
    Workload(
        "shared_n256", 256,
        "the paper's headline point (maxConc): wide bit-vectors, 256 "
        "admissions per cycle, Distributor and cleanup ~45% of the drain",
        window_s=2.0,
    ),
    Workload(
        "remote_threaded_n32", 32,
        "shared_n32's traffic through SQL, frames, ServerSession and paging "
        "on the thread-per-connection server (2 sockets x 16 sessions)",
        transport="threaded",
    ),
    Workload(
        "remote_async_n32", 32,
        "identical client traffic against the asyncio server: same layers, "
        "other server core, so a shared-session change shows on both",
        transport="async",
    ),
    Workload(
        "ingest_n8", 8,
        "writes beside reads: 8 queries in flight while fact appends arrive "
        "open-loop at 500 rows/s through MVCC, IngestBuffer and fsynced WAL",
        ingest=True,
    ),
)


#: the workloads BENCHMARK.json names, which the driver runs and gates:
#: at most four fit its time limit at 20 s a run, and runs shorter than
#: that did not hold their bounds on the authoring host (README.md,
#: "Measured spread").  ``shared_n32`` stays runnable as the no-wire
#: control of the remote pair, ``remote_threaded_n32`` as the other core.
GATED_WORKLOADS = ("solo_n1", "shared_n256", "remote_async_n32", "ingest_n8")


def window_count(seconds: float, window_s: float) -> int:
    """Timed windows in a run of ``seconds``: never fewer than two."""
    return max(2, round(seconds / window_s))


def workload(name: str) -> Workload:
    for candidate in WORKLOADS:
        if candidate.name == name:
            return candidate
    raise KeyError(f"unknown workload {name!r}")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: relative share of the baseline median the metric may worsen by;
    #: None for per-layer metrics, which explain and are not gated
    bound: float | None = None
    #: for ratios that are normally 0 the bound is absolute
    absolute: bool = False


LOWER, HIGHER = "lower", "higher"

#: what the driver gates: reported by every workload, never 0.  The
#: timing bounds sit at the contract's ceiling because the authoring
#: host's own noise (README.md, "Measured spread") is above the 0.10
#: the issue asked for; tighten them on a quiet host.
END_TO_END = (
    Metric("setup_s", "s", LOWER, 0.25),
    Metric("query_throughput_qps", "1/s", HIGHER, 0.25),
    Metric("query_latency_p50_ms", "ms", LOWER, 0.25),
    Metric("peak_rss_mb", "MB", LOWER, 0.10),
)

#: end-to-end in meaning, but 0 on healthy runs, present on one
#: workload only, bimodal on one (submit latency) or, the pooled tail,
#: a measure of the host's slow episodes more than of the program; none
#: of which the driver's contract allows a gated metric.  They ride
#: with the per-layer set and compare.py gates them
OUTCOME = (
    Metric("query_latency_p90_ms", "ms", LOWER, 0.25),
    Metric("submit_latency_p50_ms", "ms", LOWER, 0.10),
    Metric("failed_ops_ratio", "ratio", LOWER, 0.01, absolute=True),
    Metric("wrong_result_ratio", "ratio", LOWER, 0.05, absolute=True),
    Metric("ingest_rows_per_s", "1/s", HIGHER, 0.10),
    Metric("ingest_ack_p50_ms", "ms", LOWER, 0.10),
    Metric("ingest_ack_p90_ms", "ms", LOWER, 0.10),
    Metric("reopen_s", "s", LOWER, 0.20),
)

DIMENSIONS = ("customer", "supplier", "part", "date")

#: read from outside during the untraced pass
LIVE_LAYER = (
    Metric("engine.scan_tuples_per_s", "1/s", HIGHER),
    Metric("engine.scan_cycles_per_s", "1/s", HIGHER),
    Metric("engine.queue_wait_p50_ms", "ms", LOWER),
    Metric("engine.driver_crashes", "count", LOWER),
    Metric("engine.driver_alive_at_end", "count", HIGHER),
    Metric("engine.cpu_s_per_query", "s", LOWER),
    Metric("server.cpu_s_per_query", "s", LOWER),
    Metric("client.execute_rtt_p50_ms", "ms", LOWER),
    Metric("client.fetch_wait_p50_ms", "ms", LOWER),
    Metric("client.rows_per_query", "count", LOWER),
    Metric("harness.ingest_send_lag_p90_ms", "ms", LOWER),
    Metric("harness.cpu_share", "ratio", LOWER),
)

#: from the seam-traced pass and the layer probes
TRACED_LAYER = (
    Metric("cjoin.preprocessor.ns_per_tuple", "ns", LOWER),
    Metric("cjoin.filter.ns_per_tuple", "ns", LOWER),
    *(Metric(f"cjoin.filter.{dim}.ns_per_tuple", "ns", LOWER) for dim in DIMENSIONS),
    Metric("cjoin.executor.profile_ns_per_tuple", "ns", LOWER),
    Metric("cjoin.distributor.ns_per_tuple", "ns", LOWER),
    Metric("cjoin.manager.finish_ns_per_tuple", "ns", LOWER),
    Metric("cjoin.manager.admit_us", "us", LOWER),
    Metric("cjoin.manager.dim_rows_loaded_per_query", "count", LOWER),
    Metric("cjoin.pipeline.ns_per_tuple", "ns", LOWER),
    Metric("cjoin.pipeline.flatness_vs_solo", "ratio", LOWER),
    Metric("cjoin.unattributed_share", "ratio", LOWER),
    Metric("cjoin.filter.probes_per_tuple", "count", LOWER),
    Metric("cjoin.filter.probe_skip_ratio", "ratio", HIGHER),
    Metric("cjoin.filter.survivor_ratio", "ratio", LOWER),
    Metric("cjoin.distributor.routed_rows_per_tuple", "count", LOWER),
    Metric("cjoin.tuples_scanned", "count", LOWER),
    Metric("sql.parse_us", "us", LOWER),
    Metric("sql.bind_us", "us", LOWER),
    Metric("server.session.execute_us", "us", LOWER),
    Metric("server.session.page_reply_us_per_row", "us", LOWER),
    Metric("server.protocol.encode_us_per_frame", "us", LOWER),
    Metric("server.protocol.decode_us_per_frame", "us", LOWER),
    Metric("server.protocol.page_encode_us_per_row", "us", LOWER),
    Metric("client.decode_rows_us_per_row", "us", LOWER),
    Metric("ingest.stage_us_per_row", "us", LOWER),
    Metric("ingest.apply_us_per_row", "us", LOWER),
    Metric("storage.persist.save_s", "s", LOWER),
    Metric("storage.persist.open_s", "s", LOWER),
    Metric("storage.persist.bytes_per_fact_row", "count", LOWER),
    Metric("storage.persist.wal_bytes_per_row", "count", LOWER),
    Metric("harness.trace_overhead_ratio", "ratio", LOWER),
)

#: the closed loop with ``Warehouse.submit`` on the harness thread, as
#: the service documents it (README.md, finding c); 0 once that is safe
CALLER_PROBE = (
    Metric("engine.caller_submit.driver_crashes", "count", LOWER),
    Metric("engine.caller_submit.failed_ops_ratio", "ratio", LOWER),
    Metric("engine.caller_submit.wrong_result_ratio", "ratio", LOWER),
)

PER_LAYER = OUTCOME + LIVE_LAYER + TRACED_LAYER + CALLER_PROBE
ALL_METRICS = END_TO_END + PER_LAYER


def metric(name: str) -> Metric:
    for candidate in ALL_METRICS:
        if candidate.name == name:
            return candidate
    raise KeyError(f"unknown metric {name!r}")
