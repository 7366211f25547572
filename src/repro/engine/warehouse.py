"""The Warehouse facade: load data, submit queries (SQL or objects),

mix in updates under snapshot isolation, and run everything.

Typical use::

    warehouse = Warehouse.from_ssb(scale_factor=0.001)
    handle = warehouse.submit_sql(
        "SELECT d_year, SUM(lo_revenue) AS revenue "
        "FROM lineorder, date "
        "WHERE lo_orderdate = d_datekey AND d_year >= 1992 "
        "GROUP BY d_year"
    )
    warehouse.run()
    for row in handle.results():
        print(row)
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import deque
from contextlib import contextmanager

from repro.baseline.engine import EngineProfile, QueryAtATimeEngine
from repro.catalog.catalog import Catalog
from repro.catalog.schema import StarSchema
from repro.cjoin.executor import ExecutorConfig
from repro.cjoin.operator import CJoinOperator
from repro.cjoin.registry import QueryHandle
from repro.cjoin.stats import QueryLatencyRecord
from repro.engine.router import QueryRouter, RoutingDecision
from repro.engine.service import WarehouseService
from repro.engine.submission import (
    ROUTE_BASELINE,
    ROUTE_PROCESS,
    ROUTE_SERVICE,
    Submission,
    SubmissionQueue,
)
from repro.errors import ConfigError, QueryError, SchemaError
from repro.ingest.buffer import (
    DEFAULT_BUFFER_ROWS,
    IngestBatch,
    IngestBuffer,
    IngestTicket,
)
from repro.ingest.writer import DEFAULT_WRITER_BATCH_ROWS, IngestWriter
from repro.query.star import StarQuery
from repro.storage.buffer import BufferPool
from repro.storage.iostats import IOStats
from repro.storage.mvcc import TransactionManager, VersionedTable
from repro.tuning import MAX_CONCURRENT_QUERIES, TuningConfig, _require_int

#: Default buffer pool size for a warehouse instance.
DEFAULT_POOL_PAGES = 2048

#: Submissions retained for introspection; older entries fall off so a
#: long-running service does not leak handles (and their result rows).
SUBMISSION_LOG_LIMIT = 4096


class Warehouse:
    """One star-schema warehouse with a CJOIN path and a baseline path."""

    def __init__(
        self,
        catalog: Catalog,
        star: StarSchema,
        buffer_pool_pages: int = DEFAULT_POOL_PAGES,
        max_concurrent: int = 256,
        enable_updates: bool = False,
        execution: str = "batched",
        backend: str = "serial",
        tuning: TuningConfig | None = None,
        ingest_buffer_rows: int = DEFAULT_BUFFER_ROWS,
        data_dir: str | None = None,
    ) -> None:
        """Args:
            execution: vestigial — there is one pipeline (DESIGN.md
                section 5); only ``'batched'`` is accepted, and the
                keyword goes with the next benchmark PR.
            backend: 'serial' for the always-on in-process operator, or
                'process' to drain CJOIN queries over fact shards in
                worker processes (DESIGN.md section 8).  The process
                backend admits queries at drain boundaries only and is
                incompatible with ``enable_updates``.
            tuning: every runtime-tunable knob as one validated
                :class:`~repro.tuning.TuningConfig` — the service
                bounds (``max_in_flight``, ``admission_queue_depth``,
                ``idle_sleep``, DESIGN.md section 9) plus the executor
                knobs (``workers`` for backend='process',
                ``batch_size``).  Mutable at runtime through
                :meth:`reconfigure` (DESIGN.md section 13).
            ingest_buffer_rows: bound on staged-but-unapplied streaming
                writes (DESIGN.md section 15); a full buffer rejects
                :meth:`ingest` with
                :class:`~repro.errors.IngestBackpressureError`.
            data_dir: when set, the warehouse is durable (DESIGN.md
                section 16): the constructor publishes an initial
                snapshot of the dataset it was given (a *new
                generation* when the directory already holds one —
                the blue-green reload path), every acked ingest batch
                is WAL-logged before its ticket resolves, and
                :meth:`close` checkpoints a final snapshot.  Use
                :meth:`open` to cold-start from the directory without
                regenerating anything.
        """
        if tuning is None:
            tuning = TuningConfig()
        _require_int(
            "max_concurrent", max_concurrent, 1, MAX_CONCURRENT_QUERIES
        )
        # kept only because the frozen benchmarks/layered/ harness passes it
        if execution != "batched":
            raise ConfigError(
                f"unknown execution {execution!r}: the tuple-at-a-time "
                f"path is gone, drop the argument"
            )
        self.executor_config = ExecutorConfig(backend=backend, tuning=tuning)
        if backend == "process" and enable_updates:
            raise ConfigError(
                "backend='process' does not support enable_updates: "
                "shard workers cannot see the coordinator's MVCC "
                "snapshots; use backend='serial' for update workloads"
            )
        self.catalog = catalog
        self.star = star
        self.io_stats = IOStats()
        self.buffer_pool = BufferPool(buffer_pool_pages, self.io_stats)
        self.router = QueryRouter(star)
        self.transactions: TransactionManager | None = None
        self.versioned_fact: VersionedTable | None = None
        if enable_updates:
            self.transactions = TransactionManager()
            self.versioned_fact = VersionedTable(catalog.table(star.fact.name))
        self.max_concurrent = max_concurrent
        # the always-on operator is serial even when the offline drain
        # is process-sharded, so its config takes batch_size only
        self.cjoin = CJoinOperator(
            catalog,
            star,
            buffer_pool=self.buffer_pool,
            max_concurrent=max_concurrent,
            versioned_fact=self.versioned_fact,
            executor_config=ExecutorConfig(batch_size=tuning.batch_size),
        )
        self.baseline = QueryAtATimeEngine(
            catalog,
            star,
            self.buffer_pool,
            EngineProfile.system_x(),
            versioned_fact=self.versioned_fact,
        )
        #: the always-on serving surface (DESIGN.md section 9): owns
        #: the CJOIN admission queue; submit() delegates to it and
        #: run() drains through it
        self.service = WarehouseService(self.cjoin, tuning=tuning)
        #: streaming-write staging (DESIGN.md section 15): batches wait
        #: here until the scan-boundary hook lands them atomically
        self.ingest_buffer = IngestBuffer(ingest_buffer_rows)
        #: serializes apply rounds against each other (close() vs the
        #: driver's hook); the pipeline locks are taken inside it
        self._ingest_apply_lock = threading.Lock()
        self.service.cycle_hook = self.apply_pending_ingest
        self._tuning = tuning
        #: serializes reconfigure() against itself; each layer's apply
        #: is internally thread-safe, the lock keeps the composite
        #: (service + executors + self._tuning) atomic per caller
        self._tuning_lock = threading.Lock()
        #: the adaptive controller, when enabled (DESIGN.md section 13)
        self.autotuner = None
        #: offline-route FIFOs: submissions waiting for the next drain
        #: boundary, with the same cancellation semantics as the
        #: service's admission queue (DESIGN.md section 10)
        self._offline_queues = {
            ROUTE_PROCESS: SubmissionQueue(ROUTE_PROCESS),
            ROUTE_BASELINE: SubmissionQueue(ROUTE_BASELINE),
        }
        #: recent submissions in arrival order, bounded so an always-on
        #: service does not pin every query's results forever
        self._submission_log: deque[Submission] = deque(
            maxlen=SUBMISSION_LOG_LIMIT
        )
        self._closed = False
        #: durable storage (DESIGN.md section 16); None = in-memory only
        self.durability = None
        #: the ReplayReport of the open() that built this warehouse
        self.last_replay = None
        if data_dir is not None:
            from repro.storage.persist import DurabilityManager

            self.durability = DurabilityManager(data_dir)
            self.save()

    @classmethod
    def from_ssb(
        cls,
        scale_factor: float = 0.001,
        seed: int = 42,
        **kwargs,
    ) -> "Warehouse":
        """Create a warehouse loaded with an SSB instance."""
        from repro.ssb.generator import load_ssb

        catalog, star = load_ssb(scale_factor, seed)
        return cls(catalog, star, **kwargs)

    @classmethod
    def open(cls, data_dir: str, **kwargs) -> "Warehouse":
        """Cold-start a warehouse from an on-disk snapshot.

        Zero regeneration: the catalog, star topology, and every
        table's rows come back from the active snapshot in
        ``data_dir`` (checksum-verified), then any WAL tail past that
        snapshot's generation replays on top — so every ingest batch
        that was acked before the previous process died is visible
        again.  The ingest generation counter and the MVCC snapshot
        counter both continue from the recovered high-water mark.

        ``kwargs`` are the constructor's runtime knobs (``tuning``,
        ``enable_updates``, ...); the dataset itself comes
        from disk.

        Raises:
            PersistenceError: when ``data_dir`` has no snapshot, or
                the snapshot fails its checksums.
        """
        from repro.storage.persist import DurabilityManager

        kwargs.pop("data_dir", None)
        manager = DurabilityManager(data_dir)
        catalog, star, replay = manager.load()
        warehouse = cls(catalog, star, **kwargs)
        warehouse.durability = manager
        warehouse.ingest_buffer.restore_generation(replay.generation)
        if warehouse.transactions is not None:
            warehouse.transactions.restore(replay.snapshot_id)
        warehouse.last_replay = replay
        return warehouse

    def save(self):
        """Publish a new on-disk snapshot generation; returns its info.

        Staged ingest lands first, then the snapshot is written under
        the ingest-apply lock and the pipeline's write barrier — the
        image is a scan-cycle-consistent cut, never a half-applied
        batch.  The publication itself is atomic (the ``CURRENT``
        pointer flips last), and a fresh WAL epoch starts with the new
        snapshot.

        Raises:
            PersistenceError: when the warehouse has no ``data_dir``.
            QueryError: when the warehouse has been closed.
        """
        from repro.errors import PersistenceError

        if self.durability is None:
            raise PersistenceError(
                "warehouse has no data_dir: pass data_dir= at "
                "construction (or use Warehouse.open) to enable saves"
            )
        self._require_open()
        self.apply_pending_ingest()
        return self._checkpoint()

    def _checkpoint(self):
        """Write a snapshot of the current catalog (durable path only)."""
        with self._ingest_apply_lock, self.cjoin.manager.write_barrier():
            return self.durability.save_snapshot(
                self.catalog,
                self.star,
                ingest_generation=self.ingest_buffer.generation,
                snapshot_id=self.current_snapshot_id,
            )

    # ------------------------------------------------------------------
    # Query submission
    # ------------------------------------------------------------------
    def submit(
        self,
        query: StarQuery,
        force: RoutingDecision | None = None,
        handle: QueryHandle | None = None,
    ) -> QueryHandle:
        """Submit a star query; returns a handle for its results.

        Every route flows through one :class:`Submission` lifecycle
        (DESIGN.md section 10).  CJOIN-routed queries join the
        always-on service's FIFO and are admitted mid-scan, as one group
        with whatever else arrived, at the driving thread's next batch
        boundary.  Process- and baseline-routed queries join their
        offline FIFO and admit at the next :meth:`run` drain boundary.
        The query is validated here, once (the router's schema check),
        whichever route it takes.  Either way the caller
        holds one uniform handle — blocking results, streaming,
        ``cancel()``, and latency telemetry behave the same.

        ``handle`` lets a layer that queued the query *before* the
        warehouse (the TCP server's per-connection admission queue,
        docs/ARCHITECTURE.md section 4) keep the handle it already
        gave its caller: submission timestamps survive the wait and
        cancellation follows the handle across layers.

        Raises:
            QueryError: when the warehouse has been closed, or the
                query does not fit the star schema.
            AdmissionError: when the service's admission queue is full.
        """
        self._require_open()
        query = self._stamp_snapshot(query)
        decision = self.router.route(query, force)
        if decision is RoutingDecision.CJOIN:
            if self.executor_config.backend == "process":
                submission = self._enqueue_offline(ROUTE_PROCESS, query, handle)
            else:
                handle = self.service._enqueue(query, handle)
                submission = Submission(query, handle, ROUTE_SERVICE)
                self._submission_log.append(submission)
        else:
            submission = self._enqueue_offline(ROUTE_BASELINE, query, handle)
        return submission.handle

    def _enqueue_offline(
        self,
        route: str,
        query: StarQuery,
        handle: QueryHandle | None = None,
    ) -> Submission:
        """Queue a (validated) submission for an offline route's next drain."""
        submission = Submission(query, handle or QueryHandle(query), route)
        self._offline_queues[route].add(submission)
        self._submission_log.append(submission)
        return submission

    def _require_open(self) -> None:
        if self._closed:
            raise QueryError(
                "warehouse is closed; create a new Warehouse (or use "
                "'with Warehouse(...) as warehouse:' scoping)"
            )

    def submit_sql(
        self,
        sql: str,
        force: RoutingDecision | None = None,
        params=None,
    ) -> QueryHandle:
        """Parse and submit a star query written in SQL.

        ``params`` binds ``?`` / ``:name`` placeholders (a sequence or
        mapping respectively); parsing and binding both complete before
        the pipeline is touched, so a malformed statement or mismatched
        parameters leave no state behind.
        """
        from repro.sql.parser import parse_star_query

        query = parse_star_query(sql, self.star, params)
        return self.submit(query, force)

    def execute_sql(self, sql: str, params=None) -> list[tuple]:
        """Convenience: parse, submit, run, return rows.

        Parse/bind errors raise before anything is submitted — a bad
        statement never strands a queued query in the pipeline.
        """
        from repro.sql.parser import parse_star_query

        query = parse_star_query(sql, self.star, params)
        handle = self.submit(query)
        self.run()
        return handle.results()

    def explain_sql(self, sql: str) -> str:
        """EXPLAIN-style report: routing, per-dimension selectivities,

        and the work-sharing the query would get right now.
        """
        from repro.query.predicate import estimate_selectivity
        from repro.sql.parser import parse_star_query

        query = parse_star_query(sql, self.star)
        lines = [f"star query on {query.fact_table!r}"]
        lines.append(f"routing: {self.router.explain(query)}")
        for name in query.referenced_dimensions():
            dimension = self.catalog.table(name)
            fraction = estimate_selectivity(
                query.predicate_on(name),
                dimension.all_rows(),
                dimension.schema,
            )
            lines.append(
                f"dimension {name}: selects {fraction:.1%} of "
                f"{dimension.row_count} rows"
            )
        if query.fact_predicate is not None:
            lines.append("fact predicate evaluated in the Preprocessor")
        in_flight = self.cjoin.active_query_count
        if in_flight:
            lines.append(
                f"would share the continuous scan with {in_flight} "
                f"in-flight quer{'y' if in_flight == 1 else 'ies'} "
                f"(filter order {self.cjoin.filter_order()})"
            )
        else:
            lines.append("pipeline idle: this query would start a new scan cycle")
        return "\n".join(lines)

    def _stamp_snapshot(self, query: StarQuery) -> StarQuery:
        """Tag the query with the current snapshot when updates are on."""
        if self.transactions is None or query.snapshot_id is not None:
            return query
        return dataclasses.replace(
            query, snapshot_id=self.transactions.current_snapshot().snapshot_id
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def start_service(self) -> WarehouseService:
        """Start the always-on background driver; returns the service.

        Afterwards, CJOIN-routed submissions are admitted mid-scan and
        complete in the background — read them with
        ``handle.results(timeout=...)``.  Baseline-routed queries still
        drain inside :meth:`run`.
        """
        return self.service.start()

    def stop_service(self) -> None:
        """Stop the background driver cleanly (idempotent)."""
        self.service.stop()

    # ------------------------------------------------------------------
    # Runtime tuning (DESIGN.md section 13)
    # ------------------------------------------------------------------
    @property
    def tuning(self) -> TuningConfig:
        """The warehouse's current tuning config (immutable snapshot)."""
        with self._tuning_lock:
            return self._tuning

    def reconfigure(self, tuning: TuningConfig) -> TuningConfig:
        """Apply a new tuning config to the *live* warehouse.

        Thread-safe, and safe mid-scan: each knob lands at its natural
        boundary, so results stay reference-equal across a resize —

        * service bounds (``max_in_flight``, ``admission_queue_depth``,
          ``idle_sleep``) apply immediately; queued/registered queries
          are never evicted, the driver's admission pump just sees the
          new limits on its next scan cycle;
        * ``batch_size`` reaches the serial executor at its next batch
          boundary (the immutable-config swap);
        * ``workers`` takes effect at the next process-backend drain —
          shard pools are built per drain, so workers "join/retire" at
          drain boundaries and the worker-count-independent merge
          protocol keeps results identical.

        Returns the applied config.  Raises
        :class:`~repro.errors.ConfigError` before touching anything
        when the config cannot fit this warehouse (e.g. ``workers > 1``
        on the serial backend).
        """
        self._require_open()
        with self._tuning_lock:
            # validates workers-vs-backend up front; only then mutate
            self.executor_config = ExecutorConfig(
                backend=self.executor_config.backend, tuning=tuning
            )
            self.service.reconfigure(tuning)
            self.cjoin.executor.reconfigure(tuning)
            self._tuning = tuning
        return tuning

    def stats(self) -> dict:
        """One JSON-able telemetry + decision-audit snapshot.

        The canonical schema served identically over every transport
        (the local ``Connection.stats()``, the wire STATS frame of
        docs/PROTOCOL.md section 9, and the async client): latency
        percentiles over all routes, pipeline counters, the service's
        live admission state, the current tuning config, and the
        adaptive controller's decision audit when one is enabled.
        """
        pipeline = self.cjoin.stats
        with self._tuning_lock:
            tuning = self._tuning.as_dict()
            autotuner = self.autotuner
        return {
            "latency": self.latency_summary(),
            "pipeline": {
                "tuples_scanned": pipeline.tuples_scanned,
                "tuples_distributed": pipeline.tuples_distributed,
                "probes_total": pipeline.probes_total,
                "queries_admitted": pipeline.queries_admitted,
                "queries_completed": pipeline.queries_completed,
                "queries_cancelled": pipeline.queries_cancelled,
                "reoptimizations": pipeline.reoptimizations,
                "dim_entries_touched": pipeline.dim_entries_touched,
                "visibility_runs_uniform": pipeline.visibility_runs_uniform,
                "visibility_runs_masked": pipeline.visibility_runs_masked,
            },
            "service": self.service.snapshot(),
            "ingest": {
                **self.ingest_buffer.stats(),
                "snapshot_id": self.current_snapshot_id,
            },
            "tuning": tuning,
            "backend": {
                "backend": self.executor_config.backend,
                "workers": self.executor_config.workers,
                "batch_size": self.executor_config.batch_size,
                "pending_process": self.pending_submissions(ROUTE_PROCESS),
                "pending_baseline": self.pending_submissions(ROUTE_BASELINE),
            },
            "autotune": {
                "enabled": autotuner is not None and autotuner.running,
                "decisions": (
                    [d.as_dict() for d in autotuner.decisions]
                    if autotuner is not None
                    else []
                ),
            },
        }

    def enable_autotuning(
        self, policy=None, interval: float = 0.25, **tuner_kwargs
    ):
        """Start the adaptive right-sizing controller (DESIGN.md §13).

        Spawns the ``warehouse-autotuner`` thread sampling this
        warehouse's own telemetry every ``interval`` seconds and
        applying bounded resize actions through :meth:`reconfigure`.
        Returns the :class:`~repro.engine.autotune.AutoTuner`; every
        decision it takes lands in the audit ring served by
        :meth:`stats`.  Idempotent while running.

        Raises:
            QueryError: when the warehouse has been closed.
        """
        from repro.engine.autotune import AutoTuner

        self._require_open()
        if self.autotuner is not None and self.autotuner.running:
            return self.autotuner
        self.autotuner = AutoTuner(
            self, policy=policy, interval=interval, **tuner_kwargs
        )
        self.autotuner.start()
        return self.autotuner

    def disable_autotuning(self) -> None:
        """Stop the controller thread (idempotent); audit is retained."""
        if self.autotuner is not None:
            self.autotuner.stop()

    def run(self, max_in_flight_baseline: int | None = None) -> None:
        """Run all submitted queries to completion.

        Compatibility wrapper over the service: without a running
        driver this drives the pipeline on the calling thread exactly
        as before; with one, it blocks until the service drains.  The
        offline routes (process shards, baseline engine) drain here at
        their batch boundaries, with the same admission/latency
        telemetry the service records (DESIGN.md section 10).

        Raises:
            QueryError: when the warehouse has been closed (close()
                guarantees queued offline submissions never complete).
        """
        self._require_open()
        # staged writes land first, so offline drains (and the service
        # boundary below, via its cycle hook) query the freshest data
        self.apply_pending_ingest()
        self._drain_offline(
            ROUTE_PROCESS,
            lambda queries: self._execute_process(queries),
        )
        self.service.drain()
        self._drain_offline(
            ROUTE_BASELINE,
            lambda queries: self.baseline.execute_concurrent(
                queries, max_in_flight_baseline
            ),
        )

    def _execute_process(self, queries: list[StarQuery]) -> list[list[tuple]]:
        from repro.cjoin.parallel import execute_process_parallel

        return execute_process_parallel(
            self.catalog,
            self.star,
            queries,
            workers=self.executor_config.workers,
            batch_size=self.executor_config.batch_size,
            max_concurrent=self.max_concurrent,
        )

    def _drain_offline(self, route: str, executor) -> None:
        """Drain one offline FIFO through ``executor`` with telemetry.

        The batch is claimed up front (cancelled entries are already
        gone); on failure it is restored intact, so an interrupted
        :meth:`run` can simply be retried with the queries still
        queued.  Each completed submission is stamped and reported as a
        :class:`~repro.cjoin.stats.QueryLatencyRecord` on the shared
        pipeline stats, so :meth:`latency_summary` covers every route.
        """
        queue = self._offline_queues[route]
        batch = queue.take()
        if not batch:
            return
        try:
            for submission in batch:
                submission.mark_admitted(in_flight=len(batch) - 1)
            results = executor([submission.query for submission in batch])
        except BaseException:
            queue.restore(batch)
            raise
        for submission, rows in zip(batch, results):
            submission.handle.complete(rows)
            self._record_offline_latency(submission)

    def _record_offline_latency(self, submission: Submission) -> None:
        """Report an offline completion like a service completion.

        ``query_id`` is 0 (never pipeline-registered) and
        ``scan_cycles`` is 1.0 for the process route (one sharded pass
        over the fact table) or 0.0 for the baseline engine (private
        plans, not the continuous scan).
        """
        handle = submission.handle
        if handle.cancelled or handle.admitted_at is None:
            return
        self.cjoin.stats.record_latency(
            QueryLatencyRecord(
                query_id=0,
                label=submission.label,
                wait_seconds=handle.admitted_at - handle.submitted_at,
                scan_cycles=1.0 if submission.route == ROUTE_PROCESS else 0.0,
                latency_seconds=handle.completed_at - handle.submitted_at,
                admitted_with_in_flight=submission.admitted_with_in_flight,
                scan_position_at_admission=0,
                route=submission.route,
            )
        )

    # ------------------------------------------------------------------
    # Lifecycle and telemetry introspection
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the warehouse down (idempotent).

        Stops the service driver, joins its threads, rejects further
        submissions, and cancels queued offline submissions — so a
        thread blocked iterating one of their handles wakes with
        :class:`~repro.errors.CancelledError` instead of hanging.
        In-flight CJOIN state is preserved exactly as
        :meth:`stop_service` leaves it.
        """
        if self._closed:
            return
        self._closed = True
        self.disable_autotuning()
        self.service.stop()
        # the ingest buffer drains deterministically: everything that
        # can land at this boundary is applied, the remainder (e.g.
        # non-MVCC batches stuck behind still-registered queries) is
        # rejected with a typed IngestError — no write is silently
        # dropped after a clean close() returns
        self.apply_pending_ingest()
        self.ingest_buffer.reject_all(
            "warehouse closed before the batch could be applied"
        )
        for queue in self._offline_queues.values():
            queue.cancel_all()
        if self.durability is not None:
            # a clean shutdown checkpoints: the WAL tail compacts into
            # a fresh snapshot generation, so the next open() loads one
            # image instead of replaying history
            try:
                self._checkpoint()
            finally:
                self.durability.close()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran."""
        return self._closed

    def __enter__(self) -> "Warehouse":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    @property
    def submissions(self) -> list[Submission]:
        """Recent accepted submissions, in arrival order (all routes).

        Bounded to the last ``SUBMISSION_LOG_LIMIT`` entries so the
        always-on service never pins unbounded history.
        """
        return list(self._submission_log)

    def pending_submissions(self, route: str) -> int:
        """Queued-but-undrained submissions on an offline route."""
        return len(self._offline_queues[route])

    def latency_summary(self) -> dict[str, float]:
        """p50/p95/p99 latency over completions on *all* routes."""
        return self.cjoin.stats.latency_summary()

    @property
    def latency_records(self):
        """The most recent per-query latency records, oldest first

        (service, process, and baseline routes; at most
        ``repro.cjoin.stats.LATENCY_WINDOW`` of them).
        """
        return self.cjoin.stats.recent_latency_records()

    # ------------------------------------------------------------------
    # Updates (snapshot isolation, section 3.5)
    # ------------------------------------------------------------------
    def apply_update(
        self,
        inserts: list[tuple] | None = None,
        deletes: list[int] | None = None,
    ) -> int:
        """Commit a fact-table write set; returns the new snapshot id.

        Raises:
            QueryError: when the warehouse was built without updates.
        """
        if self.transactions is None or self.versioned_fact is None:
            raise QueryError(
                "warehouse was created with enable_updates=False"
            )
        with self._exclusive_write():
            snapshot = self.transactions.commit(
                self.versioned_fact, inserts=inserts, deletes=deletes
            )
        return snapshot.snapshot_id

    @contextmanager
    def _exclusive_write(self):
        """Hold the write barrier with the Preprocessor stalled.

        What every catalog writer beside the live scan runs under
        (:meth:`apply_update`, :meth:`apply_pending_ingest`): the
        Pipeline Manager's barrier makes the write set atomic against
        admissions and their dimension reads, and the stall keeps the
        scan from observing a fact row without its version stamp.
        Thread-safe; blocks until the batch in progress ends.
        """
        preprocessor = self.cjoin.preprocessor
        with self.cjoin.manager.write_barrier():
            preprocessor.stall()
            try:
                yield
            finally:
                preprocessor.resume()

    @property
    def current_snapshot_id(self) -> int:
        """The latest committed snapshot id (0 when updates disabled)."""
        if self.transactions is None:
            return 0
        return self.transactions.current_snapshot().snapshot_id

    # ------------------------------------------------------------------
    # Streaming ingest (DESIGN.md section 15)
    # ------------------------------------------------------------------
    def ingest(
        self,
        fact_rows: list[tuple] | None = None,
        dim_upserts: dict[str, list[tuple]] | None = None,
        owner: object = None,
    ) -> IngestTicket:
        """Stage one write set; returns its ticket immediately.

        ``fact_rows`` append to the fact table; ``dim_upserts`` maps
        dimension names to rows inserted-or-replaced by primary key.
        The whole batch is validated here (so a bad row never fails
        late on the driver thread), staged in the bounded buffer, and
        applied atomically at the next scan boundary — on the service
        driver when one runs, inside :meth:`run` /
        :meth:`apply_pending_ingest` otherwise.  ``owner`` tags the
        batch for connection-scoped discard (server teardown).

        Raises:
            QueryError: when the warehouse has been closed.
            SchemaError: on a row that does not fit its schema, an
                unknown dimension, or an upsert against an unkeyed
                table.
            IngestError: on an empty batch.
            IngestBackpressureError: when the staging buffer is full.
        """
        self._require_open()
        batch = IngestBatch(fact_rows, dim_upserts)
        self._validate_ingest(batch)
        return self.ingest_buffer.offer(batch, owner=owner)

    def writer(self, batch_rows: int = DEFAULT_WRITER_BATCH_ROWS) -> IngestWriter:
        """A batching :class:`~repro.ingest.writer.IngestWriter`.

        One writer per producing thread; ``batch_rows`` sets how many
        rows accumulate locally before a batch is staged.
        """
        self._require_open()
        return IngestWriter(self, batch_rows)

    def _validate_ingest(self, batch: IngestBatch) -> None:
        fact_schema = self.star.fact
        for row in batch.fact_rows:
            fact_schema.validate_row(row)
        for name, rows in batch.dim_upserts.items():
            dimension = self.star.dimensions.get(name)
            if dimension is None:
                raise SchemaError(
                    f"unknown dimension {name!r}; this star joins "
                    f"{sorted(self.star.dimensions)}"
                )
            if dimension.primary_key is None:
                raise SchemaError(
                    f"dimension {name!r} has no primary key to upsert by"
                )
            for row in rows:
                dimension.validate_row(row)

    def apply_pending_ingest(self) -> int:
        """Land every staged batch at this scan boundary; returns rows.

        The scan-boundary hook (installed as the service's
        ``cycle_hook``, also run by :meth:`run` and writer flushes).
        The apply runs under :meth:`_exclusive_write` — atomic against
        admissions, and the scan never observes a half-written
        row/version pair.  Under MVCC
        (``enable_updates=True``) fact appends commit through the
        transaction manager and stay invisible to already-stamped
        queries; without MVCC there is no visibility predicate to hide
        new rows behind, so batches wait for a boundary with no
        registered query (drain-boundary semantics).
        """
        buffer = self.ingest_buffer
        if buffer.pending_batches == 0:
            return 0
        applied_rows = 0
        with self._ingest_apply_lock, self._exclusive_write():
            if (
                self.versioned_fact is None
                and self.cjoin.manager.active_query_count > 0
            ):
                return 0
            durability = self.durability
            for batch, ticket in buffer.take_all():
                started = time.perf_counter()
                try:
                    snapshot_id = self._apply_ingest_batch(batch)
                    generation = buffer.next_generation()
                    if durability is not None:
                        # WAL-append + fsync BEFORE the ack resolves:
                        # once the producer sees applied, the batch
                        # survives any crash (DESIGN.md section 16);
                        # a failed append fails the ticket instead
                        # of acking a write the disk never saw
                        durability.log_batch(
                            batch,
                            generation=generation,
                            snapshot_id=snapshot_id,
                        )
                except BaseException as error:
                    buffer.record_failure(ticket, error)
                    continue
                buffer.record_apply(
                    ticket,
                    snapshot_id,
                    time.perf_counter() - started,
                    generation=generation,
                )
                applied_rows += ticket.rows
        return applied_rows

    def _apply_ingest_batch(self, batch: IngestBatch) -> int:
        """Apply one validated batch; returns the commit snapshot id.

        Dimension upserts land first (in-place by primary key, so scan
        order never changes); queries admitted after this boundary see
        the whole write set, in-flight queries keep the dimension hash
        tables they materialized at admission.
        """
        for name, rows in batch.dim_upserts.items():
            table = self.catalog.table(name)
            for row in rows:
                table.upsert(row)
        if batch.fact_rows:
            if self.versioned_fact is not None:
                snapshot = self.transactions.commit(
                    self.versioned_fact, inserts=batch.fact_rows
                )
                return snapshot.snapshot_id
            fact_table = self.catalog.table(self.star.fact.name)
            for row in batch.fact_rows:
                fact_table.insert(row)
        return self.current_snapshot_id
