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
from repro.cjoin.stats import LATENCY_WINDOW
from repro.engine.service import WarehouseService
from repro.engine.submission import ROUTE_SERVICE, Submission
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
#: A finished submission pins 4-9 KB (handle, query, rows), so the log
#: was most of what ``peak_rss_mb`` added per completed query: it keeps
#: as many as the latency records do, not four times that.
SUBMISSION_LOG_LIMIT = LATENCY_WINDOW


class Warehouse:
    """One star-schema warehouse: the always-on CJOIN operator, plus

    a query-at-a-time engine (:attr:`baseline`) over the same catalog.
    """

    def __init__(
        self,
        catalog: Catalog,
        star: StarSchema,
        buffer_pool_pages: int = DEFAULT_POOL_PAGES,
        max_concurrent: int = 256,
        enable_updates: bool = False,
        execution: str = "batched",
        tuning: TuningConfig | None = None,
        ingest_buffer_rows: int = DEFAULT_BUFFER_ROWS,
        data_dir: str | None = None,
    ) -> None:
        """Args:
            execution: vestigial — there is one pipeline (DESIGN.md
                section 5); only ``'batched'`` is accepted, and the
                keyword goes with the next benchmark PR.
            tuning: every runtime-tunable knob as one validated
                :class:`~repro.tuning.TuningConfig` — the service
                bounds (``max_in_flight``, ``admission_queue_depth``,
                ``idle_sleep``, DESIGN.md section 9) plus the executor's
                ``batch_size``.  Mutable at runtime through
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
        self.catalog = catalog
        self.star = star
        self.io_stats = IOStats()
        self.buffer_pool = BufferPool(buffer_pool_pages, self.io_stats)
        self.transactions: TransactionManager | None = None
        self.versioned_fact: VersionedTable | None = None
        if enable_updates:
            self.transactions = TransactionManager()
            self.versioned_fact = VersionedTable(catalog.table(star.fact.name))
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
        #: the admission queue; submit() delegates to it and run()
        #: drains through it
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
        handle: QueryHandle | None = None,
    ) -> QueryHandle:
        """Submit a star query; returns a handle for its results.

        The one way in (DESIGN.md section 10): the query is validated
        here, once, joins the always-on service's FIFO and is admitted
        mid-scan, as one group with whatever else arrived, at the
        driving thread's next batch boundary.  The handle gives
        blocking results, streaming, ``cancel()`` and latency
        telemetry.

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
        query.validate(self.star)
        handle = self.service._enqueue(query, handle)
        self._submission_log.append(Submission(query, handle, ROUTE_SERVICE))
        return handle

    def _require_open(self) -> None:
        if self._closed:
            raise QueryError(
                "warehouse is closed; create a new Warehouse (or use "
                "'with Warehouse(...) as warehouse:' scoping)"
            )

    def submit_sql(self, sql: str, params=None) -> QueryHandle:
        """Parse and submit a star query written in SQL.

        ``params`` binds ``?`` / ``:name`` placeholders (a sequence or
        mapping respectively); parsing and binding both complete before
        the pipeline is touched, so a malformed statement or mismatched
        parameters leave no state behind.
        """
        from repro.sql.parser import parse_star_query

        query = parse_star_query(sql, self.star, params)
        return self.submit(query)

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
        """EXPLAIN-style report: per-dimension selectivities and the

        work-sharing the query would get right now.
        """
        from repro.query.predicate import estimate_selectivity
        from repro.sql.parser import parse_star_query

        query = parse_star_query(sql, self.star)
        lines = [
            f"star query on {query.fact_table!r}",
            "routing: cjoin: joins shared work with all in-flight "
            "star queries",
        ]
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

        Afterwards, submissions are admitted mid-scan and complete in
        the background — read them with ``handle.results(timeout=...)``.
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
        * ``batch_size`` reaches the executor at its next batch
          boundary (the immutable-config swap).

        Returns the applied config (a :class:`TuningConfig` that exists
        has already passed validation).
        """
        self._require_open()
        with self._tuning_lock:
            self.service.reconfigure(tuning)
            self.cjoin.executor.reconfigure(tuning)
            self._tuning = tuning
        return tuning

    def stats(self) -> dict:
        """One JSON-able telemetry + decision-audit snapshot.

        The canonical schema served identically over every transport
        (the local ``Connection.stats()``, the wire STATS frame of
        docs/PROTOCOL.md section 9, and the async client): latency
        percentiles, pipeline counters, the service's
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

    def run(self) -> None:
        """Run all submitted queries to completion.

        Without a running driver this drives the pipeline on the
        calling thread; with one, it blocks until the service drains.

        Raises:
            QueryError: when the warehouse has been closed.
        """
        self._require_open()
        # staged writes land first, so the drain queries the freshest data
        self.apply_pending_ingest()
        self.service.drain()

    # ------------------------------------------------------------------
    # Lifecycle and telemetry introspection
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the warehouse down (idempotent).

        Stops the service driver, joins its threads and rejects
        further submissions.  In-flight CJOIN state is preserved
        exactly as :meth:`stop_service` leaves it.
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
        """Recent accepted submissions, in arrival order.

        Bounded to the last ``SUBMISSION_LOG_LIMIT`` entries so the
        always-on service never pins unbounded history.
        """
        return list(self._submission_log)

    def latency_summary(self) -> dict[str, float]:
        """p50/p95/p99 latency over recent completions."""
        return self.cjoin.stats.latency_summary()

    @property
    def latency_records(self):
        """The most recent per-query latency records, oldest first

        (at most ``repro.cjoin.stats.LATENCY_WINDOW`` of them).
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
