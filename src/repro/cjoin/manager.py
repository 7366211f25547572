"""The Pipeline Manager (paper sections 3.3-3.4).

Runs alongside the pipeline and owns its lifecycle:

* **admission** (Algorithm 1), once per *group* of queries that
  arrived together (:meth:`PipelineManager.admit_group`; a lone query
  is a group of one): allocate the ids, answer each distinct dimension
  filter query ``sigma_cnj(D_j)`` once — from a materialized view, else
  the dimension's ordered column index (O(log N + k), built on first
  use), else a buffered scan — update every dimension hash table with
  one group mutation (complement bitmap, at most one pass, the selected
  rows of each distinct predicate), install new Filters, and activate
  the queries in the Preprocessor with their start control tuples under
  one stall;
* **finalization cleanup** (Algorithm 2): the Distributor queues the
  ids it retires; :meth:`PipelineManager.process_finished` cleans the
  queued ids *as one group* — one combined bit mask per hash table,
  applied to the entries the group's queries selected, and at most one
  stall to remove Filters no active query references (a per-dimension
  reference count) — so a burst costs one event, and a lone query
  costs what it selected, whatever else is registered;
* **run-time optimization** (section 3.4): periodically ask the
  ordering policy for a better Filter permutation and install it.

Concurrency notes: admissions and cleanups are serialized by the
manager lock and may run on any thread beside the scan's; pipeline
mutations happen under a Preprocessor stall, and hash tables are
mutated in place beside the Filters reading them, which is safe by the
argument in :mod:`repro.cjoin.dimtable`.
Permuting the filter chain never requires draining in-flight tuples
because each tuple snapshots the chain and AND-filtering is
order-insensitive; new-filter insertion is safe
because the new table's complement bitmap is initialized from the
union of preprocessor-active and distributor-open queries (read while
stalled), which covers every bit any in-flight tuple can carry.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, deque
from contextlib import contextmanager

from repro import bitvec
from repro.catalog.catalog import Catalog
from repro.catalog.schema import StarSchema
from repro.cjoin.dimtable import DimensionHashTable
from repro.cjoin.filter import Filter
from repro.cjoin.optimizer import AGreedyPolicy, OrderingPolicy
from repro.cjoin.pipeline import CJoinPipeline
from repro.cjoin.registry import (
    QueryHandle,
    QueryIdAllocator,
    RegisteredQuery,
)
from repro.cjoin.stats import PipelineStats, QueryLatencyRecord
from repro.errors import AdmissionError
from repro.query.star import StarQuery
from repro.storage.buffer import BufferPool
from repro.storage.scan import TableScan


class AdmissionTimings:
    """Per-admission cost breakdown (drives Tables 1-3 comparisons)."""

    def __init__(self) -> None:
        self.submission_seconds: list[float] = []
        self.dimension_rows_loaded: list[int] = []

    def record(self, seconds: float, rows_loaded: int) -> None:
        """Log one admission."""
        self.submission_seconds.append(seconds)
        self.dimension_rows_loaded.append(rows_loaded)

    @property
    def mean_submission_seconds(self) -> float:
        """Average submission time across admissions (0.0 if none)."""
        if not self.submission_seconds:
            return 0.0
        return sum(self.submission_seconds) / len(self.submission_seconds)


class PipelineManager:
    """Admission, finalization, and on-line optimization."""

    def __init__(
        self,
        catalog: Catalog,
        star: StarSchema,
        pipeline: CJoinPipeline,
        buffer_pool: BufferPool,
        stats: PipelineStats,
        max_concurrent: int = 256,
        ordering_policy: OrderingPolicy | None = None,
        probe_skip: bool = True,
    ) -> None:
        self.catalog = catalog
        self.star = star
        self.pipeline = pipeline
        self.buffer_pool = buffer_pool
        self.stats = stats
        self.probe_skip = probe_skip
        self.allocator = QueryIdAllocator(max_concurrent)
        self.ordering_policy = (
            ordering_policy if ordering_policy is not None else AGreedyPolicy()
        )
        self.timings = AdmissionTimings()
        self._lock = threading.RLock()
        self._registrations: dict[int, RegisteredQuery] = {}
        #: hash tables by dimension name (including ones newly created)
        self._tables: dict[str, DimensionHashTable] = {}
        #: which dimensions each active query references
        self._referenced_by: dict[int, set[str]] = {}
        #: how many active queries reference each dimension
        self._reference_counts: Counter[str] = Counter()
        self._finished_queue: deque[int] = deque()

    # ------------------------------------------------------------------
    # Admission (Algorithm 1)
    # ------------------------------------------------------------------
    def admit(
        self, query: StarQuery, handle: QueryHandle | None = None
    ) -> QueryHandle:
        """Register ``query`` alone: the one-element :meth:`admit_group`."""
        return self.admit_group([(query, handle)])[0]

    def admit_group(
        self, submissions: list[tuple[StarQuery, QueryHandle | None]]
    ) -> list[QueryHandle]:
        """Register the queries that arrived together, as one Algorithm 1.

        Returns one :class:`QueryHandle` per ``(query, handle)``
        submission, in order; results become available once the
        continuous scan wraps around the group's start position.  A
        ``handle`` given with a query (the service's admission queue
        gave it out earlier) is kept: its submission timestamp predates
        admission, so ``wait_seconds`` measures the real admission wait.

        The group is admitted whole or not at all.  Ids are allocated in
        submission order; every distinct ``(dimension, predicate)`` is
        evaluated once, before any hash table is written; each table is
        then updated by one
        :meth:`~repro.cjoin.dimtable.DimensionHashTable.register_group`
        call; and one Preprocessor stall installs new Filters and
        activates every member, QueryStart tuples in submission order.

        Raises:
            QueryError: a query does not fit the star schema (nothing
                was touched).
            AdmissionError: fewer free ids than submissions.
            Exception: whatever a member's dimension predicate raised,
                tagged ``failed_submission`` = that member's position —
                no table was written and every id is free again, so the
                caller may drop the member and admit the rest.
        """
        for query, _ in submissions:
            query.validate(self.star)
        return self._admit_validated(submissions)

    def _admit_validated(
        self, submissions: list[tuple[StarQuery, QueryHandle | None]]
    ) -> list[QueryHandle]:
        """:meth:`admit_group` for queries the caller validated already."""
        if not submissions:
            return []
        started = time.perf_counter()
        with self._lock:
            self.process_finished()  # reclaim ids before allocating
            query_ids: list[int] = []
            try:
                for _ in submissions:
                    query_ids.append(self.allocator.allocate())
                registrations, rows_loaded = self._admit_locked(
                    submissions, query_ids
                )
            except Exception:
                self._rollback_admission(query_ids)
                raise
        self.stats.queries_admitted += len(registrations)
        seconds = (time.perf_counter() - started) / len(registrations)
        for rows in rows_loaded:
            self.timings.record(seconds, rows)
        return [registration.handle for registration in registrations]

    def _admit_locked(
        self,
        submissions: list[tuple[StarQuery, QueryHandle | None]],
        query_ids: list[int],
    ) -> tuple[list[RegisteredQuery], list[int]]:
        # --- Algorithm 1 lines 11-16, the reads: every distinct
        # dimension filter query of the group, once, before anything is
        # written — one that raises leaves the tables as they were.
        # Dimensions come out in first-reference order, which is the
        # order new Filters are appended in (what FixedOrderPolicy
        # preserves).
        #: dimension -> predicate -> (ids of the members carrying it, rows)
        selections: dict[str, dict] = {}
        rows_loaded = []
        for index, (query, _) in enumerate(submissions):
            loaded = 0
            try:
                for name, predicate in query.dimension_predicates.items():
                    by_predicate = selections.setdefault(name, {})
                    selection = by_predicate.get(predicate)
                    if selection is None:
                        selection = by_predicate[predicate] = (
                            [],
                            self._run_dimension_query(name, predicate),
                        )
                    selection[0].append(query_ids[index])
                    loaded += len(selection[1])
            except Exception as error:
                error.failed_submission = index
                raise
            rows_loaded.append(loaded)
        preprocessor = self.pipeline.preprocessor

        # --- Algorithm 1 lines 1-10: complement bitmaps & new tables ---
        # A dimension missing from the pipeline can only be one the
        # group references (tables are created on first reference), so
        # its complement bitmap starts as the in-flight bit union: every
        # concurrent query implicitly selects all of this dimension.
        new_filters: list[Filter] = []
        missing = [name for name in selections if name not in self._tables]
        if missing:
            preprocessor.stall()
            try:
                in_flight_bits = self._in_flight_bits()
            finally:
                preprocessor.resume()
            for name in missing:
                table = DimensionHashTable(self.star.dimension(name))
                table.complement_bitmap = in_flight_bits
                self._tables[name] = table
                new_filters.append(
                    Filter(
                        table,
                        self.star,
                        self.stats,
                        probe_skip=self.probe_skip,
                    )
                )
        # --- and lines 11-16, the writes: one group mutation per table.
        # Outside the stall, in parallel with tuple processing: the
        # group's bits are never set on fact tuples yet, so partially
        # loaded hash tables cannot produce results for it (section
        # 3.3.1 correctness argument).
        touched = 0
        for name, table in self._tables.items():
            touched += table.register_group(
                [
                    query_id
                    for query_id, (query, _) in zip(query_ids, submissions)
                    if name not in query.dimension_predicates
                ],
                selections.get(name, {}).values(),
            )
        self.stats.dim_entries_touched += touched

        # --- Algorithm 1 lines 17-22: install under one stall ---------
        admitted_at = time.perf_counter()
        registrations = [
            self._new_registration(query_id, query, handle, admitted_at)
            for query_id, (query, handle) in zip(query_ids, submissions)
        ]
        fact_rows = self.catalog.table(self.star.fact.name).row_count
        preprocessor.stall()
        try:
            for new_filter in new_filters:
                self.pipeline.add_filter(new_filter)
            if fact_rows:
                preprocessor.activate_group(registrations)
            for registration in registrations:
                registration.scanned_at_admission = self.stats.tuples_scanned
                registration.admitted_with_in_flight = len(self._registrations)
                referenced = set(registration.query.dimension_predicates)
                self._registrations[registration.query_id] = registration
                self._referenced_by[registration.query_id] = referenced
                self._reference_counts.update(referenced)
                if fact_rows:
                    registration.handle.set_progress_total(fact_rows)
                else:
                    preprocessor.finish_immediately(registration)
        finally:
            preprocessor.resume()
        return registrations, rows_loaded

    def _new_registration(
        self,
        query_id: int,
        query: StarQuery,
        handle: QueryHandle | None,
        admitted_at: float,
    ) -> RegisteredQuery:
        if handle is None:
            handle = QueryHandle(query)
        handle.admitted_at = admitted_at
        registration = RegisteredQuery(query_id, query, handle)
        # once registered, the manager owns cancellation (a queued
        # submission's handle previously pointed at the service queue);
        # the canceller pins its own registration so a stale handle can
        # never cancel a later query that recycled the same id
        handle._canceller = lambda: self.cancel(query_id, registration)
        handle.registration = registration
        return registration

    def _rollback_admission(self, query_ids: list[int]) -> None:
        """Undo the partial effects of a failed group admission.

        Clears the group's bits everywhere (restoring the unallocated-
        ids-are-zero invariant), drops dimension tables this admission
        created that never made it into the pipeline — leaving one
        behind would silently suppress Filter creation for the next
        query referencing that dimension — and frees the ids.
        """
        for query_id in query_ids:
            self._registrations.pop(query_id, None)
            self._reference_counts.subtract(
                self._referenced_by.pop(query_id, ())
            )
        for name in list(self._tables):
            table = self._tables[name]
            self.stats.dim_entries_touched += table.unregister_queries(query_ids)
            if table.is_empty and not self.pipeline.has_filter(name):
                del self._tables[name]
        for query_id in query_ids:
            self.allocator.release(query_id)

    def _in_flight_bits(self) -> int:
        """OR of the bits of every query any in-flight tuple may carry.

        Must be called with the preprocessor stalled: queries move out
        of the preprocessor's active set only while it holds its lock.
        """
        bits = 0
        for query_id in self.pipeline.distributor.open_query_ids:
            bits = bitvec.set_bit(bits, query_id)
        for query_id in self.pipeline.preprocessor.active_query_ids:
            bits = bitvec.set_bit(bits, query_id)
        return bits

    def _run_dimension_query(self, name: str, predicate) -> list[tuple]:
        """Evaluate ``sigma_cnj(D_j)`` against the store.

        The paper issues this to PostgreSQL and lets it use dimension
        indexes transparently (section 5).  Here a matching
        materialized view answers first; then the dimension's ordered
        column index (:meth:`~repro.storage.table.Table.select`: TRUE,
        ``=``, ``IN``, ``BETWEEN`` and the inequalities on one column,
        built on first use, O(log N + k)); anything else — composites,
        columns that cannot be ordered — is a buffered scan charged to
        the shared buffer pool.  All three return the same rows in heap
        order.  Wait-free with respect to the pipeline.
        """
        dimension = self.catalog.table(name)
        view = self.catalog.find_dimension_view(name, predicate)
        if view is not None:
            return view.rows()
        indexed = dimension.select(predicate)
        if indexed is not None:
            return indexed
        matcher = predicate.bind(dimension.schema)
        return [
            row
            for row in TableScan(dimension, self.buffer_pool)
            if matcher(row)
        ]

    # ------------------------------------------------------------------
    # Cancellation (DESIGN.md section 10)
    # ------------------------------------------------------------------
    def cancel(
        self,
        query_id: int,
        expected: RegisteredQuery | None = None,
    ) -> bool:
        """Deregister an in-flight query before its scan wraps.

        Runs the mid-scan deregistration under the same stall protocol
        admission uses: the Preprocessor drops the query from ``Q`` and
        emits its QueryEnd early, which flows behind any in-flight
        tuples still carrying the bit; the Distributor then tears the
        query down through the ordinary end-of-query path (state
        discarded, handle completed as cancelled) and Algorithm 2
        cleanup frees the id — so the in-flight slot is reusable within
        one scan cycle.  Returns False when the query is unknown here
        or already finished (its results stand).

        ``expected`` guards against query-id recycling: ids are reused
        as soon as cleanup releases them, so a canceller that raced a
        completion must not tear down the *next* query admitted under
        the same id.  When given, the cancellation only proceeds if the
        id still maps to that exact registration.
        """
        with self._lock:
            registration = self._registrations.get(query_id)
            if registration is None:
                return False
            if expected is not None and registration is not expected:
                return False  # the id was recycled; nothing to cancel
            handle = registration.handle
            if handle.done:
                return False
            preprocessor = self.pipeline.preprocessor
            preprocessor.stall()
            try:
                cancelled = preprocessor.cancel(registration)
                if cancelled:
                    # flag before resuming: the driver thread may
                    # process the QueryEnd immediately afterwards
                    handle.mark_cancelled()
            finally:
                preprocessor.resume()
            if cancelled:
                self.stats.queries_cancelled += 1
            return cancelled

    # ------------------------------------------------------------------
    # Finalization (Algorithm 2)
    # ------------------------------------------------------------------
    def on_query_finished(self, query_id: int) -> None:
        """Distributor callback: defer Algorithm 2 to the manager.

        Runs on the distributor's thread; the actual cleanup happens in
        :meth:`process_finished` under the manager lock, matching the
        paper's note that garbage collection is asynchronous.
        """
        self._finished_queue.append(query_id)

    def process_finished(self) -> int:
        """Run Algorithm 2 once for every queued finished query.

        The queue is drained into one group and the group is cleaned
        up together: one combined mask per hash table and at most one
        Preprocessor stall per call, however many queries the
        Distributor retired since the last one.  Returns the number of
        queries cleaned up.

        Raises:
            AdmissionError: if the queue held an id that is not
                registered — after the rest of the group was cleaned
                up, so one bad id never strands the others'.
        """
        if not self._finished_queue:
            return 0
        with self._lock:
            finished = []
            while self._finished_queue:
                finished.append(self._finished_queue.popleft())
            registrations = []
            unknown = []
            for query_id in finished:
                registration = self._registrations.pop(query_id, None)
                if registration is None:
                    unknown.append(query_id)
                else:
                    registrations.append(registration)
            if registrations:
                self._cleanup_locked(registrations)
        if unknown:
            raise AdmissionError(f"unknown finished queries {unknown}")
        return len(registrations)

    def _cleanup_locked(self, registrations: list[RegisteredQuery]) -> None:
        query_ids = [registration.query_id for registration in registrations]
        for registration in registrations:
            self._record_latency(registration)
            self._reference_counts.subtract(
                self._referenced_by.pop(registration.query_id, ())
            )
        for table in self._tables.values():
            self.stats.dim_entries_touched += table.unregister_queries(query_ids)
        # A Filter is removable only when NO active query references its
        # dimension.  The paper's emptiness test alone is unsafe: a hash
        # table can be empty because an *active* query's predicate
        # selected zero dimension rows — then the filter (probe miss ->
        # b_Dj, whose bit is 0 for that query) is exactly what drops
        # every fact tuple for it.
        removable = [
            name for name in self._tables if not self._reference_counts[name]
        ]
        if removable:
            preprocessor = self.pipeline.preprocessor
            preprocessor.stall()
            try:
                for name in removable:
                    if self.pipeline.has_filter(name):
                        self.pipeline.remove_filter(name)
                    del self._tables[name]
                    self.ordering_policy.forget(name)
            finally:
                preprocessor.resume()
        # ids go back last: a recycled id must find its bits cleared
        for query_id in query_ids:
            self.allocator.release(query_id)

    def _record_latency(self, registration: RegisteredQuery) -> None:
        """Append the query's latency breakdown to the pipeline stats.

        Runs at cleanup, after the Distributor completed the handle, so
        every timestamp is in place.  Queries torn down before
        completion (rollbacks never reach here; they are not recorded),
        and cancelled queries, are not recorded — a cancellation is not
        a latency sample.
        """
        handle = registration.handle
        if (
            handle.cancelled
            or handle.completed_at is None
            or handle.admitted_at is None
        ):
            return
        fact_rows = self.catalog.table(
            registration.query.fact_table
        ).row_count
        scanned = max(
            self.stats.tuples_scanned - registration.scanned_at_admission, 0
        )
        self.stats.record_latency(
            QueryLatencyRecord(
                query_id=registration.query_id,
                label=registration.query.label,
                wait_seconds=handle.admitted_at - handle.submitted_at,
                scan_cycles=scanned / fact_rows if fact_rows else 0.0,
                latency_seconds=handle.completed_at - handle.submitted_at,
                admitted_with_in_flight=registration.admitted_with_in_flight,
                scan_position_at_admission=registration.start_position or 0,
            )
        )

    # ------------------------------------------------------------------
    # External writers (streaming ingest, DESIGN.md section 15)
    # ------------------------------------------------------------------
    @contextmanager
    def write_barrier(self):
        """Serialize an external catalog mutation against admissions.

        Every admission — including its dimension subqueries and hash
        table builds — runs under the manager lock, so a writer holding
        this barrier mutates tables atomically with respect to query
        admission: a query admitted before the barrier saw none of the
        write set, one admitted after sees all of it.  The caller must
        still stall the Preprocessor around mutations the *scan* could
        observe mid-item (fact appends with their version stamps).
        """
        with self._lock:
            yield

    # ------------------------------------------------------------------
    # Run-time optimization (section 3.4)
    # ------------------------------------------------------------------
    def reoptimize(self) -> bool:
        """Ask the policy for a better filter order; install if changed.

        Returns True when the order changed.  Safe while tuples are in
        flight (pure permutation; see module docstring).
        """
        with self._lock:
            filters = list(self.pipeline.filters)
            if len(filters) < 2:
                return False
            recommended = self.ordering_policy.recommend(filters)
            if [f.name for f in recommended] == [f.name for f in filters]:
                self._reset_filter_windows()
                return False
            self.pipeline.reorder(recommended)
            self.stats.reoptimizations += 1
            self._reset_filter_windows()
            return True

    def _reset_filter_windows(self) -> None:
        for pipeline_filter in self.pipeline.filters:
            pipeline_filter.stats.reset()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def active_query_count(self) -> int:
        """Queries admitted and not yet cleaned up."""
        return len(self._registrations)

    def dimension_table(self, name: str) -> DimensionHashTable:
        """The shared hash table for dimension ``name`` (test hook)."""
        return self._tables[name]
