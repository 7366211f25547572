"""The always-on warehouse service (DESIGN.md section 9).

The paper's operator never stops: the fact scan cycles indefinitely
and queries attach mid-cycle at whatever position the scan happens to
be.  :class:`WarehouseService` is that serving surface.  It owns a
background driver thread that keeps the CJOIN pipeline cycling
(idle-throttled when no query is registered), a bounded FIFO admission
queue in front of the Pipeline Manager, and the per-query latency
telemetry that backs the "predictable" half of the paper's title.

Usage, open-loop::

    service = warehouse.start_service()
    handle = warehouse.submit_sql("SELECT COUNT(*) FROM lineorder, date "
                                  "WHERE lo_orderdate = d_datekey")
    rows = handle.results(timeout=30.0)   # blocks; driver completes it
    print(service.latency_summary())      # p50/p95/p99 end-to-end
    warehouse.stop_service()

Admission protocol: ``submit()`` may be called from any thread at any
moment, and only ever *enqueues*: it validates the query, appends it to
the FIFO and returns a :class:`~repro.cjoin.registry.QueryHandle` whose
``results(timeout=...)`` blocks until the continuous scan wraps.  The
driving thread admits at its next batch boundary — the background
driver between two batches (an idle one is woken by the enqueue rather
than sleeping out ``idle_sleep``), ``drain()`` and ``pump()`` on the
calling thread.  There it pops ``min(queued, free slots)`` submissions
and hands them to the Pipeline Manager as *one group*
(:meth:`~repro.cjoin.manager.PipelineManager.admit_group`): Algorithm 1
runs once for the queries that arrived together, the scan pauses for
one stall, and the rest of the queue waits for completions to free
slots.  A submission that would find a free slot is never refused: the
queue holds at most free slots + ``admission_queue_depth`` entries,
beyond which ``submit()`` raises :class:`~repro.errors.AdmissionError`.
An error raised while admitting a queued query (a dimension predicate
that cannot be evaluated) reaches the caller through the handle.

Shutdown protocol: ``stop()`` sets the service's stop event and joins
the driver thread.  Admitted-but-unfinished queries stay registered
and resume on the next ``start()`` or ``drain()`` — stopping never
corrupts pipeline state.
"""

from __future__ import annotations

import threading
from collections import deque

from repro.cjoin.operator import CJoinOperator
from repro.cjoin.registry import QueryHandle
from repro.errors import AdmissionError, PipelineError
from repro.query.star import StarQuery
from repro.tuning import TuningConfig


class WarehouseService:
    """Long-running serving surface over one CJOIN operator.

    Args:
        operator: the always-on operator to drive.
        tuning: the service's knobs as one validated
            :class:`~repro.tuning.TuningConfig` — ``max_in_flight``
            (bound on concurrently registered queries; None defaults
            to, and any value is capped by, the operator's
            ``maxConc``), ``idle_sleep`` (driver sleep between polls
            while idle), and ``admission_queue_depth`` (bound on
            submissions waiting for a slot; a full queue rejects with
            :class:`~repro.errors.AdmissionError` back-pressure).
            Runtime-mutable through :meth:`reconfigure`.
    """

    def __init__(
        self,
        operator: CJoinOperator,
        tuning: TuningConfig | None = None,
    ) -> None:
        self.operator = operator
        self._cond = threading.Condition()
        self._apply_tuning(tuning if tuning is not None else TuningConfig())
        self._queue: deque[tuple[StarQuery, QueryHandle]] = deque()
        self._in_flight = 0
        self._stop_event = threading.Event()
        #: set by an enqueue (and by stop()) so an idle driver pumps
        #: now instead of sleeping out idle_sleep
        self._wake = threading.Event()
        self._thread: threading.Thread | None = None
        self._driver_error: BaseException | None = None
        #: optional scan-boundary callback, run on the driving thread
        #: right before each admission pump (so admissions stamped in
        #: the same boundary see its effects).  The warehouse installs
        #: its ingest apply here (DESIGN.md section 15); it fires on
        #: every drive path — background driver, drain(), and pump().
        self.cycle_hook = None

    def _apply_tuning(self, tuning: TuningConfig) -> None:
        """Install a (validated) tuning config under the service lock."""
        max_concurrent = self.operator.manager.allocator.max_concurrent
        requested = (
            tuning.max_in_flight
            if tuning.max_in_flight is not None
            else max_concurrent
        )
        with self._cond:
            self._tuning = tuning
            #: the operator can never register more than maxConc
            #: queries, so a larger request silently clamps rather than
            #: guaranteeing AdmissionError storms from the id allocator
            self.max_in_flight = min(requested, max_concurrent)
            self.idle_sleep = tuning.idle_sleep
            self.admission_queue_depth = tuning.admission_queue_depth
            self._cond.notify_all()

    @property
    def tuning(self) -> TuningConfig:
        """The service's current tuning config (immutable snapshot)."""
        with self._cond:
            return self._tuning

    def reconfigure(self, tuning: TuningConfig) -> None:
        """Apply new service bounds to a *running* service, thread-safe.

        Growing ``max_in_flight`` lets the driver's next admission pump
        (once per scan cycle) drain the FIFO into the new slots;
        shrinking stops further admissions until completions bring the
        in-flight count under the new bound — registered queries are
        never evicted.  Shrinking ``admission_queue_depth`` below the
        current queue length keeps the queued entries and only rejects
        new submissions.  ``idle_sleep`` reaches the live driver loop
        through the callable handed to ``run_forever``.
        """
        self._apply_tuning(tuning)

    def snapshot(self) -> dict:
        """A JSON-able view of the service's live admission state.

        The ``service`` section of ``Warehouse.stats()`` (DESIGN.md
        section 13): the *effective* bounds (post-clamp), occupancy,
        and queue depth at this instant.
        """
        with self._cond:
            return {
                "running": self.running,
                "in_flight": self._in_flight,
                "queued": len(self._queue),
                "max_in_flight": self.max_in_flight,
                "admission_queue_depth": self.admission_queue_depth,
                "idle_sleep": self.idle_sleep,
            }

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        """True while the background driver thread is alive."""
        thread = self._thread
        return thread is not None and thread.is_alive()

    @property
    def in_flight(self) -> int:
        """Queries admitted and not yet completed."""
        with self._cond:
            return self._in_flight

    @property
    def queued(self) -> int:
        """Submissions waiting for an in-flight slot."""
        with self._cond:
            return len(self._queue)

    def latency_summary(self) -> dict[str, float]:
        """p50/p95/p99 latency and admission-wait percentiles so far."""
        return self.operator.stats.latency_summary()

    @property
    def latency_records(self):
        """The most recent per-query latency records, oldest first."""
        return self.operator.stats.recent_latency_records()

    # ------------------------------------------------------------------
    # Submission (any thread, any time)
    # ------------------------------------------------------------------
    def submit(
        self, query: StarQuery, handle: QueryHandle | None = None
    ) -> QueryHandle:
        """Submit a star query; returns its handle immediately.

        The query joins the FIFO; the driving thread admits it, with
        whatever else is queued, at its next batch boundary.

        Raises:
            AdmissionError: when the admission queue is full.
            QueryError: when the query does not fit the star schema
                (validated up front so queued submissions cannot fail
                late on the driver thread).
        """
        query.validate(self.operator.star)
        return self._enqueue(query, handle)

    def _enqueue(
        self, query: StarQuery, handle: QueryHandle | None
    ) -> QueryHandle:
        """:meth:`submit` for a query the caller validated already."""
        if handle is None:
            handle = QueryHandle(query)
        # the service owns cancellation while the query waits in the
        # FIFO; admission hands ownership to the Pipeline Manager
        handle._canceller = lambda: self._cancel(handle)
        with self._cond:
            free = max(self.max_in_flight - self._in_flight, 0)
            if len(self._queue) >= free + self.admission_queue_depth:
                raise AdmissionError(
                    f"admission queue is full "
                    f"({len(self._queue)} queries waiting for {free} free "
                    f"slots); retry later or raise admission_queue_depth"
                )
            self._queue.append((query, handle))
            self._cond.notify_all()
        self._wake.set()
        return handle

    def _on_query_done(self, handle: QueryHandle) -> None:
        """Completion callback: free the slot and wake waiters."""
        with self._cond:
            self._in_flight -= 1
            self._cond.notify_all()

    def _cancel(self, handle: QueryHandle) -> bool:
        """Cancel a submission that may still be waiting in the FIFO.

        A queued submission is dropped in place (it never held a slot);
        one that made it into the pipeline is delegated to the
        manager's mid-scan deregistration.  Returns False on the narrow
        race where the driver popped the query but has not registered
        it yet — the caller may simply retry ``handle.cancel()``.
        """
        with self._cond:
            dequeued = False
            for position, entry in enumerate(self._queue):
                if entry[1] is handle:
                    del self._queue[position]
                    handle.mark_cancelled()
                    dequeued = True
                    self._cond.notify_all()
                    break
        if dequeued:
            handle.complete([])  # outside the lock: runs callbacks
            return True
        registration = handle.registration
        if registration is None:
            return False
        # pass the registration so a recycled query id can never tear
        # down a later query (manager.cancel verifies identity)
        return self.operator.manager.cancel(
            registration.query_id, registration
        )

    def _on_cycle(self) -> int:
        """The per-cycle driver callback: scan-boundary hook, then pump."""
        hook = self.cycle_hook
        if hook is not None:
            hook()
        return self._pump_admissions()

    def _pump_admissions(self) -> int:
        """Admit ``min(queued, free slots)`` submissions as one group.

        Called on the driving thread at every batch boundary (the
        driver loop, ``drain()``, ``pump()``).  Returns the number
        admitted.  The group admission runs outside the service lock,
        so submitters and completion callbacks never block behind a
        dimension subquery; FIFO holds because only this thread pops.
        The group is admitted whole or not at all: a member whose
        dimension predicate raises gets the error on its handle and the
        others go back to the head of the queue for the next boundary
        (an error no member can be blamed for fails the whole group's
        handles; none is left to hang).
        """
        with self._cond:
            count = min(len(self._queue), self.max_in_flight - self._in_flight)
            if count <= 0:
                return 0
            group = [self._queue.popleft() for _ in range(count)]
            self._in_flight += count
        try:
            self.operator.manager._admit_validated(group)
        except Exception as error:
            # all or nothing: no member was admitted
            if isinstance(error, AdmissionError):
                refused = ()  # ids still held pending cleanup: retry all
            else:
                culprit = getattr(error, "failed_submission", None)
                refused = range(count) if culprit is None else (culprit,)
            with self._cond:
                self._in_flight -= count
                self._queue.extendleft(
                    group[index]
                    for index in reversed(range(count))
                    if index not in refused
                )
                self._cond.notify_all()
            for index in refused:
                group[index][1]._fail(error)
            return 0
        for _, handle in group:
            handle.on_complete(self._on_query_done)
        return count

    # ------------------------------------------------------------------
    # Background driver lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "WarehouseService":
        """Start the background continuous-scan driver.

        Returns self, so ``service = warehouse.start_service()`` reads
        naturally.  Restartable: ``start()`` after ``stop()`` spins up
        a fresh driver over the same pipeline state.

        Raises:
            PipelineError: if the driver is already running.
        """
        with self._cond:
            if self.running:
                raise PipelineError("service driver is already running")
            self._driver_error = None
            self._stop_event = threading.Event()
            self._thread = threading.Thread(
                target=self._drive, name="warehouse-service", daemon=True
            )
            self._thread.start()
        return self

    def _drive(self) -> None:
        try:
            self.operator.executor.run_forever(
                # a callable, so reconfigure() retunes the idle
                # throttle of the running driver (DESIGN.md section 13)
                idle_sleep=lambda: self.idle_sleep,
                on_cycle=self._on_cycle,
                stop_event=self._stop_event,
                wake=self._wake,
            )
        except BaseException as error:  # keep stop()/drain() informative
            self._driver_error = error
        finally:
            self.operator.manager.process_finished()
            with self._cond:
                self._cond.notify_all()

    def stop(self, timeout: float = 10.0) -> None:
        """Shut the driver down cleanly (idempotent).

        Joins the driver thread.  In-flight queries stay registered;
        they resume on the next ``start()`` or ``drain()``.

        Raises:
            PipelineError: if the driver does not stop within
                ``timeout`` seconds, or previously crashed.
        """
        thread = self._thread
        self._stop_event.set()
        self._wake.set()
        with self._cond:
            self._cond.notify_all()
        if thread is not None:
            thread.join(timeout)
            if thread.is_alive():
                raise PipelineError(
                    f"service driver did not stop within {timeout} seconds"
                )
        self._thread = None
        self._raise_driver_error()

    def _raise_driver_error(self) -> None:
        if self._driver_error is not None:
            error, self._driver_error = self._driver_error, None
            raise PipelineError(
                "service driver crashed; pipeline state preserved"
            ) from error

    # ------------------------------------------------------------------
    # Draining (the Warehouse.run() compatibility path)
    # ------------------------------------------------------------------
    def drain(self, timeout: float | None = None) -> None:
        """Run every submitted query to completion.

        With the driver running, blocks until the queue empties and the
        last in-flight query completes.  Without it, drives the
        pipeline on the calling thread — the historical batch-drain
        behaviour ``Warehouse.run()`` is specified to keep.

        Raises:
            PipelineError: on ``timeout`` (running driver only) or
                driver crash.
        """
        if self.running:
            with self._cond:
                done = self._cond.wait_for(
                    lambda: (
                        (not self._queue and self._in_flight == 0)
                        or self._driver_error is not None
                    ),
                    timeout,
                )
            self._raise_driver_error()
            if not done:
                raise PipelineError(
                    f"service did not drain within {timeout} seconds"
                )
            return
        self._raise_driver_error()
        while True:
            self._on_cycle()
            self.operator.run_until_drained()
            self.operator.manager.process_finished()
            with self._cond:
                if not self._queue and self._in_flight == 0:
                    return

    def pump(self, batches: int = 1) -> int:
        """Deterministic single-thread drive: admissions + ``batches`` steps.

        The embedded-mode hook tests use to interleave submissions with
        scan progress at exact batch offsets (mid-scan admission
        equivalence).  Returns the number of items handled.

        Raises:
            PipelineError: when the background driver is running (the
                driver owns the pipeline then).
        """
        if self.running:
            raise PipelineError(
                "pump() conflicts with the running driver; call stop() first"
            )
        executor = self.operator.executor
        handled = 0
        for _ in range(batches):
            self._on_cycle()
            handled += executor.step()
        return handled
