"""The always-on warehouse service (DESIGN.md section 9).

The paper's operator never stops: the fact scan cycles indefinitely
and queries attach mid-cycle at whatever position the scan happens to
be.  :class:`WarehouseService` is that serving surface.  It owns the
driver that keeps the CJOIN pipeline cycling (idle-throttled when no
query is registered), a bounded FIFO admission queue in front of the
Pipeline Manager, and the per-query latency telemetry that backs the
"predictable" half of the paper's title.

The driver is one drive body — scan-boundary hook, admission pump, one
``executor.step()``, idle detection (:meth:`WarehouseService._drive_once`)
— with two hosts.  Embedded, it runs on a ``warehouse-service``
thread.  Served, it runs as a task on the server's event loop, handed
in by :class:`~repro.server.tcp.WarehouseServer`, so a served
warehouse has exactly one thread running Python: the task yields to
the sockets between slices of steps, each slice running twice as long
as the sockets did before it (one step when they are quiet), and an
idle one waits on the submission wake or an ``idle_sleep`` poll.
``running``, ``start()``, ``stop()``, ``drain()`` and
crash reporting mean the same under either host and from any thread;
``stop()`` on the loop's own thread returns at once (the task is
parked, and ends at its next resumption without stepping again).

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

Shutdown protocol: ``stop()`` sets the run's stop event and waits for
the drive body to exit.  Admitted-but-unfinished queries stay
registered and resume on the next ``start()`` or ``drain()`` —
stopping never corrupts pipeline state.  One thread steps the pipeline
at a time: ``start()`` refuses while ``drain()`` or ``pump()`` drive
it on a calling thread, and they refuse while the driver runs.
"""

from __future__ import annotations

import asyncio
import sys
import threading
import time
from collections import deque

from repro.cjoin.operator import CJoinOperator
from repro.cjoin.registry import QueryHandle
from repro.errors import AdmissionError, PipelineError
from repro.query.star import StarQuery
from repro.tuning import TuningConfig

#: How often a busy loop-hosted driver runs one slice long enough for
#: another thread of the process to get the GIL (seconds of scanning).
HANDOFF_PERIOD_S = 0.1


def _on_loop(loop: asyncio.AbstractEventLoop | None) -> bool:
    """True when the calling thread is running ``loop``."""
    try:
        return loop is not None and asyncio.get_running_loop() is loop
    except RuntimeError:
        return False  # no loop runs on this thread


def call_on_loop(loop: asyncio.AbstractEventLoop, callback, *args) -> None:
    """Schedule ``callback(*args)`` on ``loop`` from any thread.

    On the loop's own thread this is ``call_soon``: no byte goes
    through the self-pipe and the selector is not woken again.  Any
    other thread takes ``call_soon_threadsafe``.  A closed loop drops
    the call (whoever waited on it was cancelled with the loop).
    """
    if _on_loop(loop):
        loop.call_soon(callback, *args)
        return
    try:
        loop.call_soon_threadsafe(callback, *args)
    except RuntimeError:
        pass  # loop closed


def resolve(future: asyncio.Future) -> None:
    """Complete ``future`` unless something got there first."""
    if not future.done():
        future.set_result(None)


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
        #: the handles the pump popped and is admitting right now; a
        #: cancel that finds its handle here is carried out by the pump
        self._admitting: list[QueryHandle] = []
        #: True while drain() or pump() steps on a calling thread;
        #: start() refuses then, so one stepper drives the pipeline
        self._driving = False
        #: the current run's stop signal and exit mark; start() makes a
        #: fresh pair, so a late exit of an old run never reads as the
        #: new one's
        self._stop_event = threading.Event()
        self._finished: threading.Event | None = None
        #: set by an enqueue (and by stop()) so an idle driver pumps
        #: now instead of sleeping out idle_sleep
        self._wake = threading.Event()
        self._thread: threading.Thread | None = None
        #: the event loop a server handed in (:meth:`_host`): while
        #: set, start() runs the drive body as a task on it
        self._loop: asyncio.AbstractEventLoop | None = None
        self._task: asyncio.Task | None = None
        #: what a loop-hosted driver awaits while idle; a wake resolves it
        self._idle_waiter: asyncio.Future | None = None
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
        new submissions.  ``idle_sleep`` is read by the live driver at
        its next idle wait.
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
        """True from ``start()`` until the driver stops or crashes,
        whichever host (thread or event loop) runs it."""
        finished = self._finished
        return finished is not None and not finished.is_set()

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
        self._signal_wake()
        return handle

    def _signal_wake(self) -> None:
        """Cut an idle driver's wait short, on either host."""
        self._wake.set()
        waiter = self._idle_waiter
        if waiter is not None:
            call_on_loop(waiter.get_loop(), resolve, waiter)

    def _on_query_done(self, handle: QueryHandle) -> None:
        """Completion callback: free the slot and wake waiters."""
        with self._cond:
            self._in_flight -= 1
            self._cond.notify_all()

    def _cancel(self, handle: QueryHandle) -> bool:
        """Cancel a submission wherever the service holds it.

        A queued submission is dropped in place (it never held a slot).
        One the driving thread is admitting right now is flagged, and
        the pump deregisters it as soon as it is registered
        (:meth:`_pump_admissions`), so the cancel is definitive either
        way.  One that made it into the pipeline is delegated to the
        manager's mid-scan deregistration.
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
            else:
                if any(member is handle for member in self._admitting):
                    handle.mark_cancelled()
                    return True
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
        """The batch-boundary callback: scan-boundary hook, then pump."""
        hook = self.cycle_hook
        if hook is not None:
            hook()
        return self._pump_admissions()

    def _drive_once(self) -> int:
        """The drive body, once: boundary hook, admission pump, one step.

        Every host runs exactly this — the ``warehouse-service``
        thread, the task on a server's event loop, and ``pump()`` —
        and treats a return of 0 (nothing scanned, no control tuple) as
        idle.  Returns the number of items the step handled.
        """
        self._on_cycle()
        return self.operator.executor.step()

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
        handles; none is left to hang).  A member cancelled while the
        group was being admitted is deregistered right after, or, when
        the group failed, completed as cancelled instead of requeued.
        """
        with self._cond:
            count = min(len(self._queue), self.max_in_flight - self._in_flight)
            if count <= 0:
                return 0
            group = [self._queue.popleft() for _ in range(count)]
            self._in_flight += count
            self._admitting = [handle for _, handle in group]
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
                self._admitting = []
                self._in_flight -= count
                requeued, dropped = [], []
                for index, entry in enumerate(group):
                    if index not in refused:
                        (dropped if entry[1].cancelled else requeued).append(
                            entry
                        )
                self._queue.extendleft(reversed(requeued))
                self._cond.notify_all()
            for index in refused:
                group[index][1]._fail(error)
            for _, handle in dropped:
                handle.complete([])  # cancelled while it was being admitted
            return 0
        with self._cond:
            self._admitting = []
        for _, handle in group:
            handle.on_complete(self._on_query_done)
            if handle.cancelled:  # cancelled while it was being admitted
                registration = handle.registration
                self.operator.manager.cancel(
                    registration.query_id, registration
                )
        return count

    # ------------------------------------------------------------------
    # Driver lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "WarehouseService":
        """Start the continuous-scan driver.

        On a ``warehouse-service`` thread, or as a task on the event
        loop a server handed in (:meth:`_host`).  Returns self, so
        ``service = warehouse.start_service()`` reads naturally.
        Restartable: ``start()`` after ``stop()`` spins up a fresh
        driver over the same pipeline state, on the same host.

        Raises:
            PipelineError: if the driver is already running, if
                ``drain()`` or ``pump()`` is stepping the pipeline on a
                calling thread, or if its event loop has closed.
        """
        with self._cond:
            if self.running:
                raise PipelineError("service driver is already running")
            if self._driving:
                raise PipelineError(
                    "drain() or pump() is driving the pipeline on a "
                    "calling thread; start the driver once it returns"
                )
            self._driver_error = None
            stop, finished = threading.Event(), threading.Event()
            self._stop_event, self._finished = stop, finished
            loop = self._loop
            if loop is None:
                self._thread = threading.Thread(
                    target=self._run_thread,
                    args=(stop, finished),
                    name="warehouse-service",
                    daemon=True,
                )
                self._thread.start()
                return self
            try:
                loop.call_soon_threadsafe(self._spawn, loop, stop, finished)
            except RuntimeError:
                finished.set()
                raise PipelineError(
                    "the service driver's event loop is closed"
                ) from None
        return self

    def _spawn(self, loop, stop, finished) -> None:
        self._task = loop.create_task(
            self._run_task(stop, finished), name="warehouse-service"
        )

    def _run_thread(self, stop: threading.Event, finished) -> None:
        """The thread host: the drive body, idle waits on the wake."""
        try:
            while not stop.is_set():
                if self._drive_once() == 0:
                    self._wake.wait(self.idle_sleep)
                    # cleared before the next boundary: whatever set it
                    # is seen there, a later set stays set
                    self._wake.clear()
        except BaseException as error:  # keep stop()/drain() informative
            self._driver_error = error
        finally:
            self._run_ended(finished)

    async def _run_task(self, stop: threading.Event, finished) -> None:
        """The event-loop host: the drive body between socket callbacks.

        The task yields after every slice of steps, so a ready frame
        waits one slice at most.  A slice is one step, or as many as
        it takes to run twice as long as everything else on the loop
        ran since the task last yielded: a turn crowded with ready
        sockets cannot starve the scan, which keeps two thirds of the
        thread under any storm of frames.  An idle driver awaits the
        wake or a poll (:meth:`_idle_wait`).

        Busy, the loop gives the GIL up only inside its ``select()``
        and takes it back before a thread waiting for it can wake, so
        such a thread would wait as long as the scan stays busy.  One
        slice per :data:`HANDOFF_PERIOD_S` therefore outlasts twice the
        interpreter's switch interval, long enough for CPython's forced
        switch to hand the GIL over.
        """
        loop = asyncio.get_running_loop()
        try:
            yielded_at = handed_at = time.perf_counter()
            while not stop.is_set():
                started = time.perf_counter()
                length = 2 * (started - yielded_at)
                if started - handed_at >= HANDOFF_PERIOD_S:
                    length = max(length, 2 * sys.getswitchinterval())
                    handed_at = started
                idle = self._drive_once() == 0
                while (
                    not idle
                    and not stop.is_set()
                    and time.perf_counter() - started < length
                ):
                    idle = self._drive_once() == 0
                if idle:
                    # blocked in select(), the loop lets every thread in
                    await self._idle_wait(loop, stop)
                    yielded_at = handed_at = time.perf_counter()
                else:
                    yielded_at = time.perf_counter()
                    await asyncio.sleep(0)
        except asyncio.CancelledError:
            raise  # the loop is shutting down under the driver: a stop
        except BaseException as error:  # keep stop()/drain() informative
            self._driver_error = error
        finally:
            self._run_ended(finished)

    async def _idle_wait(
        self, loop: asyncio.AbstractEventLoop, stop: threading.Event
    ) -> None:
        """Park the task until a wake or until a poll finds work.

        Every ``idle_sleep`` a timer callback runs the drive body once
        (work can also arrive without a wake: a staged ingest batch, a
        query admitted past the service); the task itself only resumes
        once there is something to scan, so an idle loop turns once per
        poll, not twice.
        """
        waiter = loop.create_future()
        timer = None

        def poll() -> None:
            nonlocal timer
            if waiter.done():
                return  # woken already: the task steps next
            try:
                busy = self._drive_once() != 0
            except BaseException as error:  # the task reports it
                waiter.set_exception(error)
                return
            if busy or stop.is_set():
                resolve(waiter)
            else:
                timer = loop.call_later(self.idle_sleep, poll)

        self._idle_waiter = waiter
        try:
            # a wake set before the waiter was visible is not lost
            if not self._wake.is_set():
                timer = loop.call_later(self.idle_sleep, poll)
                await waiter
        finally:
            self._idle_waiter = None
            if timer is not None:
                timer.cancel()
        self._wake.clear()

    def _run_ended(self, finished: threading.Event) -> None:
        try:
            self.operator.manager.process_finished()
        finally:
            self._mark_stopped(finished)

    def _mark_stopped(self, finished: threading.Event) -> None:
        """End a run once: ``running`` turns False, waiters wake."""
        if finished.is_set():
            return
        finished.set()
        with self._cond:
            self._cond.notify_all()

    def stop(self, timeout: float = 10.0) -> None:
        """Shut the driver down cleanly (idempotent).

        Waits for the drive body to exit — except on the driver's own
        event loop, where the task is parked at an await while this
        runs: it is marked stopped at once and ends at its next
        resumption without stepping again.  In-flight queries stay
        registered; they resume on the next ``start()`` or ``drain()``.

        Raises:
            PipelineError: if the driver does not stop within
                ``timeout`` seconds, or previously crashed.
        """
        with self._cond:
            finished, thread = self._finished, self._thread
            self._stop_event.set()
            self._cond.notify_all()
        self._signal_wake()
        if finished is not None and not finished.is_set():
            loop = self._loop
            if thread is None and loop is not None and (
                _on_loop(loop) or loop.is_closed()
            ):
                self._mark_stopped(finished)
            elif not finished.wait(timeout):
                raise PipelineError(
                    f"service driver did not stop within {timeout} seconds"
                )
        if thread is not None:
            thread.join(timeout)
        self._thread = None
        self._raise_driver_error()

    def _raise_driver_error(self) -> None:
        if self._driver_error is not None:
            error, self._driver_error = self._driver_error, None
            raise PipelineError(
                "service driver crashed; pipeline state preserved"
            ) from error

    def _host(self, loop: asyncio.AbstractEventLoop) -> bool:
        """Make ``loop`` the driver's host and start the driver there.

        What a server calls with its own event loop: from now on
        ``start()`` runs the drive body as a task on ``loop``.  A
        driver already running on a thread is stopped and taken over;
        returns True when one was, so the caller can hand it back
        after :meth:`_unhost`.
        """
        taken_over = self.running
        if taken_over:
            self.stop()
        with self._cond:
            self._loop = loop
        self.start()
        return taken_over

    def _unhost(self) -> None:
        """Stop the loop-hosted driver and detach from the loop, so the
        next ``start()`` runs a thread again.

        Raises:
            PipelineError: like :meth:`stop`, when the driver crashed
                (the service is detached either way).
        """
        try:
            self.stop()
        finally:
            with self._cond:
                self._loop = self._task = None

    # ------------------------------------------------------------------
    # Draining (the Warehouse.run() compatibility path)
    # ------------------------------------------------------------------
    def drain(self, timeout: float | None = None) -> None:
        """Run every submitted query to completion.

        With the driver running, blocks until the queue empties and the
        last in-flight query completes.  Without it, drives the
        pipeline on the calling thread — the historical batch-drain
        behaviour ``Warehouse.run()`` is specified to keep — and
        ``start()`` refuses until it returns.

        Raises:
            PipelineError: on ``timeout`` (running driver only), on
                driver crash, when another thread is driving the
                pipeline with ``drain()`` or ``pump()``, or when called
                on the event loop that hosts the running driver (the
                wait would block it).
        """
        if not self._claim_calling_thread():
            if _on_loop(self._loop):
                raise PipelineError(
                    "drain() on the driver's own event loop would block it"
                )
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
        try:
            self._raise_driver_error()
            while True:
                self._on_cycle()
                self.operator.run_until_drained()
                self.operator.manager.process_finished()
                with self._cond:
                    if not self._queue and self._in_flight == 0:
                        return
        finally:
            self._release_calling_thread()

    def pump(self, batches: int = 1) -> int:
        """Deterministic single-thread drive: admissions + ``batches`` steps.

        The embedded-mode hook tests use to interleave submissions with
        scan progress at exact batch offsets (mid-scan admission
        equivalence).  Returns the number of items handled.

        Raises:
            PipelineError: when the background driver is running (the
                driver owns the pipeline then), or another thread is
                driving it with ``drain()`` or ``pump()``.
        """
        if not self._claim_calling_thread():
            raise PipelineError(
                "pump() conflicts with the running driver; call stop() first"
            )
        try:
            handled = 0
            for _ in range(batches):
                handled += self._drive_once()
            return handled
        finally:
            self._release_calling_thread()

    def _claim_calling_thread(self) -> bool:
        """Make the calling thread the pipeline's one stepper.

        Returns False when the driver is running (it steps then).

        Raises:
            PipelineError: when another ``drain()`` or ``pump()`` is
                stepping already.
        """
        with self._cond:
            if self.running:
                return False
            if self._driving:
                raise PipelineError(
                    "another thread is driving the pipeline with drain() "
                    "or pump()"
                )
            self._driving = True
            return True

    def _release_calling_thread(self) -> None:
        with self._cond:
            self._driving = False
