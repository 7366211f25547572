"""Query identifiers, registrations, and user-facing handles.

The paper assigns each in-flight query a unique positive integer id,
reused after the query finishes, with ``maxId(Q)`` bounded by a system
parameter ``maxConc`` (section 3, Notation).  :class:`QueryIdAllocator`
implements exactly that policy: the *first unused* id in
``[1, maxConc]`` is handed out, so ids stay dense and bit-vectors stay
short.
"""

from __future__ import annotations

import threading
import time
from heapq import heappop, heappush
from typing import TYPE_CHECKING

from repro.errors import AdmissionError, CancelledError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.query.star import StarQuery

#: Default bound on concurrently registered queries.
DEFAULT_MAX_CONCURRENT = 256


class QueryIdAllocator:
    """Allocates the first unused query id in ``[1, maxConc]``."""

    def __init__(self, max_concurrent: int = DEFAULT_MAX_CONCURRENT) -> None:
        if max_concurrent < 1:
            raise AdmissionError(
                f"maxConc must be >= 1, got {max_concurrent}"
            )
        self.max_concurrent = max_concurrent
        self._in_use: set[int] = set()
        #: released ids below the high-water mark (a min-heap); every
        #: id in ``[1, _high_water]`` is in exactly one of the two
        self._released: list[int] = []
        self._high_water = 0

    def allocate(self) -> int:
        """Return the smallest free id.

        Raises:
            AdmissionError: when ``maxConc`` queries are already active.
        """
        if self._released:
            candidate = heappop(self._released)
        elif self._high_water < self.max_concurrent:
            candidate = self._high_water = self._high_water + 1
        else:
            raise AdmissionError(
                f"operator is at its concurrency limit ({self.max_concurrent})"
            )
        self._in_use.add(candidate)
        return candidate

    def release(self, query_id: int) -> None:
        """Return ``query_id`` to the pool.

        Raises:
            AdmissionError: if the id is not currently allocated.
        """
        if query_id not in self._in_use:
            raise AdmissionError(f"query id {query_id} is not allocated")
        self._in_use.remove(query_id)
        heappush(self._released, query_id)

    @property
    def active_count(self) -> int:
        """Number of ids currently allocated."""
        return len(self._in_use)

    @property
    def max_id(self) -> int:
        """The paper's ``maxId(Q)``: the largest allocated id (0 if none)."""
        return max(self._in_use, default=0)


class RegisteredQuery:
    """Pipeline-internal registration state for one query."""

    def __init__(self, query_id: int, query: "StarQuery", handle: "QueryHandle") -> None:
        self.query_id = query_id
        self.query = query
        self.handle = handle
        #: scan position of the query's first fact tuple
        self.start_position: int | None = None
        #: True until the query's starting tuple has been emitted once;
        #: the next arrival at start_position is then the wrap-around.
        self.awaiting_first_tuple = True
        #: fact tuples emitted to this query so far (progress metric)
        self.tuples_streamed = 0
        #: pipeline-wide tuples_scanned at admission (latency telemetry)
        self.scanned_at_admission = 0
        #: queries already registered when this one was admitted; > 0
        #: means a mid-scan admission rather than a drain boundary
        self.admitted_with_in_flight = 0

    def __repr__(self) -> str:
        return f"RegisteredQuery(id={self.query_id}, label={self.query.label!r})"


class QueryHandle:
    """The caller's view of a submitted query.

    Exposes completion state, canonical results, cancellation,
    incremental result streaming, and the progress /
    estimated-completion feedback the paper highlights as a side
    benefit of the continuous scan (section 3.2.3).

    Streaming (DESIGN.md section 10): while the continuous scan is
    mid-cycle, :meth:`rows_so_far` returns the query's current partial
    result snapshot (fed by the Distributor); iterating the handle
    blocks until the scan wraps, then streams the canonical rows.
    """

    def __init__(self, query: "StarQuery") -> None:
        self.query = query
        self._done = threading.Event()
        self._results: list[tuple] | None = None
        #: set once cancel() succeeds; result accessors then raise
        #: CancelledError instead of returning rows
        self._cancelled = False
        #: set by _fail(): the error that refused a queued admission
        self._error: BaseException | None = None
        #: installed by whichever layer owns the query right now (the
        #: server session or the service for queued submissions, the
        #: manager once admitted); cancel() calls it
        self._canceller = None
        #: latest partial-result snapshot pushed by the Distributor
        self._partial_rows: list[tuple] = []
        #: True once a caller asked for partials — the Distributor
        #: skips snapshot work for handles nobody is watching
        self._stream_partials = False
        self.submitted_at = time.perf_counter()
        #: stamped by the Pipeline Manager when the query enters the
        #: pipeline; submitted_at..admitted_at is the admission wait
        self.admitted_at: float | None = None
        #: stamped on the first completion callback (with today's
        #: aggregate-only Distributor this coincides with completed_at,
        #: but streaming result delivery can move it earlier)
        self.first_result_at: float | None = None
        self.completed_at: float | None = None
        #: filled by the operator: scan cycle fraction remaining, etc.
        self.registration: RegisteredQuery | None = None
        self._progress_total: int | None = None
        #: guards the done-flag/callback handoff: registration from one
        #: thread must never race completion on the pipeline driver
        self._callback_lock = threading.Lock()
        self._callbacks: list = []

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        """True once results are available."""
        return self._done.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until done (e.g. by the service driver); returns done-ness."""
        return self._done.wait(timeout)

    def on_complete(self, callback) -> None:
        """Register ``callback(handle)`` to run at completion.

        Runs on the completing thread (the pipeline driver).  A handle
        that is already done invokes the callback immediately — the
        service layer uses this hook to track in-flight counts without
        polling.  Registration is race-free against a concurrent
        :meth:`complete`: the callback fires exactly once either way.
        """
        with self._callback_lock:
            if not self.done:
                self._callbacks.append(callback)
                return
        callback(self)

    def complete(self, results: list[tuple]) -> None:
        """Fulfill the handle (called by the Distributor)."""
        self._results = [] if self._cancelled else results
        now = time.perf_counter()
        if self.first_result_at is None:
            self.first_result_at = now
        self.completed_at = now
        with self._callback_lock:
            self._done.set()
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def results(self, timeout: float | None = None) -> list[tuple]:
        """Canonical result rows.

        With ``timeout`` (seconds), blocks until the query completes —
        the natural call under the always-on service, where completion
        happens on a background driver thread.  Without it, the
        historical non-blocking contract holds.

        Raises:
            AdmissionError: if the query has not completed yet
                (``timeout=None``), or did not complete within
                ``timeout`` seconds.
            CancelledError: if the query was cancelled.
            Exception: whatever refused the query's queued admission.
        """
        self._raise_if_no_rows()
        if timeout is not None:
            if not self.wait(timeout):
                raise AdmissionError(
                    f"query did not complete within {timeout} seconds"
                )
        elif not self.done:
            raise AdmissionError("query has not completed yet")
        self._raise_if_no_rows()
        return list(self._results)

    def _raise_if_no_rows(self) -> None:
        """Raise what ended the query without results, if anything did."""
        if self._cancelled:
            raise CancelledError(
                f"query {self.query.label or ''!r} was cancelled"
            )
        if self._error is not None:
            raise self._error

    def _fail(self, error: BaseException) -> None:
        """Complete the handle with the error that refused its admission.

        For the layer that admits queued submissions on the driving
        thread (the service's group pump): the submitter is long gone
        from the call stack, so the error travels on the handle and
        every result accessor raises it.
        """
        self._error = error
        self.complete([])

    # ------------------------------------------------------------------
    # Cancellation (DESIGN.md section 10)
    # ------------------------------------------------------------------
    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` succeeded for this query."""
        return self._cancelled

    def mark_cancelled(self) -> None:
        """Flag the query as cancelled (called by the owning layer)."""
        self._cancelled = True

    def cancel(self) -> bool:
        """Cancel the query wherever it currently lives.

        Queued submissions are dropped from their admission queue;
        registered CJOIN queries are deregistered mid-scan through the
        manager's stall protocol, freeing their in-flight slot within
        one scan cycle.  Returns True when the cancellation took
        effect, False when the query already completed (its results
        stand) or no owner is attached yet.  Idempotent: cancelling a
        cancelled query returns True.
        """
        if self._cancelled:
            return True
        if self.done:
            return False
        canceller = self._canceller
        if canceller is None:
            return False
        return bool(canceller())

    # ------------------------------------------------------------------
    # Result streaming (DESIGN.md section 10)
    # ------------------------------------------------------------------
    def update_partial(self, rows: list[tuple]) -> None:
        """Install a fresh partial-result snapshot (Distributor-fed)."""
        self._partial_rows = rows

    def rows_so_far(self) -> list[tuple]:
        """The query's current partial results, without blocking.

        Before completion this is the latest per-scan-cycle snapshot
        the Distributor pushed (empty until the first push); after
        completion it equals :meth:`results`.  The first call turns
        snapshot feeding on, so an untouched handle costs the
        Distributor nothing.
        """
        if self.done:
            return [] if self._cancelled else list(self._results)
        self._stream_partials = True
        return list(self._partial_rows)

    def __iter__(self):
        """Stream the canonical rows, blocking until the scan wraps."""
        return self.iter_rows()

    def iter_rows(self, timeout: float | None = None):
        """Yield canonical result rows as the query finalizes.

        CJOIN finalizes a query's rows when the continuous scan wraps
        to its start position, so iteration blocks (up to ``timeout``
        seconds, forever when None) until the wrap, then streams the
        rows out; use :meth:`rows_so_far` for mid-cycle partials.

        Raises:
            AdmissionError: if the query does not complete in time.
            CancelledError: if the query was cancelled.
        """
        if not self.wait(timeout):
            raise AdmissionError(
                f"query did not complete within {timeout} seconds"
            )
        self._raise_if_no_rows()
        yield from self._results

    @property
    def response_time(self) -> float:
        """Wall-clock seconds from submission to completion.

        Raises:
            AdmissionError: if the query has not completed yet.
        """
        if self.completed_at is None:
            raise AdmissionError("query has not completed yet")
        return self.completed_at - self.submitted_at

    @property
    def latency_seconds(self) -> float:
        """End-to-end seconds from submission to completion.

        Alias of :attr:`response_time` under the service vocabulary.

        Raises:
            AdmissionError: if the query has not completed yet.
        """
        return self.response_time

    @property
    def wait_seconds(self) -> float:
        """Seconds the query waited between submission and admission.

        Raises:
            AdmissionError: if the query has not been admitted yet.
        """
        if self.admitted_at is None:
            raise AdmissionError("query has not been admitted yet")
        return self.admitted_at - self.submitted_at

    # ------------------------------------------------------------------
    # Progress feedback (section 3.2.3)
    # ------------------------------------------------------------------
    def set_progress_total(self, total_tuples: int) -> None:
        """Record the scan length at admission (progress denominator)."""
        self._progress_total = max(total_tuples, 1)

    @property
    def progress(self) -> float:
        """Fraction of the continuous scan completed for this query."""
        if self.done:
            return 1.0
        if self.registration is None or self._progress_total is None:
            return 0.0
        return min(self.registration.tuples_streamed / self._progress_total, 1.0)

    def estimated_seconds_remaining(self, tuples_per_second: float) -> float:
        """Estimated completion time from the pipeline's current rate."""
        if self.done:
            return 0.0
        if self._progress_total is None or tuples_per_second <= 0:
            return float("inf")
        remaining = self._progress_total - (
            self.registration.tuples_streamed if self.registration else 0
        )
        return max(remaining, 0) / tuples_per_second
