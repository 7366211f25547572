"""The submission lifecycle (DESIGN.md section 10).

Every query entering the warehouse rides the always-on CJOIN service
(paper section 3.1) and is wrapped in one :class:`Submission`:
*submitted* (handle created, timestamps running) -> *admitted* (work
started; queued submissions can be cancelled for free until here) ->
*completed* or *cancelled*.  The warehouse keeps one bounded submission
log of them.

:class:`SubmissionQueue` is the FIFO a layer *above* the warehouse
parks submissions in before handing them over — the TCP server's
per-connection admission queue (``server/session.py``).  It is a
first-class citizen of the cancellation protocol: a queued
submission's handle carries a canceller that drops the entry in place,
mirroring what the service's admission FIFO does once the warehouse
has the query.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.cjoin.registry import QueryHandle
from repro.query.star import StarQuery

#: The route of a query the warehouse accepted (a session's queue
#: tags its not-yet-handed-over entries ``'remote'``).
ROUTE_SERVICE = "service"


@dataclass
class Submission:
    """One query's trip through the warehouse.

    Attributes:
        query: the validated star query.
        handle: the caller's handle; its timestamps (``submitted_at``,
            ``admitted_at``, ``completed_at``) are the single source of
            truth for this submission's latency telemetry.
        route: ``'service'``, or ``'remote'`` while a server session
            still holds it.
        label: the query's label (telemetry convenience).
    """

    query: StarQuery
    handle: QueryHandle
    route: str
    label: str | None = field(default=None)

    def __post_init__(self) -> None:
        if self.label is None:
            self.label = self.query.label

    @property
    def done(self) -> bool:
        """True once the handle completed (including cancellations)."""
        return self.handle.done

    @property
    def cancelled(self) -> bool:
        """True once the submission was cancelled."""
        return self.handle.cancelled

    @property
    def admitted(self) -> bool:
        """True once work started (the handle was stamped)."""
        return self.handle.admitted_at is not None

    def __repr__(self) -> str:
        state = (
            "cancelled"
            if self.cancelled
            else "done"
            if self.done
            else "admitted"
            if self.admitted
            else "queued"
        )
        return (
            f"Submission(route={self.route!r}, label={self.label!r}, "
            f"{state})"
        )


class SubmissionQueue:
    """FIFO of submissions waiting to be handed to the warehouse.

    Thread-safe; used by the server session for statements beyond its
    connection's in-flight bound.  Cancellation drops a queued entry in
    place and completes its handle as cancelled — identical semantics
    to the service's admission FIFO.
    """

    def __init__(self, route: str) -> None:
        self.route = route
        self._lock = threading.Lock()
        self._entries: list[Submission] = []

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def add(self, submission: Submission) -> None:
        """Enqueue and take cancellation ownership of the handle."""
        submission.handle._canceller = lambda: self.cancel(submission)
        with self._lock:
            self._entries.append(submission)

    def cancel(self, submission: Submission) -> bool:
        """Drop a queued submission; no-op once a pump claimed it."""
        with self._lock:
            try:
                self._entries.remove(submission)
            except ValueError:
                return False
            submission.handle.mark_cancelled()
        submission.handle.complete([])  # outside the lock: callbacks
        return True

    def cancel_all(self) -> int:
        """Cancel every queued submission (session teardown).

        Blocked waiters on the dropped handles wake with
        ``CancelledError`` instead of hanging forever.  Returns the
        number cancelled.
        """
        with self._lock:
            batch, self._entries = self._entries, []
        for submission in batch:
            submission.handle.mark_cancelled()
            submission.handle.complete([])
        return len(batch)

    def take(self) -> list[Submission]:
        """Claim every pending submission (FIFO order)."""
        with self._lock:
            batch, self._entries = self._entries, []
        return batch

    def restore(self, batch: list[Submission]) -> None:
        """Return the unsubmitted rest of a claimed batch.

        The handles' cancellers still point at this queue (``take()``
        never detaches them; a cancel while claimed was just a no-op),
        so re-queueing the entries makes them cancellable again with
        no further wiring.
        """
        with self._lock:
            self._entries = [*batch, *self._entries]
