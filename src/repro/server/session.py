"""The socket-free server session core (DESIGN.md section 11).

Everything about a connection that is *not* socket I/O or waiting
lives here, so the protocol semantics can be driven — and timed, as
``benchmarks/layered/seamtrace.py`` does — without a socket.  A
:class:`ServerSession` owns one connection's server-side state: the
HELLO version negotiation (docs/PROTOCOL.md section 2), the statement
registry mapping query ids to handles, the per-connection admission
queue and its pump (the fairness layer of docs/ARCHITECTURE.md section
4), EXECUTE parse/bind/submit with executemany atomicity, CANCEL/CLOSE
semantics, partial-mode FETCH, result paging, and the teardown
guarantee that a vanished client's slots free within one scan cycle.

What stays in the transport (:mod:`repro.server.tcp`) is how to
*wait*: it parks a task on a completion callback.  No wait appears
here — every method of this class is non-blocking and must be called
from a single thread (or a single event loop): the connection's.
"""

from __future__ import annotations

from repro.client.cursor import describe
from repro.client.exceptions import InterfaceError, translated
from repro.cjoin.registry import QueryHandle
from repro.engine.submission import Submission, SubmissionQueue
from repro.errors import AdmissionError, IngestBackpressureError, ReproError
from repro.server import protocol
from repro.server.protocol import ProtocolError
from repro.sql.parser import bind_parameters, bind_star_query, parse_select

#: Upper bound a FETCH frame may request for one page; also the cap on
#: one partial-mode snapshot (docs/PROTOCOL.md section 6).
MAX_PAGE_ROWS = 65536

#: Default per-connection bound on staged-but-unacked INGEST rows (the
#: write-side twin of ``max_in_flight_per_connection``,
#: docs/PROTOCOL.md section 10).
DEFAULT_MAX_PENDING_INGEST_ROWS = 65536


def timeout_of(frame: dict) -> float | None:
    """A FETCH or INGEST frame's optional ``timeout``, validated.

    Raises:
        ProtocolError: when it is neither a number nor null.
    """
    timeout = frame.get("timeout")
    if timeout is not None and (
        isinstance(timeout, bool) or not isinstance(timeout, (int, float))
    ):
        raise ProtocolError(
            f"{frame['type']} timeout must be a number or null"
        )
    return timeout


class ServerQuery:
    """One statement's server-side state on one connection."""

    __slots__ = ("handle", "rows", "offset", "queued")

    def __init__(self, handle: QueryHandle, queued: bool) -> None:
        self.handle = handle
        #: canonical rows, cached after the first completed FETCH
        self.rows: list[tuple] | None = None
        self.offset = 0
        #: True while waiting in the connection's admission queue
        self.queued = queued


class CloseConnection(Exception):
    """Internal: the client sent a connection-level CLOSE."""


class ServerSession:
    """One connection's protocol state over a shared warehouse.

    Args:
        server: the owning server; only ``server.warehouse``,
            ``server.max_in_flight_per_connection`` and (by INGEST)
            ``server.max_pending_ingest_rows_per_connection`` are
            read, so a stub satisfies the contract.
    """

    def __init__(self, server) -> None:
        self.server = server
        #: EXECUTEs waiting for a per-connection slot; entries carry
        #: the caller-visible handle so queued statements stay
        #: cancellable in place (DESIGN.md section 10 semantics)
        self.pending = SubmissionQueue("remote")
        self.queries: dict[int, ServerQuery] = {}
        self._next_query_id = 1
        #: 0 until HELLO succeeds, then the negotiated version
        self.version = 0
        #: tickets of this connection's staged INGEST batches; pruned
        #: as they resolve, discarded wholesale at teardown
        self.ingest_tickets: list = []

    @property
    def greeted(self) -> bool:
        return self.version > 0

    # -- HELLO ---------------------------------------------------------
    def hello(self, frame: dict) -> dict:
        """Negotiate the protocol version; returns the HELLO_OK payload.

        Raises:
            ProtocolError: when the connection's first frame is not
                HELLO, or no common version exists (both fatal,
                docs/PROTOCOL.md section 2).
        """
        kind = frame["type"]
        if kind != protocol.HELLO:
            raise ProtocolError(f"expected a hello frame first, got {kind!r}")
        offered = frame.get("version")
        version = protocol.negotiate_version(offered)
        if version is None:
            raise ProtocolError(
                f"unsupported protocol version {offered!r}; this server "
                f"speaks versions {list(protocol.SUPPORTED_VERSIONS)}"
            )
        self.version = version
        from repro import __version__

        return {
            "type": protocol.HELLO_OK,
            "version": version,
            "server": f"repro/{__version__}",
            "page_rows": protocol.DEFAULT_PAGE_ROWS,
        }

    # -- EXECUTE -------------------------------------------------------
    def execute(self, frame: dict) -> dict:
        """Parse, bind, and submit one EXECUTE frame; EXECUTE_OK payload.

        Binds every parameter set before anything is submitted, so a
        bad statement or binding leaves no query behind — the same
        atomicity contract as ``Cursor.executemany``.
        """
        sql = frame.get("sql")
        if not isinstance(sql, str):
            raise ProtocolError("execute frame requires a string 'sql'")
        if "param_sets" in frame:
            param_sets = frame["param_sets"]
            if not isinstance(param_sets, list):
                raise ProtocolError(
                    "execute frame 'param_sets' must be a list"
                )
        else:
            param_sets = [frame.get("params")]
        warehouse = self.server.warehouse
        with translated():
            statement = parse_select(sql)
            star = warehouse.star
            queries = [
                bind_star_query(bind_parameters(statement, params), star)
                for params in param_sets
            ]
            description = (
                describe(statement, queries[0], star) if queries else None
            )
        query_ids: list[int] = []
        try:
            for query in queries:
                handle = QueryHandle(query)
                queued = self.submit(query, handle)
                query_id = self._next_query_id
                self._next_query_id += 1
                self.queries[query_id] = ServerQuery(handle, queued)
                query_ids.append(query_id)
        except BaseException:
            # a submission failure mid-fan-out cancels this frame's
            # earlier queries, mirroring Cursor.executemany
            for query_id in query_ids:
                state = self.queries.pop(query_id)
                if not state.handle.done:
                    state.handle.cancel()
            raise
        return {
            "type": protocol.EXECUTE_OK,
            "query_ids": query_ids,
            "description": protocol.encode_description(description),
        }

    def submit(self, query, handle: QueryHandle) -> bool:
        """Submit now if a per-connection slot is free, else queue.

        Returns True when the query was parked in the connection's
        admission FIFO (:meth:`pump` moves it into the warehouse later).
        """
        with translated():
            if len(self.pending) or (
                self.active_count()
                >= self.server.max_in_flight_per_connection
            ):
                self.pending.add(Submission(query, handle, "remote"))
                return True
            self.server.warehouse.submit(query, handle=handle)
            return False

    def active_count(self) -> int:
        return sum(
            1
            for state in self.queries.values()
            if not state.queued and not state.handle.done
        )

    def pump(self) -> None:
        """Move queued statements into the warehouse as slots free.

        Runs only on this connection's event loop, so it never races
        itself; cancellation of still-queued entries happens on the
        same loop (CANCEL frames) or during teardown.
        A full service queue puts the statement back for a later pump;
        any other submission failure completes its handle as cancelled
        so a blocked fetch wakes instead of hanging.
        """
        while len(self.pending):
            if (
                self.active_count()
                >= self.server.max_in_flight_per_connection
            ):
                return
            batch = self.pending.take()
            if not batch:
                return
            head, rest = batch[0], batch[1:]
            if rest:
                self.pending.restore(rest)
            if head.handle.cancelled:
                continue
            try:
                self.server.warehouse.submit(head.query, handle=head.handle)
            except AdmissionError:
                self.pending.restore([head])  # back-pressure: retry later
                return
            except ReproError:
                head.handle.mark_cancelled()
                head.handle.complete([])
                continue
            for state in self.queries.values():
                if state.handle is head.handle:
                    state.queued = False
                    break

    # -- FETCH ---------------------------------------------------------
    def lookup(self, frame: dict) -> tuple[int, ServerQuery]:
        query_id = frame.get("query_id")
        state = (
            self.queries.get(query_id)
            if isinstance(query_id, int) and not isinstance(query_id, bool)
            else None
        )
        if state is None:
            raise InterfaceError(f"unknown query id {query_id!r}")
        return query_id, state

    def validate_fetch(self, frame: dict) -> tuple[int, ServerQuery, int, float | None]:
        """Validate a blocking FETCH; ``(query_id, state, max_rows, timeout)``.

        Raises:
            ProtocolError: on out-of-bounds ``max_rows`` or a
                non-numeric ``timeout`` (docs/PROTOCOL.md section 7).
        """
        query_id, state = self.lookup(frame)
        max_rows = frame.get("max_rows", protocol.DEFAULT_PAGE_ROWS)
        if isinstance(max_rows, bool) or not isinstance(max_rows, int) or not (
            1 <= max_rows <= MAX_PAGE_ROWS
        ):
            raise ProtocolError(
                f"fetch max_rows must be an int in [1, {MAX_PAGE_ROWS}], "
                f"got {max_rows!r}"
            )
        return query_id, state, max_rows, timeout_of(frame)

    def partial_reply(self, frame: dict) -> dict:
        """A non-blocking partial-mode ROWS payload."""
        query_id, state = self.lookup(frame)
        with translated():
            rows = state.handle.rows_so_far()
        # partial snapshots are advisory and replaced wholesale, so a
        # bounded prefix keeps the frame under MAX_FRAME_BYTES instead
        # of killing the connection on a huge mid-scan state
        # (docs/PROTOCOL.md section 6)
        return {
            "type": protocol.ROWS,
            "query_id": query_id,
            "rows": rows[:MAX_PAGE_ROWS],
            "more": not state.handle.done,
        }

    def page_reply(self, query_id: int, state: ServerQuery, max_rows: int) -> dict:
        """One page of a *completed* query's canonical rows.

        The caller has already waited for completion; this
        materializes and slices.
        """
        if state.rows is None:
            with translated():
                state.rows = state.handle.results()
        page = state.rows[state.offset:state.offset + max_rows]
        state.offset += len(page)
        return {
            "type": protocol.ROWS,
            "query_id": query_id,
            "rows": page,
            "more": state.offset < len(state.rows),
        }

    # -- STATS ---------------------------------------------------------
    def stats(self, frame: dict) -> dict:
        """Answer a STATS frame with the warehouse telemetry snapshot
        (docs/PROTOCOL.md section 9)."""
        with translated():
            snapshot = self.server.warehouse.stats()
        return {"type": protocol.STATS_OK, "stats": snapshot}

    # -- INGEST --------------------------------------------------------
    def ingest(self, frame: dict):
        """Validate and stage one INGEST write set; returns its ticket
        (docs/PROTOCOL.md section 10).

        The transport waits on the returned ticket and acks with
        INGEST_OK only once the batch *applied* — an acked write is a
        visible write, and an unacked one is discardable at teardown.

        Write admission is per-connection: staged-but-unresolved rows
        from this session are bounded (the write-side twin of the
        statement fairness bound), so one firehose client cannot fill
        the shared staging buffer for everyone.
        """
        fact_rows = frame.get("fact_rows") or []
        dim_upserts = frame.get("dim_upserts") or {}
        if not isinstance(fact_rows, list) or not all(
            isinstance(row, list) for row in fact_rows
        ):
            raise ProtocolError(
                "ingest frame 'fact_rows' must be a list of row arrays"
            )
        if not isinstance(dim_upserts, dict) or not all(
            isinstance(name, str)
            and isinstance(rows, list)
            and all(isinstance(row, list) for row in rows)
            for name, rows in dim_upserts.items()
        ):
            raise ProtocolError(
                "ingest frame 'dim_upserts' must map dimension names "
                "to lists of row arrays"
            )
        rows = len(fact_rows) + sum(len(v) for v in dim_upserts.values())
        bound = self.server.max_pending_ingest_rows_per_connection
        self.ingest_tickets = [
            ticket for ticket in self.ingest_tickets if not ticket.done
        ]
        pending = sum(ticket.rows for ticket in self.ingest_tickets)
        with translated():
            if pending + rows > bound:
                raise IngestBackpressureError(
                    f"connection has {pending} unacked ingest rows "
                    f"staged (bound {bound}); wait for INGEST_OK acks "
                    f"before writing more"
                )
            ticket = self.server.warehouse.ingest(
                fact_rows=[tuple(row) for row in fact_rows],
                dim_upserts={
                    name: [tuple(row) for row in batch_rows]
                    for name, batch_rows in dim_upserts.items()
                },
                owner=self,
            )
        self.ingest_tickets.append(ticket)
        return ticket

    def ingest_reply(self, ticket) -> dict:
        """The INGEST_OK payload for a resolved ticket.

        Raises (through :func:`translated`) when the batch was
        rejected or its apply failed.
        """
        with translated():
            if ticket.error is not None:
                raise ticket.error
        return {
            "type": protocol.INGEST_OK,
            "rows": ticket.rows,
            "snapshot_id": ticket.snapshot_id,
            "generation": ticket.generation,
        }

    # -- CANCEL / CLOSE ------------------------------------------------
    def cancel(self, frame: dict) -> dict:
        _, state = self.lookup(frame)
        with translated():
            cancelled = state.handle.cancel()
        return {"type": protocol.CANCEL_OK, "cancelled": bool(cancelled)}

    def close(self, frame: dict) -> dict:
        """CLOSE a statement; raises CloseConnection for session CLOSE."""
        if "query_id" not in frame:
            raise CloseConnection()
        query_id, state = self.lookup(frame)
        del self.queries[query_id]
        if not state.handle.done:
            state.handle.cancel()
        return {"type": protocol.CLOSE_OK}

    # -- teardown ------------------------------------------------------
    def teardown(self) -> None:
        """Cancel everything this connection still owns.

        This is the slow-client guarantee (docs/PROTOCOL.md section 7):
        a vanished or misbehaving client's queued statements are
        dropped in place and its in-flight queries are deregistered
        mid-scan, so its slots free within one scan cycle instead of
        pinning the shared pipeline.
        """
        self.pending.cancel_all()
        for state in self.queries.values():
            if not state.handle.done:
                state.handle.cancel()
        self.queries.clear()
        # buffered-but-unacked writes die with the connection: batches
        # this session staged that have not been taken for apply are
        # discarded (already-applied ones simply lose their ack)
        self.server.warehouse.ingest_buffer.discard_owner(
            self, "connection closed before the batch was applied"
        )
        self.ingest_tickets.clear()
