"""The socket-backed client: ``repro.connect("tcp://host:port")``.

Same surface, different transport (DESIGN.md section 11):
:class:`RemoteConnection` / :class:`RemoteCursor` expose exactly the
PEP-249 API of :class:`~repro.client.connection.Connection` and
:class:`~repro.client.cursor.Cursor`, but every statement travels the
docs/PROTOCOL.md wire protocol to a
:class:`~repro.server.tcp.WarehouseServer` instead of touching a
warehouse in-process.  Parsing, binding, admission, and execution all
happen server-side; the client ships SQL text plus parameter values
and receives description 7-tuples, streamed row pages, and mapped
PEP-249 exceptions back.

What is sent and what each reply means lives in
:mod:`repro.client.wire`, shared with the asyncio client; this module
is the blocking transport under it — the socket, the request lock,
timeouts, and the broken-connection fail-fast — plus the driver that
turns each request a wire operation yields into one round trip.  The
fetch family materializes a statement's rows on first fetch, exactly
like the in-process cursor; ``rows_so_far()`` round-trips to the
server handle's Distributor-fed snapshot, and ``cancel()`` to
``QueryHandle.cancel()``, so an abandoned remote query frees its
in-flight slot within one scan cycle.

A connection serializes its requests on one lock, so threads may
share it (PEP 249 threadsafety 2) — concurrent statements interleave
at frame granularity while their queries run concurrently server-side.
"""

from __future__ import annotations

import socket
import threading

from repro.client import wire
from repro.client.cursor import Cursor
from repro.client.exceptions import (
    Error,
    InterfaceError,
    NotSupportedError,
    OperationalError,
)
from repro.server import protocol
from repro.server.protocol import ProtocolError

#: Default seconds to wait for the TCP connect and the HELLO reply.
DEFAULT_CONNECT_TIMEOUT = 10.0


def parse_url(url: str) -> tuple[str, int]:
    """Split ``tcp://host:port`` into ``(host, port)``.

    Raises:
        InterfaceError: on any other shape.
    """
    if not url.startswith("tcp://"):
        raise InterfaceError(
            f"unsupported connection URL {url!r}: expected tcp://host:port"
        )
    rest = url[len("tcp://"):]
    host, separator, port_text = rest.rpartition(":")
    if not separator or not host or not port_text.isdigit():
        raise InterfaceError(
            f"malformed connection URL {url!r}: expected tcp://host:port"
        )
    return host, int(port_text)


class RemoteConnection:
    """One client session over a TCP warehouse server (PEP 249 shaped).

    Args:
        host: server host.
        port: server port.
        fetch_timeout: seconds a fetch may block server-side waiting
            for a query's scan cycle to wrap.
        page_rows: rows per FETCH page (frame-size bound, not a
            semantic knob).
        connect_timeout: seconds for the TCP connect + HELLO handshake.
    """

    def __init__(
        self,
        host: str,
        port: int,
        fetch_timeout: float = 60.0,
        page_rows: int = protocol.DEFAULT_PAGE_ROWS,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
    ) -> None:
        self.fetch_timeout = fetch_timeout
        self.page_rows = page_rows
        self._closed = False
        self._lock = threading.Lock()
        self._cursors: "set[RemoteCursor]" = set()
        self._next_request_id = 0
        #: set on any transport failure: the stream can no longer be
        #: trusted, so later requests fail fast with a typed error
        #: instead of hanging on a dead socket
        self._broken = False
        try:
            self._sock = socket.create_connection(
                (host, port), timeout=connect_timeout
            )
        except OSError as error:
            raise OperationalError(
                f"could not connect to tcp://{host}:{port}: {error}"
            ) from error
        self._reader = self._sock.makefile("rb")
        try:
            # HELLO precedes negotiation, so it carries no request id
            #: the negotiated wire version (docs/PROTOCOL.md section 2)
            self.protocol_version, self.server_info = wire.accept_hello(
                self._round_trip(wire.hello_request())
            )
            # the handshake timeout guarded connect; fetches block for
            # their own (server-enforced) timeout plus a grace margin
            self._sock.settimeout(fetch_timeout + 30.0)
        except BaseException:
            self._abandon_socket()
            raise

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _round_trip(self, payload: dict) -> dict:
        """Send one frame, read one frame (callers serialize).

        Any transport failure — timeout, reset, framing violation, or
        the server vanishing mid-stream — marks the connection broken
        and surfaces as :class:`OperationalError`; subsequent requests
        then fail fast instead of writing into a dead socket.
        """
        if self._broken:
            raise OperationalError(
                "connection to the server is broken (a previous "
                "request failed mid-stream)"
            )
        try:
            self._sock.sendall(protocol.encode_frame(payload))
            reply = protocol.read_frame(self._reader)
        except socket.timeout as error:
            self._broken = True
            raise OperationalError(
                "timed out waiting for the server's reply"
            ) from error
        except (OSError, ProtocolError) as error:
            self._broken = True
            raise OperationalError(
                f"connection to the server failed: {error}"
            ) from error
        if reply is None:
            self._broken = True
            raise OperationalError("server closed the connection")
        return reply

    def _request(self, payload: dict) -> dict:
        """One tagged round trip, ERROR frames mapped to exceptions.

        Every request carries a fresh request id and the reply must
        echo it (docs/PROTOCOL.md section 8); this client keeps one
        request in flight per connection, so a mismatched echo means
        the stream is corrupt and the connection is marked broken.
        """
        with self._lock:
            request_id = self._next_request_id
            self._next_request_id += 1
            reply = self._round_trip({**payload, "request_id": request_id})
            if reply.get("request_id") != request_id:
                self._broken = True
                raise OperationalError(
                    f"server reply carried request id "
                    f"{reply.get('request_id')!r}, expected {request_id}"
                )
        return wire.check_reply(reply)

    def _run(self, steps):
        """Drive one :mod:`repro.client.wire` operation to its result:
        each request it yields is one :meth:`_request` round trip."""
        try:
            payload = next(steps)
            while True:
                try:
                    reply = self._request(payload)
                except Error as error:
                    payload = steps.throw(error)
                else:
                    payload = steps.send(reply)
        except StopIteration as done:
            return done.value

    def _abandon_socket(self) -> None:
        try:
            self._reader.close()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran."""
        return self._closed

    def close(self) -> None:
        """Close the session (idempotent).

        Closes every cursor (releasing its server-side statements),
        sends the connection-level CLOSE — the server cancels anything
        still in flight for this session — and closes the socket.
        """
        if self._closed:
            return
        for cursor in list(self._cursors):
            cursor.close()
        self._closed = True
        try:
            self._run(wire.close_session())
        except Error:
            pass  # already closing; the socket teardown is what matters
        self._abandon_socket()

    def __enter__(self) -> "RemoteConnection":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise InterfaceError("connection is closed")

    def _forget(self, cursor: "RemoteCursor") -> None:
        self._cursors.discard(cursor)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def cursor(self) -> "RemoteCursor":
        """A new cursor over this connection."""
        self._check_open()
        cursor = RemoteCursor(self)
        self._cursors.add(cursor)
        return cursor

    def execute(self, sql: str, params=None) -> "RemoteCursor":
        """Convenience: new cursor, execute, return it (sqlite3 style)."""
        return self.cursor().execute(sql, params)

    def executemany(self, sql: str, seq_of_params) -> "RemoteCursor":
        """Convenience: new cursor, executemany, return it."""
        return self.cursor().executemany(sql, seq_of_params)

    # ------------------------------------------------------------------
    # Telemetry (docs/PROTOCOL.md section 9)
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """The server warehouse's telemetry snapshot
        (same schema as local ``Connection.stats()``)."""
        self._check_open()
        return self._run(wire.stats())

    def ingest_generation(self) -> int:
        """The warehouse's applied-ingest generation (stats shortcut).

        Monotonic across restarts of a durable server (DESIGN.md
        section 16): a client reconnecting after a restart compares
        this against the ``generation`` of its last ingest receipt to
        confirm its acked writes survived.
        """
        return int(self.stats()["ingest"]["generation"])

    # ------------------------------------------------------------------
    # Streaming ingest (docs/PROTOCOL.md section 10)
    # ------------------------------------------------------------------
    def ingest(
        self,
        fact_rows=None,
        dim_upserts=None,
        timeout: float | None = None,
    ) -> dict:
        """Ship a write set; block until the server acks its apply.

        ``fact_rows`` is a list of fact-table rows; ``dim_upserts``
        maps dimension names to lists of full rows (upserted by
        primary key).  The INGEST_OK ack means the batch is applied
        and visible to queries admitted from now on — same receipt
        schema (``rows``, ``snapshot_id``, ``generation``) as local
        ``Connection.ingest()``.

        Raises:
            OperationalError: on back-pressure (the per-connection or
                buffer bound is full) or a missed ``timeout``.
        """
        self._check_open()
        return self._run(wire.ingest(fact_rows, dim_upserts, timeout))

    # ------------------------------------------------------------------
    # Transactions (PEP 249 surface)
    # ------------------------------------------------------------------
    def commit(self) -> None:
        """No-op: warehouse reads are snapshot-isolated, auto-committed."""
        self._check_open()

    def rollback(self) -> None:
        """Unsupported: there is no open transaction to roll back.

        Raises:
            NotSupportedError: always.
        """
        self._check_open()
        raise NotSupportedError(
            "the warehouse auto-commits; there is no transaction to "
            "roll back"
        )


class RemoteCursor(Cursor):
    """A :class:`~repro.client.cursor.Cursor` over the wire protocol.

    Inherits the whole fetch/iteration surface; execution,
    materialization, streaming, and cancellation run the
    :class:`~repro.client.wire.Statement` exchanges over the
    connection instead of touching query handles.
    """

    def __init__(self, connection: RemoteConnection) -> None:
        super().__init__(connection)
        self._statement = wire.Statement()

    def close(self) -> None:
        """Close the cursor (idempotent); releases server-side state."""
        if not self._closed and not self.connection.closed:
            self.connection._run(self._statement.release())
        super().close()

    def execute(self, sql: str, params=None) -> "RemoteCursor":
        """Ship one statement; the server parses, binds, and submits."""
        self._check_open()
        self.connection._run(self._statement.execute(sql, params))
        self._index = 0
        return self

    def executemany(self, sql: str, seq_of_params) -> "RemoteCursor":
        """Ship one statement with many parameter sets (one frame)."""
        self._check_open()
        self.connection._run(
            self._statement.executemany(sql, seq_of_params)
        )
        self._index = 0
        return self

    @property
    def description(self) -> tuple | None:
        """Per-column 7-tuples for the last statement (PEP 249)."""
        return self._statement.description

    @property
    def rowcount(self) -> int:
        """Rows in the result set; -1 until the first fetch."""
        return self._statement.rowcount

    def _ensure_rows(self) -> list[tuple]:
        return self.connection._run(
            self._statement.fetch(
                self.connection.page_rows, self.connection.fetch_timeout
            )
        )

    def rows_so_far(self) -> list[tuple]:
        """Live partial results, via a non-blocking partial-mode FETCH."""
        self._check_open()
        return self.connection._run(self._statement.partial())

    def cancel(self) -> int:
        """Cancel the statement's queries server-side; returns how
        many were cancelled."""
        self._check_open()
        return self.connection._run(self._statement.cancel())
