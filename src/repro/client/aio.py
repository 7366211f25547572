"""The asyncio client: ``await repro.connect_async("tcp://host:port")``.

An :class:`AsyncRemoteConnection` keeps MANY requests in flight on one
socket (docs/PROTOCOL.md section 8) — every outgoing frame carries a
fresh request id, a single reader task demultiplexes replies back to
per-request futures, and a write lock keeps frame boundaries intact.
A thousand concurrent cursors therefore need neither a thousand
sockets nor a thousand threads: :func:`connect_async` opens a small
:class:`AsyncConnectionPool` and deals cursors across it round-robin,
which is how the open-loop benchmark drives 1k+ concurrent remote
sessions from one process (EXPERIMENTS.md section 9).

The cursor surface mirrors the PEP-249 shape of
:class:`~repro.client.cursor.Cursor` with ``await`` in front of the
blocking calls (``execute``, the fetch family, ``cancel``,
``rows_so_far``) and ``async for`` in place of iteration.  What is
sent and what each reply means lives in :mod:`repro.client.wire`,
shared with the blocking client, so description tuples, paging
semantics, and the error mapping cannot differ between the two; this
module is the multiplexing transport under it and the driver that
awaits one request per payload a wire operation yields.
"""

from __future__ import annotations

import asyncio

from repro.client import wire
from repro.client.exceptions import (
    Error,
    InterfaceError,
    OperationalError,
)
from repro.client.remote import DEFAULT_CONNECT_TIMEOUT, parse_url
from repro.server import protocol
from repro.server.protocol import ProtocolError

#: Default sockets per pool; cursors multiplex, so a handful of
#: sockets carries hundreds of concurrent sessions.
DEFAULT_POOL_SIZE = 4


class AsyncRemoteConnection:
    """One multiplexed session over a warehouse server.

    Construct via :meth:`open` (or, pooled, via
    :func:`connect_async`).  All methods must be called from the event
    loop that opened the connection.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        fetch_timeout: float,
        page_rows: int,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self.fetch_timeout = fetch_timeout
        self.page_rows = page_rows
        #: server-enforced timeouts come back as ERROR frames; the
        #: client-side cap only catches a wedged server
        self._reply_timeout = fetch_timeout + 30.0
        self._next_request_id = 0
        self._futures: dict[int, asyncio.Future] = {}
        self._write_lock = asyncio.Lock()
        self._read_task: asyncio.Task | None = None
        self._closed = False
        self._broken: Exception | None = None
        self.server_info = ""
        self.protocol_version = 0

    @classmethod
    async def open(
        cls,
        host: str,
        port: int,
        fetch_timeout: float = 60.0,
        page_rows: int = protocol.DEFAULT_PAGE_ROWS,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
    ) -> "AsyncRemoteConnection":
        """Connect, shake hands, and start the reply demultiplexer.

        Raises:
            OperationalError: when the server is unreachable or
                negotiates a version this client does not speak.
        """
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port), connect_timeout
            )
        except (OSError, asyncio.TimeoutError) as error:
            raise OperationalError(
                f"could not connect to tcp://{host}:{port}: {error}"
            ) from error
        conn = cls(reader, writer, fetch_timeout, page_rows)
        try:
            # HELLO precedes negotiation, so it carries no request id
            # and its reply is read inline, before the read loop owns
            # the stream
            writer.write(protocol.encode_frame(wire.hello_request()))
            await writer.drain()
            reply = await asyncio.wait_for(
                protocol.read_frame_async(reader), connect_timeout
            )
        except (OSError, ProtocolError, asyncio.TimeoutError) as error:
            await conn._abandon()
            raise OperationalError(
                f"handshake with tcp://{host}:{port} failed: {error}"
            ) from error
        try:
            if reply is None:
                raise OperationalError("server closed the connection")
            conn.protocol_version, conn.server_info = wire.accept_hello(
                reply
            )
        except Error:
            await conn._abandon()
            raise
        conn._read_task = asyncio.get_running_loop().create_task(
            conn._read_loop()
        )
        return conn

    # -- transport -----------------------------------------------------
    async def _read_loop(self) -> None:
        """Demultiplex replies to their request futures, forever."""
        try:
            while True:
                frame = await protocol.read_frame_async(self._reader)
                if frame is None:
                    raise OperationalError("server closed the connection")
                request_id = frame.get("request_id")
                future = self._futures.pop(request_id, None)
                if future is None:
                    raise OperationalError(
                        f"server reply carried unexpected request id "
                        f"{request_id!r}"
                    )
                if not future.done():
                    future.set_result(frame)
        except asyncio.CancelledError:
            self._fail_pending(OperationalError("connection closed"))
            raise
        except (OSError, ProtocolError, Error) as error:
            self._fail_pending(
                error
                if isinstance(error, Error)
                else OperationalError(
                    f"connection to the server failed: {error}"
                )
            )

    def _fail_pending(self, error: Exception) -> None:
        self._broken = error
        futures, self._futures = self._futures, {}
        for future in futures.values():
            if not future.done():
                future.set_exception(error)

    async def _request(self, payload: dict) -> dict:
        """Send one tagged request; await its demultiplexed reply.

        Any transport failure — here or in the read loop — surfaces
        as a typed :class:`OperationalError`, and the connection
        fails fast afterwards instead of writing into a dead socket.
        """
        if self._closed:
            raise InterfaceError("connection is closed")
        if self._broken is not None:
            raise OperationalError(
                f"connection to the server is broken: {self._broken}"
            )
        request_id = self._next_request_id
        self._next_request_id += 1
        future = asyncio.get_running_loop().create_future()
        self._futures[request_id] = future
        data = protocol.encode_frame(
            {**payload, "request_id": request_id}
        )
        try:
            async with self._write_lock:
                self._writer.write(data)
                await self._writer.drain()
        except (ConnectionError, OSError) as error:
            self._futures.pop(request_id, None)
            failure = OperationalError(
                f"connection to the server failed: {error}"
            )
            self._fail_pending(failure)
            raise failure from error
        try:
            reply = await asyncio.wait_for(future, self._reply_timeout)
        except (asyncio.TimeoutError, TimeoutError) as error:
            self._futures.pop(request_id, None)
            raise OperationalError(
                "timed out waiting for the server's reply"
            ) from error
        return wire.check_reply(reply)

    async def _run(self, steps):
        """Drive one :mod:`repro.client.wire` operation to its result:
        each request it yields is one awaited :meth:`_request`."""
        try:
            payload = next(steps)
            while True:
                try:
                    reply = await self._request(payload)
                except Error as error:
                    payload = steps.throw(error)
                else:
                    payload = steps.send(reply)
        except StopIteration as done:
            return done.value

    # -- lifecycle -----------------------------------------------------
    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran."""
        return self._closed

    async def close(self) -> None:
        """Close the session (idempotent).

        Best-effort CLOSE — the server cancels anything still in
        flight for this session — then stop the read loop and close
        the socket.
        """
        if self._closed:
            return
        try:
            if self._broken is None:
                await asyncio.wait_for(
                    self._run(wire.close_session()), 5.0
                )
        except (Error, asyncio.TimeoutError, TimeoutError):
            pass  # the socket teardown is what matters
        self._closed = True
        await self._abandon()

    async def _abandon(self) -> None:
        if self._read_task is not None:
            self._read_task.cancel()
            await asyncio.gather(self._read_task, return_exceptions=True)
            self._read_task = None
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    def _check_open(self) -> None:
        if self._closed:
            raise InterfaceError("connection is closed")

    # -- statements ----------------------------------------------------
    def cursor(self) -> "AsyncCursor":
        """A new cursor multiplexed over this connection."""
        self._check_open()
        return AsyncCursor(self)

    async def execute(self, sql: str, params=None) -> "AsyncCursor":
        """Convenience: new cursor, execute, return it."""
        return await self.cursor().execute(sql, params)

    async def executemany(self, sql: str, seq_of_params) -> "AsyncCursor":
        """Convenience: new cursor, executemany, return it."""
        return await self.cursor().executemany(sql, seq_of_params)

    # -- telemetry (docs/PROTOCOL.md section 9) ------------------------
    async def stats(self) -> dict:
        """The server warehouse's telemetry snapshot
        (same schema as local ``Connection.stats()``)."""
        self._check_open()
        return await self._run(wire.stats())

    # -- streaming ingest (docs/PROTOCOL.md section 10) ----------------
    async def ingest(
        self,
        fact_rows=None,
        dim_upserts=None,
        timeout: float | None = None,
    ) -> dict:
        """Ship a write set; the INGEST_OK ack means it is applied.

        Same receipt schema (``rows``, ``snapshot_id``,
        ``generation``) as the sync clients.  The ack multiplexes like
        any other reply, so queries on this connection keep flowing
        while the batch waits for its scan boundary.
        """
        self._check_open()
        return await self._run(wire.ingest(fact_rows, dim_upserts, timeout))


class AsyncCursor:
    """PEP-249-shaped cursor with ``await`` on the blocking calls.

    One statement's queries live server-side until :meth:`close` (or
    the pool) releases them; many cursors of one connection run their
    FETCHes concurrently thanks to request-id multiplexing.
    """

    def __init__(self, connection: AsyncRemoteConnection) -> None:
        self.connection = connection
        #: default fetchmany size (PEP 249)
        self.arraysize = 1
        self._statement = wire.Statement()
        self._index = 0
        self._closed = False

    # -- execution -----------------------------------------------------
    async def execute(self, sql: str, params=None) -> "AsyncCursor":
        """Ship one statement; the server parses, binds, and submits."""
        self._check_open()
        await self.connection._run(self._statement.execute(sql, params))
        self._index = 0
        return self

    async def executemany(self, sql: str, seq_of_params) -> "AsyncCursor":
        """One statement, many parameter sets, one frame (atomic)."""
        self._check_open()
        await self.connection._run(
            self._statement.executemany(sql, seq_of_params)
        )
        self._index = 0
        return self

    async def close(self) -> None:
        """Close the cursor (idempotent); releases server-side state."""
        if not self._closed and not self.connection.closed:
            await self.connection._run(self._statement.release())
        self._closed = True

    # -- results -------------------------------------------------------
    @property
    def description(self):
        """PEP 249 description 7-tuples (None before execute)."""
        return self._statement.description

    @property
    def rowcount(self) -> int:
        """Rows in the materialized result; -1 before materialization."""
        return self._statement.rowcount

    def _check_open(self) -> None:
        if self._closed:
            raise InterfaceError("cursor is closed")
        self.connection._check_open()

    async def _ensure_rows(self) -> list[tuple]:
        return await self.connection._run(
            self._statement.fetch(
                self.connection.page_rows, self.connection.fetch_timeout
            )
        )

    async def fetchone(self) -> tuple | None:
        """The next row, or None when exhausted."""
        self._check_open()
        rows = await self._ensure_rows()
        if self._index >= len(rows):
            return None
        row = rows[self._index]
        self._index += 1
        return row

    async def fetchmany(self, size: int | None = None) -> list[tuple]:
        """The next ``size`` rows (default ``arraysize``)."""
        self._check_open()
        count = self.arraysize if size is None else size
        rows = await self._ensure_rows()
        page = rows[self._index:self._index + count]
        self._index += len(page)
        return page

    async def fetchall(self) -> list[tuple]:
        """Every remaining row."""
        self._check_open()
        rows = await self._ensure_rows()
        page = rows[self._index:]
        self._index = len(rows)
        return page

    def __aiter__(self) -> "AsyncCursor":
        return self

    async def __anext__(self) -> tuple:
        row = await self.fetchone()
        if row is None:
            raise StopAsyncIteration
        return row

    # -- warehouse-native extensions -----------------------------------
    async def rows_so_far(self) -> list[tuple]:
        """Live partial results via a non-blocking partial-mode FETCH."""
        self._check_open()
        return await self.connection._run(self._statement.partial())

    async def cancel(self) -> int:
        """Cancel the statement's queries server-side; returns count."""
        self._check_open()
        return await self.connection._run(self._statement.cancel())


class AsyncConnectionPool:
    """A handful of multiplexed sockets serving many cursors.

    Cursors are dealt round-robin, so concurrent sessions spread
    evenly; each socket carries many in-flight requests, so pool
    size trades head-of-line latency against fd count, not
    concurrency.
    """

    def __init__(self, connections: list[AsyncRemoteConnection]) -> None:
        if not connections:
            raise InterfaceError("connection pool cannot be empty")
        self._connections = connections
        self._next = 0
        self._closed = False

    @property
    def size(self) -> int:
        """Sockets in the pool."""
        return len(self._connections)

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran."""
        return self._closed

    @property
    def server_info(self) -> str:
        return self._connections[0].server_info

    @property
    def protocol_version(self) -> int:
        return self._connections[0].protocol_version

    def _next_connection(self) -> AsyncRemoteConnection:
        if self._closed:
            raise InterfaceError("connection pool is closed")
        connection = self._connections[self._next % len(self._connections)]
        self._next += 1
        return connection

    def cursor(self) -> AsyncCursor:
        """A new cursor on the next pool connection (round-robin)."""
        return self._next_connection().cursor()

    async def execute(self, sql: str, params=None) -> AsyncCursor:
        """Convenience: new pooled cursor, execute, return it."""
        return await self.cursor().execute(sql, params)

    async def executemany(self, sql: str, seq_of_params) -> AsyncCursor:
        """Convenience: new pooled cursor, executemany, return it."""
        return await self.cursor().executemany(sql, seq_of_params)

    async def stats(self) -> dict:
        """Telemetry snapshot via the pool's first connection.

        Every pooled socket reaches the same warehouse, so one
        connection's answer is the pool's answer.
        """
        if self._closed:
            raise InterfaceError("connection pool is closed")
        return await self._connections[0].stats()

    async def ingest(
        self,
        fact_rows=None,
        dim_upserts=None,
        timeout: float | None = None,
    ) -> dict:
        """Ship a write set via the next pool connection (round-robin).

        Writes from many producers spread across the pool's sockets
        exactly like cursors; each batch's per-connection admission
        bound applies to the socket that carried it.
        """
        return await self._next_connection().ingest(
            fact_rows=fact_rows, dim_upserts=dim_upserts, timeout=timeout
        )

    async def close(self) -> None:
        """Close every pooled connection (idempotent)."""
        if self._closed:
            return
        self._closed = True
        await asyncio.gather(
            *(connection.close() for connection in self._connections),
            return_exceptions=True,
        )

    async def __aenter__(self) -> "AsyncConnectionPool":
        return self

    async def __aexit__(self, exc_type, exc_value, traceback) -> None:
        await self.close()


async def connect_async(
    url: str,
    pool_size: int = DEFAULT_POOL_SIZE,
    fetch_timeout: float = 60.0,
    page_rows: int = protocol.DEFAULT_PAGE_ROWS,
    connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
) -> AsyncConnectionPool:
    """Open a pooled async client: ``await repro.connect_async(url)``.

    Args:
        url: ``tcp://host:port`` of a warehouse server.
        pool_size: sockets to open; cursors multiplex across them.
        fetch_timeout: seconds a fetch may block server-side.
        page_rows: rows per FETCH page.
        connect_timeout: seconds per TCP connect + HELLO handshake.

    Raises:
        InterfaceError: on a malformed URL or ``pool_size < 1``.
        OperationalError: when the server is unreachable or shares
            no protocol version with this client.
    """
    if pool_size < 1:
        raise InterfaceError(f"pool_size must be >= 1, got {pool_size}")
    host, port = parse_url(url)
    connections: list[AsyncRemoteConnection] = []
    try:
        for _ in range(pool_size):
            connections.append(
                await AsyncRemoteConnection.open(
                    host,
                    port,
                    fetch_timeout=fetch_timeout,
                    page_rows=page_rows,
                    connect_timeout=connect_timeout,
                )
            )
    except BaseException:
        for connection in connections:
            await connection.close()
        raise
    return AsyncConnectionPool(connections)
