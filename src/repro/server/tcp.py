"""The warehouse server: every connection multiplexed on one event loop.

:class:`WarehouseServer` puts the always-on warehouse behind a network
boundary (DESIGN.md section 11): one process owns one
:class:`~repro.engine.warehouse.Warehouse` — and therefore one
continuous scan — and serves many concurrent client connections, each
speaking the length-prefixed JSON protocol of docs/PROTOCOL.md.  It is
the only class in this package that owns a listening socket.  The
peers are :class:`~repro.client.remote.RemoteConnection`
(``repro.connect("tcp://host:port")``) and
:class:`~repro.client.aio.AsyncRemoteConnection`
(``repro.connect_async(...)``).

Concurrency model (docs/ARCHITECTURE.md section 3): an asyncio event
loop on one background thread, so a thousand concurrent remote
sessions cost a thousand parked coroutines, not a thousand OS threads.
Per connection, one reader task dispatches frames, one writer task
drains the connection's bounded outbox with ``drain()`` so a stalled
client throttles only its own replies, and each still-running FETCH or
INGEST parks a small waiter task on the handle's completion callback —
bridged from the warehouse driver thread with ``call_soon_threadsafe``
— so waiting consumes no thread anywhere.  Replies interleave across
request ids (docs/PROTOCOL.md section 8), so many FETCHes proceed
concurrently per connection.

Backpressure is layered: each request holds one outbox slot at most
(the protocol's one-reply-per-request rule bounds every per-request
outbox at a single frame), the per-connection parked-waiter budget
pauses the reader when exhausted (TCP flow control does the rest), and
per-connection admission lives in the session core
(:class:`~repro.server.session.ServerSession`): a connection holds at
most ``max_in_flight_per_connection`` queries inside the warehouse,
further EXECUTEs wait in its own FIFO, and a torn-down connection
cancels everything it still owns, so a vanished client's slots free
within one scan cycle.
"""

from __future__ import annotations

import asyncio
import threading

from repro.client.exceptions import (
    Error,
    InterfaceError,
    OperationalError,
    translated,
)
from repro.cjoin.registry import QueryHandle
from repro.engine.warehouse import Warehouse
from repro.server import protocol
from repro.server.protocol import ProtocolError
from repro.server.session import (
    DEFAULT_MAX_PENDING_INGEST_ROWS,
    CloseConnection,
    ServerSession,
    timeout_of,
)
from repro.tuning import DEFAULT_MAX_IN_FLIGHT_PER_CONNECTION

#: Default TCP port of ``python -m repro.server``.
DEFAULT_PORT = 5477

#: Reply frames a connection's outbox may hold before the enqueuer
#: (reader or fetch task) waits; with single-frame replies this bounds
#: reply memory per connection, not throughput.
OUTBOX_FRAMES = 64

#: Still-running FETCH/INGEST waiters a connection may park at once;
#: beyond it the reader stops reading frames until a waiter retires,
#: pushing backpressure onto the client's socket.
DEFAULT_MAX_PENDING_FETCHES = 1024

#: Waiters poll at this cadence only while no service driver runs
#: (stopped or dead); with one running they sleep on completion
#: callbacks instead.
_FETCH_POLL_SECONDS = 0.02

#: Flush budget for the final reply frames of a closing connection.
_FLUSH_TIMEOUT_SECONDS = 5.0


class _Connection:
    """One client connection's tasks and queues on the loop."""

    __slots__ = (
        "session",
        "reader",
        "writer",
        "outbox",
        "fetch_slots",
        "fetch_tasks",
        "serve_task",
        "writer_task",
        "torn",
    )

    def __init__(
        self,
        server: "WarehouseServer",
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.session = ServerSession(server)
        self.reader = reader
        self.writer = writer
        self.outbox: asyncio.Queue = asyncio.Queue(maxsize=OUTBOX_FRAMES)
        self.fetch_slots = asyncio.Semaphore(server.max_pending_fetches)
        self.fetch_tasks: set[asyncio.Task] = set()
        self.serve_task: asyncio.Task | None = None
        self.writer_task: asyncio.Task | None = None
        self.torn = False


class WarehouseServer:
    """An asyncio TCP server around one always-on warehouse.

    ``start()``/``stop()`` are synchronous: the event loop runs on a
    background thread, so launchers and tests drive the server from
    plain code.

    Args:
        warehouse: the warehouse to serve.
        host: interface to bind (default loopback).
        port: TCP port; 0 (the default) picks a free ephemeral port,
            readable from :attr:`address` / :attr:`url` after
            :meth:`start`.
        owns_warehouse: close the warehouse on :meth:`stop` (True when
            a launcher built it just for this server).
        max_in_flight_per_connection: bound on one connection's
            concurrently submitted queries; the per-connection
            admission queue holds the rest (fairness across clients).
        max_pending_fetches: still-running FETCH/INGEST waiters per
            connection before the reader pauses.
        max_pending_ingest_rows_per_connection: bound on one
            connection's staged-but-unacked INGEST rows (the
            write-side fairness twin, docs/PROTOCOL.md section 10);
            beyond it the connection gets typed back-pressure.

    Usage::

        server = WarehouseServer(warehouse).start()
        ... # clients connect to repro.connect(server.url)
        server.stop()
    """

    def __init__(
        self,
        warehouse: Warehouse,
        host: str = "127.0.0.1",
        port: int = 0,
        owns_warehouse: bool = False,
        max_in_flight_per_connection: int = (
            DEFAULT_MAX_IN_FLIGHT_PER_CONNECTION
        ),
        max_pending_fetches: int = DEFAULT_MAX_PENDING_FETCHES,
        max_pending_ingest_rows_per_connection: int = (
            DEFAULT_MAX_PENDING_INGEST_ROWS
        ),
    ) -> None:
        if max_in_flight_per_connection < 1:
            raise InterfaceError(
                f"max_in_flight_per_connection must be >= 1, got "
                f"{max_in_flight_per_connection}"
            )
        if max_pending_fetches < 1:
            raise InterfaceError(
                f"max_pending_fetches must be >= 1, got {max_pending_fetches}"
            )
        if max_pending_ingest_rows_per_connection < 1:
            raise InterfaceError(
                f"max_pending_ingest_rows_per_connection must be >= 1, "
                f"got {max_pending_ingest_rows_per_connection}"
            )
        self.warehouse = warehouse
        self.max_in_flight_per_connection = max_in_flight_per_connection
        self.max_pending_fetches = max_pending_fetches
        self.max_pending_ingest_rows_per_connection = (
            max_pending_ingest_rows_per_connection
        )
        self._requested = (host, port)
        self._owns_warehouse = owns_warehouse
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._closing = threading.Event()
        self._closing_async: asyncio.Event | None = None
        self._connections: set[_Connection] = set()
        self._conn_lock = threading.Lock()
        #: serializes the driverless fallback's Warehouse.run() /
        #: apply_pending_ingest() calls (stopped or dead driver)
        self._run_lock = threading.Lock()
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self._started_service = False
        self._address: tuple[str, int] | None = None
        #: tasks still pending when the loop shut down — always empty
        #: after a clean stop; the fault suite asserts on it
        self.leaked_tasks: list[str] = []

    # -- lifecycle -----------------------------------------------------
    @property
    def running(self) -> bool:
        """True while the event-loop thread is alive."""
        thread = self._thread
        return thread is not None and thread.is_alive()

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)``.

        Raises:
            InterfaceError: before :meth:`start`.
        """
        if self._address is None:
            raise InterfaceError("server is not started")
        return self._address

    @property
    def url(self) -> str:
        """The ``tcp://host:port`` URL clients pass to ``repro.connect``."""
        host, port = self.address
        return f"tcp://{host}:{port}"

    @property
    def connection_count(self) -> int:
        """Currently attached client connections."""
        with self._conn_lock:
            return len(self._connections)

    def start(self) -> "WarehouseServer":
        """Bind, start the loop thread, start the warehouse service.

        Returns self; raises the bind error on this thread when the
        requested address is unavailable.

        Raises:
            InterfaceError: when already running.
        """
        if self.running:
            raise InterfaceError("server is already running")
        self._closing.clear()
        self._started.clear()
        self._startup_error = None
        self.leaked_tasks = []
        if not self.warehouse.service.running:
            with translated():
                self.warehouse.start_service()
            self._started_service = True
        self._thread = threading.Thread(
            target=self._thread_main,
            name="warehouse-async-loop",
            daemon=True,
        )
        self._thread.start()
        self._started.wait(30.0)
        if self._startup_error is not None:
            error, self._startup_error = self._startup_error, None
            self._thread.join(10.0)
            self._thread = None
            if self._started_service:
                self.warehouse.stop_service()
                self._started_service = False
            raise error
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Shut down cleanly (idempotent): no leaked tasks or threads.

        Wakes the loop, which closes the listener, cancels every
        connection's tasks (their teardown cancels the queries their
        clients abandoned), and drains its executor; then stops the
        service driver this server started and closes the warehouse
        when it owns it.
        """
        self._closing.set()
        loop, closing = self._loop, self._closing_async
        if loop is not None and closing is not None:
            try:
                loop.call_soon_threadsafe(closing.set)
            except RuntimeError:
                pass  # loop already closed
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout)
        self._loop = None
        if self._started_service:
            self.warehouse.stop_service()
            self._started_service = False
        if self._owns_warehouse and not self.warehouse.closed:
            self.warehouse.close()

    def swap_warehouse(self, shadow: Warehouse, **kwargs):
        """Blue-green cutover to ``shadow`` (DESIGN.md section 16).

        Safe from any thread: sessions resolve ``server.warehouse``
        per statement on the loop thread, and the attribute flip is
        atomic under the old pipeline's write barrier.  Returns the
        :class:`~repro.engine.swap.SwapReport`.
        """
        from repro.engine.swap import blue_green_swap

        return blue_green_swap(self, shadow, **kwargs)

    def __enter__(self) -> "WarehouseServer":
        return self.start()

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.stop()

    def _thread_main(self) -> None:
        try:
            # asyncio.run also joins the default executor's threads on
            # the way out, so drive() work cannot outlive stop()
            asyncio.run(self._main())
        except BaseException as error:  # pragma: no cover - defensive
            if not self._started.is_set():
                self._startup_error = error
                self._started.set()
        finally:
            self._started.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._closing_async = asyncio.Event()
        if self._closing.is_set():  # stop() raced start()
            self._closing_async.set()
        try:
            server = await asyncio.start_server(
                self._on_connect, *self._requested, backlog=512
            )
        except OSError as error:
            self._startup_error = error
            self._started.set()
            return
        self._address = server.sockets[0].getsockname()[:2]
        self._started.set()
        try:
            await self._closing_async.wait()
        finally:
            server.close()
            await server.wait_closed()
            with self._conn_lock:
                serve_tasks = [
                    conn.serve_task
                    for conn in self._connections
                    if conn.serve_task is not None
                ]
            for task in serve_tasks:
                task.cancel()
            await asyncio.gather(*serve_tasks, return_exceptions=True)
            # belt and braces: no task may outlive the loop
            current = asyncio.current_task()
            leftovers = [
                task
                for task in asyncio.all_tasks()
                if task is not current
            ]
            for task in leftovers:
                task.cancel()
            await asyncio.gather(*leftovers, return_exceptions=True)
            self.leaked_tasks = [
                repr(task)
                for task in asyncio.all_tasks()
                if task is not current and not task.done()
            ]

    # -- connection serving --------------------------------------------
    async def _on_connect(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        conn = _Connection(self, reader, writer)
        conn.serve_task = asyncio.current_task()
        with self._conn_lock:
            if self._closing.is_set():
                writer.close()
                return
            self._connections.add(conn)
        conn.writer_task = asyncio.get_running_loop().create_task(
            self._write_loop(conn)
        )
        try:
            await self._serve(conn)
        except asyncio.CancelledError:
            # stop() cancels serve tasks as its shutdown signal and the
            # task ends here anyway; ending it normally keeps the
            # streams layer from logging the cancellation as an error
            pass
        finally:
            await self._teardown(conn)

    async def _serve(self, conn: _Connection) -> None:
        try:
            while True:
                frame = await protocol.read_frame_async(conn.reader)
                if frame is None:
                    break
                request_id = None
                try:
                    if conn.session.greeted:
                        request_id = protocol.request_id_of(frame)
                    await self._dispatch(conn, frame, request_id)
                except CloseConnection:
                    await conn.outbox.put(
                        _tag({"type": protocol.CLOSE_OK}, request_id)
                    )
                    break
                except ProtocolError as error:
                    await self._put_error(
                        conn, InterfaceError(str(error)), request_id
                    )
                    break
                except Error as error:
                    # statement-level failure: report it, keep serving
                    await self._put_error(conn, error, request_id)
                    continue
            await self._flush(conn)
        except ProtocolError as error:
            # framing violations are fatal: report best-effort, close
            await self._put_error(conn, InterfaceError(str(error)), None)
            await self._flush(conn)
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            pass  # peer vanished / server shutting down

    async def _dispatch(
        self, conn: _Connection, frame: dict, request_id: int | None
    ) -> None:
        """Handle one frame: reply now, or park a waiter that will."""
        kind = frame["type"]
        session = conn.session
        if not session.greeted:
            reply = session.hello(frame)
        else:
            # every frame is a pump opportunity: a client that only
            # polls partial-mode FETCH (or cancels) must still see its
            # queued statements admitted; completions pump too
            session.pump()
            if kind == protocol.EXECUTE:
                reply = session.execute(frame)
                self._watch_completions(conn, reply["query_ids"])
            elif kind == protocol.FETCH:
                reply = await self._fetch(conn, frame, request_id)
            elif kind == protocol.CANCEL:
                reply = session.cancel(frame)
            elif kind == protocol.CLOSE:
                reply = session.close(frame)
            elif kind == protocol.STATS:
                reply = session.stats(frame)
            elif kind == protocol.INGEST:
                reply = await self._ingest(conn, frame, request_id)
            else:
                raise ProtocolError(f"unknown frame type {kind!r}")
        if reply is not None:
            await conn.outbox.put(_tag(reply, request_id))

    async def _fetch(
        self, conn: _Connection, frame: dict, request_id: int | None
    ) -> dict | None:
        """The ROWS reply, or None with a waiter parked for it."""
        session = conn.session
        if frame.get("mode") == "partial":
            return session.partial_reply(frame)
        query_id, state, max_rows, timeout = session.validate_fetch(frame)
        handle = state.handle
        if state.rows is not None or handle.done:
            return session.page_reply(query_id, state, max_rows)

        async def drive() -> None:
            session.pump()
            if not handle.done and self._driverless():
                await asyncio.get_running_loop().run_in_executor(
                    None, self._drive_blocking, handle
                )

        await self._park(
            conn,
            request_id,
            lambda: self._await(
                handle,
                handle.on_complete,
                drive,
                self._driverless,
                timeout,
                f"query did not complete within {timeout} seconds",
            ),
            lambda: session.page_reply(query_id, state, max_rows),
        )
        return None

    async def _ingest(
        self, conn: _Connection, frame: dict, request_id: int | None
    ) -> None:
        """Stage a write set, park a waiter for its apply (section 10).

        The waiter parks exactly like a FETCH's, sharing the same
        parked-waiter budget, so queries on the connection keep
        flowing while the batch waits for its scan boundary.
        """
        timeout = timeout_of(frame)
        ticket = conn.session.ingest(frame)

        async def drive() -> None:
            # with no service driver (stopped or dead) nobody reaches
            # a scan boundary: apply from here
            if self._driverless():
                await asyncio.get_running_loop().run_in_executor(
                    None, self._apply_ingest_blocking
                )

        await self._park(
            conn,
            request_id,
            lambda: self._await(
                ticket,
                ticket.on_done,
                drive,
                self._driverless,
                timeout,
                f"ingest batch was not applied within {timeout} seconds",
            ),
            lambda: conn.session.ingest_reply(ticket),
        )

    async def _park(self, conn, request_id, wait, make_reply) -> None:
        """Answer ``request_id`` from a waiter task, so other requests
        on this connection keep dispatching; the budget pauses the
        reader when a client floods waits faster than they resolve."""
        await conn.fetch_slots.acquire()
        task = asyncio.get_running_loop().create_task(
            self._waiter(conn, request_id, wait, make_reply)
        )
        conn.fetch_tasks.add(task)
        task.add_done_callback(conn.fetch_tasks.discard)

    async def _waiter(self, conn, request_id, wait, make_reply) -> None:
        try:
            try:
                await wait()
                reply = make_reply()
            except Error as error:
                reply = _error_reply(error)
            await conn.outbox.put(_tag(reply, request_id))
        finally:
            conn.fetch_slots.release()

    async def _await(
        self, waitable, subscribe, drive, polling, timeout, expired: str
    ) -> None:
        """Park until ``waitable.done`` — no thread consumed.

        ``subscribe`` registers a completion callback (fired on the
        warehouse driver thread, or whichever thread applies a batch)
        that sets an asyncio event via ``call_soon_threadsafe``;
        shutdown wakes every waiter through the server-wide closing
        event.  Only while ``polling()`` says nobody else will make
        progress (no service driver) does the wait fall
        back to the poll cadence, with ``drive()`` pushing the blocking
        work onto the default executor so the loop never blocks.
        """
        loop = asyncio.get_running_loop()
        deadline = (
            None if timeout is None else loop.time() + float(timeout)
        )
        event = asyncio.Event()

        def _notify(_waitable) -> None:
            try:
                loop.call_soon_threadsafe(event.set)
            except RuntimeError:
                pass  # loop closed first; the waiter was cancelled

        subscribe(_notify)
        while not waitable.done:
            if self._closing.is_set():
                raise OperationalError("server is shutting down")
            await drive()
            if waitable.done:
                return
            remaining = (
                None if deadline is None else deadline - loop.time()
            )
            if remaining is not None and remaining <= 0:
                raise OperationalError(expired)
            wait_slice = remaining
            if polling():
                wait_slice = (
                    _FETCH_POLL_SECONDS
                    if wait_slice is None
                    else min(wait_slice, _FETCH_POLL_SECONDS)
                )
            await self._sleep_until(event, wait_slice)

    def _apply_ingest_blocking(self) -> None:
        with self._run_lock:
            with translated():
                self.warehouse.apply_pending_ingest()

    async def _sleep_until(
        self, event: asyncio.Event, timeout: float | None
    ) -> None:
        """Wait for completion, shutdown, or the drive cadence."""
        waiters = [
            asyncio.ensure_future(event.wait()),
            asyncio.ensure_future(self._closing_async.wait()),
        ]
        try:
            await asyncio.wait(
                waiters,
                timeout=timeout,
                return_when=asyncio.FIRST_COMPLETED,
            )
        finally:
            for waiter in waiters:
                waiter.cancel()
            await asyncio.gather(*waiters, return_exceptions=True)

    def _driverless(self) -> bool:
        """True when the service driver was stopped or died: waiters
        must then reach the scan boundaries themselves."""
        return not self.warehouse.service.running

    def _drive_blocking(self, handle: QueryHandle) -> None:
        """Drain the pipeline in the driver's stead (executor thread)."""
        with self._run_lock:
            if not handle.done:
                with translated():
                    self.warehouse.run()

    def _watch_completions(
        self, conn: _Connection, query_ids: list[int]
    ) -> None:
        """Pump the connection's admission FIFO on every completion.

        A completion on the driver thread schedules a pump on the
        loop, so queued statements advance even when no frame is in
        flight.
        """
        for query_id in query_ids:
            state = conn.session.queries.get(query_id)
            if state is None:
                continue

            def _done(_handle: QueryHandle, conn=conn) -> None:
                try:
                    self._loop.call_soon_threadsafe(self._pump_now, conn)
                except (RuntimeError, AttributeError):
                    pass  # loop closed first; teardown pumps nothing

            state.handle.on_complete(_done)

    def _pump_now(self, conn: _Connection) -> None:
        if conn.torn or self._closing.is_set():
            return
        try:
            conn.session.pump()
        except Error:
            # a dying warehouse fails the submit; the affected handles
            # surface it to their own fetch waiters
            pass

    # -- replies and teardown ------------------------------------------
    async def _put_error(
        self, conn: _Connection, error: Exception, request_id: int | None
    ) -> None:
        await conn.outbox.put(_tag(_error_reply(error), request_id))

    async def _flush(self, conn: _Connection) -> None:
        """Give queued replies a bounded chance to reach the peer."""
        try:
            await asyncio.wait_for(
                conn.outbox.join(), _FLUSH_TIMEOUT_SECONDS
            )
        except (asyncio.TimeoutError, TimeoutError):
            pass

    async def _write_loop(self, conn: _Connection) -> None:
        """Drain the outbox; ``drain()`` throttles on a slow peer.

        A write failure marks the stream broken but keeps consuming so
        enqueuers (and :meth:`_flush`) never wedge on a full queue.
        """
        broken = False
        while True:
            payload = await conn.outbox.get()
            try:
                if not broken:
                    conn.writer.write(protocol.encode_frame(payload))
                    await conn.writer.drain()
            except (ConnectionError, OSError, ProtocolError):
                broken = True  # reader notices the dead peer
            finally:
                conn.outbox.task_done()

    async def _teardown(self, conn: _Connection) -> None:
        """Cancel the connection's work; frees slots within one cycle."""
        conn.torn = True
        with self._conn_lock:
            self._connections.discard(conn)
        conn.session.teardown()
        tasks = list(conn.fetch_tasks)
        if conn.writer_task is not None:
            tasks.append(conn.writer_task)
        for task in tasks:
            task.cancel()
        if tasks:
            # shield: this coroutine may itself be mid-cancellation,
            # but the children must finish before the loop closes
            try:
                await asyncio.shield(
                    asyncio.gather(*tasks, return_exceptions=True)
                )
            except asyncio.CancelledError:
                pass
        conn.writer.close()
        try:
            await conn.writer.wait_closed()
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass


def _error_reply(error: Exception) -> dict:
    return protocol.error_payload(type(error).__name__, str(error))


def _tag(payload: dict, request_id: int | None) -> dict:
    """Echo a request id on its reply (HELLO_OK and replies to frames
    too broken to carry one go untagged)."""
    if request_id is not None:
        payload["request_id"] = request_id
    return payload


#: The second public name of the one server class.
AsyncWarehouseServer = WarehouseServer
