"""Client connections: ``repro.connect(...)`` (DESIGN.md section 10).

A :class:`Connection` wraps one :class:`~repro.engine.warehouse.Warehouse`
and owns its serving lifecycle: on open it starts the always-on
service driver (so cursor queries are admitted mid-scan and complete
in the background), and on close it stops the driver, closes its
cursors, and — when the connection built the warehouse itself —
closes the warehouse too.

Usage::

    import repro

    with repro.connect(scale_factor=0.001) as connection:
        cursor = connection.execute(
            "SELECT d_year, SUM(lo_revenue) AS revenue "
            "FROM lineorder, date "
            "WHERE lo_orderdate = d_datekey AND d_year >= ? "
            "GROUP BY d_year",
            (1994,),
        )
        for year, revenue in cursor:
            print(year, revenue)
"""

from __future__ import annotations

import weakref

from repro.client.cursor import Cursor
from repro.client.exceptions import (
    InterfaceError,
    NotSupportedError,
    translated,
)
from repro.engine.warehouse import Warehouse

#: Default bound on how long a fetch blocks waiting for completion.
DEFAULT_FETCH_TIMEOUT = 60.0


class Connection:
    """One client session over a warehouse (PEP 249 shaped).

    Args:
        warehouse: the warehouse to serve from.
        owns_warehouse: close the warehouse when the connection closes
            (True when :func:`connect` built it from kwargs).
        start_service: start the always-on background driver so
            submissions are admitted mid-scan; pass False for
            single-threaded embedding — fetches then drain the
            pipeline on the calling thread instead.
        fetch_timeout: seconds a fetch may block waiting for a query's
            scan cycle to wrap before raising ``OperationalError``.
    """

    def __init__(
        self,
        warehouse: Warehouse,
        owns_warehouse: bool = False,
        start_service: bool = True,
        fetch_timeout: float = DEFAULT_FETCH_TIMEOUT,
    ) -> None:
        self.warehouse = warehouse
        self.fetch_timeout = fetch_timeout
        self._owns_warehouse = owns_warehouse
        self._closed = False
        #: open cursors, held weakly: a per-statement cursor the caller
        #: dropped is reclaimed by the GC instead of accumulating for
        #: the session's lifetime
        self._cursors: weakref.WeakSet[Cursor] = weakref.WeakSet()
        self._started_service = False
        if start_service and not warehouse.service.running:
            with translated():
                warehouse.start_service()
            self._started_service = True

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran."""
        return self._closed

    def close(self) -> None:
        """Close the connection (idempotent).

        Closes every cursor, stops the service driver this connection
        started, and closes the warehouse when this connection owns it.
        """
        if self._closed:
            return
        self._closed = True
        for cursor in list(self._cursors):  # close() deregisters
            cursor.close()
        with translated():
            if self._owns_warehouse:
                self.warehouse.close()
            elif self._started_service:
                self.warehouse.stop_service()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise InterfaceError("connection is closed")

    def _forget(self, cursor: Cursor) -> None:
        """Drop a closed cursor from the open-cursor registry."""
        self._cursors.discard(cursor)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def cursor(self) -> Cursor:
        """A new cursor over this connection."""
        self._check_open()
        cursor = Cursor(self)
        self._cursors.add(cursor)
        return cursor

    def execute(self, sql: str, params=None) -> Cursor:
        """Convenience: new cursor, execute, return it (sqlite3 style)."""
        return self.cursor().execute(sql, params)

    def executemany(self, sql: str, seq_of_params) -> Cursor:
        """Convenience: new cursor, executemany, return it."""
        return self.cursor().executemany(sql, seq_of_params)

    # ------------------------------------------------------------------
    # Telemetry (docs/PROTOCOL.md section 9 schema, local transport)
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """The warehouse telemetry + tuning-decision audit snapshot.

        Same schema over every transport: ``latency``, ``pipeline``,
        ``service``, ``ingest``, ``tuning``, and ``autotune`` (the
        adaptive controller's decision audit, DESIGN.md section 13).
        """
        self._check_open()
        with translated():
            return self.warehouse.stats()

    def ingest_generation(self) -> int:
        """The warehouse's applied-ingest generation (stats shortcut).

        Monotonic across restarts of a durable warehouse (DESIGN.md
        section 16): a client reconnecting after a server restart can
        compare this against the ``generation`` in its last ingest
        receipt to confirm its acked writes survived the crash.
        """
        return int(self.stats()["ingest"]["generation"])

    # ------------------------------------------------------------------
    # Streaming ingest (docs/PROTOCOL.md section 10, local transport)
    # ------------------------------------------------------------------
    def ingest(
        self,
        fact_rows=None,
        dim_upserts=None,
        timeout: float | None = DEFAULT_FETCH_TIMEOUT,
    ) -> dict:
        """Stage a write set, wait for its scan-boundary apply.

        Same receipt schema over every transport: ``rows``,
        ``snapshot_id``, ``generation``.  With the background driver
        running the apply lands at the next scan boundary; without one
        this call applies the batch itself (DESIGN.md section 15).

        Raises:
            OperationalError: on back-pressure (the bounded ingest
                buffer is full) or when the apply misses ``timeout``.
            ProgrammingError: when a row does not match its table's
                schema or names an unknown dimension.
        """
        self._check_open()
        with translated():
            ticket = self.warehouse.ingest(
                fact_rows=fact_rows, dim_upserts=dim_upserts
            )
            if not self.warehouse.service.running:
                self.warehouse.apply_pending_ingest()
            result = ticket.result(timeout)
        return {
            "rows": result["rows"],
            "snapshot_id": result["snapshot_id"],
            "generation": result["generation"],
        }

    def writer(self, batch_rows: int | None = None):
        """An :class:`~repro.ingest.writer.IngestWriter` over this
        connection's warehouse (auto-batching convenience surface)."""
        self._check_open()
        with translated():
            if batch_rows is None:
                return self.warehouse.writer()
            return self.warehouse.writer(batch_rows=batch_rows)

    # ------------------------------------------------------------------
    # Transactions (PEP 249 surface)
    # ------------------------------------------------------------------
    def commit(self) -> None:
        """No-op: reads are snapshot-isolated and auto-committed.

        Fact-table writes go through
        :meth:`~repro.engine.warehouse.Warehouse.apply_update`, which
        commits its write set atomically (paper section 3.5).
        """
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

    # ------------------------------------------------------------------
    # Completion driving (cursor support)
    # ------------------------------------------------------------------
    def _complete(self, handle) -> None:
        """Make sure ``handle`` can finish before a blocking fetch.

        With the background driver running there is nothing to do —
        the fetch just blocks on the handle.  With no driver, drive
        ``Warehouse.run()`` on the calling thread.
        """
        if not handle.done and not self.warehouse.service.running:
            self.warehouse.run()


def connect(
    target: "Warehouse | str | None" = None,
    *,
    warehouse: "Warehouse | None" = None,
    start_service: bool = True,
    fetch_timeout: float = DEFAULT_FETCH_TIMEOUT,
    catalog=None,
    star=None,
    **warehouse_kwargs,
) -> "Connection":
    """Open a client session; the library's front door.

    Four ways in:

    * ``connect("tcp://host:port")`` — attach to a remote
      :class:`~repro.server.tcp.WarehouseServer` over the
      docs/PROTOCOL.md wire protocol; returns a
      :class:`~repro.client.remote.RemoteConnection` with the same
      cursor surface as the in-process paths below.
    * ``connect(warehouse)`` — serve an existing warehouse; the
      connection starts/stops the service driver but leaves the
      warehouse open when it closes.
    * ``connect(catalog=..., star=..., **kwargs)`` — build a
      :class:`~repro.engine.warehouse.Warehouse` over your own data.
    * ``connect(scale_factor=..., **kwargs)`` — build an SSB-loaded
      warehouse (``Warehouse.from_ssb`` keywords).

    ``warehouse=`` is accepted as a keyword alias of ``target`` (the
    parameter's pre-URL name), so existing callers keep working.

    Raises:
        InterfaceError: when both a target and build kwargs are given,
            a catalog is given without its star schema, or the URL is
            malformed.
        OperationalError: when the remote server is unreachable or
            version negotiation fails.
    """
    if warehouse is not None:
        if target is not None:
            raise InterfaceError(
                "pass the warehouse positionally or as warehouse=..., "
                "not both"
            )
        target = warehouse
    if target is not None:
        if warehouse_kwargs or catalog is not None or star is not None:
            raise InterfaceError(
                "pass either a connection target (warehouse or URL) or "
                "kwargs to build a warehouse, not both"
            )
        if isinstance(target, str):
            from repro.client.remote import RemoteConnection, parse_url

            host, port = parse_url(target)
            return RemoteConnection(host, port, fetch_timeout=fetch_timeout)
        return Connection(
            target,
            owns_warehouse=False,
            start_service=start_service,
            fetch_timeout=fetch_timeout,
        )
    with translated():
        if catalog is not None:
            if star is None:
                raise InterfaceError(
                    "connect(catalog=...) also requires star=..."
                )
            built = Warehouse(catalog, star, **warehouse_kwargs)
        else:
            built = Warehouse.from_ssb(**warehouse_kwargs)
    return Connection(
        built,
        owns_warehouse=True,
        start_service=start_service,
        fetch_timeout=fetch_timeout,
    )
