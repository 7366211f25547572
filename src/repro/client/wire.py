"""The socket-free client half of the wire protocol (docs/PROTOCOL.md).

Every request the remote clients send, and what each reply means, is
written here once, with no I/O.  An operation is a generator: it
yields a request payload, receives that request's reply, and returns
the operation's result — so a paged FETCH is a loop over yields, and
the same statements serve the blocking client
(:mod:`repro.client.remote`, which calls ``connection._request(...)``
per yield) and the asyncio client (:mod:`repro.client.aio`, which
awaits it).  A driver that catches a request's exception throws it
into the generator, which is how :meth:`Statement.release` stays best
effort over a dead transport.

:class:`Statement` is one cursor's server-side statement: its query
ids, description, and materialized rows, plus the EXECUTE / FETCH /
CANCEL / CLOSE exchanges over them.  The connection-level exchanges
(HELLO, STATS, INGEST, session CLOSE) are module functions, and
:func:`check_reply` is the one ERROR-frame-to-exception mapping
(docs/PROTOCOL.md section 5).
"""

from __future__ import annotations

from repro.client import exceptions
from repro.client.exceptions import (
    DatabaseError,
    Error,
    OperationalError,
    ProgrammingError,
)
from repro.server import protocol

#: ERROR-frame class names → client exceptions (the client half of the
#: docs/PROTOCOL.md section 5 mapping table; unknown names degrade to
#: DatabaseError so the table can grow server-side first).
_ERROR_CLASSES = {
    name: getattr(exceptions, name) for name in protocol.ERROR_CLASS_NAMES
}


def check_reply(reply: dict) -> dict:
    """Return ``reply``, or raise what its ERROR frame maps to."""
    if reply.get("type") == protocol.ERROR:
        detail = reply.get("error") or {}
        exc_class = _ERROR_CLASSES.get(detail.get("class"), DatabaseError)
        raise exc_class(detail.get("message", "server reported an error"))
    return reply


# ----------------------------------------------------------------------
# Connection-level exchanges
# ----------------------------------------------------------------------
def hello_request() -> dict:
    """The HELLO frame; it precedes negotiation and carries no request
    id (docs/PROTOCOL.md section 2)."""
    return {"type": protocol.HELLO, "version": protocol.PROTOCOL_VERSION}


def accept_hello(reply: dict) -> tuple[int, str]:
    """``(version, server_info)`` from the reply to HELLO.

    Raises:
        OperationalError: when the server negotiated a version this
            client does not speak; the mapped exception when it
            answered with an ERROR frame.
    """
    version = check_reply(reply).get("version")
    if version not in protocol.SUPPORTED_VERSIONS:
        raise OperationalError(
            f"server negotiated unsupported protocol version {version!r}"
        )
    return version, reply.get("server", "")


def close_session():
    """The connection-level CLOSE; its reply carries nothing."""
    yield {"type": protocol.CLOSE}


def stats():
    """STATS (docs/PROTOCOL.md section 9); returns the snapshot."""
    reply = yield {"type": protocol.STATS}
    return reply.get("stats", {})


def ingest(fact_rows, dim_upserts, timeout: float | None):
    """INGEST (docs/PROTOCOL.md section 10); returns the receipt."""
    payload: dict = {"type": protocol.INGEST}
    if fact_rows is not None:
        payload["fact_rows"] = [list(row) for row in fact_rows]
    if dim_upserts is not None:
        payload["dim_upserts"] = {
            name: [list(row) for row in rows]
            for name, rows in dim_upserts.items()
        }
    if timeout is not None:
        payload["timeout"] = timeout
    reply = yield payload
    return {
        "rows": reply.get("rows"),
        "snapshot_id": reply.get("snapshot_id"),
        "generation": reply.get("generation"),
    }


# ----------------------------------------------------------------------
# Statements
# ----------------------------------------------------------------------
def _check_bindable(value) -> None:
    """Reject values the binder could never accept, client-side.

    Mirrors the server-side binder's rule (int/float/str only; None is
    shipped so the server reports its canonical no-NULL error), so a
    date or Decimal raises the same ``ProgrammingError`` on both
    transports instead of an unserializable-frame ``TypeError``.
    """
    if value is not None and not isinstance(value, (int, float, str)):
        raise ProgrammingError(
            f"cannot bind {type(value).__name__}: parameter values "
            f"must be int, float, or str"
        )


def _jsonable_params(params):
    """Coerce one parameter set to its wire shape (list or dict)."""
    if params is None:
        return None
    if isinstance(params, (str, bytes)):
        return params  # let the server's binder report the type error
    if hasattr(params, "keys"):
        mapping = dict(params)
        for value in mapping.values():
            _check_bindable(value)
        return mapping
    try:
        values = list(params)
    except TypeError:
        return params
    for value in values:
        _check_bindable(value)
    return values


class Statement:
    """One cursor's statement: server-side ids, description, rows.

    Each statement maps to server-side query ids that live until they
    are released — by the next execute, or by the cursor closing.
    """

    def __init__(self) -> None:
        self.query_ids: list[int] = []
        self.description: tuple | None = None
        #: the materialized result; None until the first fetch
        self.rows: list[tuple] | None = None

    @property
    def rowcount(self) -> int:
        """Rows in the materialized result; -1 before materialization."""
        return -1 if self.rows is None else len(self.rows)

    def check_executed(self) -> None:
        if not self.query_ids and self.rows is None:
            raise ProgrammingError(
                "no statement executed yet; call execute() first"
            )

    # -- execution -----------------------------------------------------
    def execute(self, sql: str, params):
        """Ship one statement; the server parses, binds, and submits.

        A malformed statement or binding raises (mapped from the ERROR
        frame) with no query left behind server-side.
        """
        reply = yield {
            "type": protocol.EXECUTE,
            "sql": sql,
            "params": _jsonable_params(params),
        }
        yield from self._install(reply)

    def executemany(self, sql: str, seq_of_params):
        """Ship one statement with many parameter sets (one frame).

        The server binds every set before submitting anything, so a
        bad binding is atomic — no orphan queries — exactly like the
        in-process ``executemany``.
        """
        reply = yield {
            "type": protocol.EXECUTE,
            "sql": sql,
            "param_sets": [
                _jsonable_params(params) for params in seq_of_params
            ],
        }
        yield from self._install(reply)

    def _install(self, reply: dict):
        yield from self.release()
        query_ids = reply.get("query_ids")
        if not isinstance(query_ids, list):
            raise OperationalError(
                "malformed execute_ok frame: missing query_ids"
            )
        self.query_ids = query_ids
        self.description = protocol.decode_description(
            reply.get("description")
        )
        # zero bindings executed the statement zero times: an empty
        # result set, not 'never executed' (same as the local cursor)
        self.rows = None if query_ids else []

    def release(self):
        """Free the server-side statement state (best effort)."""
        ids, self.query_ids = self.query_ids, []
        for query_id in ids:
            try:
                yield {"type": protocol.CLOSE, "query_id": query_id}
            except Error:
                break  # transport gone; server teardown reclaims state

    # -- results -------------------------------------------------------
    def fetch(self, page_rows: int, timeout: float):
        """Materialize the rows by draining FETCH pages (bounded
        frames, docs/PROTOCOL.md section 6); returns them."""
        if self.rows is None:
            self.check_executed()
            rows: list[tuple] = []
            for query_id in self.query_ids:
                more = True
                while more:
                    reply = yield {
                        "type": protocol.FETCH,
                        "query_id": query_id,
                        "max_rows": page_rows,
                        "timeout": timeout,
                    }
                    rows.extend(protocol.decode_rows(reply.get("rows")))
                    more = bool(reply.get("more"))
            self.rows = rows
        return self.rows

    def partial(self):
        """Live partial results, via non-blocking partial-mode FETCHes."""
        self.check_executed()
        rows: list[tuple] = []
        for query_id in self.query_ids:
            reply = yield {
                "type": protocol.FETCH,
                "query_id": query_id,
                "mode": "partial",
            }
            rows.extend(protocol.decode_rows(reply.get("rows")))
        return rows

    def cancel(self):
        """Cancel the statement's queries server-side.

        Round-trips to ``QueryHandle.cancel()`` on the server: queued
        statements (per-connection or service FIFO) are dropped in
        place, registered ones are deregistered mid-scan.  Returns how
        many queries were cancelled.
        """
        self.check_executed()
        cancelled = 0
        for query_id in self.query_ids:
            reply = yield {"type": protocol.CANCEL, "query_id": query_id}
            cancelled += bool(reply.get("cancelled"))
        return cancelled
