"""The client session layer (DESIGN.md section 10).

A PEP-249-flavoured surface over the always-on warehouse service:
``connect()`` opens a :class:`Connection` that owns the service
driver's lifecycle; ``Connection.cursor()`` hands out
:class:`Cursor` objects with parameterized ``execute()``, the
``fetchone``/``fetchmany``/``fetchall``/iteration family,
``description`` metadata, and the warehouse-native extensions
``rows_so_far()`` (incremental partials) and ``cancel()`` (mid-scan
deregistration).  ``connect("tcp://host:port")`` returns the same
surface backed by the docs/PROTOCOL.md socket transport
(:class:`RemoteConnection` / :class:`RemoteCursor`), and
``connect_async(...)`` its asyncio form; both run the socket-free
statement core of :mod:`repro.client.wire`.

Module globals follow PEP 249: ``apilevel``, ``threadsafety`` (2 —
threads may share the module and connections), and ``paramstyle``
(``'qmark'`` is the default; ``:name`` named parameters are also
accepted).
"""

from repro.client.aio import (
    AsyncConnectionPool,
    AsyncCursor,
    AsyncRemoteConnection,
    connect_async,
)
from repro.client.connection import (
    DEFAULT_FETCH_TIMEOUT,
    Connection,
    connect,
)
from repro.client.cursor import NUMBER, STRING, Cursor
from repro.client.exceptions import (
    DatabaseError,
    Error,
    InterfaceError,
    NotSupportedError,
    OperationalError,
    ProgrammingError,
)
from repro.client.remote import RemoteConnection, RemoteCursor

#: PEP 249 module globals.
apilevel = "2.0"
threadsafety = 2
paramstyle = "qmark"

__all__ = [
    "AsyncConnectionPool",
    "AsyncCursor",
    "AsyncRemoteConnection",
    "Connection",
    "Cursor",
    "DEFAULT_FETCH_TIMEOUT",
    "DatabaseError",
    "Error",
    "InterfaceError",
    "NUMBER",
    "NotSupportedError",
    "OperationalError",
    "ProgrammingError",
    "RemoteConnection",
    "RemoteCursor",
    "STRING",
    "apilevel",
    "connect",
    "connect_async",
    "paramstyle",
    "threadsafety",
]
