"""The TCP service boundary (DESIGN.md section 11).

The paper frames CJOIN as the join operator inside an always-on
warehouse serving hundreds of concurrent clients (paper section 2.1);
this package is that service boundary.  Two servers share one
transport-independent session core (:mod:`repro.server.session`):
:class:`WarehouseServer` is thread-per-connection, and
:class:`AsyncWarehouseServer` multiplexes many in-flight statements
per connection on an event loop (protocol v2, DESIGN.md section 12).
Each owns one warehouse — one continuous scan — and serves many
concurrent socket connections; :mod:`repro.server.protocol` implements
the length-prefixed JSON wire protocol both endpoints speak, specified
normatively in docs/PROTOCOL.md.  The client side lives in
:mod:`repro.client.remote` (sync) and :mod:`repro.client.aio` (async),
behind ``repro.connect("tcp://host:port")`` and
``repro.connect_async(...)``.

Runnable entry point::

    PYTHONPATH=src python -m repro.server --scale-factor 0.001
"""

from repro.server.async_tcp import AsyncWarehouseServer, serve_async
from repro.server.protocol import (
    DEFAULT_PAGE_ROWS,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    SUPPORTED_VERSIONS,
    ProtocolError,
)
from repro.server.session import ServerSession
from repro.server.tcp import DEFAULT_PORT, WarehouseServer

__all__ = [
    "AsyncWarehouseServer",
    "DEFAULT_PAGE_ROWS",
    "DEFAULT_PORT",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "SUPPORTED_VERSIONS",
    "ServerSession",
    "WarehouseServer",
    "serve_async",
]
