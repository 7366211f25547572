"""The TCP service boundary (DESIGN.md section 11).

The paper frames CJOIN as the join operator inside an always-on
warehouse serving hundreds of concurrent clients (paper section 2.1);
this package is that service boundary.  One server class —
:class:`WarehouseServer`, also importable as
:class:`AsyncWarehouseServer` — owns one warehouse (one continuous
scan) and multiplexes every client connection on an asyncio event
loop (:mod:`repro.server.tcp`); the protocol state of a connection
lives in the socket-free :class:`ServerSession`
(:mod:`repro.server.session`), and :mod:`repro.server.protocol`
implements the length-prefixed JSON wire protocol both endpoints
speak, specified normatively in docs/PROTOCOL.md.  The client side
lives in :mod:`repro.client.remote` (sync) and :mod:`repro.client.aio`
(async), behind ``repro.connect("tcp://host:port")`` and
``repro.connect_async(...)``.

Runnable entry point::

    PYTHONPATH=src python -m repro.server --scale-factor 0.001
"""

from repro.server.protocol import (
    DEFAULT_PAGE_ROWS,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    SUPPORTED_VERSIONS,
    ProtocolError,
)
from repro.server.session import ServerSession
from repro.server.tcp import (
    DEFAULT_PORT,
    AsyncWarehouseServer,
    WarehouseServer,
)

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
]
