"""The warehouse wire protocol: framing and frame vocabulary.

Normative specification: docs/PROTOCOL.md.  This module implements its
transport layer — length-prefixed JSON frames (docs/PROTOCOL.md
section 1), the version-negotiation constants (section 2), the frame
vocabulary (sections 3 and 4), the PEP-249 error-class names of the
error-mapping table (section 5), and the description / row-page codecs
(section 6).  Both endpoints share it: :class:`~repro.server.tcp.
WarehouseServer` encodes responses with it and the clients
(:mod:`repro.client.remote`, :mod:`repro.client.aio`) decode them.

A frame is a 4-byte big-endian unsigned length followed by exactly
that many bytes of UTF-8 JSON encoding one object.  The transport
never interprets frame bodies beyond requiring a JSON object with a
string ``type`` member; everything else is the server's and client's
business, which keeps this module free of any engine dependency.
"""

from __future__ import annotations

import asyncio
import json
import struct

from repro.catalog.schema import DataType
from repro.errors import ReproError

#: The protocol version this implementation speaks; offered in HELLO
#: and confirmed in HELLO_OK (docs/PROTOCOL.md section 2).  Version 2
#: is request-id multiplexing (docs/PROTOCOL.md section 8).
PROTOCOL_VERSION = 2

#: Every version this implementation can serve.  Negotiation picks the
#: highest listed version that is <= the peer's offer (docs/PROTOCOL.md
#: section 2); an offer below the oldest one is refused.
SUPPORTED_VERSIONS = (2,)

#: Upper bound on one frame's JSON body, guarding both endpoints
#: against a corrupt or hostile length prefix (docs/PROTOCOL.md
#: section 7).
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Default rows per FETCH page; pages bound frame sizes, not result
#: sizes (docs/PROTOCOL.md section 6).
DEFAULT_PAGE_ROWS = 256

#: The big-endian unsigned 32-bit length prefix.
_HEADER = struct.Struct(">I")

#: Bytes in the length prefix, for readers that fetch it themselves
#: (the async streams) before calling :func:`frame_length`.
HEADER_BYTES = _HEADER.size

# ----------------------------------------------------------------------
# Frame vocabulary (docs/PROTOCOL.md sections 3 and 4)
# ----------------------------------------------------------------------
#: Client-to-server frame types.
HELLO = "hello"
EXECUTE = "execute"
FETCH = "fetch"
CANCEL = "cancel"
CLOSE = "close"
#: The telemetry snapshot request (docs/PROTOCOL.md section 9).
STATS = "stats"
#: A batched write set (fact appends + dimension upserts) staged for
#: the next scan-boundary apply; the INGEST_OK ack means applied
#: (docs/PROTOCOL.md section 10).
INGEST = "ingest"

#: Server-to-client frame types.
HELLO_OK = "hello_ok"
EXECUTE_OK = "execute_ok"
ROWS = "rows"
CANCEL_OK = "cancel_ok"
CLOSE_OK = "close_ok"
STATS_OK = "stats_ok"
INGEST_OK = "ingest_ok"
ERROR = "error"

#: The error-class names an ERROR frame may carry (docs/PROTOCOL.md
#: section 5): exactly the PEP-249 classes of
#: :mod:`repro.client.exceptions`.  A client maps unknown names to
#: ``DatabaseError``, so the table can grow without breaking old
#: clients.
ERROR_CLASS_NAMES = (
    "Error",
    "InterfaceError",
    "DatabaseError",
    "ProgrammingError",
    "OperationalError",
    "NotSupportedError",
)


class ProtocolError(ReproError):
    """The byte stream violates the framing rules of docs/PROTOCOL.md:

    a truncated frame, an oversized length prefix, a body that is not
    a JSON object, or a frame without a string ``type``.  Fatal for
    the connection that produced it — framing errors mean the stream
    can no longer be trusted.
    """


def encode_frame(payload: dict) -> bytes:
    """Serialize one frame: length prefix plus UTF-8 JSON body.

    Raises:
        ProtocolError: when the payload is not a dict with a string
            ``type``, or its encoding exceeds ``MAX_FRAME_BYTES``.
    """
    if not isinstance(payload, dict) or not isinstance(
        payload.get("type"), str
    ):
        raise ProtocolError(
            "a frame payload must be a dict with a string 'type'"
        )
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return _HEADER.pack(len(body)) + body


def _read_exact(reader, count: int) -> bytes | None:
    """Read exactly ``count`` bytes; None on EOF at offset zero.

    Raises:
        ProtocolError: on EOF partway through.
    """
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        chunk = reader.read(remaining)
        if not chunk:
            if not chunks:
                return None
            raise ProtocolError(
                f"connection closed mid-frame ({remaining} of {count} "
                f"bytes missing)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def frame_length(header: bytes) -> int:
    """Decode and bounds-check a 4-byte length prefix.

    Raises:
        ProtocolError: when the prefix exceeds ``MAX_FRAME_BYTES``.
    """
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame length {length} exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return length


def decode_frame_body(body: bytes) -> dict:
    """Decode and validate one frame body (shared by every reader —
    the blocking :func:`read_frame` and the async server's and
    client's stream readers decode through this single choke point).

    Raises:
        ProtocolError: on invalid JSON or a body that is not an object
            with a string ``type``.
    """
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"frame body is not valid JSON: {error}") from error
    if not isinstance(payload, dict) or not isinstance(
        payload.get("type"), str
    ):
        raise ProtocolError(
            "frame body must be a JSON object with a string 'type'"
        )
    return payload


def read_frame(reader) -> dict | None:
    """Read one frame from a binary reader (``.read(n)``).

    Returns the decoded payload, or None on a clean end-of-stream at a
    frame boundary (the peer closed between frames).

    Raises:
        ProtocolError: on truncation, an oversized or malformed length
            prefix, invalid JSON, or a body that is not an object with
            a string ``type``.
    """
    header = _read_exact(reader, _HEADER.size)
    if header is None:
        return None
    length = frame_length(header)
    body = _read_exact(reader, length) if length else b""
    if length and body is None:
        raise ProtocolError("connection closed before the frame body")
    return decode_frame_body(body)


async def read_frame_async(reader) -> dict | None:
    """Read one frame from an :class:`asyncio.StreamReader`.

    The coroutine twin of :func:`read_frame` — same validation, same
    clean-EOF contract — shared by the async server and async client.

    Raises:
        ProtocolError: on truncation, an oversized length prefix,
            invalid JSON, or a body that is not an object with a
            string ``type``.
    """
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None  # clean EOF at a frame boundary
        raise ProtocolError(
            "connection closed mid-frame (length prefix truncated)"
        ) from error
    length = frame_length(header)
    if not length:
        return decode_frame_body(b"")
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise ProtocolError(
            "connection closed before the frame body"
        ) from error
    return decode_frame_body(body)


# ----------------------------------------------------------------------
# Version negotiation (docs/PROTOCOL.md section 2)
# ----------------------------------------------------------------------
def negotiate_version(requested) -> int | None:
    """The version a server should speak to a peer offering ``requested``.

    The negotiated version is the highest supported version that is
    <= the offer, so a newer peer negotiates down.  Returns None when
    there is no common version (an offer below the oldest supported
    version — version 1 included — or not an int).
    """
    if isinstance(requested, bool) or not isinstance(requested, int):
        return None
    common = [
        version for version in SUPPORTED_VERSIONS if version <= requested
    ]
    return max(common) if common else None


# ----------------------------------------------------------------------
# Request-id multiplexing (docs/PROTOCOL.md section 8)
# ----------------------------------------------------------------------
def request_id_of(frame: dict) -> int:
    """The frame's ``request_id``, validated (every post-HELLO frame).

    Raises:
        ProtocolError: when the id is missing, not an int, or negative.
    """
    request_id = frame.get("request_id")
    if (
        isinstance(request_id, bool)
        or not isinstance(request_id, int)
        or request_id < 0
    ):
        raise ProtocolError(
            f"post-HELLO frames require a non-negative integer "
            f"'request_id', got {request_id!r}"
        )
    return request_id


def split_streams(frames) -> dict[int, list[dict]]:
    """Demultiplex a frame schedule into per-request streams.

    The defining invariant (docs/PROTOCOL.md section 8): however
    replies from different requests interleave on the wire, the
    subsequence tagged with one ``request_id`` — in arrival order — IS
    that request's reply stream.  Both async endpoints route frames
    this way; the property tests drive this helper over arbitrary
    interleavings.

    Raises:
        ProtocolError: when any frame lacks a valid ``request_id``.
    """
    streams: dict[int, list[dict]] = {}
    for frame in frames:
        streams.setdefault(request_id_of(frame), []).append(frame)
    return streams


# ----------------------------------------------------------------------
# Description and row codecs (docs/PROTOCOL.md section 6)
# ----------------------------------------------------------------------
def encode_description(description: tuple | None) -> list | None:
    """JSON-encode PEP 249 7-tuples; type codes travel as DataType names."""
    if description is None:
        return None
    return [
        [entry[0], entry[1].name, *entry[2:]] for entry in description
    ]


def decode_description(entries: list | None) -> tuple | None:
    """Rebuild the description tuple; inverse of :func:`encode_description`.

    Raises:
        ProtocolError: on an unknown type-code name or malformed entry.
    """
    if entries is None:
        return None
    description = []
    try:
        for entry in entries:
            name, type_name, *rest = entry
            description.append((name, DataType[type_name], *rest))
    except (KeyError, TypeError, ValueError) as error:
        raise ProtocolError(
            f"malformed description in execute_ok frame: {error}"
        ) from error
    return tuple(description)


def decode_rows(rows) -> list[tuple]:
    """Rebuild result tuples from a ROWS frame's JSON arrays.

    Raises:
        ProtocolError: when ``rows`` is not a list of arrays.
    """
    if not isinstance(rows, list):
        raise ProtocolError("rows frame must carry a list of row arrays")
    try:
        return [tuple(row) for row in rows]
    except TypeError as error:
        raise ProtocolError(f"malformed row in rows frame: {error}") from error


def error_payload(class_name: str, message: str) -> dict:
    """Build an ERROR frame payload (docs/PROTOCOL.md section 5)."""
    if class_name not in ERROR_CLASS_NAMES:
        class_name = "DatabaseError"
    return {
        "type": ERROR,
        "error": {"class": class_name, "message": message},
    }
