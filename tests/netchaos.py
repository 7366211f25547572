"""Fault injection for the wire layer (ISSUE 6 satellite).

Small, deterministic helpers that misbehave at a TCP warehouse server
the specific ways real clients do: torn and truncated frames, dribble
writes that land one byte per segment, disconnects mid-frame,
readers that stall after requesting work, and plain garbage.  Each
helper drives ONE raw socket through one pathology and returns what
it observed; ``tests/test_server_faults.py`` runs every scenario
against a live server and asserts the invariant that matters — no
leaked thread or task, no leaked warehouse slot — using the server's
own accounting.

The helpers write their frames by hand (never through a client) so
each scenario pins down exactly which rules it violates.
"""

from __future__ import annotations

import socket
import struct
import time

from repro.server import protocol

#: Per-socket timeout: generous for slow CI, small enough that a test
#: wedging on a server bug fails the suite instead of hanging it.
SOCKET_TIMEOUT = 15.0

COUNT_SQL = "SELECT COUNT(*) FROM sales, store WHERE f_store = s_id"


def open_raw(address: tuple[str, int]) -> socket.socket:
    """A raw TCP client socket with the suite's timeout."""
    sock = socket.create_connection(address, timeout=SOCKET_TIMEOUT)
    sock.settimeout(SOCKET_TIMEOUT)
    return sock


def handshake(sock: socket.socket) -> dict:
    """Send HELLO and return the (decoded) HELLO_OK."""
    sock.sendall(protocol.encode_frame({"type": "hello", "version": 2}))
    reply = protocol.read_frame(sock.makefile("rb"))
    assert reply is not None and reply["type"] == "hello_ok", reply
    return reply


def read_reply(sock: socket.socket) -> dict | None:
    """One frame off the socket (None on clean close)."""
    return protocol.read_frame(sock.makefile("rb"))


# ----------------------------------------------------------------------
# Scenarios.  Each takes a server address, does its damage, closes its
# socket, and returns an observation dict for optional extra asserts.
# ----------------------------------------------------------------------
def torn_header(address) -> dict:
    """Send half a length prefix, then vanish."""
    with open_raw(address) as sock:
        handshake(sock)
        sock.sendall(b"\x00\x00")
    return {}


def torn_body(address) -> dict:
    """Advertise a frame, ship half its body, then vanish."""
    with open_raw(address) as sock:
        handshake(sock)
        frame = protocol.encode_frame(
            {"type": "execute", "sql": COUNT_SQL, "request_id": 0}
        )
        sock.sendall(frame[: len(frame) // 2])
    return {}


def disconnect_mid_execute(address) -> dict:
    """Execute a statement, then drop the socket without CLOSE.

    The nastiest variant: the server now owns a live query whose
    client is gone; teardown must cancel it so its warehouse slot
    frees within one scan cycle.
    """
    sock = open_raw(address)
    handshake(sock)
    sock.sendall(
        protocol.encode_frame(
            {"type": "execute", "sql": COUNT_SQL, "request_id": 0}
        )
    )
    reply = read_reply(sock)
    assert reply is not None and reply["type"] == "execute_ok", reply
    # abandon the socket abruptly (RST where the OS permits)
    sock.setsockopt(
        socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
    )
    sock.close()
    return {"query_ids": reply["query_ids"]}


def disconnect_mid_ingest(address) -> dict:
    """Ship a complete INGEST frame, then drop the socket before the ack.

    The write-path twin of ``disconnect_mid_execute``: the server owns
    a staged (possibly not-yet-applied) batch whose producer is gone.
    Teardown must discard the connection's buffered-but-unacked
    batches without leaking a slot, thread, or task — and whether the
    batch raced to an apply or was discarded, the dataset the other
    clients query must stay identical.  The batch is deliberately
    idempotent (an upsert rewriting a store row with its current
    values), so the suite's COUNT invariant holds either way.
    """
    sock = open_raw(address)
    handshake(sock)
    sock.sendall(
        protocol.encode_frame(
            {
                "type": "ingest",
                "dim_upserts": {"store": [[1, "lyon", 100]]},
                "request_id": 0,
            }
        )
    )
    # abandon the socket abruptly, without ever reading INGEST_OK
    sock.setsockopt(
        socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
    )
    sock.close()
    return {}


def dribble_writes(address) -> dict:
    """A whole valid exchange, one byte per send.

    Not a violation at all — framing must reassemble byte-at-a-time
    arrivals — so this scenario asserts the query RUNS and answers.
    """
    with open_raw(address) as sock:
        handshake(sock)
        frame = protocol.encode_frame(
            {
                "type": "execute",
                "sql": COUNT_SQL,
                "request_id": 0,
            }
        )
        for index in range(len(frame)):
            sock.sendall(frame[index:index + 1])
        reply = read_reply(sock)
        assert reply is not None and reply["type"] == "execute_ok", reply
        (query_id,) = reply["query_ids"]
        fetch = protocol.encode_frame(
            {
                "type": "fetch",
                "query_id": query_id,
                "timeout": 30,
                "request_id": 1,
            }
        )
        for index in range(len(fetch)):
            sock.sendall(fetch[index:index + 1])
        rows = read_reply(sock)
        assert rows is not None and rows["type"] == "rows", rows
        return {"rows": rows["rows"]}


def stalled_reader(address, stall_seconds: float = 1.0) -> dict:
    """Request work, then stop reading replies for a while.

    A stalled reader may slow its OWN replies (bounded outboxes push
    back) but must not wedge the server: after the stall the
    connection still works end to end.
    """
    with open_raw(address) as sock:
        handshake(sock)
        for request_id in range(8):
            sock.sendall(
                protocol.encode_frame(
                    {
                        "type": "execute",
                        "sql": COUNT_SQL,
                        "request_id": request_id,
                    }
                )
            )
        time.sleep(stall_seconds)  # replies pile into the outbox
        reader = sock.makefile("rb")
        replies = [protocol.read_frame(reader) for _ in range(8)]
        assert all(
            reply is not None and reply["type"] == "execute_ok"
            for reply in replies
        ), replies
        return {"replies": len(replies)}


def garbage_after_hello(address) -> dict:
    """A valid HELLO followed by framed binary garbage."""
    with open_raw(address) as sock:
        handshake(sock)
        body = b"\xde\xad\xbe\xef this is not json"
        sock.sendall(struct.pack(">I", len(body)) + body)
        reply = read_reply(sock)  # best-effort ERROR, then close
        if reply is not None:
            assert reply["type"] == "error", reply
            assert read_reply(sock) is None
    return {}


def oversized_length_prefix(address) -> dict:
    """Advertise a frame bigger than MAX_FRAME_BYTES."""
    with open_raw(address) as sock:
        handshake(sock)
        sock.sendall(struct.pack(">I", protocol.MAX_FRAME_BYTES + 1))
        reply = read_reply(sock)
        if reply is not None:
            assert reply["type"] == "error", reply
            assert read_reply(sock) is None
    return {}


def missing_request_id(address) -> dict:
    """A post-HELLO frame omitting the mandatory request id."""
    with open_raw(address) as sock:
        handshake(sock)
        sock.sendall(
            protocol.encode_frame({"type": "execute", "sql": COUNT_SQL})
        )
        reply = read_reply(sock)
        assert reply is not None and reply["type"] == "error", reply
        assert "request_id" in reply["error"]["message"]
        assert read_reply(sock) is None
    return {}


def unknown_version(address) -> dict:
    """A HELLO offering version 1, below the oldest the server speaks."""
    with open_raw(address) as sock:
        reader = sock.makefile("rb")
        sock.sendall(protocol.encode_frame({"type": "hello", "version": 1}))
        reply = protocol.read_frame(reader)
        assert reply is not None and reply["type"] == "error", reply
        assert protocol.read_frame(reader) is None
    return {}


def _count_exchange(sock: socket.socket) -> list:
    """One full execute/fetch exchange; returns the result rows."""
    sock.sendall(
        protocol.encode_frame(
            {"type": "execute", "sql": COUNT_SQL, "request_id": 0}
        )
    )
    reply = read_reply(sock)
    assert reply is not None and reply["type"] == "execute_ok", reply
    (query_id,) = reply["query_ids"]
    sock.sendall(
        protocol.encode_frame(
            {
                "type": "fetch",
                "query_id": query_id,
                "timeout": 30,
                "request_id": 1,
            }
        )
    )
    rows = read_reply(sock)
    assert rows is not None and rows["type"] == "rows", rows
    return rows["rows"]


def server_restart_mid_session(address, restart=None) -> dict:
    """A session whose server restarts out from under it (ISSUE 10).

    Standalone (no ``restart``) this is the clean subset — one full
    execute/fetch exchange, then an orderly close — so the generic
    leak suite can run it against any live server.  The dedicated
    restart test passes ``restart``, a callable that stops the server,
    reopens its durable warehouse, starts a replacement, and returns
    the replacement's address.  The helper then asserts the raw-wire
    contract of a restart: the old socket dies promptly (EOF, reset,
    or a framed ERROR — never a hang), and a fresh socket against the
    new address completes the same exchange.
    """
    sock = open_raw(address)
    try:
        handshake(sock)
        observation = {"rows_before": _count_exchange(sock)}
        if restart is None:
            return observation
        new_address = restart()
        # the old socket is dead: a fetch either fails to send or
        # reads EOF / a last-gasp framed error, within the timeout
        try:
            sock.sendall(
                protocol.encode_frame(
                    {
                        "type": "execute",
                        "sql": COUNT_SQL,
                        "request_id": 2,
                    }
                )
            )
            reply = read_reply(sock)
        except OSError:
            reply = None
        assert reply is None or reply["type"] == "error", reply
        observation["old_socket_dead"] = True
    finally:
        sock.close()
    with open_raw(new_address) as fresh:
        handshake(fresh)
        observation["rows_after"] = _count_exchange(fresh)
    return observation


def hello_flood_then_vanish(address, count: int = 8) -> list:
    """Many half-open connections abandoned right after HELLO."""
    socks = []
    for _ in range(count):
        sock = open_raw(address)
        handshake(sock)
        socks.append(sock)
    for sock in socks:
        sock.close()
    return []


#: name → callable, for parametrized suites.
SCENARIOS = {
    "torn_header": torn_header,
    "torn_body": torn_body,
    "disconnect_mid_execute": disconnect_mid_execute,
    "disconnect_mid_ingest": disconnect_mid_ingest,
    "dribble_writes": dribble_writes,
    "stalled_reader": stalled_reader,
    "garbage_after_hello": garbage_after_hello,
    "oversized_length_prefix": oversized_length_prefix,
    "missing_request_id": missing_request_id,
    "server_restart_mid_session": server_restart_mid_session,
    "unknown_version": unknown_version,
    "hello_flood_then_vanish": hello_flood_then_vanish,
}
