"""The wire protocol (docs/PROTOCOL.md): framing, codecs, violations.

Unit tests for the transport layer in ``repro/server/protocol.py``
(round trips, truncation, oversize, malformed JSON) plus live-server
tests driving raw sockets through the normative violation handling of
docs/PROTOCOL.md section 7: a server must answer protocol violations
with an ERROR frame where the stream still permits one, and must close
the connection afterwards — without disturbing other connections.
"""

from __future__ import annotations

import io
import socket
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.catalog.schema import DataType
from repro.engine import Warehouse
from repro.server import WarehouseServer, protocol
from repro.server.protocol import ProtocolError


class TestFraming:
    def test_round_trip(self):
        payload = {"type": "execute", "sql": "SELECT 1", "params": [1, "a"]}
        encoded = protocol.encode_frame(payload)
        assert protocol.read_frame(io.BytesIO(encoded)) == payload

    def test_many_frames_on_one_stream(self):
        frames = [{"type": "hello", "n": index} for index in range(5)]
        stream = io.BytesIO(
            b"".join(protocol.encode_frame(frame) for frame in frames)
        )
        assert [protocol.read_frame(stream) for _ in frames] == frames
        assert protocol.read_frame(stream) is None  # clean EOF

    def test_clean_eof_returns_none(self):
        assert protocol.read_frame(io.BytesIO(b"")) is None

    def test_truncated_header_raises(self):
        with pytest.raises(ProtocolError, match="mid-frame"):
            protocol.read_frame(io.BytesIO(b"\x00\x00"))

    def test_truncated_body_raises(self):
        encoded = protocol.encode_frame({"type": "hello"})
        with pytest.raises(ProtocolError, match="mid-frame"):
            protocol.read_frame(io.BytesIO(encoded[:-2]))

    def test_oversized_length_prefix_raises(self):
        header = struct.pack(">I", protocol.MAX_FRAME_BYTES + 1)
        with pytest.raises(ProtocolError, match="limit"):
            protocol.read_frame(io.BytesIO(header))

    def test_invalid_json_body_raises(self):
        body = b"not json at all"
        stream = io.BytesIO(struct.pack(">I", len(body)) + body)
        with pytest.raises(ProtocolError, match="JSON"):
            protocol.read_frame(stream)

    def test_non_object_body_raises(self):
        body = b"[1, 2, 3]"
        stream = io.BytesIO(struct.pack(">I", len(body)) + body)
        with pytest.raises(ProtocolError, match="object"):
            protocol.read_frame(stream)

    def test_object_without_type_raises(self):
        body = b'{"sql": "SELECT 1"}'
        stream = io.BytesIO(struct.pack(">I", len(body)) + body)
        with pytest.raises(ProtocolError, match="type"):
            protocol.read_frame(stream)

    def test_encode_rejects_untyped_payloads(self):
        with pytest.raises(ProtocolError, match="type"):
            protocol.encode_frame({"sql": "SELECT 1"})
        with pytest.raises(ProtocolError, match="type"):
            protocol.encode_frame(["hello"])


class TestCodecs:
    def test_description_round_trip(self):
        description = (
            ("s_city", DataType.STRING, None, None, None, None, False),
            ("orders", DataType.INT, None, None, None, None, False),
        )
        encoded = protocol.encode_description(description)
        assert encoded == [
            ["s_city", "STRING", None, None, None, None, False],
            ["orders", "INT", None, None, None, None, False],
        ]
        assert protocol.decode_description(encoded) == description
        assert protocol.encode_description(None) is None
        assert protocol.decode_description(None) is None

    def test_description_unknown_type_code_raises(self):
        with pytest.raises(ProtocolError, match="description"):
            protocol.decode_description(
                [["x", "NOPE", None, None, None, None, False]]
            )

    def test_rows_round_trip(self):
        assert protocol.decode_rows([[1, "a"], [2, None]]) == [
            (1, "a"),
            (2, None),
        ]
        with pytest.raises(ProtocolError, match="rows"):
            protocol.decode_rows("nope")

    def test_error_payload_clamps_unknown_classes(self):
        payload = protocol.error_payload("ProgrammingError", "bad sql")
        assert payload["error"] == {
            "class": "ProgrammingError",
            "message": "bad sql",
        }
        clamped = protocol.error_payload("SecretInternalError", "boom")
        assert clamped["error"]["class"] == "DatabaseError"


# ----------------------------------------------------------------------
# Property tests (ISSUE 6 satellite): framing round trips, request-id
# demultiplexing, and version negotiation under arbitrary inputs.
# ----------------------------------------------------------------------
_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**53), max_value=2**53)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=10), children, max_size=4),
    max_leaves=12,
)

_FRAMES = st.fixed_dictionaries(
    {"type": st.sampled_from(["execute", "fetch", "cancel", "rows", "error"])},
    optional={
        "request_id": st.integers(min_value=0, max_value=7),
        "payload": _JSON_VALUES,
    },
)


class TestFramingProperties:
    @given(
        payload=st.dictionaries(st.text(max_size=10), _JSON_VALUES, max_size=6)
    )
    def test_any_typed_object_round_trips(self, payload):
        """encode → read is the identity on every JSON object frame."""
        payload = {**payload, "type": "execute"}
        decoded = protocol.read_frame(
            io.BytesIO(protocol.encode_frame(payload))
        )
        assert decoded == payload

    @given(frames=st.lists(_FRAMES, max_size=10))
    def test_any_schedule_round_trips_in_order(self, frames):
        """A whole frame schedule survives one stream, in order."""
        stream = io.BytesIO(
            b"".join(protocol.encode_frame(frame) for frame in frames)
        )
        assert [protocol.read_frame(stream) for _ in frames] == frames
        assert protocol.read_frame(stream) is None

    @given(
        frames=st.lists(_FRAMES, max_size=12),
        cut=st.integers(min_value=1, max_value=4),
    )
    def test_truncation_never_passes_silently(self, frames, cut):
        """Chopping bytes off any schedule yields a clean EOF at a
        frame boundary for the full prefix, then ProtocolError or
        EOF — never a mangled frame."""
        encoded = b"".join(protocol.encode_frame(frame) for frame in frames)
        stream = io.BytesIO(encoded[:-cut] if cut <= len(encoded) else b"")
        survivors = []
        try:
            while True:
                frame = protocol.read_frame(stream)
                if frame is None:
                    break
                survivors.append(frame)
        except ProtocolError:
            pass
        assert survivors == frames[: len(survivors)]
        assert len(frames) - len(survivors) <= 1 or cut >= len(encoded)


class TestMultiplexingProperties:
    """docs/PROTOCOL.md section 8: the per-request subsequence IS the
    request's reply stream, whatever the interleaving."""

    @given(
        schedule=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),
                st.sampled_from(["execute_ok", "rows", "error"]),
            ),
            max_size=30,
        )
    )
    def test_split_streams_is_the_subsequence_per_request(self, schedule):
        frames = [
            {"type": kind, "request_id": request_id, "seq": position}
            for position, (request_id, kind) in enumerate(schedule)
        ]
        streams = protocol.split_streams(frames)
        # exactly the ids that appeared, nothing invented
        assert set(streams) == {rid for rid, _ in schedule}
        for request_id, stream in streams.items():
            assert stream == [
                frame
                for frame in frames
                if frame["request_id"] == request_id
            ]
            # arrival order preserved within the stream
            assert [frame["seq"] for frame in stream] == sorted(
                frame["seq"] for frame in stream
            )
        # demultiplexing is a partition: nothing lost, nothing duplicated
        assert sorted(
            frame["seq"] for stream in streams.values() for frame in stream
        ) == list(range(len(frames)))

    @given(frames=st.lists(_FRAMES, max_size=10))
    def test_split_streams_rejects_untagged_frames(self, frames):
        if all("request_id" in frame for frame in frames):
            protocol.split_streams(frames)  # all tagged: must not raise
        else:
            with pytest.raises(ProtocolError, match="request_id"):
                protocol.split_streams(frames)


class TestNegotiationProperties:
    @given(offer=st.integers(min_value=-1000, max_value=1000))
    def test_negotiation_picks_highest_common_version(self, offer):
        negotiated = protocol.negotiate_version(offer)
        common = [
            version
            for version in protocol.SUPPORTED_VERSIONS
            if version <= offer
        ]
        assert negotiated == (max(common) if common else None)

    @given(
        offer=st.one_of(
            st.none(),
            st.booleans(),
            st.floats(),
            st.text(max_size=5),
            st.lists(st.integers(), max_size=2),
        )
    )
    def test_non_integer_offers_never_negotiate(self, offer):
        assert protocol.negotiate_version(offer) is None

    @given(
        client_max=st.integers(min_value=1, max_value=10),
        server_versions=st.sets(
            st.integers(min_value=1, max_value=10), min_size=1, max_size=5
        ),
    )
    def test_negotiation_is_highest_common_for_any_server_set(
        self, client_max, server_versions
    ):
        """The rule generalizes beyond (2,): for any contiguous-or-
        not supported set, the outcome is the highest supported
        version the client also speaks."""
        with pytest.MonkeyPatch.context() as patcher:
            patcher.setattr(
                protocol,
                "SUPPORTED_VERSIONS",
                tuple(sorted(server_versions)),
            )
            negotiated = protocol.negotiate_version(client_max)
        speakable = {v for v in server_versions if v <= client_max}
        assert negotiated == (max(speakable) if speakable else None)


class TestRequestIdProperties:
    @given(request_id=st.integers(min_value=0, max_value=2**53))
    def test_valid_ids_pass_through(self, request_id):
        frame = {"type": "fetch", "request_id": request_id}
        assert protocol.request_id_of(frame) == request_id

    @given(
        request_id=st.one_of(
            st.none(),
            st.booleans(),
            st.integers(max_value=-1),
            st.floats(),
            st.text(max_size=5),
        )
    )
    def test_invalid_ids_raise(self, request_id):
        with pytest.raises(ProtocolError, match="request_id"):
            protocol.request_id_of(
                {"type": "fetch", "request_id": request_id}
            )


@pytest.fixture
def server(tiny_star):
    catalog, star = tiny_star
    with WarehouseServer(
        Warehouse(catalog, star), owns_warehouse=True
    ) as running:
        yield running


def raw_client(server: WarehouseServer) -> socket.socket:
    sock = socket.create_connection(server.address, timeout=5.0)
    sock.settimeout(5.0)
    return sock


def roundtrip(sock: socket.socket, payload: dict) -> dict | None:
    sock.sendall(protocol.encode_frame(payload))
    return protocol.read_frame(sock.makefile("rb"))


class TestServerViolations:
    """docs/PROTOCOL.md section 7: ERROR frame, then close."""

    def test_execute_before_hello_is_fatal(self, server):
        with raw_client(server) as sock:
            reader = sock.makefile("rb")
            sock.sendall(
                protocol.encode_frame({"type": "execute", "sql": "SELECT 1"})
            )
            reply = protocol.read_frame(reader)
            assert reply["type"] == "error"
            assert "hello" in reply["error"]["message"]
            assert protocol.read_frame(reader) is None  # closed

    def test_version_mismatch_is_fatal(self, server):
        """An offer below the oldest supported version shares nothing
        with the server (offers ABOVE negotiate down instead): a typed
        fatal error naming the supported versions, then a close —
        and the server keeps serving other connections."""
        with raw_client(server) as sock:
            reader = sock.makefile("rb")
            sock.sendall(
                protocol.encode_frame({"type": "hello", "version": 1})
            )
            reply = protocol.read_frame(reader)
            assert reply["type"] == "error"
            assert reply["error"]["class"] == "InterfaceError"
            assert "unsupported protocol version 1" in reply["error"]["message"]
            assert str(list(protocol.SUPPORTED_VERSIONS)) in (
                reply["error"]["message"]
            )
            assert "request_id" not in reply
            assert protocol.read_frame(reader) is None  # closed
        with raw_client(server) as sock:
            reply = roundtrip(
                sock, {"type": "hello", "version": 3, "request_id": 9}
            )
            assert reply["type"] == "hello_ok"
            assert reply["version"] == 2  # a newer peer negotiates down
            assert "request_id" not in reply  # HELLO predates tagging
        with repro.connect(server.url) as conn:
            assert conn.execute(
                "SELECT COUNT(*) FROM sales, store WHERE f_store = s_id"
            ).fetchall() == [(12,)]

    def test_unknown_frame_type_is_fatal(self, server):
        with raw_client(server) as sock:
            reader = sock.makefile("rb")
            sock.sendall(
                protocol.encode_frame(
                    {"type": "hello", "version": protocol.PROTOCOL_VERSION}
                )
            )
            assert protocol.read_frame(reader)["type"] == "hello_ok"
            sock.sendall(
                protocol.encode_frame(
                    {"type": "launch_missiles", "request_id": 7}
                )
            )
            reply = protocol.read_frame(reader)
            assert reply["type"] == "error"
            assert "unknown frame type" in reply["error"]["message"]
            assert reply["request_id"] == 7
            assert protocol.read_frame(reader) is None

    def test_missing_request_id_on_v2_is_fatal(self, server):
        """Post-HELLO frames MUST carry request ids (docs/PROTOCOL.md
        section 8); omitting one is a framing violation, not a
        statement error."""
        with raw_client(server) as sock:
            reader = sock.makefile("rb")
            sock.sendall(protocol.encode_frame({"type": "hello", "version": 2}))
            assert protocol.read_frame(reader)["version"] == 2
            sock.sendall(
                protocol.encode_frame(
                    {"type": "execute", "sql": "SELECT COUNT(*) FROM sales"}
                )
            )
            reply = protocol.read_frame(reader)
            assert reply["type"] == "error"
            assert "request_id" in reply["error"]["message"]
            assert protocol.read_frame(reader) is None

    def test_garbage_bytes_close_the_connection(self, server):
        with raw_client(server) as sock:
            reader = sock.makefile("rb")
            body = b"\xff\xfe not json"
            sock.sendall(struct.pack(">I", len(body)) + body)
            reply = protocol.read_frame(reader)  # best-effort error frame
            if reply is not None:
                assert reply["type"] == "error"
                assert protocol.read_frame(reader) is None

    def test_statement_errors_keep_the_connection_alive(self, server):
        """Statement-level failures are NOT protocol violations: the
        server reports them and keeps serving the same connection."""
        with raw_client(server) as sock:
            reader = sock.makefile("rb")
            sock.sendall(
                protocol.encode_frame(
                    {"type": "hello", "version": protocol.PROTOCOL_VERSION}
                )
            )
            assert protocol.read_frame(reader)["type"] == "hello_ok"
            sock.sendall(
                protocol.encode_frame(
                    {"type": "execute", "sql": "SELEC no", "request_id": 1}
                )
            )
            reply = protocol.read_frame(reader)
            assert reply["type"] == "error"
            assert reply["error"]["class"] == "ProgrammingError"
            assert reply["request_id"] == 1
            sock.sendall(
                protocol.encode_frame(
                    {"type": "fetch", "query_id": 42, "request_id": 2}
                )
            )
            reply = protocol.read_frame(reader)
            assert reply["type"] == "error"
            assert reply["error"]["class"] == "InterfaceError"
            assert reply["request_id"] == 2
            # still usable: a valid statement completes end to end
            sock.sendall(
                protocol.encode_frame(
                    {
                        "type": "execute",
                        "sql": (
                            "SELECT COUNT(*) FROM sales, store "
                            "WHERE f_store = s_id"
                        ),
                        "request_id": 3,
                    }
                )
            )
            reply = protocol.read_frame(reader)
            assert reply["type"] == "execute_ok"
            assert reply["request_id"] == 3
            (query_id,) = reply["query_ids"]
            sock.sendall(
                protocol.encode_frame(
                    {
                        "type": "fetch",
                        "query_id": query_id,
                        "timeout": 30,
                        "request_id": 4,
                    }
                )
            )
            reply = protocol.read_frame(reader)
            assert reply["type"] == "rows"
            assert reply["rows"] == [[12]]
            assert reply["more"] is False
            assert reply["request_id"] == 4

    def test_fetch_rejects_bad_page_sizes(self, server):
        with raw_client(server) as sock:
            reader = sock.makefile("rb")
            sock.sendall(
                protocol.encode_frame({"type": "hello", "version": 2})
            )
            assert protocol.read_frame(reader)["type"] == "hello_ok"
            sock.sendall(
                protocol.encode_frame(
                    {
                        "type": "execute",
                        "sql": "SELECT COUNT(*) FROM sales",
                        "request_id": 0,
                    }
                )
            )
            (query_id,) = protocol.read_frame(reader)["query_ids"]
            sock.sendall(
                protocol.encode_frame(
                    {
                        "type": "fetch",
                        "query_id": query_id,
                        "max_rows": 0,
                        "request_id": 1,
                    }
                )
            )
            reply = protocol.read_frame(reader)
            assert reply["type"] == "error"
            assert "max_rows" in reply["error"]["message"]

    def test_row_paging_over_the_wire(self, server):
        """A grouped result spread over max_rows=1 pages arrives whole
        and in order, with more=False exactly on the last page."""
        with repro.connect(server.url) as conn:
            expected = conn.execute(
                "SELECT s_city, COUNT(*) FROM sales, store "
                "WHERE f_store = s_id GROUP BY s_city"
            ).fetchall()
        assert len(expected) == 3
        with raw_client(server) as sock:
            reader = sock.makefile("rb")
            sock.sendall(
                protocol.encode_frame({"type": "hello", "version": 2})
            )
            assert protocol.read_frame(reader)["type"] == "hello_ok"
            sock.sendall(
                protocol.encode_frame(
                    {
                        "type": "execute",
                        "sql": (
                            "SELECT s_city, COUNT(*) FROM sales, store "
                            "WHERE f_store = s_id GROUP BY s_city"
                        ),
                        "request_id": 0,
                    }
                )
            )
            (query_id,) = protocol.read_frame(reader)["query_ids"]
            pages = []
            more = True
            while more:
                sock.sendall(
                    protocol.encode_frame(
                        {
                            "type": "fetch",
                            "query_id": query_id,
                            "max_rows": 1,
                            "timeout": 30,
                            "request_id": 1 + len(pages),
                        }
                    )
                )
                reply = protocol.read_frame(reader)
                assert reply["type"] == "rows"
                assert len(reply["rows"]) <= 1
                pages.append(reply["rows"])
                more = reply["more"]
            rows = [tuple(row) for page in pages for row in page]
            assert rows == expected
            assert all(len(page) == 1 for page in pages)
