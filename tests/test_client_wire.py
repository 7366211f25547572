"""The socket-free client statement core (``repro.client.wire``).

No server, no socket: each operation is a generator that yields the
request payloads it wants sent and receives their replies, so feeding
canned replies pins the exact request sequence both remote cursors
put on the wire.
"""

from __future__ import annotations

import pytest

from repro.catalog.schema import DataType
from repro.client import (
    DatabaseError,
    NotSupportedError,
    OperationalError,
    ProgrammingError,
    wire,
)

DESCRIPTION = [["n", "INT", None, None, None, None, False]]


def run(steps, replies):
    """Drive ``steps`` like a cursor does, answering each request from
    ``replies`` (an exception instance is raised into the operation);
    returns ``(requests sent, result)``."""
    replies = iter(replies)
    sent = []
    try:
        payload = next(steps)
        while True:
            sent.append(payload)
            reply = next(replies)
            if isinstance(reply, Exception):
                payload = steps.throw(reply)
            else:
                payload = steps.send(reply)
    except StopIteration as done:
        assert next(replies, None) is None, "unconsumed canned reply"
        return sent, done.value


def execute_ok(*query_ids):
    return {
        "type": "execute_ok",
        "query_ids": list(query_ids),
        "description": DESCRIPTION,
    }


def test_statement_lifecycle_request_sequence():
    statement = wire.Statement()
    assert statement.rowcount == -1
    with pytest.raises(ProgrammingError, match="no statement executed"):
        next(statement.fetch(2, 5.0))

    sent, _ = run(statement.execute("SELECT ?", (7,)), [execute_ok(11)])
    assert sent == [{"type": "execute", "sql": "SELECT ?", "params": [7]}]
    assert statement.query_ids == [11]
    assert statement.description == (
        ("n", DataType.INT, None, None, None, None, False),
    )
    assert statement.rowcount == -1

    # live partials do not materialize the result
    sent, rows = run(
        statement.partial(), [{"type": "rows", "rows": [[1]], "more": True}]
    )
    assert sent == [{"type": "fetch", "query_id": 11, "mode": "partial"}]
    assert rows == [(1,)] and statement.rows is None

    # two pages, then the rows are cached: a second fetch sends nothing
    fetch = {"type": "fetch", "query_id": 11, "max_rows": 2, "timeout": 5.0}
    sent, rows = run(
        statement.fetch(2, 5.0),
        [
            {"type": "rows", "rows": [[1], [2]], "more": True},
            {"type": "rows", "rows": [[3]], "more": False},
        ],
    )
    assert sent == [fetch, fetch]
    assert rows == [(1,), (2,), (3,)] and statement.rowcount == 3
    assert run(statement.fetch(2, 5.0), []) == ([], rows)

    sent, cancelled = run(
        statement.cancel(), [{"type": "cancel_ok", "cancelled": False}]
    )
    assert sent == [{"type": "cancel", "query_id": 11}]
    assert cancelled == 0

    # re-execute: the new statement is accepted first, then the old
    # server-side ids are released with CLOSE
    sent, _ = run(
        statement.executemany("SELECT ?", [(1,), {"x": 2}]),
        [execute_ok(12, 13), {"type": "close_ok"}],
    )
    assert sent == [
        {
            "type": "execute",
            "sql": "SELECT ?",
            "param_sets": [[1], {"x": 2}],
        },
        {"type": "close", "query_id": 11},
    ]
    assert statement.query_ids == [12, 13] and statement.rows is None

    # close: release is best effort — a dead transport stops it early
    sent, _ = run(statement.release(), [OperationalError("gone")])
    assert sent == [{"type": "close", "query_id": 12}]
    assert statement.query_ids == []


def test_executemany_with_zero_bindings_is_an_empty_result():
    statement = wire.Statement()
    sent, _ = run(
        statement.executemany("SELECT ?", []),
        [{"type": "execute_ok", "query_ids": [], "description": None}],
    )
    assert sent == [{"type": "execute", "sql": "SELECT ?", "param_sets": []}]
    # executed zero times: fetches answer [] without a round trip,
    # instead of raising 'no statement executed yet'
    assert run(statement.fetch(2, 5.0), []) == ([], [])
    assert statement.rowcount == 0
    assert run(statement.partial(), []) == ([], [])


def test_malformed_execute_ok_is_operational_error():
    statement = wire.Statement()
    steps = statement.execute("SELECT 1", None)
    next(steps)
    with pytest.raises(OperationalError, match="malformed execute_ok"):
        steps.send({"type": "execute_ok"})
    assert statement.query_ids == [] and statement.rows is None


def test_unbindable_parameter_raises_before_any_request():
    with pytest.raises(ProgrammingError, match="cannot bind"):
        next(wire.Statement().execute("SELECT ?", (object(),)))


@pytest.mark.parametrize(
    "class_name, expected",
    [
        ("ProgrammingError", ProgrammingError),
        ("NotSupportedError", NotSupportedError),
        ("SomethingNewer", DatabaseError),  # unknown names degrade
    ],
)
def test_error_frames_map_to_exception_classes(class_name, expected):
    reply = {
        "type": "error",
        "error": {"class": class_name, "message": "boom"},
    }
    with pytest.raises(expected, match="boom") as caught:
        wire.check_reply(reply)
    assert type(caught.value) is expected
    ok = {"type": "rows", "rows": []}
    assert wire.check_reply(ok) is ok


def test_hello_and_connection_level_exchanges():
    assert wire.hello_request() == {"type": "hello", "version": 2}
    hello_ok = {"type": "hello_ok", "version": 2, "server": "repro/x"}
    assert wire.accept_hello(hello_ok) == (2, "repro/x")
    with pytest.raises(OperationalError, match="unsupported protocol"):
        wire.accept_hello({"type": "hello_ok", "version": 1})

    assert run(wire.close_session(), [{"type": "close_ok"}]) == (
        [{"type": "close"}],
        None,
    )
    assert run(
        wire.stats(), [{"type": "stats_ok", "stats": {"k": 1}}]
    ) == ([{"type": "stats"}], {"k": 1})
    sent, receipt = run(
        wire.ingest([(1, 2)], {"store": [(3, "nice")]}, 4.0),
        [{"type": "ingest_ok", "rows": 2, "snapshot_id": 5, "generation": 6}],
    )
    assert sent == [
        {
            "type": "ingest",
            "fact_rows": [[1, 2]],
            "dim_upserts": {"store": [[3, "nice"]]},
            "timeout": 4.0,
        }
    ]
    assert receipt == {"rows": 2, "snapshot_id": 5, "generation": 6}
    assert run(wire.ingest(None, None, None), [{"type": "ingest_ok"}])[0] == [
        {"type": "ingest"}
    ]
