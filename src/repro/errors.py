"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one type at an API boundary.  Subsystems raise the most
specific subclass that describes the failure.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SchemaError(ReproError):
    """A schema definition or lookup is invalid (unknown table/column,

    duplicate names, malformed foreign keys, non-star topology, ...).
    """


class StorageError(ReproError):
    """A storage-layer operation failed (bad page id, full page, scan

    misuse, missing partition, ...).
    """


class SnapshotError(StorageError):
    """A multi-version visibility operation is invalid (unknown snapshot,

    write to a committed snapshot, ...).
    """


class PersistenceError(StorageError):
    """A durable-storage operation failed (no snapshot in the data
    directory, checksum mismatch, unreadable manifest, WAL misuse, ...).

    Torn WAL tails are *not* errors — recovery replays the longest
    valid prefix silently (DESIGN.md section 16).
    """


class QueryError(ReproError):
    """A query object is malformed with respect to its schema."""


class ParseError(QueryError):
    """SQL text could not be parsed into a star query.

    Attributes:
        position: character offset in the source text, when known.
    """

    def __init__(self, message: str, position: int | None = None) -> None:
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


class CancelledError(QueryError):
    """The query was cancelled before it produced results.

    Raised by result accessors (``QueryHandle.results()``, cursor
    fetches, handle iteration) of a query whose ``cancel()`` succeeded.
    """


class AdmissionError(ReproError):
    """A query could not be registered with the CJOIN pipeline

    (operator at maxConc capacity, duplicate registration, unsupported
    query shape, ...).
    """


class PipelineError(ReproError):
    """The CJOIN pipeline reached an inconsistent state, or was driven

    through an illegal transition (e.g. processing while stalled).
    """


class ConfigError(PipelineError):
    """An execution configuration is invalid (out-of-range worker or

    batch counts, an unknown shard transport, ...).  Subclasses
    :class:`PipelineError` so pre-existing callers that catch
    configuration problems at pipeline granularity keep working.
    """


class IngestError(ReproError):
    """A streaming-ingest operation failed (batch rejected at close,
    invalid write set, apply failure, ...)."""


class IngestBackpressureError(IngestError):
    """The bounded ingest buffer is full; the write was not staged.

    Back-pressure, not failure: retry after the scan-boundary apply
    drains the buffer, or raise the buffer capacity.
    """


class BenchmarkError(ReproError):
    """An experiment harness was configured with invalid parameters."""
