"""Shared-memory columnar fact-table transport (DESIGN.md section 14).

Where ``fork`` is missing, handing spawn workers their fact shard
through the pipe would copy the whole fact table per drain.  This
module lays the fact table
out **once** in a :mod:`multiprocessing.shared_memory` segment as
typed columns; workers attach the segment read-only and decode only
their ``[start, end)`` shard slice.  What crosses the pipe is a
:class:`ShmLayout` descriptor of a few hundred bytes, regardless of
fact-table size.

Column codecs, chosen per column by inspecting the values:

* ``'i64'`` — every value is a machine-range Python int: packed as
  raw little-endian int64 (``array('q')``), 8 bytes per value, sliced
  zero-copy on attach via ``memoryview.cast``;
* ``'f64'`` — every value is a float: raw float64, same properties;
* ``'dict'`` — at most :data:`DICT_CARDINALITY_LIMIT` distinct
  (hashable) values: one byte per value plus a tiny decode table in
  the layout descriptor — the natural fit for SSB's low-cardinality
  string columns (``lo_orderpriority``, ``lo_shipmode``);
* ``'pickle'`` — anything else: the whole column pickled into the
  segment (a correctness backstop, not a fast path; workers slice
  after unpickling).

An SSB ``lineorder`` row (15 ints + 2 low-cardinality strings) is
therefore 122 bytes in the segment and never touches ``pickle`` on
the hot path.

Lifecycle: the coordinator :func:`publish_fact_rows` once per fact
table — :mod:`repro.cjoin.parallel` caches the published segment and
reattaches it on every subsequent drain, unlinking on replacement and
at interpreter exit (the :func:`published_fact_table` context manager
packages the simpler publish-per-block lifetime); workers
:func:`attach_fact_slice` and close their mapping immediately after
decoding.  On Python >= 3.13 worker attachments pass ``track=False``
so the per-process resource tracker never adopts (and never
double-unlinks) a segment the coordinator owns; earlier versions only
register at create time, so attachments are already tracker-silent.
"""

from __future__ import annotations

import pickle
import sys
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import shared_memory

#: Bound on distinct values for the one-byte dictionary codec.
DICT_CARDINALITY_LIMIT = 255


@dataclass(frozen=True)
class ColumnSpec:
    """Where and how one fact column lives inside the segment."""

    kind: str  # 'i64' | 'f64' | 'dict' | 'pickle'
    offset: int
    length: int
    #: dictionary codec decode table (code -> value); None otherwise
    values: tuple | None = None


@dataclass(frozen=True)
class ShmLayout:
    """Picklable descriptor of one published fact table.

    Everything a worker needs to decode its shard: the segment name,
    the row count, and the per-column specs.  This — not the rows —
    is what the coordinator sends through the pool's pipe.
    """

    name: str
    row_count: int
    columns: tuple[ColumnSpec, ...]


def _encode_column(values) -> tuple[str, bytes, tuple | None]:
    """Pick a codec for one column; return (kind, blob, decode table).

    Every pass here is C-level: the exact-type scan is one ``map``
    (bool is an int subclass and True would silently pack as 1, hence
    exact types), ``array('q')`` does the int64 range check itself
    while packing, and the dictionary codec builds its table with
    ``dict.fromkeys`` then codes the column with one mapped lookup.
    """
    kinds = set(map(type, values))
    if kinds == {int}:
        try:
            return "i64", array("q", values).tobytes(), None
        except OverflowError:
            pass  # beyond int64: the dictionary/pickle path handles it
    elif kinds == {float}:
        return "f64", array("d", values).tobytes(), None
    try:
        table = {
            value: code for code, value in enumerate(dict.fromkeys(values))
        }
        if len(table) > DICT_CARDINALITY_LIMIT:
            raise OverflowError
        codes = array("B", map(table.__getitem__, values))
        return "dict", codes.tobytes(), tuple(table)
    except (TypeError, OverflowError):
        # unhashable values or too many distinct ones: pickle backstop
        return "pickle", pickle.dumps(values, pickle.HIGHEST_PROTOCOL), None


def publish_fact_rows(
    rows: list[tuple], column_count: int
) -> tuple[shared_memory.SharedMemory, ShmLayout]:
    """Lay ``rows`` out columnar in a fresh shared-memory segment.

    Returns the owning segment handle (caller must ``close()`` and
    ``unlink()`` it — see :func:`published_fact_table`) and the
    picklable layout descriptor workers attach through.
    """
    # one C-level transpose instead of column_count gather passes
    columns = list(zip(*rows)) if rows else [()] * column_count
    specs: list[ColumnSpec] = []
    blobs: list[bytes] = []
    offset = 0
    for column in columns:
        kind, blob, values = _encode_column(column)
        specs.append(ColumnSpec(kind, offset, len(blob), values))
        blobs.append(blob)
        offset += len(blob)
    segment = shared_memory.SharedMemory(create=True, size=max(offset, 1))
    buffer = segment.buf
    for spec, blob in zip(specs, blobs):
        buffer[spec.offset:spec.offset + spec.length] = blob
    return segment, ShmLayout(segment.name, len(rows), tuple(specs))


@contextmanager
def published_fact_table(rows: list[tuple], column_count: int):
    """Publish ``rows`` for the duration of a ``with`` block.

    Yields the :class:`ShmLayout`; closes and unlinks the segment on
    exit, so a drain can never leak shared memory even when the pool
    fails mid-flight.
    """
    segment, layout = publish_fact_rows(rows, column_count)
    try:
        yield layout
    finally:
        segment.close()
        segment.unlink()


def _attach_readonly(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment without adopting its lifetime.

    On 3.13+ ``track=False`` keeps the attaching process's resource
    tracker out of the segment's lifecycle (the coordinator owns
    unlinking); earlier Pythons only register segments they created,
    so a plain attach is already untracked.
    """
    if sys.version_info >= (3, 13):
        return shared_memory.SharedMemory(name=name, track=False)
    return shared_memory.SharedMemory(name=name)


def decode_rows(
    layout: ShmLayout, buffer, start: int, end: int
) -> list[tuple]:
    """Decode rows ``[start, end)`` from a segment buffer.

    Typed columns slice zero-copy (``memoryview.cast`` then one
    ``tolist`` per column); only the pickle backstop decodes beyond
    the requested slice.  Rows come back as plain tuples in schema
    column order — exactly what ``Table.from_validated_rows`` wants.
    """
    if not 0 <= start <= end <= layout.row_count:
        raise ValueError(
            f"slice [{start}, {end}) outside 0..{layout.row_count}"
        )
    columns = []
    for spec in layout.columns:
        view = memoryview(buffer)[spec.offset:spec.offset + spec.length]
        try:
            if spec.kind == "i64":
                column = view.cast("q")[start:end].tolist()
            elif spec.kind == "f64":
                column = view.cast("d")[start:end].tolist()
            elif spec.kind == "dict":
                column = list(map(spec.values.__getitem__, view[start:end]))
            else:
                column = pickle.loads(view)[start:end]
        finally:
            view.release()
        columns.append(column)
    if not columns:
        return [() for _ in range(end - start)]
    return list(zip(*columns))


def attach_fact_slice(layout: ShmLayout, start: int, end: int) -> list[tuple]:
    """Worker-side one-shot: attach, decode ``[start, end)``, detach."""
    segment = _attach_readonly(layout.name)
    try:
        return decode_rows(layout, segment.buf, start, end)
    finally:
        segment.close()
