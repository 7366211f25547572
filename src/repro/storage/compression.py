"""Dictionary compression (paper section 5, "Compressed Tables").

CJOIN only requires that the store can evaluate predicates, extract
fields, and retrieve result tuples; compression is orthogonal.  We
implement order-preserving dictionary encoding for string columns:

* equality and range predicates can be evaluated directly on codes
  (the paper's BLINK-style "partial decompression"),
* tuples are decompressed on demand as they leave the scan.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.catalog.schema import Column, DataType, TableSchema
from repro.errors import StorageError
from repro.storage.table import Table


class DictionaryCodec:
    """An order-preserving string -> code dictionary for one column."""

    def __init__(self, values: Iterable[str]) -> None:
        distinct = sorted(set(values))
        self._code_of = {value: code for code, value in enumerate(distinct)}
        self._value_of = distinct

    def encode(self, value: str) -> int:
        """Return the code for ``value``.

        Raises:
            StorageError: if the value was not in the build set.
        """
        try:
            return self._code_of[value]
        except KeyError:
            raise StorageError(f"value {value!r} not in dictionary") from None

    def try_encode(self, value: str) -> int | None:
        """Return the code for ``value``, or None if absent."""
        return self._code_of.get(value)

    def decode(self, code: int) -> str:
        """Return the value for ``code``."""
        if not 0 <= code < len(self._value_of):
            raise StorageError(f"code {code} out of dictionary range")
        return self._value_of[code]

    def encode_bound(self, value: str, side: str) -> int:
        """Map a range-predicate bound onto code space.

        Because the encoding is order-preserving, ``column <= v``
        becomes ``code <= encode_bound(v, 'upper')`` and ``column >= v``
        becomes ``code >= encode_bound(v, 'lower')`` even when ``v``
        itself is not in the dictionary.
        """
        if side not in ("lower", "upper"):
            raise StorageError(f"side must be 'lower' or 'upper', got {side!r}")
        import bisect

        if side == "lower":
            return bisect.bisect_left(self._value_of, value)
        return bisect.bisect_right(self._value_of, value) - 1

    @property
    def cardinality(self) -> int:
        """Number of distinct values in the dictionary."""
        return len(self._value_of)


class CompressedTable:
    """A table whose selected string columns are dictionary-encoded.

    The physical table stores integer codes; :meth:`decompress_row`
    restores the logical tuple.  ``schema`` remains the *logical*
    schema so query objects validate unchanged.
    """

    def __init__(
        self,
        logical_schema: TableSchema,
        physical: Table,
        codecs: dict[str, DictionaryCodec],
    ) -> None:
        self.schema = logical_schema
        self.physical = physical
        self.codecs = codecs
        self._coded_indexes = [
            (logical_schema.column_index(name), codec)
            for name, codec in codecs.items()
        ]

    @property
    def row_count(self) -> int:
        """Number of rows."""
        return self.physical.row_count

    def decompress_row(self, coded_row: tuple) -> tuple:
        """Restore the logical tuple from a stored (coded) tuple."""
        row = list(coded_row)
        for index, codec in self._coded_indexes:
            if row[index] is not None:
                row[index] = codec.decode(row[index])
        return tuple(row)

    def compression_ratio(self) -> float:
        """Crude logical/physical size ratio (string bytes vs int codes)."""
        logical = physical = 0
        for coded_row in self.physical.heap.iter_rows():
            row = self.decompress_row(coded_row)
            for logical_value, physical_value in zip(row, coded_row):
                logical += _value_size(logical_value)
                physical += _value_size(physical_value)
        if physical == 0:
            return 1.0
        return logical / physical


class DecompressingContinuousScan:
    """A continuous scan over a compressed table, decompressing on the fly.

    A scan source (see :class:`~repro.storage.scan.ContinuousScan`):
    the underlying I/O (and buffer pool) sees only the compressed
    pages, while consumers receive logical tuples — the paper's
    "decompress on-demand as needed" mode for CJOIN (section 5).
    """

    def __init__(self, table: CompressedTable, buffer_pool) -> None:
        from repro.storage.scan import ContinuousScan

        self.table = table
        self._inner = ContinuousScan(table.physical, buffer_pool)

    @property
    def next_position(self) -> int:
        """Position of the first row the next :meth:`next_run` returns."""
        return self._inner.next_position

    @property
    def row_count(self) -> int:
        """Rows one cycle visits."""
        return self._inner.row_count

    @property
    def tuples_returned(self) -> int:
        """Total tuples produced since construction."""
        return self._inner.tuples_returned

    def next_run(self, max_rows: int) -> tuple[int, list[tuple]] | None:
        """Return ``(start_position, logical rows)``, or None when empty.

        One run of the physical scan (so never past a compressed page
        or the table end), decompressed as it leaves.
        """
        produced = self._inner.next_run(max_rows)
        if produced is None:
            return None
        position, coded_rows = produced
        return position, list(map(self.table.decompress_row, coded_rows))


def compress_table(table: Table, column_names: list[str]) -> CompressedTable:
    """Dictionary-encode the named string columns of ``table``.

    Raises:
        StorageError: if a named column is not of string type.
    """
    schema = table.schema
    for name in column_names:
        if schema.column(name).dtype is not DataType.STRING:
            raise StorageError(
                f"only string columns can be dictionary-encoded, "
                f"{name!r} is {schema.column(name).dtype.value}"
            )
    rows = table.all_rows()
    codecs = {
        name: DictionaryCodec(
            row[schema.column_index(name)]
            for row in rows
            if row[schema.column_index(name)] is not None
        )
        for name in column_names
    }
    physical_columns = [
        Column(column.name, DataType.INT if column.name in codecs else column.dtype)
        for column in schema.columns
    ]
    physical_schema = TableSchema(
        schema.name,
        physical_columns,
        primary_key=schema.primary_key,
        foreign_keys=schema.foreign_keys,
    )
    physical = Table(physical_schema, rows_per_page=table.heap.rows_per_page)
    coded_positions = [(schema.column_index(name), codecs[name]) for name in codecs]
    for row in rows:
        coded = list(row)
        for index, codec in coded_positions:
            if coded[index] is not None:
                coded[index] = codec.encode(coded[index])
        physical.insert(tuple(coded))
    return CompressedTable(schema, physical, codecs)


def _value_size(value: object) -> int:
    """Approximate on-disk byte size of ``value``."""
    if value is None:
        return 1
    if isinstance(value, str):
        return len(value)
    if isinstance(value, float):
        return 8
    return 4
