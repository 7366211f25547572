"""Query-relevance bit-vectors.

CJOIN tags every in-flight fact tuple with a bit-vector ``b_tau`` whose
i-th bit records whether the tuple is still relevant to query ``Q_i``
(paper section 3.1).  Dimension tuples carry an analogous ``b_delta``,
and each dimension hash table keeps one complement bitmap ``b_Dj`` for
tuples absent from the table.

We represent bit-vectors as plain Python ``int`` values: arbitrary
width, O(words) bitwise AND, and no per-bit object overhead.  This
module wraps the raw-int representation with named, documented
operations so call sites read like the paper's pseudo-code.

Query ids are 1-based (as in the paper); bit positions are 0-based, so
query ``Q_i`` owns bit ``i - 1``.
"""

from __future__ import annotations

from collections.abc import Iterator

#: The all-zeroes bit-vector (the paper's ``0`` symbol).
EMPTY: int = 0


def bit_for_query(query_id: int) -> int:
    """Return a bit-vector with only query ``query_id``'s bit set.

    Raises:
        ValueError: if ``query_id`` is not a positive integer.
    """
    if query_id < 1:
        raise ValueError(f"query ids are 1-based, got {query_id}")
    return 1 << (query_id - 1)


def set_bit(vector: int, query_id: int) -> int:
    """Return ``vector`` with query ``query_id``'s bit turned on."""
    return vector | bit_for_query(query_id)


def clear_bit(vector: int, query_id: int) -> int:
    """Return ``vector`` with query ``query_id``'s bit turned off."""
    return vector & ~bit_for_query(query_id)


def test_bit(vector: int, query_id: int) -> bool:
    """Return True iff query ``query_id``'s bit is on in ``vector``."""
    return bool(vector & bit_for_query(query_id))


def all_ones(width: int) -> int:
    """Return a bit-vector with bits for queries 1..``width`` all set."""
    if width < 0:
        raise ValueError(f"width must be non-negative, got {width}")
    return (1 << width) - 1


def mask_to_width(vector: int, width: int) -> int:
    """Drop any bits above position ``width`` - 1.

    Used when ``maxId(Q)`` shrinks after query finalization: stale high
    bits must not leak into relevance decisions.
    """
    return vector & all_ones(width)


def iter_query_ids(vector: int) -> Iterator[int]:
    """Yield the 1-based query ids whose bits are set, in ascending order.

    This is the Distributor's routing primitive: for a surviving fact
    tuple it enumerates exactly the queries that must receive it.
    """
    position = 0
    while vector:
        if vector & 1:
            yield position + 1
        vector >>= 1
        position += 1


def popcount(vector: int) -> int:
    """Return the number of set bits (queries) in ``vector``."""
    return vector.bit_count()


# ----------------------------------------------------------------------
# Bulk operations (whole-column passes, DESIGN.md section 5)
#
# A FactBatch carries one bit-vector per row.  These helpers are the
# whole-column primitives: one Python call covers a batch column
# instead of one call per tuple.
# ----------------------------------------------------------------------
def or_reduce(vectors) -> int:
    """OR-reduce an iterable of bit-vectors into one union vector.

    The union of a batch's row bit-vectors is the batch's "who still
    cares" summary.  The Filter hot path goes through the index-driven
    :func:`or_reduce_at` (via ``FactBatch.union_bits``); this whole-
    sequence form is the general-purpose primitive.
    """
    union = 0
    for vector in vectors:
        union |= vector
    return union


def or_reduce_at(vectors, indices) -> int:
    """OR-reduce ``vectors[r]`` over the row indices in ``indices``."""
    union = 0
    for index in indices:
        union |= vectors[index]
    return union


def bulk_and(left, right) -> list[int]:
    """Element-wise AND of two equal-length bit-vector sequences.

    Raises:
        ValueError: on a length mismatch (a silent zip would mask a
            batch bookkeeping bug).
    """
    if len(left) != len(right):
        raise ValueError(
            f"bulk_and length mismatch: {len(left)} vs {len(right)}"
        )
    return [a & b for a, b in zip(left, right)]


def bulk_popcount(vectors) -> int:
    """Total number of set bits across a sequence of bit-vectors."""
    return sum(vector.bit_count() for vector in vectors)


def pack_positions(positions) -> int:
    """Build a mask with the given 0-based bit positions set.

    The inverse of :func:`iter_set_positions`; turns a batch's live
    row indices into its alive mask (``FactBatch.alive``).
    Positions are distinct bits, so summing the shifted singletons
    equals OR-ing them — and ``sum(map(...))`` runs at C level.
    """
    return sum(map((1).__lshift__, positions))


def iter_set_positions(mask: int) -> Iterator[int]:
    """Yield the 0-based set-bit positions of ``mask`` in ascending order.

    Unlike :func:`iter_query_ids` (1-based query ids), this enumerates
    *row* slots of a batch alive mask.
    """
    position = 0
    while mask:
        if mask & 1:
            yield position
        mask >>= 1
        position += 1


def to_string(vector: int, width: int) -> str:
    """Render ``vector`` as the paper draws it: bit for Q1 first.

    >>> to_string(0b101, width=4)
    '1010'
    """
    return "".join("1" if vector >> i & 1 else "0" for i in range(width))


def from_string(bits: str) -> int:
    """Parse the :func:`to_string` rendering back into a bit-vector.

    Raises:
        ValueError: if ``bits`` contains characters other than 0/1.
    """
    vector = 0
    for index, char in enumerate(bits):
        if char == "1":
            vector |= 1 << index
        elif char != "0":
            raise ValueError(f"invalid bit character {char!r} in {bits!r}")
    return vector
