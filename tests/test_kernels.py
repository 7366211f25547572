"""Unit tests for the whole-batch passes and the shm shard transport.

Covers the pipeline's passes piece by piece (DESIGN.md section 5): the
bulk bit-vector primitives, routing group discovery, ``filter_batch``
in every column layout (fully live / dense partial / gathered) against
the per-tuple definition — ``table.probe(key)``, AND, drop at zero — on
hand-checkable data and as a property over random batches, the
dimension table's in-place columnar view, the batch's per-batch join
attachments and derived columns, and the shared-memory column codecs
(DESIGN.md section 14).  The whole-pipeline equivalence properties
live in tests/test_batch_equivalence.py.
"""

from __future__ import annotations

import pickle

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import bitvec
from repro.cjoin.batch import FactBatch
from repro.cjoin.dimtable import DimensionHashTable
from repro.cjoin.filter import Filter
from repro.cjoin.kernels import DENSE_CUTOFF, group_rows_by_bits
from repro.storage.heap import HeapFile
from repro.storage.shm import (
    attach_fact_slice,
    decode_rows,
    publish_fact_rows,
    published_fact_table,
)
from tests.conftest import make_tiny_star


# ----------------------------------------------------------------------
# Bulk bit-vector primitives
# ----------------------------------------------------------------------
class TestBulkPrimitives:
    def test_pack_positions_matches_or_loop(self):
        positions = [0, 3, 17, 200]
        expected = 0
        for position in positions:
            expected |= 1 << position
        assert bitvec.pack_positions(positions) == expected
        assert bitvec.pack_positions([]) == 0


# ----------------------------------------------------------------------
# Routing group discovery
# ----------------------------------------------------------------------
class TestGroupRowsByBits:
    BITVECTORS = [0b01, 0b10, 0b01, 0b11, 0b10, 0b01]

    def test_first_occurrence_order_and_scan_order(self):
        groups = group_rows_by_bits(self.BITVECTORS, [0, 1, 2, 3, 4, 5])
        assert list(groups) == [0b01, 0b10, 0b11]
        assert groups == {0b01: [0, 2, 5], 0b10: [1, 4], 0b11: [3]}

    def test_respects_live_subset(self):
        groups = group_rows_by_bits(self.BITVECTORS, [1, 3, 5])
        assert groups == {0b10: [1], 0b11: [3], 0b01: [5]}


# ----------------------------------------------------------------------
# filter_batch vs the per-tuple definition (sections 3.2.1-3.2.2)
# ----------------------------------------------------------------------
def _store_table(cities=("lyon", "paris")) -> DimensionHashTable:
    """store dim with Q1 selecting ``cities``, Q2 not referencing."""
    catalog, star = make_tiny_star()
    table = DimensionHashTable(star.dimension("store"))
    table.mark_query_referencing(1)
    table.register_selected_rows(
        1, [row for row in catalog.table("store").all_rows() if row[1] in cities]
    )
    table.mark_query_not_referencing(2)
    return table


def _sales_batch(total: int = 12, live=None) -> FactBatch:
    """``total`` rows cycling through the tiny star's 12 sales, bits
    cycling through both-queries / Q2-only (skippable at store) /
    Q1-only; rows outside ``live`` are dead (bit-vector 0, as every
    drop path leaves them)."""
    catalog, _ = make_tiny_star()
    sales = catalog.table("sales").all_rows()
    rows = [sales[index % len(sales)] for index in range(total)]
    pattern = (0b11, 0b10, 0b01)  # query id n rides bit n - 1
    bitvectors = [pattern[index % 3] for index in range(total)]
    batch = FactBatch([(1, 0, rows)], bitvectors)
    if live is not None:
        _kill_rows_outside(batch, live)
    return batch


def _kill_rows_outside(batch: FactBatch, live: list[int]) -> None:
    """Leave ``batch`` as Filters dropping every other row would."""
    alive = set(live)
    for row_index in range(len(batch)):
        if row_index not in alive:
            batch.bitvectors[row_index] = 0
    batch.live = live


def _per_tuple(batch: FactBatch, table: DimensionHashTable, fk_index: int):
    """What the paper's Filter decides for every live row, one by one.

    Returns ``({row index: (survived, bits, joined row)}, skips)``: a
    row relevant only to queries that do not reference the dimension
    is skipped untouched; any other is probed, ANDed, and dropped when
    no bit remains.
    """
    outcome = {}
    skips = 0
    for row_index in batch.live:
        bits = batch.bitvectors[row_index]
        if bits & ~table.complement_bitmap == 0:
            skips += 1
            outcome[row_index] = (True, bits, None)
            continue
        filtering_bits, dim_row = table.probe(batch.rows[row_index][fk_index])
        bits &= filtering_bits
        outcome[row_index] = (bits != 0, bits, dim_row)
    return outcome, skips


def _assert_filter_matches_per_tuple(batch, table, star, live) -> Filter:
    """Filtering ``batch`` leaves it as one tuple at a time would."""
    filtered = Filter(table, star)
    fk_index = filtered.fk_index
    outcome, skips = _per_tuple(batch, table, fk_index)
    fully_live = len(live) == len(batch)
    filtered.process_batch(batch)
    assert list(batch.live) == [r for r in live if outcome[r][0]]
    assert batch.alive == bitvec.pack_positions(batch.live)
    for row_index in live:
        assert batch.bitvectors[row_index] == outcome[row_index][1]
    # every drop path leaves bit-vector 0 behind (union_bits relies on it)
    alive = set(batch.live)
    assert all(
        bits == 0
        for row_index, bits in enumerate(batch.bitvectors)
        if row_index not in alive
    )
    for row_index in batch.live:
        # a skipped row needs no pointer; the batch-level lookup may
        # still resolve one, which no routed query reads (only
        # non-referencing queries want the row)
        if outcome[row_index][2] is not None:
            ((attached_index, rows_of),) = batch.dim_lookup_state((table.name,))
            assert attached_index == fk_index
            joined = rows_of[batch.rows[row_index][fk_index]]
            assert joined == outcome[row_index][2]
    stats = filtered.stats
    assert stats.tuples_in == len(live)
    assert stats.tuples_dropped == sum(
        not survived for survived, _, _ in outcome.values()
    )
    # every live row is either a probe or a section 3.2.2 skip; only
    # partially-live batches count per-row skips (or a batch the union
    # test skips whole)
    assert stats.probes + stats.probe_skips == len(live)
    if not fully_live or skips == len(live):
        assert stats.probe_skips == skips
    return filtered


@pytest.mark.parametrize(
    "total, live_stride, cities, dense",
    [
        pytest.param(48, 1, ("lyon", "paris"), True, id="fully-live"),
        pytest.param(12, 2, ("lyon", "paris"), True, id="dense-partial"),
        pytest.param(48, 5, ("lyon", "paris"), False, id="gathered"),
        pytest.param(48, 1, ("lyon", "paris", "nice"), True, id="nothing-dropped"),
        pytest.param(12, 1, ("atlantis",), True, id="empty-table-all-drop"),
    ],
)
def test_filter_batch_matches_tuple_filter(total, live_stride, cities, dense):
    """Every column layout leaves the batch exactly as filtering the
    same rows one tuple at a time would: bits, survivors, attachments,
    counts."""
    _, star = make_tiny_star()
    table = _store_table(cities)
    live = list(range(0, total, live_stride))
    batch = _sales_batch(total, live if live_stride > 1 else None)
    # the case exercises the branch its row claims
    assert (len(live) * DENSE_CUTOFF >= len(batch)) is dense
    _assert_filter_matches_per_tuple(batch, table, star, live)


#: queries the property registers: ids beyond 64 make the bit-vectors
#: wider than one machine word
_PROPERTY_QUERY_IDS = (1, 2, 3, 63, 64, 65, 70)
_PROPERTY_KEYS = range(8)


@st.composite
def _filter_cases(draw):
    """(rows' keys, bits, live, run lengths, paged?, per-query selections)."""
    count = draw(st.integers(1, 40))
    keys = draw(st.lists(
        st.sampled_from(_PROPERTY_KEYS), min_size=count, max_size=count
    ))
    bits = draw(st.lists(
        st.sets(st.sampled_from(_PROPERTY_QUERY_IDS), min_size=1).map(
            lambda ids: bitvec.pack_positions(q - 1 for q in ids)
        ),
        min_size=count, max_size=count,
    ))
    # fully live half the time, else any subset (the empty one too)
    flags = draw(st.lists(st.booleans(), min_size=count, max_size=count))
    live = (
        list(range(count)) if draw(st.booleans())
        else [index for index, flag in enumerate(flags) if flag]
    )
    run_length = draw(st.integers(1, count))
    paged = draw(st.booleans())
    # None: the query does not reference the dimension (its bit rides
    # the complement bitmap); else the keys its predicate selects
    selections = draw(st.lists(
        st.none() | st.sets(st.sampled_from(_PROPERTY_KEYS)),
        min_size=len(_PROPERTY_QUERY_IDS), max_size=len(_PROPERTY_QUERY_IDS),
    ))
    return keys, bits, live, run_length, paged, selections


@settings(max_examples=150, deadline=None)
@given(_filter_cases())
def test_filter_batch_is_the_per_row_definition(case):
    """``filter_batch`` ≡ probe, AND, drop at zero — over random
    liveness, keys, complement bitmaps and > 64-bit vectors, whether
    the batch holds page runs (resident key columns) or the plain row
    lists the per-row Preprocessor path and the page-less scan sources
    build."""
    keys, bits, live, run_length, paged, selections = case
    _, star = make_tiny_star()
    table = DimensionHashTable(star.dimension("store"))
    for query_id, selected in zip(_PROPERTY_QUERY_IDS, selections):
        if selected is None:
            table.mark_query_not_referencing(query_id)
        else:
            table.mark_query_referencing(query_id)
            table.register_selected_rows(
                query_id, [(key, "city", 1) for key in sorted(selected)]
            )
    rows = [(key, 10, 1, 1) for key in keys]
    if paged:
        heap = HeapFile(rows_per_page=run_length)
        for row in rows:
            heap.append_row(row)
        parts = [page.run(0, len(page)) for page in heap.pages]
    else:
        parts = [
            rows[start:start + run_length]
            for start in range(0, len(rows), run_length)
        ]
    runs, sequence = [], 1
    for part in parts:
        # per-row-built runs leave gaps in the positions
        runs.append((sequence, 3 * sequence, part))
        sequence += len(part)
    batch = FactBatch(runs, list(bits))
    assert batch.rows == rows
    assert batch.key_column(0) == keys
    if len(live) < len(rows):
        _kill_rows_outside(batch, live)
    _assert_filter_matches_per_tuple(batch, table, star, live)


def test_filter_batch_union_skip_counts_every_row():
    """A batch relevant only to non-referencing queries is not probed."""
    _, star = make_tiny_star()
    table = _store_table()
    batch = _sales_batch()
    batch.bitvectors[:] = [0b10] * len(batch)
    filtered = Filter(table, star)
    filtered.process_batch(batch)
    assert list(batch.live) == list(range(12))
    assert (filtered.stats.probes, filtered.stats.probe_skips) == (0, 12)


def test_filter_kernel_alive_mask_tracks_live_list():
    """Mostly-kept and mostly-dropped batches alike: the survivors are
    exactly the rows left with a bit."""
    _, star = make_tiny_star()
    for cities in (("lyon", "paris"), ("nice",)):
        batch = _sales_batch()
        batch.bitvectors[:] = [0b01] * len(batch)
        Filter(_store_table(cities), star).process_batch(batch)
        assert 0 < len(batch.live) < len(batch)
        assert batch.alive == bitvec.pack_positions(
            r for r, bits in enumerate(batch.bitvectors) if bits
        )


# ----------------------------------------------------------------------
# The dimension table's columnar view (its one stored representation)
# ----------------------------------------------------------------------
class TestColumnarView:
    def test_snapshot_matches_entries(self):
        table = _store_table()
        bits_by_key, rows_by_key = table.columnar_view()
        assert bits_by_key == {
            key: table.bits_for_key(key) for key in rows_by_key
        }
        assert rows_by_key == {
            key: entry.row for key, entry in table.entries_view().items()
        }

    def test_snapshot_identity_stable_between_changes(self):
        table = _store_table()
        assert table.columnar_view()[1] is table.columnar_view()[1]

    def test_registration_changes_show_in_the_same_view(self):
        table = _store_table()
        view = table.columnar_view()
        table.register_selected_rows(3, [(3, "nice", 50)])
        assert table.columnar_view() is view
        assert 3 in view[1] and bitvec.test_bit(view[0][3], 3)
        table.unregister_query(3)
        # the entry survives (Q2's implicit all-rows selection holds a
        # bit on it) and the same dict shows query 3's bit cleared
        assert view[0][3] == table.bits_for_key(3)
        assert not bitvec.test_bit(view[0][3], 3)
        table.mark_query_not_referencing(4)
        assert table.columnar_view() is view
        assert all(bitvec.test_bit(bits, 4) for bits in view[0].values())

    def test_unregister_garbage_collects_dead_entries(self):
        _, star = make_tiny_star()
        table = DimensionHashTable(star.dimension("store"))
        table.mark_query_referencing(1)
        table.register_selected_rows(1, [(3, "nice", 50)])
        table.unregister_query(1)
        assert table.is_empty
        assert table.complement_bitmap == 0


# ----------------------------------------------------------------------
# Per-batch join attachments
# ----------------------------------------------------------------------
class TestBatchAttachments:
    def test_dim_lookup_state_requires_every_name(self):
        batch = _sales_batch()
        rows_of = {1: (1, "lyon", 100)}
        batch.attach_dim_lookup("store", 0, rows_of)
        state = batch.dim_lookup_state(("store",))
        assert state == ((0, rows_of),)
        assert batch.dim_lookup_state(("store", "product")) is None
        assert batch.dim_lookup_state(()) == ()

    def test_sequences_and_positions_follow_the_runs(self):
        """Derived on demand from ``(first sequence, first position,
        rows)``; several runs make one ``rows`` list."""
        first, second = [(1, 10, 1, 1), (2, 20, 1, 1)], [(3, 30, 1, 1)]
        batch = FactBatch([(7, 40, first), (9, 90, second)], [0b1] * 3)
        assert batch.sequences == [7, 8, 9]
        assert batch.positions == [40, 41, 90]
        assert batch.rows == first + second
        assert batch.key_column(1) == [10, 20, 30]
        assert batch.alive == 0b111 and batch.live_count == len(batch) == 3
        one_run = FactBatch([(1, 0, first)], [0b1] * 2)
        assert one_run.rows is first
        with pytest.raises(ValueError, match="equal length"):
            FactBatch([(1, 0, first)], [0b1])


# ----------------------------------------------------------------------
# Shared-memory column codecs
# ----------------------------------------------------------------------
class TestShmTransport:
    def test_codec_selection_and_round_trip(self):
        rows = [
            (1, 2.5, "lyon", [1]),
            (-(2**40), 0.0, "paris", [2, 3]),
            (7, -1.25, "lyon", []),
        ]
        with published_fact_table(rows, 4) as layout:
            kinds = [spec.kind for spec in layout.columns]
            assert kinds == ["i64", "f64", "dict", "pickle"]
            assert attach_fact_slice(layout, 0, 3) == rows
            assert attach_fact_slice(layout, 1, 3) == rows[1:]
            assert attach_fact_slice(layout, 2, 2) == []

    def test_beyond_int64_falls_to_dictionary(self):
        rows = [(2**64,), (2**64,), (5,)]
        with published_fact_table(rows, 1) as layout:
            assert layout.columns[0].kind == "dict"
            assert attach_fact_slice(layout, 0, 3) == rows

    def test_bool_is_not_packed_as_int(self):
        # bool is an int subclass; packing True as 1 would change the
        # decoded rows, so the exact-type scan must reject it
        rows = [(True,), (False,), (True,)]
        with published_fact_table(rows, 1) as layout:
            assert layout.columns[0].kind != "i64"
            assert attach_fact_slice(layout, 0, 3) == rows

    def test_empty_table_publishes_and_decodes(self):
        with published_fact_table([], 3) as layout:
            assert layout.row_count == 0
            assert [spec.kind for spec in layout.columns] == ["dict"] * 3
            assert attach_fact_slice(layout, 0, 0) == []

    def test_out_of_bounds_slices_rejected(self):
        rows = [(1,), (2,)]
        with published_fact_table(rows, 1) as layout:
            for start, end in ((0, 3), (-1, 2), (2, 1)):
                with pytest.raises(ValueError, match="outside"):
                    decode_rows(layout, b"\x00" * 16, start, end)

    def test_segment_unlinked_after_context(self):
        rows = [(1,), (2,)]
        with published_fact_table(rows, 1) as layout:
            pass
        with pytest.raises(FileNotFoundError):
            attach_fact_slice(layout, 0, 2)

    def test_layout_descriptor_stays_small(self):
        """What crosses the pipe is the descriptor, not the rows."""
        rows = [(i, float(i), "x" if i % 2 else "y") for i in range(5000)]
        segment, layout = publish_fact_rows(rows, 3)
        try:
            descriptor = len(pickle.dumps(layout, pickle.HIGHEST_PROTOCOL))
            full_rows = len(pickle.dumps(rows, pickle.HIGHEST_PROTOCOL))
            assert descriptor * 100 < full_rows
        finally:
            segment.close()
            segment.unlink()
