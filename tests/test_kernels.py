"""Unit tests for the whole-batch passes and the shm shard transport.

Covers the pipeline's passes piece by piece (DESIGN.md section 5): the
bulk bit-vector primitives, routing group discovery, ``filter_batch``
in every layout (dense / gathered) and probe strategy (dedup /
direct) against the per-tuple definition — ``table.probe(key)``, AND,
drop at zero — on hand-checkable data, the dimension table's in-place
columnar view, the batch's
per-batch join attachments, and the shared-memory column codecs
(DESIGN.md section 14).  The whole-pipeline equivalence properties
live in tests/test_batch_equivalence.py.
"""

from __future__ import annotations

import pickle

import pytest

from repro import bitvec
from repro.cjoin.batch import FactBatch
from repro.cjoin.dimtable import DimensionHashTable
from repro.cjoin.filter import Filter
from repro.cjoin.kernels import (
    DEDUP_FANOUT,
    DENSE_CUTOFF,
    group_rows_by_bits,
)
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
    def test_bulk_and_lookup(self):
        masks = {"a": 0b011, "b": 0b110}
        vectors = [0b111, 0b101, 0b010]
        assert bitvec.bulk_and_lookup(
            vectors, ["a", "b", "a"], masks
        ) == [0b011, 0b100, 0b010]

    def test_bulk_and_lookup_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            bitvec.bulk_and_lookup([1, 2], ["a"], {"a": 1})

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
    live = list(range(total)) if live is None else live
    alive = set(live)
    pattern = (0b11, 0b10, 0b01)  # query id n rides bit n - 1
    bitvectors = [
        pattern[index % 3] if index in alive else 0 for index in range(total)
    ]
    batch = FactBatch(
        list(range(total)), list(range(total)), rows, bitvectors
    )
    batch.replace_live(live)
    return batch


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


@pytest.mark.parametrize(
    "total, live_stride, cities, dense, dedup",
    [
        pytest.param(48, 1, ("lyon", "paris"), True, True, id="fully-live-dedup"),
        pytest.param(6, 1, ("lyon", "paris"), True, False, id="fully-live-direct"),
        pytest.param(48, 2, ("lyon", "paris"), True, True, id="dense-partial-dedup"),
        pytest.param(12, 2, ("lyon", "paris"), True, False, id="dense-partial-direct"),
        pytest.param(48, 5, ("lyon", "paris"), False, True, id="gathered-dedup"),
        pytest.param(12, 5, ("lyon", "paris"), False, False, id="gathered-direct"),
        pytest.param(
            48, 1, ("lyon", "paris", "nice"), True, True, id="nothing-dropped"
        ),
        pytest.param(12, 1, ("atlantis",), True, True, id="empty-table-all-drop"),
    ],
)
def test_filter_batch_matches_tuple_filter(
    total, live_stride, cities, dense, dedup
):
    """Every layout x strategy leaves the batch exactly as filtering
    the same rows one tuple at a time would: bits, survivors,
    attachments, counts."""
    _, star = make_tiny_star()
    table = _store_table(cities)
    live = list(range(0, total, live_stride))
    batch = _sales_batch(total, live)
    # the case exercises the branch its row claims
    assert (len(live) * DENSE_CUTOFF >= len(batch)) is dense
    assert (table.tuple_count * DEDUP_FANOUT <= len(live)) is dedup
    filtered = Filter(table, star)
    outcome, skips = _per_tuple(batch, table, filtered.fk_index)
    filtered.process_batch(batch)
    assert batch.live == [r for r in live if outcome[r][0]]
    assert batch.alive == bitvec.pack_positions(batch.live)
    for row_index in live:
        assert batch.bitvectors[row_index] == outcome[row_index][1]
    for row_index in batch.live:
        # a skipped row needs no pointer; the batch-level lookup may
        # still resolve one, which no routed query reads (only
        # non-referencing queries want the row)
        if batch.bitvectors[row_index] & 0b01:
            ((fk_index, rows_of),) = batch.dim_lookup_state(("store",))
            joined = rows_of[batch.rows[row_index][fk_index]]
            assert joined == outcome[row_index][2] is not None
    stats = filtered.stats
    assert stats.tuples_in == len(live)
    assert stats.tuples_dropped == sum(
        not survived for survived, _, _ in outcome.values()
    )
    # every live row is either a probe or a section 3.2.2 skip; only
    # partially-live batches count per-row skips
    assert stats.probes + stats.probe_skips == len(live)
    if live_stride > 1:
        assert stats.probe_skips == skips
    # hash-table traffic actually paid: the dense layout runs over the
    # full column, dedup pays once per distinct key
    keys = [batch.rows[r][0] for r in (range(len(batch)) if dense else live)]
    assert stats.distinct_probes == (len(set(keys)) if dedup else len(keys))


def test_filter_batch_union_skip_counts_every_row():
    """A batch relevant only to non-referencing queries is not probed."""
    _, star = make_tiny_star()
    table = _store_table()
    batch = _sales_batch()
    batch.bitvectors[:] = [0b10] * len(batch)
    filtered = Filter(table, star)
    filtered.process_batch(batch)
    assert batch.live == list(range(12))
    assert (filtered.stats.probes, filtered.stats.probe_skips) == (0, 12)


def test_filter_kernel_alive_mask_tracks_live_list():
    """Both compaction sides keep alive == pack(live) (mostly-dropped
    batches go through replace_live, mostly-kept through drop_rows)."""
    _, star = make_tiny_star()
    for cities in (("lyon", "paris"), ("nice",)):
        batch = _sales_batch()
        batch.bitvectors[:] = [0b01] * len(batch)
        Filter(_store_table(cities), star).process_batch(batch)
        assert 0 < len(batch.live) < len(batch)
        assert batch.alive == bitvec.pack_positions(batch.live)
        assert all(batch.bitvectors[r] for r in batch.live)


def test_filter_kernel_distinct_probes_counted():
    """Dedup probing reports the deduplicated hash-table traffic."""
    table = _store_table()
    _, star = make_tiny_star()
    batch = _sales_batch()
    filtered = Filter(table, star)
    filtered.process_batch(batch)
    # 12 logical probes but only 3 distinct store keys in the batch
    assert filtered.stats.probes == 12
    assert 0 < filtered.stats.distinct_probes <= 3


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

    def test_replace_live_rebuilds_alive_mask(self):
        batch = _sales_batch()
        batch.replace_live([1, 4, 7])
        assert batch.live == [1, 4, 7]
        assert batch.alive == bitvec.pack_positions([1, 4, 7])
        assert batch.live_count == 3


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
