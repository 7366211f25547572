"""Unit tests for the shared dimension hash tables (paper section 3.2.1)."""

import pickle
import threading

from repro import bitvec
from repro.catalog.schema import Column, DataType, TableSchema
from repro.cjoin.dimtable import DimensionHashTable


def _schema():
    return TableSchema(
        "d",
        [Column("id", DataType.INT), Column("label", DataType.STRING)],
        primary_key="id",
    )


def make_table():
    return DimensionHashTable(_schema())


class TestProbeSemantics:
    def test_miss_returns_complement_bitmap(self):
        table = make_table()
        table.mark_query_not_referencing(2)
        bits, row = table.probe(99)
        assert row is None
        assert bits == bitvec.bit_for_query(2)

    def test_hit_returns_entry_bits_and_row(self):
        table = make_table()
        table.mark_query_referencing(1)
        table.register_selected_rows(1, [(5, "five")])
        bits, row = table.probe(5)
        assert row == (5, "five")
        assert bitvec.test_bit(bits, 1)

    def test_paper_defining_property(self):
        """probe[i]=1 iff (Qi references and selects delta) or Qi absent."""
        table = make_table()
        # Q1 references and selects row 5 only; Q2 does not reference
        table.mark_query_referencing(1)
        table.register_selected_rows(1, [(5, "five")])
        table.mark_query_not_referencing(2)
        hit_bits, _ = table.probe(5)
        miss_bits, _ = table.probe(6)
        assert bitvec.test_bit(hit_bits, 1)      # Q1 selects 5
        assert bitvec.test_bit(hit_bits, 2)      # Q2 doesn't reference
        assert not bitvec.test_bit(miss_bits, 1)  # Q1 doesn't select 6
        assert bitvec.test_bit(miss_bits, 2)     # Q2 doesn't reference


class TestSharedUnion:
    def test_union_of_two_queries(self):
        table = make_table()
        table.mark_query_referencing(1)
        table.register_selected_rows(1, [(1, "a"), (2, "b")])
        table.mark_query_referencing(2)
        table.register_selected_rows(2, [(2, "b"), (3, "c")])
        assert table.tuple_count == 3
        assert table.bits_for_key(1) == bitvec.bit_for_query(1)
        assert table.bits_for_key(2) == bitvec.bit_for_query(1) | bitvec.bit_for_query(2)
        assert table.bits_for_key(3) == bitvec.bit_for_query(2)

    def test_new_entry_inherits_complement(self):
        """An entry inserted later carries non-referencing queries' bits."""
        table = make_table()
        table.mark_query_not_referencing(1)  # Q1 implicitly selects all
        table.mark_query_referencing(2)
        table.register_selected_rows(2, [(7, "x")])
        bits = table.bits_for_key(7)
        assert bitvec.test_bit(bits, 1)
        assert bitvec.test_bit(bits, 2)


class TestUnregister:
    def test_entries_garbage_collected(self):
        table = make_table()
        table.mark_query_referencing(1)
        table.register_selected_rows(1, [(1, "a")])
        table.mark_query_referencing(2)
        table.register_selected_rows(2, [(1, "a"), (2, "b")])
        table.unregister_query(2)
        assert table.tuple_count == 1  # (2,'b') died with Q2
        assert table.bits_for_key(1) == bitvec.bit_for_query(1)

    def test_table_empties_when_last_query_leaves(self):
        table = make_table()
        table.mark_query_referencing(1)
        table.register_selected_rows(1, [(1, "a")])
        table.unregister_query(1)
        assert table.is_empty

    def test_id_reuse_is_clean(self):
        """After unregister, a reused id starts from a clean slate."""
        table = make_table()
        table.mark_query_not_referencing(1)  # Q1 gen-1: no reference
        table.mark_query_referencing(2)
        table.register_selected_rows(2, [(1, "a")])
        table.unregister_query(1)
        # id 1 reused by a query that DOES reference this dimension and
        # selects nothing
        table.mark_query_referencing(1)
        bits, _ = table.probe(1)
        assert not bitvec.test_bit(bits, 1)  # stale gen-1 bit must be gone
        miss_bits, _ = table.probe(99)
        assert not bitvec.test_bit(miss_bits, 1)

    def test_unregister_clears_complement_bit(self):
        table = make_table()
        table.mark_query_not_referencing(3)
        table.unregister_query(3)
        assert table.complement_bitmap == 0

    def test_group_form_clears_every_id_in_one_call(self):
        table = make_table()
        table.mark_query_referencing(1)
        table.register_selected_rows(1, [(1, "a")])
        table.mark_query_referencing(2)
        table.register_selected_rows(2, [(1, "a"), (2, "b")])
        table.mark_query_not_referencing(3)
        table.mark_query_referencing(4)
        table.register_selected_rows(4, [(2, "b"), (5, "e")])
        table.unregister_queries([2, 3, 1])
        assert table.complement_bitmap == 0
        assert {
            key: table.bits_for_key(key) for key in table.entries_view()
        } == {2: bitvec.bit_for_query(4), 5: bitvec.bit_for_query(4)}
        table.unregister_queries([])  # an empty group changes nothing
        assert table.tuple_count == 2


class TestSnapshotRebuildExcludesMutators:
    """Invalidate after mutate, rebuild under the mutators' lock."""

    def test_rebuild_waits_for_a_registration_in_progress(self):
        table = make_table()
        table.mark_query_referencing(1)
        views = []
        reader = threading.Thread(
            target=lambda: views.append(table.columnar_view())
        )

        def rows():
            yield (1, "a")
            # half-registered, no snapshot cached: a probe thread asks
            # for one now
            reader.start()
            reader.join(timeout=0.2)
            assert reader.is_alive(), "rebuild ran inside the mutation"
            yield (2, "b")

        assert table.register_selected_rows(1, rows()) == 2
        reader.join(timeout=10)
        assert not reader.is_alive()
        bits_by_key, rows_by_key = views[0]
        assert set(bits_by_key) == set(rows_by_key) == {1, 2}
        assert table.columnar_view() is views[0]

    def test_hit_path_serves_the_last_complete_snapshot(self):
        table = make_table()
        table.mark_query_referencing(1)
        table.register_selected_rows(1, [(1, "a")])
        before = table.columnar_view()
        seen = []

        def rows():
            yield (2, "b")
            seen.append(table.columnar_view())  # no lock on this path

        table.mark_query_referencing(2)
        table.register_selected_rows(2, rows())
        assert seen == [before]  # pre-mutation, complete
        assert set(table.columnar_view()[0]) == {1, 2}

    def test_pickle_round_trip_rebuilds_lock_and_snapshot(self):
        table = make_table()
        table.mark_query_referencing(1)
        table.register_selected_rows(1, [(1, "a")])
        table.columnar_view()
        clone = pickle.loads(pickle.dumps(table))
        assert clone.columnar_view() == table.columnar_view()
        clone.unregister_query(1)  # the clone has a working lock
        assert clone.is_empty and not table.is_empty
