"""Unit tests for the shared dimension hash tables (paper section 3.2.1)."""

import pickle
import sys
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


class TestRegisterGroup:
    """Algorithm 1 for the queries admitted together; the three
    one-query names above are its one-element forms."""

    def test_one_call_equals_the_one_query_calls(self):
        rows = [(1, "a"), (2, "b"), (3, "c")]
        one_by_one, grouped = make_table(), make_table()
        for table in (one_by_one, grouped):
            table.mark_query_referencing(9)
            table.register_selected_rows(9, rows[2:])
        one_by_one.mark_query_referencing(1)
        one_by_one.register_selected_rows(1, rows[:2])
        one_by_one.mark_query_referencing(2)
        one_by_one.register_selected_rows(2, rows[:2])
        one_by_one.mark_query_not_referencing(3)
        one_by_one.mark_query_referencing(4)
        touched = grouped.register_group(
            [3], [([1, 2], rows[:2]), ([4], [])]
        )
        assert touched == 1 + 2  # one pass over the stored row, two writes
        assert grouped.complement_bitmap == one_by_one.complement_bitmap
        assert grouped.columnar_view() == one_by_one.columnar_view()
        assert grouped._selected_keys[1] is grouped._selected_keys[2]

    def test_a_second_registration_of_an_id_keeps_the_first_keys(self):
        table = make_table()
        table.register_selected_rows(1, [(1, "a")])
        table.register_selected_rows(1, [(2, "b")])
        table.register_selected_rows(2, [(3, "c"), (4, "d"), (5, "e")])
        assert table.unregister_query(1) == 2  # keyed: both keys, no sweep
        assert sorted(table.entries_view()) == [3, 4, 5]

    def test_a_stale_referencing_id_costs_the_group_one_sweep(self):
        table = make_table()
        table.register_selected_rows(9, [(1, "a"), (2, "b")])
        table.register_group([1, 2], [])
        table.unregister_queries([1, 2])  # bits 1 and 2 stay, stale
        bit = bitvec.bit_for_query
        assert table._stale_bits == bit(1) | bit(2)
        touched = table.register_group([], [([1], [(1, "a")]), ([2], [])])
        assert touched == 2 + 1  # one pass for both ids, then one write
        assert table._stale_bits == 0
        assert table.columnar_view()[0] == {1: bit(9) | bit(1), 2: bit(9)}


class TestInPlaceView:
    """One stored representation: the view *is* the table."""

    def test_view_identity_stable_across_register_mark_unregister(self):
        table = make_table()
        view = table.columnar_view()
        bits_by_key, rows_by_key = view
        q1, q2 = bitvec.bit_for_query(1), bitvec.bit_for_query(2)
        table.mark_query_referencing(1)
        table.register_selected_rows(1, [(1, "a"), (2, "b")])
        assert bits_by_key == {1: q1, 2: q1}
        assert rows_by_key == {1: (1, "a"), 2: (2, "b")}
        table.mark_query_not_referencing(2)
        assert bits_by_key == {1: q1 | q2, 2: q1 | q2}
        table.unregister_query(1)
        assert bits_by_key == {1: q2, 2: q2}
        # a non-referencing query leaves b_Dj at once and its entry
        # bits lazily: stale until a pass walks the table anyway
        assert table.unregister_query(2) == 0
        assert table.complement_bitmap == 0
        assert table.bits_for_key(1) == 0 and table.entries_view() == {}
        assert bits_by_key == {1: q2, 2: q2}
        # ... at the latest when the id is registered again
        table.mark_query_referencing(2)
        assert bits_by_key == {} and rows_by_key == {}
        assert table.columnar_view() is view
        assert view == (bits_by_key, rows_by_key)

    def test_stale_entry_is_as_good_as_absent_to_a_registration(self):
        table = make_table()
        table.mark_query_referencing(1)
        table.register_selected_rows(1, [(1, "a"), (2, "b")])
        table.mark_query_not_referencing(2)
        table.unregister_query(1)
        table.unregister_query(2)  # both entries now hold a stale bit
        table.mark_query_not_referencing(3)  # deletes them in its pass
        assert table.is_empty
        table.mark_query_referencing(4)
        table.register_selected_rows(4, [(1, "a")])
        table.unregister_query(3)  # stale again, on a live entry
        table.mark_query_referencing(5)
        table.register_selected_rows(5, [(1, "A"), (2, "B")])
        assert table.entries_view()[1].row == (1, "a")  # live: row kept
        assert table.bits_for_key(1) == (
            bitvec.bit_for_query(4) | bitvec.bit_for_query(5)
        )
        assert table.bits_for_key(2) == bitvec.bit_for_query(5)

    def test_a_key_with_bits_has_its_row_at_every_dict_operation(self):
        """Rows go in before their bits and out after them.

        Deterministic: the keys hash through Python, so every dict
        operation a mutator makes on one is a point where a reader
        could be looking, and the check runs there.
        """
        table = make_table()
        bits_by_key, rows_by_key = table.columnar_view()
        orphans = []

        class Key:
            checking = False

            def __init__(self, value):
                self.value = value

            def __eq__(self, other):
                return self.value == other.value

            def __hash__(self):
                if not Key.checking:
                    Key.checking = True
                    if self in bits_by_key and self not in rows_by_key:
                        orphans.append(self.value)
                    Key.checking = False
                return hash(self.value)

        rows = [(Key(value), str(value)) for value in range(10)]
        table.mark_query_referencing(1)
        table.register_selected_rows(1, rows[:8])
        table.mark_query_referencing(2)
        table.register_selected_rows(2, rows[6:])
        assert table.unregister_query(2) == 4  # by its keys: two die
        assert table.tuple_count == 8
        assert table.unregister_query(1) == 8  # one pass over the table
        table.mark_query_referencing(3)
        table.register_selected_rows(3, rows[4:])
        assert table.unregister_query(3) == 6
        assert not orphans
        assert not bits_by_key and not rows_by_key

    def test_reader_never_sees_bits_without_the_row(self):
        """The same, raced: a probe thread beside a 50k-row registration."""
        table = make_table()
        table.mark_query_referencing(1)
        total = 50_000
        orphans, newest_seen = [], set()
        done = threading.Event()

        def reader():
            while not done.is_set():
                bits_by_key, rows_by_key = table.columnar_view()
                try:
                    newest = next(reversed(bits_by_key))
                except (StopIteration, RuntimeError):
                    continue  # empty, or resized under the iterator
                if newest not in rows_by_key:
                    orphans.append(newest)
                newest_seen.add(newest)

        thread = threading.Thread(target=reader)
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # hand the GIL over mid-insert, often
        try:
            thread.start()
            rows = [(key, str(key)) for key in range(total)]
            assert table.register_selected_rows(1, rows) == total
        finally:
            done.set()
            thread.join(timeout=30)
            sys.setswitchinterval(switch_interval)
        assert not thread.is_alive()
        assert newest_seen and not orphans
        bits_by_key, rows_by_key = table.columnar_view()
        assert len(bits_by_key) == len(rows_by_key) == total

    def test_pickle_round_trip_keeps_view_and_lock(self):
        table = make_table()
        table.mark_query_referencing(1)
        table.register_selected_rows(1, [(1, "a")])
        clone = pickle.loads(pickle.dumps(table))
        assert clone.columnar_view() == table.columnar_view()
        assert clone.columnar_view() is clone.columnar_view()
        clone.unregister_query(1)  # a working lock, and the key lists
        assert clone.is_empty and not table.is_empty
