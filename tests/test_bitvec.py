"""Unit tests for the bit-vector kernel."""

import pytest

from repro import bitvec


class TestBitForQuery:
    def test_query_one_owns_lowest_bit(self):
        assert bitvec.bit_for_query(1) == 0b1

    def test_query_ids_are_one_based(self):
        assert bitvec.bit_for_query(3) == 0b100

    @pytest.mark.parametrize("bad", [0, -1, -100])
    def test_rejects_non_positive_ids(self, bad):
        with pytest.raises(ValueError):
            bitvec.bit_for_query(bad)


class TestSetClearTest:
    def test_set_then_test(self):
        vector = bitvec.set_bit(0, 5)
        assert bitvec.test_bit(vector, 5)
        assert not bitvec.test_bit(vector, 4)

    def test_clear_removes_only_target(self):
        vector = bitvec.set_bit(bitvec.set_bit(0, 2), 7)
        vector = bitvec.clear_bit(vector, 2)
        assert not bitvec.test_bit(vector, 2)
        assert bitvec.test_bit(vector, 7)

    def test_set_is_idempotent(self):
        once = bitvec.set_bit(0, 4)
        assert bitvec.set_bit(once, 4) == once

    def test_clear_on_unset_bit_is_noop(self):
        vector = bitvec.set_bit(0, 1)
        assert bitvec.clear_bit(vector, 9) == vector


class TestAllOnesAndMask:
    def test_all_ones_width(self):
        assert bitvec.all_ones(4) == 0b1111

    def test_all_ones_zero_width(self):
        assert bitvec.all_ones(0) == 0

    def test_all_ones_negative_raises(self):
        with pytest.raises(ValueError):
            bitvec.all_ones(-1)

    def test_mask_drops_high_bits(self):
        assert bitvec.mask_to_width(0b11111, 3) == 0b111

    def test_mask_preserves_low_bits(self):
        assert bitvec.mask_to_width(0b101, 3) == 0b101


class TestIteration:
    def test_iterates_set_query_ids_ascending(self):
        vector = 0
        for query_id in (3, 1, 64, 65):
            vector = bitvec.set_bit(vector, query_id)
        assert list(bitvec.iter_query_ids(vector)) == [1, 3, 64, 65]

    def test_empty_vector_yields_nothing(self):
        assert list(bitvec.iter_query_ids(bitvec.EMPTY)) == []

    def test_popcount_matches_iteration(self):
        vector = bitvec.from_string("1011001")
        assert bitvec.popcount(vector) == len(
            list(bitvec.iter_query_ids(vector))
        )


class TestStringRoundtrip:
    def test_to_string_least_significant_first(self):
        assert bitvec.to_string(0b101, width=4) == "1010"

    def test_roundtrip(self):
        text = "0110010001"
        assert bitvec.to_string(bitvec.from_string(text), len(text)) == text

    def test_from_string_rejects_garbage(self):
        with pytest.raises(ValueError):
            bitvec.from_string("01x1")


class TestBulkOperations:
    """The whole-column primitives (DESIGN.md section 5)."""

    def test_or_reduce(self):
        assert bitvec.or_reduce([0b001, 0b100, 0b001]) == 0b101
        assert bitvec.or_reduce([]) == bitvec.EMPTY

    def test_or_reduce_at_subset(self):
        vectors = [0b001, 0b010, 0b100]
        assert bitvec.or_reduce_at(vectors, [0, 2]) == 0b101
        assert bitvec.or_reduce_at(vectors, []) == bitvec.EMPTY

    def test_bulk_and_elementwise(self):
        assert bitvec.bulk_and([0b11, 0b10], [0b01, 0b11]) == [0b01, 0b10]

    def test_bulk_and_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            bitvec.bulk_and([0b1], [0b1, 0b1])

    def test_bulk_popcount(self):
        assert bitvec.bulk_popcount([0b101, 0b11, 0]) == 4

    def test_pack_and_iter_positions_roundtrip(self):
        positions = [0, 3, 7, 70]
        mask = bitvec.pack_positions(positions)
        assert list(bitvec.iter_set_positions(mask)) == positions
        assert bitvec.pack_positions([]) == bitvec.EMPTY

    def test_set_positions_are_zero_based(self):
        # row slots, unlike iter_query_ids' 1-based query ids
        mask = bitvec.pack_positions([0])
        assert list(bitvec.iter_set_positions(mask)) == [0]
        assert list(bitvec.iter_query_ids(mask)) == [1]
