"""Unit tests for the Filter component (probe, AND, drop, skip).

One-row batches, so every per-tuple statement of sections 3.2.1-3.2.2
is checked on its own; whole-column batches are tests/test_kernels.py.
"""

from repro import bitvec
from repro.catalog.schema import (
    Column,
    DataType,
    ForeignKey,
    StarSchema,
    TableSchema,
)
from repro.cjoin.batch import FactBatch
from repro.cjoin.dimtable import DimensionHashTable
from repro.cjoin.filter import Filter
from repro.cjoin.stats import PipelineStats


def make_star():
    dim = TableSchema(
        "d",
        [Column("id", DataType.INT), Column("label", DataType.STRING)],
        primary_key="id",
    )
    fact = TableSchema(
        "f",
        [Column("d_id", DataType.INT), Column("v", DataType.INT)],
        foreign_keys=[ForeignKey("d_id", "d", "id")],
    )
    return StarSchema(fact=fact, dimensions={"d": dim})


def make_filter(stats=None):
    star = make_star()
    table = DimensionHashTable(star.dimension("d"))
    return Filter(table, star, stats), table


def tuple_with_bits(bits, d_id=5):
    """A one-row batch: the fact tuple ``(d_id, 10)`` tagged ``bits``."""
    return FactBatch([(1, 0, [(d_id, 10)])], [bits])


def survives(filter_, batch):
    filter_.process_batch(batch)
    return bool(batch.live)


class TestFiltering:
    def test_joining_tuple_keeps_selected_bits(self):
        filter_, table = make_filter()
        table.mark_query_referencing(1)
        table.register_selected_rows(1, [(5, "five")])
        table.mark_query_referencing(2)  # Q2 selects nothing
        fact_tuple = tuple_with_bits(0b11, d_id=5)
        assert survives(filter_, fact_tuple)
        assert fact_tuple.bitvectors == [bitvec.bit_for_query(1)]

    def test_tuple_dropped_when_no_query_remains(self):
        filter_, table = make_filter()
        table.mark_query_referencing(1)
        table.register_selected_rows(1, [(5, "five")])
        fact_tuple = tuple_with_bits(0b1, d_id=6)  # FK misses selection
        assert not survives(filter_, fact_tuple)
        assert fact_tuple.bitvectors == [0]
        assert fact_tuple.alive == 0
        assert filter_.stats.tuples_dropped == 1

    def test_dim_row_pointer_attached(self):
        filter_, table = make_filter()
        table.mark_query_referencing(1)
        table.register_selected_rows(1, [(5, "five")])
        fact_tuple = tuple_with_bits(0b1, d_id=5)
        assert fact_tuple.dim_lookup_state(["d"]) is None
        filter_.process_batch(fact_tuple)
        ((fk_index, rows_of),) = fact_tuple.dim_lookup_state(["d"])
        assert rows_of[fact_tuple.rows[0][fk_index]] == (5, "five")

    def test_probe_skip_when_no_relevant_query_references(self):
        stats = PipelineStats()
        filter_, table = make_filter(stats)
        table.mark_query_not_referencing(1)  # Q1 doesn't reference d
        fact_tuple = tuple_with_bits(0b1, d_id=12345)
        assert survives(filter_, fact_tuple)
        assert fact_tuple.bitvectors == [0b1]  # untouched
        assert filter_.stats.probe_skips == 1
        assert filter_.stats.probes == 0
        assert stats.probes_total == 0
        assert stats.probe_skips_total == 1

    def test_probe_happens_when_some_relevant_query_references(self):
        stats = PipelineStats()
        filter_, table = make_filter(stats)
        table.mark_query_not_referencing(1)
        table.mark_query_referencing(2)
        table.register_selected_rows(2, [(5, "five")])
        fact_tuple = tuple_with_bits(0b11, d_id=5)
        assert survives(filter_, fact_tuple)
        assert filter_.stats.probes == 1
        assert stats.probes_total == 1
        assert fact_tuple.bitvectors == [0b11]

    def test_single_probe_covers_all_queries(self):
        """One probe resolves every concurrent query (the key sharing)."""
        filter_, table = make_filter()
        for query_id in range(1, 33):
            table.mark_query_referencing(query_id)
            if query_id % 2 == 0:
                table.register_selected_rows(query_id, [(5, "five")])
        fact_tuple = tuple_with_bits(bitvec.all_ones(32), d_id=5)
        filter_.process_batch(fact_tuple)
        assert filter_.stats.probes == 1
        surviving = list(bitvec.iter_query_ids(fact_tuple.bitvectors[0]))
        assert surviving == [q for q in range(1, 33) if q % 2 == 0]


class TestWouldDrop:
    def test_would_drop_matches_process_without_side_effects(self):
        filter_, table = make_filter()
        table.mark_query_referencing(1)
        table.register_selected_rows(1, [(5, "five")])
        table.mark_query_not_referencing(2)
        cases = [(0b1, 5), (0b1, 6), (0b10, 6), (0b11, 6)]
        verdicts = [
            filter_.would_drop(bits, (d_id, 10)) for bits, d_id in cases
        ]
        assert filter_.stats.tuples_in == 0  # no stats
        assert verdicts == [False, True, False, False]
        assert verdicts == [
            not survives(filter_, tuple_with_bits(bits, d_id))
            for bits, d_id in cases
        ]


class TestFilterStats:
    def test_pass_and_drop_rates(self):
        filter_, table = make_filter()
        table.mark_query_referencing(1)
        table.register_selected_rows(1, [(5, "five")])
        for d_id in (5, 6, 7, 5):
            filter_.process_batch(tuple_with_bits(0b1, d_id))
        assert filter_.stats.tuples_in == 4
        assert filter_.stats.drop_rate == 0.5
        assert filter_.stats.pass_rate == 0.5

    def test_reset(self):
        filter_, table = make_filter()
        table.mark_query_referencing(1)
        filter_.process_batch(tuple_with_bits(0b1))
        filter_.stats.reset()
        assert filter_.stats.tuples_in == 0
        assert filter_.stats.drop_rate == 0.0
