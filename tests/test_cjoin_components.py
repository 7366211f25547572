"""Component-level tests: Preprocessor, Distributor, aggregation

operators, pipeline wiring, and stats — the pieces not already covered
by the end-to-end operator suite, with emphasis on error paths and the
control-tuple protocol.
"""

import pytest

from repro import bitvec
from repro.cjoin.aggregation import (
    AggregationOperator,
    ListingOperator,
    make_output_operator,
)
from repro.cjoin.batch import FactBatch
from repro.cjoin.distributor import Distributor
from repro.cjoin.dimtable import DimensionHashTable
from repro.cjoin.filter import Filter
from repro.cjoin.pipeline import CJoinPipeline
from repro.cjoin.preprocessor import Preprocessor
from repro.cjoin.registry import QueryHandle, RegisteredQuery
from repro.cjoin.stats import FilterStats, PipelineStats
from repro.cjoin.tuples import QueryEnd, QueryStart
from repro.errors import PipelineError
from repro.query.aggregates import AggregateSpec
from repro.query.predicate import Comparison
from repro.query.star import ColumnRef, StarQuery
from repro.storage.buffer import BufferPool
from repro.storage.scan import ContinuousScan
from tests.conftest import make_tiny_star


def build_preprocessor():
    catalog, star = make_tiny_star()
    stats = PipelineStats()
    scan = ContinuousScan(catalog.table("sales"), BufferPool(16))
    return Preprocessor(scan, star, stats), catalog, star, stats


def fact_rows(items):
    """``(sequence, position)`` of every fact row in ``items``, in order."""
    return [
        pair
        for item in items
        if isinstance(item, FactBatch)
        for pair in zip(item.sequences, item.positions)
    ]


def one_batch(rows, bits=0b1, lookups=None):
    """A FactBatch of ``rows`` all tagged ``bits``, joins attached.

    ``lookups`` maps a dimension name to its ``(fk index, key -> row)``
    pair, as a Filter attaches it.
    """
    batch = FactBatch([(1, 0, rows)], [bits] * len(rows))
    for name, (fk_index, rows_of) in (lookups or {}).items():
        batch.attach_dim_lookup(name, fk_index, rows_of)
    return batch


def registration(query_id=1, query=None):
    query = query if query is not None else StarQuery.build(
        "sales", aggregates=[AggregateSpec("count")]
    )
    handle = QueryHandle(query)
    reg = RegisteredQuery(query_id, query, handle)
    handle.registration = reg
    return reg


class TestPreprocessorProtocol:
    def test_activate_requires_stall(self):
        preprocessor, *_ = build_preprocessor()
        with pytest.raises(PipelineError):
            preprocessor.activate(registration())

    def test_resume_without_stall(self):
        preprocessor, *_ = build_preprocessor()
        with pytest.raises(PipelineError):
            preprocessor.resume()

    def test_start_control_tuple_precedes_data(self):
        preprocessor, *_ = build_preprocessor()
        preprocessor.stall()
        preprocessor.activate(registration())
        preprocessor.resume()
        items = preprocessor.next_batched_items(5)
        assert isinstance(items[0], QueryStart)
        assert all(isinstance(item, FactBatch) for item in items[1:])
        # the start tuple spent one item of the budget, and its
        # sequence number comes before every row's
        assert fact_rows(items) == [(2, 0), (3, 1), (4, 2), (5, 3)]
        assert items[0].sequence == 1

    def test_sequence_numbers_strictly_increase(self):
        preprocessor, *_ = build_preprocessor()
        preprocessor.stall()
        preprocessor.activate(registration())
        preprocessor.resume()
        sequences = []
        for _ in range(8):
            for item in preprocessor.next_batched_items(5):
                if isinstance(item, FactBatch):
                    sequences.extend(item.sequences)
                else:
                    sequences.append(item.sequence)
        assert len(sequences) > 12  # more than a cycle: the end is in there
        assert sequences == list(range(1, len(sequences) + 1))

    def test_end_emitted_before_wrapped_tuple(self):
        preprocessor, catalog, *_ = build_preprocessor()
        rows = catalog.table("sales").row_count
        preprocessor.stall()
        preprocessor.activate(registration())
        preprocessor.resume()
        items = []
        while not any(isinstance(item, QueryEnd) for item in items):
            items.extend(preprocessor.next_batched_items(7))
        end_index = next(
            i for i, item in enumerate(items) if isinstance(item, QueryEnd)
        )
        # exactly one full cycle of data precedes the end tuple ...
        before = fact_rows(items[:end_index])
        assert [position for _, position in before] == list(range(rows))
        # ... in sequence order, and nothing follows it: the query was
        # the only one active, so the wrapped tuple is never emitted
        assert before[-1][0] < items[end_index].sequence
        assert fact_rows(items[end_index:]) == []

    def test_end_precedes_the_wrapped_tuple_other_queries_still_need(self):
        preprocessor, catalog, *_ = build_preprocessor()
        rows = catalog.table("sales").row_count
        preprocessor.stall()
        preprocessor.activate(registration(1))
        preprocessor.resume()
        # start + the 4 rows of the first page: the batch ends on the
        # page boundary instead of taking 1 row of the next page
        preprocessor.next_batched_items(6)
        second = registration(2)
        preprocessor.stall()
        preprocessor.activate(second)
        preprocessor.resume()
        assert second.start_position == 4
        items = []
        while sum(isinstance(item, QueryEnd) for item in items) < 2:
            items.extend(preprocessor.next_batched_items(7))
        ends = {
            item.query_id: index
            for index, item in enumerate(items)
            if isinstance(item, QueryEnd)
        }
        # query 1 ends on arrival at position 0, before the batch that
        # re-scans it for query 2; no batch spans the control tuple
        assert fact_rows(items[: ends[1]])[-1][1] == rows - 1
        wrapped = fact_rows(items[ends[1]: ends[2]])
        assert [position for _, position in wrapped] == list(range(4))
        assert wrapped[0][0] > items[ends[1]].sequence

    def test_no_items_without_active_queries(self):
        preprocessor, *_ = build_preprocessor()
        assert preprocessor.next_batched_items(10) == []

    def test_fact_predicate_clears_bits_at_source(self):
        preprocessor, catalog, star, stats = build_preprocessor()
        query = StarQuery.build(
            "sales",
            fact_predicate=Comparison("f_qty", ">", 100),  # matches nothing
            aggregates=[AggregateSpec("count")],
        )
        preprocessor.stall()
        preprocessor.activate(registration(1, query))
        preprocessor.resume()
        items = preprocessor.next_batched_items(20)
        assert fact_rows(items) == []
        assert stats.tuples_preprocessor_dropped > 0

    def test_two_queries_same_start_position(self):
        preprocessor, catalog, *_ = build_preprocessor()
        preprocessor.stall()
        preprocessor.activate(registration(1))
        preprocessor.activate(registration(2))
        preprocessor.resume()
        ends = 0
        guard = 0
        while ends < 2:
            for item in preprocessor.next_batched_items(8):
                if isinstance(item, QueryEnd):
                    ends += 1
            guard += 1
            assert guard < 100
        assert preprocessor.active_count == 0


class TestAggregationOperators:
    def _star(self):
        _, star = make_tiny_star()
        return star

    def _consume(self, operator, rows, lookups=None):
        batch = one_batch(rows, lookups=lookups)
        operator.consume_rows(batch, batch.live)

    def test_group_by_accumulates_per_key(self):
        star = self._star()
        query = StarQuery.build(
            "sales",
            group_by=[ColumnRef("store", "s_city")],
            aggregates=[AggregateSpec("sum", "sales", "f_total")],
        )
        operator = AggregationOperator(query, star)
        stores = {1: (1, "lyon", 100), 2: (2, "paris", 250)}
        self._consume(
            operator,
            [(1, 10, 2, 10), (1, 20, 1, 30), (2, 10, 5, 25)],
            {"store": (star.fact_fk_index("store"), stores)},
        )
        assert operator.results() == [("lyon", 40), ("paris", 25)]
        assert operator.group_count == 2

    def test_rows_routed_without_their_join_lookup_raise(self):
        star = self._star()
        query = StarQuery.build(
            "sales",
            group_by=[ColumnRef("store", "s_city")],
            aggregates=[AggregateSpec("count")],
        )
        with pytest.raises(PipelineError, match="join lookup"):
            self._consume(AggregationOperator(query, star), [(1, 10, 2, 10)])

    def test_global_group_without_group_by(self):
        star = self._star()
        query = StarQuery.build(
            "sales",
            aggregates=[AggregateSpec("count"), AggregateSpec("min", "sales", "f_qty")],
        )
        operator = AggregationOperator(query, star)
        self._consume(operator, [(1, 10, qty, 1) for qty in (5, 2, 9)])
        assert operator.results() == [(3, 2)]

    def test_empty_aggregation_yields_no_rows(self):
        star = self._star()
        query = StarQuery.build(
            "sales",
            group_by=[ColumnRef("store", "s_city")],
            aggregates=[AggregateSpec("count")],
        )
        assert AggregationOperator(query, star).results() == []

    def test_listing_operator_collects_sorted(self):
        star = self._star()
        query = StarQuery.build(
            "sales", select=[ColumnRef("sales", "f_qty")]
        )
        operator = ListingOperator(query, star)
        self._consume(operator, [(1, 10, qty, 1) for qty in (5, 2, 9)])
        assert operator.results() == [(2,), (5,), (9,)]

    def test_factory_picks_operator_kind(self):
        star = self._star()
        aggregating = StarQuery.build(
            "sales", aggregates=[AggregateSpec("count")]
        )
        listing = StarQuery.build(
            "sales", select=[ColumnRef("sales", "f_qty")]
        )
        assert isinstance(
            make_output_operator(aggregating, star), AggregationOperator
        )
        assert isinstance(make_output_operator(listing, star), ListingOperator)

    def test_aggregation_operator_rejects_listing_query(self):
        star = self._star()
        listing = StarQuery.build(
            "sales", select=[ColumnRef("sales", "f_qty")]
        )
        with pytest.raises(PipelineError):
            AggregationOperator(listing, star)


class TestDistributor:
    def _distributor(self):
        _, star = make_tiny_star()
        return Distributor(star, PipelineStats())

    def test_routes_by_bitvector(self):
        distributor = self._distributor()
        finished = []
        distributor.on_query_finished = finished.append
        reg1 = registration(1)
        reg2 = registration(2)
        distributor.process(QueryStart(1, reg1))
        distributor.process(QueryStart(2, reg2))
        distributor.process(
            one_batch([(1, 10, 2, 10)], bitvec.from_string("11"))
        )
        distributor.process(
            one_batch([(1, 10, 2, 10)], bitvec.from_string("01"))
        )
        distributor.process(QueryEnd(5, 1))
        distributor.process(QueryEnd(6, 2))
        assert reg1.handle.results() == [(1,)]
        assert reg2.handle.results() == [(2,)]
        assert finished == [1, 2]

    def test_tuple_for_unknown_query_raises(self):
        distributor = self._distributor()
        orphan = one_batch([(1, 10, 2, 10)], 0b1)
        with pytest.raises(PipelineError):
            distributor.process(orphan)

    def test_double_start_rejected(self):
        distributor = self._distributor()
        reg = registration(1)
        distributor.process(QueryStart(1, reg))
        with pytest.raises(PipelineError):
            distributor.process(QueryStart(2, reg))

    def test_end_for_unknown_query_rejected(self):
        distributor = self._distributor()
        with pytest.raises(PipelineError):
            distributor.process(QueryEnd(1, 7))

    def test_unknown_item_rejected(self):
        distributor = self._distributor()
        with pytest.raises(PipelineError):
            distributor.process(object())


class TestPipelineWiring:
    def _pipeline(self):
        preprocessor, catalog, star, stats = build_preprocessor()
        distributor = Distributor(star, stats)
        pipeline = CJoinPipeline(preprocessor, distributor, stats)
        return pipeline, star

    def _filter(self, star, name):
        table = DimensionHashTable(star.dimension(name))
        return Filter(table, star)

    def test_duplicate_filter_rejected(self):
        pipeline, star = self._pipeline()
        pipeline.add_filter(self._filter(star, "store"))
        with pytest.raises(PipelineError):
            pipeline.add_filter(self._filter(star, "store"))

    def test_remove_missing_filter_rejected(self):
        pipeline, _ = self._pipeline()
        with pytest.raises(PipelineError):
            pipeline.remove_filter("store")

    def test_reorder_must_be_permutation(self):
        pipeline, star = self._pipeline()
        pipeline.add_filter(self._filter(star, "store"))
        pipeline.add_filter(self._filter(star, "product"))
        with pytest.raises(PipelineError):
            pipeline.reorder([self._filter(star, "store")])

    def test_order_log_records_changes(self):
        pipeline, star = self._pipeline()
        store = self._filter(star, "store")
        product = self._filter(star, "product")
        pipeline.add_filter(store)
        pipeline.add_filter(product)
        pipeline.reorder([product, store])
        assert pipeline.stats.filter_orders == [
            ("store",),
            ("store", "product"),
            ("product", "store"),
        ]

    def test_filter_lookup(self):
        pipeline, star = self._pipeline()
        store = self._filter(star, "store")
        pipeline.add_filter(store)
        assert pipeline.filter_for("store") is store
        assert pipeline.has_filter("store")
        assert not pipeline.has_filter("product")
        with pytest.raises(PipelineError):
            pipeline.filter_for("product")


class TestStats:
    def test_filter_stats_rates(self):
        stats = FilterStats()
        assert stats.pass_rate == 1.0
        stats.tuples_in = 10
        stats.tuples_dropped = 4
        assert stats.drop_rate == pytest.approx(0.4)
        assert stats.pass_rate == pytest.approx(0.6)

    def test_pipeline_stats_probes_per_tuple(self):
        stats = PipelineStats()
        assert stats.probes_per_tuple == 0.0
        stats.tuples_scanned = 10
        stats.probes_total = 25
        assert stats.probes_per_tuple == 2.5

    def test_record_order_dedupes_consecutive(self):
        stats = PipelineStats()
        stats.record_order(("a",))
        stats.record_order(("a",))
        stats.record_order(("b",))
        assert stats.filter_orders == [("a",), ("b",)]

    def test_latency_summary_is_a_recent_window_with_an_exact_count(self):
        from repro.cjoin.stats import LATENCY_WINDOW, QueryLatencyRecord

        stats = PipelineStats()
        total = LATENCY_WINDOW + 500
        for index in range(total):
            # the first 500 (which fall out of the window) are slow
            latency = 9.0 if index < 500 else 1.0
            stats.record_latency(
                QueryLatencyRecord(1, None, 0.5, 1.0, latency, 0, 0)
            )
        assert len(stats.latency_records) == LATENCY_WINDOW
        summary = stats.latency_summary()
        assert summary["count"] == float(total)  # cumulative, exact
        assert summary["p50"] == summary["p99"] == 1.0  # recent only
        assert summary["wait_p95"] == 0.5
        assert len(stats.recent_latency_records(64)) == 64
        assert len(stats.recent_latency_records()) == LATENCY_WINDOW
