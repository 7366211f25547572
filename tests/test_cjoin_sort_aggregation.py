"""Sort-based aggregation: equivalence with hash aggregation."""

import pytest
from hypothesis import given, settings

from repro.cjoin import CJoinOperator
from repro.cjoin.aggregation import (
    SortAggregationOperator,
    make_output_operator,
)
from repro.cjoin.batch import FactBatch
from repro.errors import PipelineError
from repro.query.aggregates import AggregateSpec
from repro.query.reference import evaluate_star_query
from repro.query.star import ColumnRef, StarQuery
from tests.conftest import make_tiny_star
from tests.test_properties import star_queries, warehouses


class TestSortOperatorUnit:
    def _setup(self):
        _, star = make_tiny_star()
        query = StarQuery.build(
            "sales",
            group_by=[ColumnRef("sales", "f_store")],
            aggregates=[
                AggregateSpec("sum", "sales", "f_total"),
                AggregateSpec("count"),
            ],
        )
        return SortAggregationOperator(query, star)

    def test_groups_runs_after_sort(self):
        operator = self._setup()
        rows = [
            (store, 1, 1, total)
            for store, total in [(2, 5), (1, 3), (2, 7), (1, 1)]
        ]
        batch = FactBatch([(1, 0, rows)], [0b1] * 4)
        operator.consume_rows(batch, batch.live)
        assert operator.buffered_tuples == 4
        assert operator.results() == [(1, 4, 2), (2, 12, 2)]

    def test_empty_input(self):
        assert self._setup().results() == []

    def test_rejects_listing_queries(self):
        _, star = make_tiny_star()
        listing = StarQuery.build(
            "sales", select=[ColumnRef("sales", "f_qty")]
        )
        with pytest.raises(PipelineError):
            SortAggregationOperator(listing, star)

    def test_factory_mode_selection(self):
        _, star = make_tiny_star()
        query = StarQuery.build("sales", aggregates=[AggregateSpec("count")])
        assert isinstance(
            make_output_operator(query, star, mode="sort"),
            SortAggregationOperator,
        )
        with pytest.raises(PipelineError):
            make_output_operator(query, star, mode="bogus")


class TestSortModeEndToEnd:
    def test_operator_with_sort_mode_matches_reference(self, ssb_small, ssb_workload):
        catalog, star = ssb_small
        operator = CJoinOperator(catalog, star, aggregation_mode="sort")
        handles = [operator.submit(query) for query in ssb_workload[:6]]
        operator.run_until_drained()
        for query, handle in zip(ssb_workload, handles):
            assert handle.results() == evaluate_star_query(query, catalog)


@settings(max_examples=40, deadline=None)
@given(warehouse=warehouses(), query=star_queries())
def test_sort_and_hash_aggregation_agree(warehouse, query):
    catalog, star = warehouse
    hash_operator = CJoinOperator(catalog, star, aggregation_mode="hash")
    sort_operator = CJoinOperator(catalog, star, aggregation_mode="sort")
    assert hash_operator.execute(query) == sort_operator.execute(query)
