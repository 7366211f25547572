"""Direct unit tests for PipelineManager paths not covered end-to-end."""

import pytest

from repro.cjoin import CJoinOperator
from repro.cjoin.manager import AdmissionTimings
from repro.cjoin.optimizer import DropRatePolicy
from repro.errors import AdmissionError
from repro.query.aggregates import AggregateSpec
from repro.query.predicate import Comparison
from repro.query.star import StarQuery
from repro.ssb.queries import ssb_workload_generator


def city_query(city):
    return StarQuery.build(
        "sales",
        dimension_predicates={"store": Comparison("s_city", "=", city)},
        aggregates=[AggregateSpec("count")],
    )


class TestAdmissionTimings:
    def test_mean_of_empty_is_zero(self):
        assert AdmissionTimings().mean_submission_seconds == 0.0

    def test_records_accumulate(self):
        timings = AdmissionTimings()
        timings.record(1.0, 10)
        timings.record(3.0, 20)
        assert timings.mean_submission_seconds == 2.0
        assert timings.dimension_rows_loaded == [10, 20]

    def test_operator_populates_timings(self, tiny_star):
        catalog, star = tiny_star
        operator = CJoinOperator(catalog, star)
        operator.submit(city_query("lyon"))
        assert len(operator.manager.timings.submission_seconds) == 1
        assert operator.manager.timings.dimension_rows_loaded == [1]


class TestReoptimizePaths:
    def test_reoptimize_with_fewer_than_two_filters(self, tiny_star):
        catalog, star = tiny_star
        operator = CJoinOperator(catalog, star, ordering_policy=DropRatePolicy())
        operator.submit(city_query("lyon"))  # one dimension -> one filter
        assert operator.manager.reoptimize() is False

    def test_reoptimize_no_change_resets_windows(self, tiny_star):
        catalog, star = tiny_star
        operator = CJoinOperator(catalog, star, ordering_policy=DropRatePolicy())
        query = StarQuery.build(
            "sales",
            dimension_predicates={
                "store": Comparison("s_city", "=", "lyon"),
                "product": Comparison("p_category", "=", "food"),
            },
            aggregates=[AggregateSpec("count")],
        )
        operator.submit(query)
        for pipeline_filter in operator.pipeline.filters:
            pipeline_filter.stats.tuples_in = 5
        changed = operator.manager.reoptimize()
        # whatever the ordering decision, the windows were reset
        assert all(
            f.stats.tuples_in == 0 for f in operator.pipeline.filters
        ), changed

    def test_reoptimize_records_stat(self, tiny_star):
        catalog, star = tiny_star
        operator = CJoinOperator(catalog, star, ordering_policy=DropRatePolicy())
        query = StarQuery.build(
            "sales",
            dimension_predicates={
                "product": Comparison("p_price", ">", 0),   # weak, first
                "store": Comparison("s_city", "=", "nice"),  # strong, second
            },
            aggregates=[AggregateSpec("count")],
        )
        operator.submit(query)
        # simulate observed drop rates favouring the store filter
        operator.pipeline.filter_for("product").stats.tuples_in = 100
        operator.pipeline.filter_for("product").stats.tuples_dropped = 1
        operator.pipeline.filter_for("store").stats.tuples_in = 100
        operator.pipeline.filter_for("store").stats.tuples_dropped = 90
        assert operator.manager.reoptimize() is True
        assert operator.filter_order() == ("store", "product")
        assert operator.stats.reoptimizations == 1


class TestCleanupPaths:
    def test_cleanup_of_unknown_query_raises(self, tiny_star):
        catalog, star = tiny_star
        operator = CJoinOperator(catalog, star)
        operator.manager._finished_queue.append(99)
        with pytest.raises(AdmissionError):
            operator.manager.process_finished()

    def test_dimension_table_hook(self, tiny_star):
        catalog, star = tiny_star
        operator = CJoinOperator(catalog, star)
        operator.submit(city_query("lyon"))
        table = operator.manager.dimension_table("store")
        assert table.tuple_count == 1


class TestSharingWorkFollowsTheQuery:
    """``dim_entries_touched``: Algorithms 1 and 2 write what one query
    selects, not what the other registered queries stored."""

    def test_one_more_query_touches_what_it_selects(self, ssb_small):
        catalog, star = ssb_small
        queries = ssb_workload_generator(seed=3, catalog=catalog).generate(
            65, selectivity=0.1
        )
        # the newcomer must reference some dimensions and skip others
        newcomer = next(
            query for query in queries
            if 0 < len(query.referenced_dimensions()) < len(star.dimensions)
        )
        queries.remove(newcomer)
        operator = CJoinOperator(catalog, star)
        for query in queries[:64]:
            operator.submit(query)
        operator.executor.step()
        manager, stats = operator.manager, operator.stats
        tables = {name: manager.dimension_table(name) for name in star.dimensions}

        before = stats.dim_entries_touched
        skipped = sum(
            table.tuple_count
            for name, table in tables.items()
            if name not in newcomer.referenced_dimensions()
        )
        handle = operator.submit(newcomer)
        selected = manager.timings.dimension_rows_loaded[-1]
        stored = sum(table.tuple_count for table in tables.values())
        assert 0 < selected < stored // 4  # a full pass would show
        assert stats.dim_entries_touched - before == selected + skipped

        # it leaves alone, with the 64 others still registered
        before = stats.dim_entries_touched
        assert handle.cancel()
        operator.executor.step()
        assert manager.active_query_count == 64
        assert stats.dim_entries_touched - before == selected
