"""End-to-end tests of the CJOIN operator (sections 3.1-3.4).

Everything here runs the *real* pipeline on real data and compares
against the reference evaluator.
"""

import pytest

from repro.cjoin import CJoinOperator
from repro.cjoin.optimizer import DropRatePolicy, FixedOrderPolicy
from repro.cjoin.executor import ExecutorConfig
from repro.errors import AdmissionError
from repro.query.aggregates import AggregateSpec
from repro.query.predicate import Comparison
from repro.query.reference import evaluate_star_query
from repro.query.star import ColumnRef, StarQuery
from repro.storage.buffer import BufferPool
from repro.storage.iostats import IOStats


def city_query(city, label=None):
    return StarQuery.build(
        "sales",
        dimension_predicates={"store": Comparison("s_city", "=", city)},
        group_by=[ColumnRef("product", "p_category")],
        aggregates=[AggregateSpec("sum", "sales", "f_total")],
        label=label,
    )


class TestSingleQuery:
    def test_matches_reference(self, tiny_star):
        catalog, star = tiny_star
        operator = CJoinOperator(catalog, star)
        query = city_query("lyon")
        assert operator.execute(query) == evaluate_star_query(query, catalog)

    def test_fact_predicate_supported(self, tiny_star):
        catalog, star = tiny_star
        operator = CJoinOperator(catalog, star)
        query = StarQuery.build(
            "sales",
            fact_predicate=Comparison("f_qty", ">", 2),
            aggregates=[AggregateSpec("count")],
        )
        assert operator.execute(query) == evaluate_star_query(query, catalog)

    def test_listing_query(self, tiny_star):
        catalog, star = tiny_star
        operator = CJoinOperator(catalog, star)
        query = StarQuery.build(
            "sales",
            dimension_predicates={"store": Comparison("s_id", "=", 2)},
            select=[ColumnRef("sales", "f_product"), ColumnRef("store", "s_city")],
        )
        assert operator.execute(query) == evaluate_star_query(query, catalog)

    def test_empty_result(self, tiny_star):
        catalog, star = tiny_star
        operator = CJoinOperator(catalog, star)
        query = city_query("atlantis")
        assert operator.execute(query) == []


class TestConcurrentQueries:
    def test_batch_of_queries_matches_reference(self, tiny_star):
        catalog, star = tiny_star
        operator = CJoinOperator(catalog, star)
        queries = [city_query(c) for c in ("lyon", "paris", "nice")]
        handles = [operator.submit(q) for q in queries]
        operator.run_until_drained()
        for query, handle in zip(queries, handles):
            assert handle.results() == evaluate_star_query(query, catalog)

    def test_single_scan_shared_across_queries(self, tiny_star):
        catalog, star = tiny_star
        operator = CJoinOperator(catalog, star)
        for city in ("lyon", "paris", "nice"):
            operator.submit(city_query(city))
        operator.run_until_drained()
        fact_rows = catalog.table("sales").row_count
        # all three queries served by one wrap of the scan (+1 tuple to
        # detect the wrap-around)
        assert operator.stats.tuples_scanned <= fact_rows + 1

    def test_mid_scan_admission_sees_exactly_one_cycle(self, tiny_star):
        catalog, star = tiny_star
        operator = CJoinOperator(
            catalog, star, executor_config=ExecutorConfig(batch_size=2)
        )
        first = operator.submit(city_query("lyon"))
        operator.executor.step()  # advance a few tuples
        operator.executor.step()
        second = operator.submit(city_query("paris"))
        operator.run_until_drained()
        assert first.results() == evaluate_star_query(
            city_query("lyon"), catalog
        )
        assert second.results() == evaluate_star_query(
            city_query("paris"), catalog
        )

    def test_handles_complete_in_wrap_order(self, tiny_star):
        catalog, star = tiny_star
        operator = CJoinOperator(
            catalog, star, executor_config=ExecutorConfig(batch_size=2)
        )
        first = operator.submit(city_query("lyon"))
        operator.executor.step()
        second = operator.submit(city_query("paris"))
        operator.executor.step()
        # first was admitted earlier in the scan, so it wraps first
        while not first.done:
            operator.executor.step()
        assert not second.done
        operator.run_until_drained()
        assert second.done

    def test_sequential_io_with_many_queries(self, ssb_small, ssb_workload):
        catalog, star = ssb_small
        stats = IOStats()
        pool = BufferPool(4, stats)  # tiny pool: misses on every cycle
        operator = CJoinOperator(catalog, star, buffer_pool=pool)
        for query in ssb_workload[:6]:
            operator.submit(query)
        operator.run_until_drained()
        # the shared continuous scan keeps fact I/O sequential even
        # with six concurrent queries (dimension scans at admission
        # contribute the few random reads)
        assert stats.sequential_fraction > 0.5

    def test_probe_budget_is_bounded_by_filter_count(self, tiny_star):
        """At most K probes per scanned tuple, independent of n (3.2.3)."""
        catalog, star = tiny_star
        operator = CJoinOperator(catalog, star)
        for city in ("lyon", "paris", "nice"):
            for _ in range(4):
                operator.submit(city_query(city))
        operator.run_until_drained()
        assert operator.stats.probes_per_tuple <= 2.0  # K = 2 dimensions


class TestAdmissionFinalization:
    def test_max_concurrency_enforced(self, tiny_star):
        catalog, star = tiny_star
        operator = CJoinOperator(catalog, star, max_concurrent=2)
        operator.submit(city_query("lyon"))
        operator.submit(city_query("paris"))
        with pytest.raises(AdmissionError):
            operator.submit(city_query("nice"))

    def test_ids_reclaimed_after_completion(self, tiny_star):
        catalog, star = tiny_star
        operator = CJoinOperator(catalog, star, max_concurrent=2)
        for round_index in range(3):
            a = operator.submit(city_query("lyon"))
            b = operator.submit(city_query("paris"))
            operator.run_until_drained()
            assert a.done and b.done
        assert operator.active_query_count == 0

    def test_filters_removed_when_tables_empty(self, tiny_star):
        catalog, star = tiny_star
        operator = CJoinOperator(catalog, star)
        operator.submit(city_query("lyon"))
        assert operator.filter_order() != ()
        operator.run_until_drained()
        operator.manager.process_finished()
        assert operator.filter_order() == ()

    def test_dimension_tables_shrink_after_finalization(self, tiny_star):
        catalog, star = tiny_star
        operator = CJoinOperator(catalog, star)
        wide = StarQuery.build(
            "sales",
            dimension_predicates={"store": Comparison("s_size", ">", 0)},
            aggregates=[AggregateSpec("count")],
        )
        narrow = city_query("lyon")
        operator.submit(wide)
        handle = operator.submit(narrow)
        operator.run_until_drained()
        operator.manager.process_finished()
        assert handle.done
        assert operator.active_query_count == 0

    def test_progress_reaches_one(self, tiny_star):
        catalog, star = tiny_star
        operator = CJoinOperator(
            catalog, star, executor_config=ExecutorConfig(batch_size=4)
        )
        handle = operator.submit(city_query("lyon"))
        progresses = [handle.progress]
        while not handle.done:
            operator.executor.step()
            progresses.append(handle.progress)
        assert progresses[-1] == 1.0
        assert all(b >= a for a, b in zip(progresses, progresses[1:]))

    def test_invalid_query_rejected_without_leaking_ids(self, tiny_star):
        catalog, star = tiny_star
        operator = CJoinOperator(catalog, star, max_concurrent=1)
        bad = StarQuery.build(
            "sales",
            dimension_predicates={"store": Comparison("missing", "=", 1)},
        )
        with pytest.raises(Exception):
            operator.submit(bad)
        # the slot must be free again
        operator.submit(city_query("lyon"))


class TestEmptyFactTable:
    def test_query_on_empty_fact_completes_immediately(self):
        from tests.conftest import make_tiny_star
        from repro.catalog.catalog import Catalog
        from repro.storage.table import Table

        catalog_full, star = make_tiny_star()
        catalog = Catalog()
        for name in ("store", "product"):
            catalog.register_table(catalog_full.table(name))
        catalog.register_table(Table(star.fact))  # empty fact
        catalog.register_star(star)
        operator = CJoinOperator(catalog, star)
        handle = operator.submit(city_query("lyon"))
        operator.run_until_drained()
        assert handle.done
        assert handle.results() == []


class TestRuntimeOptimization:
    def test_filters_reorder_by_observed_selectivity(self, tiny_star):
        catalog, star = tiny_star
        operator = CJoinOperator(
            catalog,
            star,
            ordering_policy=DropRatePolicy(),
            executor_config=ExecutorConfig(
                batch_size=4, reoptimize_interval=8, profile_sample_rate=0
            ),
        )
        # store predicate selects 1/3 cities; product predicate selects
        # everything -> store filter should end up first
        query = StarQuery.build(
            "sales",
            dimension_predicates={
                "product": Comparison("p_price", ">", 0),
                "store": Comparison("s_city", "=", "nice"),
            },
            aggregates=[AggregateSpec("count")],
        )
        handle = operator.submit(query)
        operator.run_until_drained()
        assert handle.results() == evaluate_star_query(query, catalog)
        # at some point during the run the (more selective) store
        # filter must have been ranked ahead of the product filter
        two_filter_orders = [
            order for order in operator.stats.filter_orders if len(order) == 2
        ]
        assert ("store", "product") in two_filter_orders

    def test_fixed_policy_never_reorders(self, tiny_star):
        catalog, star = tiny_star
        operator = CJoinOperator(
            catalog,
            star,
            ordering_policy=FixedOrderPolicy(),
            executor_config=ExecutorConfig(batch_size=4, reoptimize_interval=4),
        )
        for city in ("lyon", "paris"):
            operator.submit(city_query(city))
        operator.run_until_drained()
        assert operator.stats.reoptimizations == 0

    def test_agreedy_reoptimizes_and_stays_correct(self, tiny_star):
        catalog, star = tiny_star
        operator = CJoinOperator(
            catalog,
            star,
            executor_config=ExecutorConfig(
                batch_size=4, reoptimize_interval=6, profile_sample_rate=2
            ),
        )
        queries = [city_query(c) for c in ("lyon", "paris", "nice")]
        handles = [operator.submit(q) for q in queries]
        operator.run_until_drained()
        for query, handle in zip(queries, handles):
            assert handle.results() == evaluate_star_query(query, catalog)


class TestAgainstSSB(object):
    def test_workload_equivalence(self, ssb_small, ssb_workload):
        catalog, star = ssb_small
        operator = CJoinOperator(catalog, star)
        handles = [operator.submit(q) for q in ssb_workload]
        operator.run_until_drained()
        for query, handle in zip(ssb_workload, handles):
            assert handle.results() == evaluate_star_query(query, catalog), (
                query.label
            )

    def test_staggered_admission_equivalence(self, ssb_small, ssb_workload):
        catalog, star = ssb_small
        operator = CJoinOperator(
            catalog, star, executor_config=ExecutorConfig(batch_size=64)
        )
        handles = []
        for index, query in enumerate(ssb_workload[:6]):
            handles.append(operator.submit(query))
            for _ in range(index):
                operator.executor.step()
        operator.run_until_drained()
        for query, handle in zip(ssb_workload, handles):
            assert handle.results() == evaluate_star_query(query, catalog), (
                query.label
            )
