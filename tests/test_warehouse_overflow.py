"""Admission overflow queueing in the Warehouse."""

from repro.engine import Warehouse
from repro.query.aggregates import AggregateSpec
from repro.query.predicate import Comparison
from repro.query.reference import evaluate_star_query
from repro.query.star import StarQuery
from repro.tuning import TuningConfig


def city_query(city):
    return StarQuery.build(
        "sales",
        dimension_predicates={"store": Comparison("s_city", "=", city)},
        aggregates=[AggregateSpec("count")],
    )


def test_queries_beyond_maxconc_queue_and_complete(tiny_star):
    catalog, star = tiny_star
    warehouse = Warehouse(
        catalog, star, max_concurrent=2, tuning=TuningConfig(batch_size=4)
    )
    cities = ["lyon", "paris", "nice", "lyon", "paris", "nice", "lyon"]
    handles = [warehouse.submit(city_query(city)) for city in cities]
    # one boundary (and 4 of 12 rows): one group, cut at the slots
    warehouse.service.pump()
    # only two slots exist; five queries are waiting
    assert warehouse.cjoin.active_query_count == 2
    assert warehouse.service.queued == 5
    warehouse.run()
    for city, handle in zip(cities, handles):
        assert handle.done
        assert handle.results() == evaluate_star_query(
            city_query(city), catalog
        )


def test_overflow_preserves_submission_order_semantics(tiny_star):
    catalog, star = tiny_star
    warehouse = Warehouse(catalog, star, max_concurrent=1, enable_updates=True)
    before = warehouse.submit_sql("SELECT COUNT(*) FROM sales")   # first in
    queued = warehouse.submit_sql("SELECT COUNT(*) FROM sales")   # waits
    warehouse.apply_update(inserts=[(1, 10, 1, 5)])
    after = warehouse.submit_sql("SELECT COUNT(*) FROM sales")    # waits
    warehouse.run()
    # snapshots were stamped at SUBMISSION time, not admission time
    assert before.results() == [(12,)]
    assert queued.results() == [(12,)]
    assert after.results() == [(13,)]


def test_no_overflow_when_capacity_suffices(tiny_star):
    catalog, star = tiny_star
    warehouse = Warehouse(
        catalog, star, max_concurrent=8, tuning=TuningConfig(batch_size=4)
    )
    handles = [warehouse.submit(city_query("lyon")) for _ in range(4)]
    warehouse.service.pump()
    assert warehouse.cjoin.active_query_count == 4
    assert warehouse.service.queued == 0
    warehouse.run()
    assert all(handle.done for handle in handles)
