"""Tests for the Warehouse facade and its one submission route."""

import pytest

from repro.engine import Warehouse
from repro.errors import QueryError
from repro.query.aggregates import AggregateSpec
from repro.query.predicate import Comparison
from repro.query.reference import evaluate_star_query
from repro.query.star import ColumnRef, StarQuery


def city_query(city):
    return StarQuery.build(
        "sales",
        dimension_predicates={"store": Comparison("s_city", "=", city)},
        group_by=[ColumnRef("product", "p_category")],
        aggregates=[AggregateSpec("sum", "sales", "f_total")],
    )


class TestRouter:
    """One route: every valid star query rides the always-on service."""

    def test_star_queries_go_to_cjoin(self, tiny_star):
        catalog, star = tiny_star
        warehouse = Warehouse(catalog, star)
        warehouse.submit(city_query("lyon"))
        assert [s.route for s in warehouse.submissions] == ["service"]
        assert warehouse.service.queued == 1

    def test_invalid_query_rejected(self, tiny_star):
        catalog, star = tiny_star
        warehouse = Warehouse(catalog, star)
        bad = StarQuery.build(
            "sales",
            dimension_predicates={"store": Comparison("missing", "=", 1)},
        )
        with pytest.raises(QueryError):
            warehouse.submit(bad)
        assert warehouse.submissions == []
        assert warehouse.service.queued == 0

    def test_explain(self, tiny_star):
        catalog, star = tiny_star
        warehouse = Warehouse(catalog, star)
        report = warehouse.explain_sql(
            "SELECT COUNT(*) FROM sales, store "
            "WHERE f_store = s_id AND s_city = 'lyon'"
        )
        assert "routing: cjoin" in report


class TestWarehouse:
    def test_both_paths_agree(self, tiny_star):
        catalog, star = tiny_star
        warehouse = Warehouse(catalog, star)
        query = city_query("paris")
        cjoin_handle = warehouse.submit(query)
        warehouse.run()
        [baseline_rows] = warehouse.baseline.execute_concurrent([query])
        assert cjoin_handle.results() == baseline_rows
        assert cjoin_handle.results() == evaluate_star_query(query, catalog)

    def test_sql_round_trip(self, tiny_star):
        catalog, star = tiny_star
        warehouse = Warehouse(catalog, star)
        rows = warehouse.execute_sql(
            "SELECT s_city, SUM(f_total) FROM sales, store "
            "WHERE f_store = s_id GROUP BY s_city"
        )
        assert rows == [("lyon", 97), ("nice", 48), ("paris", 121)]

    def test_from_ssb_constructor(self):
        warehouse = Warehouse.from_ssb(scale_factor=0.0002, seed=5)
        rows = warehouse.execute_sql(
            "SELECT COUNT(*) FROM lineorder, date WHERE lo_orderdate = d_datekey"
        )
        assert rows[0][0] == warehouse.catalog.table("lineorder").row_count

    def test_updates_rejected_when_disabled(self, tiny_star):
        catalog, star = tiny_star
        warehouse = Warehouse(catalog, star)
        with pytest.raises(QueryError):
            warehouse.apply_update(inserts=[(1, 10, 1, 5)])

    def test_snapshot_isolation_between_queries_and_updates(self, tiny_star):
        catalog, star = tiny_star
        warehouse = Warehouse(catalog, star, enable_updates=True)
        count_sql = "SELECT COUNT(*) FROM sales"
        before = warehouse.submit_sql(count_sql)
        snapshot_id = warehouse.apply_update(
            inserts=[(1, 10, 1, 5), (2, 20, 2, 60)]
        )
        after = warehouse.submit_sql(count_sql)
        warehouse.run()
        assert snapshot_id == 1
        assert before.results() == [(12,)]   # pre-update snapshot
        assert after.results() == [(14,)]    # sees the two inserts

    def test_deletes_respect_snapshots(self, tiny_star):
        catalog, star = tiny_star
        warehouse = Warehouse(catalog, star, enable_updates=True)
        warehouse.apply_update(deletes=[0, 1])
        rows = warehouse.execute_sql("SELECT COUNT(*) FROM sales")
        assert rows == [(10,)]

    def test_current_snapshot_id_tracks_commits(self, tiny_star):
        catalog, star = tiny_star
        warehouse = Warehouse(catalog, star, enable_updates=True)
        assert warehouse.current_snapshot_id == 0
        warehouse.apply_update(inserts=[(3, 30, 1, 8)])
        assert warehouse.current_snapshot_id == 1

    def test_mixed_engines_one_run(self, tiny_star):
        """Two engines, one catalog and buffer pool: the baseline runs a
        query while CJOIN submissions wait, and neither disturbs the other."""
        catalog, star = tiny_star
        warehouse = Warehouse(catalog, star)
        handles = [
            warehouse.submit(city_query("lyon")),
            warehouse.submit(city_query("paris")),
        ]
        assert warehouse.baseline.buffer_pool is warehouse.cjoin.buffer_pool
        baseline_rows = warehouse.baseline.execute(city_query("nice"))
        warehouse.run()
        assert baseline_rows == evaluate_star_query(city_query("nice"), catalog)
        for handle, city in zip(handles, ("lyon", "paris")):
            assert handle.results() == evaluate_star_query(
                city_query(city), catalog
            )
