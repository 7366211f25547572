"""Tests for the warehouse EXPLAIN facility."""

from repro.engine import Warehouse
from repro.tuning import TuningConfig


def test_explain_reports_routing_and_selectivities(tiny_star):
    catalog, star = tiny_star
    warehouse = Warehouse(catalog, star)
    report = warehouse.explain_sql(
        "SELECT COUNT(*) FROM sales, store "
        "WHERE f_store = s_id AND s_city = 'lyon' AND f_qty > 2"
    )
    assert "routing: cjoin" in report
    assert "dimension store: selects 33.3% of 3 rows" in report
    assert "fact predicate evaluated in the Preprocessor" in report
    assert "pipeline idle" in report


def test_explain_reports_sharing_with_in_flight_queries(tiny_star):
    catalog, star = tiny_star
    warehouse = Warehouse(catalog, star, tuning=TuningConfig(batch_size=4))
    warehouse.submit_sql(
        "SELECT COUNT(*) FROM sales, store WHERE f_store = s_id"
    )
    warehouse.service.pump()  # a batch boundary admits it; 4 of 12 rows
    report = warehouse.explain_sql(
        "SELECT COUNT(*) FROM sales, product WHERE f_product = p_id"
    )
    assert "would share the continuous scan with 1 in-flight query" in report
    warehouse.run()  # drain so the fixture-shared state is clean
