"""Whole-system integration: all 13 SSB queries through the SQL path.

render(benchmark query) -> parse -> submit -> CJOIN -> results must
equal the reference evaluator and the baseline engine's answer for
the same parsed query, on a shared warehouse, for every query the
benchmark defines.
"""

import pytest

from repro.engine import Warehouse
from repro.query.reference import evaluate_star_query
from repro.sql.render import render_star_query
from repro.ssb.queries import ALL_QUERY_NAMES, ssb_query


@pytest.fixture(scope="module")
def warehouse():
    return Warehouse.from_ssb(scale_factor=0.0005, seed=11)


@pytest.mark.parametrize("name", ALL_QUERY_NAMES)
def test_every_ssb_query_through_sql_and_both_engines(warehouse, name):
    query = ssb_query(name)
    sql = render_star_query(query, warehouse.star)
    cjoin_handle = warehouse.submit_sql(sql)
    warehouse.run()
    [baseline_rows] = warehouse.baseline.execute_concurrent(
        [cjoin_handle.query]
    )
    expected = evaluate_star_query(query, warehouse.catalog)
    assert cjoin_handle.results() == expected, name
    assert baseline_rows == expected, name


def test_all_queries_in_one_shared_batch(warehouse):
    """All 13 queries concurrently on one scan, via SQL."""
    handles = {}
    for name in ALL_QUERY_NAMES:
        sql = render_star_query(ssb_query(name), warehouse.star)
        handles[name] = warehouse.submit_sql(sql)
    scanned_before = warehouse.cjoin.stats.tuples_scanned
    warehouse.run()
    scanned = warehouse.cjoin.stats.tuples_scanned - scanned_before
    fact_rows = warehouse.catalog.table("lineorder").row_count
    # 13 queries, at most ~one extra partial cycle of shared scanning
    assert scanned <= 2 * fact_rows + 1
    for name, handle in handles.items():
        expected = evaluate_star_query(ssb_query(name), warehouse.catalog)
        assert handle.results() == expected, name
