"""Property: every storage representation answers queries identically.

Row store, column store (CJOIN merge-scan), and dictionary-compressed
storage must be interchangeable — same random data, same random star
queries, same results.
"""

from hypothesis import given, settings

from repro.catalog.catalog import Catalog
from repro.cjoin.columnstore import ColumnStoreCJoinOperator, fact_columns_needed
from repro.query.reference import evaluate_star_query
from repro.storage.column import ColumnStoreTable
from repro.storage.compression import compress_table
from tests.test_cjoin_compressed import CompressedCJoinOperator
from tests.test_properties import star_queries, warehouses


def _column_catalog(catalog, star):
    """Clone ``catalog`` with the fact table stored column-wise."""
    fact = catalog.table(star.fact.name)
    column_fact = ColumnStoreTable.from_rows(
        star.fact, fact.all_rows(), values_per_page=4
    )
    clone = Catalog()
    for name in star.dimension_names():
        clone.register_table(catalog.table(name))
    clone.register_table(column_fact)
    clone.register_star(star)
    return clone, column_fact


@settings(max_examples=30, deadline=None)
@given(warehouse=warehouses(), query=star_queries())
def test_column_store_cjoin_equals_row_store(warehouse, query):
    catalog, star = warehouse
    expected = evaluate_star_query(query, catalog)
    column_catalog, column_fact = _column_catalog(catalog, star)
    operator = ColumnStoreCJoinOperator(
        column_catalog,
        star,
        column_fact,
        scanned_columns=fact_columns_needed(query, star)
        | {fk.column for fk in star.fact.foreign_keys},
    )
    assert operator.execute(query) == expected


@settings(max_examples=30, deadline=None)
@given(warehouse=warehouses(), query=star_queries())
def test_compressed_fact_cjoin_equals_row_store(warehouse, query):
    catalog, star = warehouse
    expected = evaluate_star_query(query, catalog)
    fact = catalog.table(star.fact.name)
    if fact.row_count == 0:
        return  # compression of an empty table is trivial; skip
    compressed = compress_table(fact, [])  # codecs optional: none here
    operator = CompressedCJoinOperator(catalog, star, compressed)
    assert operator.execute(query) == expected
