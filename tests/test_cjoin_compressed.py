"""CJOIN over a dictionary-compressed fact table (section 5)."""

from repro.catalog.catalog import Catalog
from repro.cjoin import CJoinOperator
from repro.query.aggregates import AggregateSpec
from repro.query.predicate import Comparison
from repro.query.reference import evaluate_star_query
from repro.query.star import ColumnRef, StarQuery
from repro.ssb.generator import SSBGenerator
from repro.ssb.schema import ssb_star_schema
from repro.storage.compression import (
    DecompressingContinuousScan,
    compress_table,
)
from repro.storage.buffer import BufferPool
from repro.storage.table import Table
from tests.conftest import take_rows


class CompressedCJoinOperator(CJoinOperator):
    """CJOIN whose scan source decompresses pages as rows leave it.

    CJOIN is storage-agnostic: the operator's one scan-source hook is
    all a different physical layout has to override.
    """

    def __init__(self, catalog, star, compressed, **kwargs):
        self.compressed = compressed
        super().__init__(catalog, star, **kwargs)

    def _make_scan(self):
        return DecompressingContinuousScan(self.compressed, self.buffer_pool)


def compressed_ssb():
    """A milli-SSB whose fact string columns are dictionary-coded."""
    star = ssb_star_schema()
    generator = SSBGenerator(scale_factor=0.0005, seed=19)
    data = generator.generate_all()
    row_catalog = Catalog()
    for name in ("date", "customer", "supplier", "part"):
        row_catalog.register_table(
            Table.from_rows(star.dimension(name), data[name])
        )
    fact = Table.from_rows(star.fact, data["lineorder"])
    row_catalog.register_table(fact)
    row_catalog.register_star(star)
    compressed = compress_table(
        fact, ["lo_orderpriority", "lo_shipmode"]
    )
    return row_catalog, star, compressed


class TestDecompressingScan:
    def test_yields_logical_tuples(self):
        catalog, star, compressed = compressed_ssb()
        scan = DecompressingContinuousScan(compressed, BufferPool(64))
        original = catalog.table("lineorder").all_rows()
        assert take_rows(scan, 5, max_rows=2) == list(enumerate(original[:5]))

    def test_wraps_stably(self):
        _, _, compressed = compressed_ssb()
        scan = DecompressingContinuousScan(compressed, BufferPool(64))
        rows = compressed.row_count
        first = take_rows(scan, rows, max_rows=100)
        assert take_rows(scan, rows, max_rows=7) == first


class TestCJoinOnCompressedFact:
    def test_matches_reference_on_row_storage(self):
        catalog, star, compressed = compressed_ssb()
        operator = CompressedCJoinOperator(catalog, star, compressed)
        assert operator.preprocessor.scan is operator.scan
        queries = [
            StarQuery.build(
                "lineorder",
                dimension_predicates={
                    "date": Comparison("d_year", "=", 1992)
                },
                group_by=[ColumnRef("date", "d_month")],
                aggregates=[AggregateSpec("sum", "lineorder", "lo_revenue")],
            ),
            StarQuery.build(
                "lineorder",
                # predicate on a *compressed* fact column, evaluated on
                # the decompressed logical tuple
                fact_predicate=Comparison("lo_shipmode", "=", "AIR"),
                aggregates=[AggregateSpec("count")],
            ),
        ]
        handles = [operator.submit(query) for query in queries]
        operator.run_until_drained()
        for query, handle in zip(queries, handles):
            assert handle.results() == evaluate_star_query(query, catalog)

    def test_compression_actually_shrinks_this_fact(self):
        _, _, compressed = compressed_ssb()
        assert compressed.compression_ratio() > 1.05
