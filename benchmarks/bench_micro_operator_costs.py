"""Micro-benchmarks of CJOIN's hot operations.

Supports the cost claims of section 3.2.3: processing one fact tuple
is K probes + K bit-vector ANDs, each of low and bounded cost, with
the per-probe cost independent of the number of registered queries.
"""

import random

from repro import bitvec
from repro.catalog.schema import Column, DataType, ForeignKey, StarSchema, TableSchema
from repro.cjoin.batch import FactBatch
from repro.cjoin.dimtable import DimensionHashTable
from repro.cjoin.filter import Filter


def _star():
    dim = TableSchema(
        "d",
        [Column("id", DataType.INT), Column("v", DataType.INT)],
        primary_key="id",
    )
    fact = TableSchema(
        "f",
        [Column("d_id", DataType.INT)],
        foreign_keys=[ForeignKey("d_id", "d", "id")],
    )
    return StarSchema(fact=fact, dimensions={"d": dim})


def _loaded_filter(query_count: int, rows: int = 2000) -> Filter:
    star = _star()
    table = DimensionHashTable(star.dimension("d"))
    rng = random.Random(7)
    for query_id in range(1, query_count + 1):
        table.mark_query_referencing(query_id)
        selected = [(key, key) for key in rng.sample(range(rows), rows // 4)]
        table.register_selected_rows(query_id, selected)
    return Filter(table, star)


def _probe_loop(filter_, batches):
    for batch in batches:
        filter_.process_batch(batch)


def _tuples(query_count: int, count: int = 2000, batch_rows: int = 250):
    """``count`` fact tuples relevant to every query, as fresh batches."""
    bits = bitvec.all_ones(query_count)
    rng = random.Random(13)
    rows = [(rng.randrange(2500),) for _ in range(count)]
    return [
        FactBatch(
            [(start, start, rows[start:start + batch_rows])],
            [bits] * batch_rows,
        )
        for start in range(0, count, batch_rows)
    ]


def test_probe_throughput_1_query(benchmark):
    filter_ = _loaded_filter(1)
    benchmark.pedantic(
        _probe_loop,
        setup=lambda: ((filter_, _tuples(1)), {}),
        rounds=20,
    )


def test_probe_throughput_128_queries(benchmark):
    """One probe still serves all 128 queries; cost stays the same

    order (the bit-vector AND grows by word count only).
    """
    filter_ = _loaded_filter(128)
    benchmark.pedantic(
        _probe_loop,
        setup=lambda: ((filter_, _tuples(128)), {}),
        rounds=20,
    )


def test_bitvec_and_256_wide(benchmark):
    mask_a = bitvec.all_ones(256)
    mask_b = bitvec.from_string("10" * 128)

    def and_loop():
        total = 0
        for _ in range(10_000):
            total += 1 if mask_a & mask_b else 0
        return total

    assert benchmark(and_loop) == 10_000


def test_distributor_routing(benchmark):
    """iter_query_ids cost on sparse vs dense relevance vectors."""
    dense = bitvec.all_ones(256)

    def route_loop():
        consumed = 0
        for _ in range(200):
            for _query_id in bitvec.iter_query_ids(dense):
                consumed += 1
        return consumed

    assert benchmark(route_loop) == 200 * 256
