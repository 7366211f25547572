"""Property-based tests (hypothesis) on core invariants.

The centerpiece is engine equivalence: for random data and random
star queries, CJOIN, the baseline hash-join engine, and the naive
reference evaluator must produce identical results — including under
randomized admission interleavings.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro import bitvec
from repro.baseline import QueryAtATimeEngine
from repro.catalog.catalog import Catalog
from repro.catalog.schema import (
    Column,
    DataType,
    ForeignKey,
    StarSchema,
    TableSchema,
)
from repro.cjoin import CJoinOperator
from repro.cjoin.executor import ExecutorConfig
from repro.query.aggregates import AggregateSpec
from repro.query.predicate import (
    And,
    Between,
    Comparison,
    InList,
    Not,
    Or,
    TruePredicate,
    implied_interval,
)
from repro.query.reference import evaluate_star_query
from repro.query.star import ColumnRef, StarQuery
from repro.storage.buffer import BufferPool
from repro.storage.table import Table
from tests.conftest import take_rows

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
CATEGORIES = ("red", "green", "blue")


def _star_schema() -> StarSchema:
    dim_a = TableSchema(
        "dima",
        [Column("a_id", DataType.INT), Column("a_cat", DataType.STRING),
         Column("a_num", DataType.INT)],
        primary_key="a_id",
    )
    dim_b = TableSchema(
        "dimb",
        [Column("b_id", DataType.INT), Column("b_num", DataType.INT)],
        primary_key="b_id",
    )
    fact = TableSchema(
        "fact",
        [
            Column("f_a", DataType.INT),
            Column("f_b", DataType.INT),
            Column("f_val", DataType.INT),
        ],
        foreign_keys=[
            ForeignKey("f_a", "dima", "a_id"),
            ForeignKey("f_b", "dimb", "b_id"),
        ],
    )
    return StarSchema(fact=fact, dimensions={"dima": dim_a, "dimb": dim_b})


@st.composite
def warehouses(draw):
    """A random populated catalog over the fixed two-dimension star."""
    star = _star_schema()
    a_count = draw(st.integers(min_value=1, max_value=6))
    b_count = draw(st.integers(min_value=1, max_value=4))
    dim_a_rows = [
        (
            i,
            draw(st.sampled_from(CATEGORIES)),
            draw(st.integers(min_value=0, max_value=20)),
        )
        for i in range(1, a_count + 1)
    ]
    dim_b_rows = [
        (i, draw(st.integers(min_value=0, max_value=20)))
        for i in range(1, b_count + 1)
    ]
    fact_count = draw(st.integers(min_value=0, max_value=40))
    fact_rows = [
        (
            draw(st.integers(min_value=1, max_value=a_count)),
            draw(st.integers(min_value=1, max_value=b_count)),
            draw(st.integers(min_value=-5, max_value=50)),
        )
        for _ in range(fact_count)
    ]
    catalog = Catalog()
    catalog.register_table(
        Table.from_rows(star.dimension("dima"), dim_a_rows, rows_per_page=3)
    )
    catalog.register_table(
        Table.from_rows(star.dimension("dimb"), dim_b_rows, rows_per_page=3)
    )
    catalog.register_table(
        Table.from_rows(star.fact, fact_rows, rows_per_page=4)
    )
    catalog.register_star(star)
    return catalog, star


@st.composite
def dim_a_predicates(draw):
    kind = draw(st.sampled_from(["true", "eq", "between", "in", "or", "not"]))
    if kind == "true":
        return TruePredicate()
    if kind == "eq":
        return Comparison("a_cat", "=", draw(st.sampled_from(CATEGORIES)))
    if kind == "between":
        low = draw(st.integers(min_value=0, max_value=20))
        high = draw(st.integers(min_value=low, max_value=20))
        return Between("a_num", low, high)
    if kind == "in":
        values = draw(
            st.sets(st.sampled_from(CATEGORIES), min_size=1, max_size=3)
        )
        return InList("a_cat", frozenset(values))
    if kind == "or":
        return Or(
            Comparison("a_num", "<", draw(st.integers(0, 20))),
            Comparison("a_cat", "=", draw(st.sampled_from(CATEGORIES))),
        )
    return Not(Comparison("a_num", ">", draw(st.integers(0, 20))))


@st.composite
def star_queries(draw):
    predicates = {}
    if draw(st.booleans()):
        predicates["dima"] = draw(dim_a_predicates())
    if draw(st.booleans()):
        low = draw(st.integers(min_value=0, max_value=20))
        predicates["dimb"] = Comparison("b_num", ">=", low)
    fact_predicate = None
    if draw(st.booleans()):
        fact_predicate = Comparison(
            "f_val", draw(st.sampled_from([">", "<=", "!="])),
            draw(st.integers(-5, 50)),
        )
    group_by = []
    if draw(st.booleans()):
        group_by.append(ColumnRef("dima", "a_cat"))
    if draw(st.booleans()):
        group_by.append(ColumnRef("dimb", "b_num"))
    aggregates = [AggregateSpec("count")]
    if draw(st.booleans()):
        aggregates.append(AggregateSpec("sum", "fact", "f_val"))
    if draw(st.booleans()):
        aggregates.append(
            AggregateSpec("min", "dima", "a_num"),
        )
    return StarQuery.build(
        "fact",
        dimension_predicates=predicates,
        fact_predicate=fact_predicate,
        group_by=group_by,
        aggregates=aggregates,
    )


# ----------------------------------------------------------------------
# Engine equivalence
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(warehouse=warehouses(), queries=st.lists(star_queries(), min_size=1, max_size=5))
def test_cjoin_baseline_reference_agree(warehouse, queries):
    catalog, star = warehouse
    expected = [evaluate_star_query(query, catalog) for query in queries]

    operator = CJoinOperator(catalog, star)
    handles = [operator.submit(query) for query in queries]
    operator.run_until_drained()
    for query, handle, rows in zip(queries, handles, expected):
        assert handle.results() == rows

    engine = QueryAtATimeEngine(catalog, star, BufferPool(16))
    baseline_rows = engine.execute_concurrent(queries)
    assert baseline_rows == expected


@settings(max_examples=25, deadline=None)
@given(
    warehouse=warehouses(),
    queries=st.lists(star_queries(), min_size=2, max_size=4),
    gaps=st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=3),
)
def test_cjoin_correct_under_interleaved_admission(warehouse, queries, gaps):
    """Queries admitted at arbitrary scan offsets still see exactly

    one full cycle each (the wrap-around finalization invariant).
    """
    catalog, star = warehouse
    operator = CJoinOperator(
        catalog, star, executor_config=ExecutorConfig(batch_size=3)
    )
    handles = []
    for index, query in enumerate(queries):
        handles.append(operator.submit(query))
        for _ in range(gaps[index % len(gaps)]):
            operator.executor.step()
    operator.run_until_drained()
    for query, handle in zip(queries, handles):
        assert handle.results() == evaluate_star_query(query, catalog)


# ----------------------------------------------------------------------
# Bit-vector algebra
# ----------------------------------------------------------------------
query_ids = st.integers(min_value=1, max_value=300)


@given(st.sets(query_ids, max_size=20))
def test_bitvec_roundtrip_set_iterate(ids):
    vector = 0
    for query_id in ids:
        vector = bitvec.set_bit(vector, query_id)
    assert set(bitvec.iter_query_ids(vector)) == ids
    assert bitvec.popcount(vector) == len(ids)


@given(st.sets(query_ids, max_size=20), query_ids)
def test_bitvec_clear_removes_exactly_one(ids, target):
    vector = 0
    for query_id in ids:
        vector = bitvec.set_bit(vector, query_id)
    cleared = bitvec.clear_bit(vector, target)
    assert set(bitvec.iter_query_ids(cleared)) == ids - {target}


@given(st.integers(min_value=0, max_value=2**80), st.integers(0, 80))
def test_bitvec_mask_idempotent(vector, width):
    masked = bitvec.mask_to_width(vector, width)
    assert bitvec.mask_to_width(masked, width) == masked
    assert masked <= bitvec.all_ones(width)


# ----------------------------------------------------------------------
# Implied intervals are always sound
# ----------------------------------------------------------------------
@st.composite
def int_predicates(draw, depth=0):
    if depth >= 2:
        kind = draw(st.sampled_from(["cmp", "between", "in"]))
    else:
        kind = draw(
            st.sampled_from(["cmp", "between", "in", "and", "or", "not"])
        )
    if kind == "cmp":
        op = draw(st.sampled_from(["=", "!=", "<", "<=", ">", ">="]))
        return Comparison("a_num", op, draw(st.integers(-10, 30)))
    if kind == "between":
        low = draw(st.integers(-10, 30))
        return Between("a_num", low, draw(st.integers(low, 30)))
    if kind == "in":
        return InList(
            "a_num",
            frozenset(
                draw(st.sets(st.integers(-10, 30), min_size=1, max_size=4))
            ),
        )
    if kind == "and":
        return And(
            draw(int_predicates(depth + 1)), draw(int_predicates(depth + 1))
        )
    if kind == "or":
        return Or(
            draw(int_predicates(depth + 1)), draw(int_predicates(depth + 1))
        )
    return Not(draw(int_predicates(depth + 1)))


_INTERVAL_SCHEMA = TableSchema("t", [Column("a_num", DataType.INT)])


@settings(max_examples=200)
@given(predicate=int_predicates(), value=st.integers(-15, 35))
def test_implied_interval_never_excludes_matching_values(predicate, value):
    if not predicate.bind(_INTERVAL_SCHEMA)((value,)):
        return
    low, high, low_inc, high_inc = implied_interval(predicate, "a_num")
    if low is not None:
        assert value >= low if low_inc else value > low
    if high is not None:
        assert value <= high if high_inc else value < high


# ----------------------------------------------------------------------
# Dictionary codec
# ----------------------------------------------------------------------
@given(st.lists(st.text(min_size=0, max_size=8), min_size=1, max_size=30))
def test_dictionary_codec_roundtrip_and_order(values):
    from repro.storage.compression import DictionaryCodec

    codec = DictionaryCodec(values)
    for value in values:
        assert codec.decode(codec.encode(value)) == value
    distinct = sorted(set(values))
    codes = [codec.encode(value) for value in distinct]
    assert codes == sorted(codes)


# ----------------------------------------------------------------------
# Continuous scan order stability
# ----------------------------------------------------------------------
@given(
    st.integers(min_value=1, max_value=50),
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=2, max_value=4),
)
def test_continuous_scan_cycles_are_identical(rows, rows_per_page, cycles):
    schema = TableSchema("t", [Column("k", DataType.INT)])
    table = Table.from_rows(
        schema, [(i,) for i in range(rows)], rows_per_page
    )
    from repro.storage.scan import ContinuousScan

    scan = ContinuousScan(table, BufferPool(4))
    first = take_rows(scan, rows)
    for cycle in range(1, cycles):
        assert take_rows(scan, rows, max_rows=cycle + 1) == first
