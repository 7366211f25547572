"""Ordered dimension indexes and their transparent use by admission

(paper section 5, "Indexes and Materialized Views").
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.catalog import Catalog
from repro.catalog.schema import (
    Column,
    DataType,
    ForeignKey,
    StarSchema,
    TableSchema,
)
from repro.cjoin import CJoinOperator
from repro.errors import StorageError
from repro.query.aggregates import AggregateSpec
from repro.query.predicate import (
    And,
    Between,
    Comparison,
    InList,
    Not,
    TruePredicate,
)
from repro.query.reference import evaluate_star_query
from repro.query.star import StarQuery
from repro.storage.buffer import BufferPool
from repro.storage.iostats import IOStats
from repro.storage.scan import TableScan
from repro.storage.table import Table


class TestSecondaryIndex:
    def test_lookup_returns_matching_rows(self, tiny_star):
        catalog, _ = tiny_star
        store = catalog.table("store")
        store.create_index("s_city")
        assert store.index_lookup("s_city", ["lyon"]) == [(1, "lyon", 100)]
        assert store.index_lookup("s_city", ["lyon", "nice"]) == [
            (1, "lyon", 100),
            (3, "nice", 50),
        ]

    def test_lookup_without_index_raises(self, tiny_star):
        catalog, _ = tiny_star
        with pytest.raises(StorageError):
            catalog.table("store").index_lookup("s_city", ["lyon"])

    def test_create_index_is_idempotent(self, tiny_star):
        catalog, _ = tiny_star
        store = catalog.table("store")
        store.create_index("s_city")
        store.create_index("s_city")
        assert store.has_index("s_city")

    def test_index_maintained_on_insert(self, tiny_star):
        catalog, _ = tiny_star
        store = catalog.table("store")
        store.create_index("s_city")
        store.insert((4, "lyon", 75))
        assert store.index_lookup("s_city", ["lyon"]) == [
            (1, "lyon", 100),
            (4, "lyon", 75),
        ]

    def test_unknown_column_rejected(self, tiny_star):
        catalog, _ = tiny_star
        with pytest.raises(Exception):
            catalog.table("store").create_index("missing")


class TestAdmissionUsesIndexes:
    def _query(self, predicate):
        return StarQuery.build(
            "sales",
            dimension_predicates={"store": predicate},
            aggregates=[AggregateSpec("count")],
        )

    def test_equality_predicate_avoids_dimension_scan(self, tiny_star):
        catalog, star = tiny_star
        catalog.table("store").create_index("s_city")
        stats = IOStats()
        operator = CJoinOperator(
            catalog, star, buffer_pool=BufferPool(64, stats)
        )
        operator.submit(self._query(Comparison("s_city", "=", "lyon")))
        # admission read no store pages: the index served the predicate
        store_heap_id = catalog.table("store").heap.heap_id
        assert stats._last_page.get(store_heap_id) is None

    def test_in_list_uses_index(self, tiny_star):
        catalog, star = tiny_star
        catalog.table("store").create_index("s_city")
        operator = CJoinOperator(catalog, star)
        query = self._query(InList("s_city", frozenset(["lyon", "nice"])))
        assert operator.execute(query) == evaluate_star_query(query, catalog)

    def test_range_predicate_builds_its_index_on_first_use(self, tiny_star):
        catalog, star = tiny_star
        store = catalog.table("store")
        stats = IOStats()
        operator = CJoinOperator(
            catalog, star, buffer_pool=BufferPool(64, stats)
        )
        query = self._query(Between("s_size", 50, 150))
        assert not store.has_index("s_size")
        handle = operator.submit(query)
        assert store.has_index("s_size")
        assert stats._last_page.get(store.heap.heap_id) is None
        operator.run_until_drained()
        assert handle.results() == evaluate_star_query(query, catalog)

    def test_composite_predicate_falls_back_to_scan(self, tiny_star):
        catalog, star = tiny_star
        store = catalog.table("store")
        stats = IOStats()
        operator = CJoinOperator(
            catalog, star, buffer_pool=BufferPool(64, stats)
        )
        query = self._query(
            And(Between("s_size", 50, 150), Not(Comparison("s_city", "=", "nice")))
        )
        handle = operator.submit(query)
        assert stats._last_page.get(store.heap.heap_id) is not None
        operator.run_until_drained()
        assert handle.results() == evaluate_star_query(query, catalog)

    def test_indexed_and_unindexed_admissions_agree(self, ssb_small):
        catalog, star = ssb_small
        query = StarQuery.build(
            "lineorder",
            dimension_predicates={
                "customer": Comparison("c_region", "=", "ASIA")
            },
            aggregates=[AggregateSpec("count")],
        )
        plain = CJoinOperator(catalog, star).execute(query)
        catalog.table("customer").create_index("c_region")
        indexed = CJoinOperator(catalog, star).execute(query)
        assert plain == indexed == evaluate_star_query(query, catalog)


# ----------------------------------------------------------------------
# Property: the ordered index answers exactly what a filtered scan does
# ----------------------------------------------------------------------
DIM = TableSchema(
    "d",
    [Column("d_id", DataType.INT), Column("d_val", DataType.INT),
     Column("d_tag", DataType.STRING)],
    primary_key="d_id",
)
FACT = TableSchema(
    "f",
    [Column("f_d", DataType.INT), Column("f_qty", DataType.INT)],
    foreign_keys=[ForeignKey("f_d", "d", "d_id")],
)
STAR = StarSchema(fact=FACT, dimensions={"d": DIM})

#: few distinct values, so duplicates are the rule; None is SQL NULL
VALUES = st.one_of(st.none(), st.integers(-3, 6))
TAGS = st.one_of(st.none(), st.sampled_from(["a", "b", "c", "dd"]))
OPERANDS = st.integers(-5, 8)


@st.composite
def predicates(draw):
    """Index-servable shapes, including empty and inverted ranges."""
    kind = draw(st.sampled_from(["cmp", "between", "in", "true", "tag"]))
    if kind == "cmp":
        op = draw(st.sampled_from(["=", "<", "<=", ">", ">="]))
        return Comparison("d_val", op, draw(OPERANDS))
    if kind == "between":
        return Between("d_val", draw(OPERANDS), draw(OPERANDS))
    if kind == "in":
        return InList("d_val", draw(st.lists(OPERANDS, max_size=4)))
    if kind == "tag":
        return Between("d_tag", draw(st.sampled_from(["", "a", "b", "z"])),
                       draw(st.sampled_from(["", "b", "c", "z"])))
    return TruePredicate()


def scanned(table, predicate):
    matcher = predicate.bind(table.schema)
    return [row for row in TableScan(table, BufferPool(8)) if matcher(row)]


@st.composite
def dimension_histories(draw):
    """Initial rows, then lookups interleaved with inserts and upserts."""
    size = draw(st.integers(0, 12))
    rows = [(key, draw(VALUES), draw(TAGS)) for key in range(size)]
    events = []
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.booleans()):
            events.append(("select", draw(predicates())))
        else:
            # a key below `size` rewrites a row in place, others append
            key = draw(st.integers(0, size + 3))
            events.append(("upsert", (key, draw(VALUES), draw(TAGS))))
    events.append(("select", draw(predicates())))
    return rows, events


@settings(max_examples=150, deadline=None)
@given(history=dimension_histories())
def test_index_selection_equals_filtered_scan(history):
    rows, events = history
    table = Table.from_rows(DIM, rows, rows_per_page=4)
    for kind, argument in events:
        if kind == "upsert":
            table.upsert(argument)
            continue
        selected = table.select(argument)
        assert selected is not None, argument
        assert selected == scanned(table, argument), argument
        if isinstance(argument, InList):
            assert table.index_lookup(
                argument.column, list(argument.values)
            ) == selected


@settings(max_examples=40, deadline=None)
@given(
    history=dimension_histories(),
    fact=st.lists(st.tuples(st.integers(0, 14), st.integers(0, 9)), max_size=25),
)
def test_index_served_admission_matches_reference(history, fact):
    """End to end: same answers as the reference, across upserts."""
    rows, events = history
    catalog = Catalog()
    catalog.register_table(Table.from_rows(DIM, rows, rows_per_page=4))
    catalog.register_table(Table.from_rows(FACT, fact, rows_per_page=4))
    catalog.register_star(STAR)
    for kind, argument in events:
        if kind == "upsert":
            catalog.table("d").upsert(argument)
            continue
        query = StarQuery.build(
            "f",
            dimension_predicates={"d": argument},
            aggregates=[AggregateSpec("count"), AggregateSpec("sum", "f", "f_qty")],
        )
        assert CJoinOperator(catalog, STAR).execute(query) == (
            evaluate_star_query(query, catalog)
        ), argument


class TestWhatTheIndexDeclines:
    """Shapes and columns the scan must answer."""

    def _table(self):
        return Table.from_rows(DIM, [(1, 5, "a"), (2, None, None), (3, 7, "b")])

    @pytest.mark.parametrize(
        "predicate",
        [
            Comparison("d_val", "!=", 5),
            Comparison("d_val", "=", None),
            Between("d_val", None, 5),
            InList("d_val", [5, None]),  # IN (.., NULL) matches NULL rows
            And(Comparison("d_val", ">", 1), Comparison("d_val", "<", 9)),
            Not(Comparison("d_val", "=", 5)),
            Comparison("d_val", "=", float("nan")),
            Comparison("d_val", "<", "five"),  # operand of another type
        ],
    )
    def test_unservable_predicates_return_none(self, predicate):
        assert self._table().select(predicate) is None

    def test_mixed_type_column_falls_back_to_the_scan(self):
        # only a pre-validated bulk load can hold such a column
        mixed = Table.from_validated_rows(
            DIM, [(1, 5, "a"), (2, "five", "b"), (3, 5, "c"), (4, None, "d")]
        )
        predicate = Comparison("d_val", "=", 5)
        assert mixed.select(predicate) is None
        assert mixed.select(TruePredicate()) == mixed.all_rows()
        with pytest.raises(StorageError, match="cannot be ordered"):
            mixed.index_lookup("d_val", [5])
        # the same table through admission: the scan answers
        catalog = Catalog()
        catalog.register_table(mixed)
        catalog.register_table(
            Table.from_rows(FACT, [(1, 2), (2, 3), (3, 4), (4, 5)])
        )
        catalog.register_star(STAR)
        query = StarQuery.build(
            "f",
            dimension_predicates={"d": predicate},
            aggregates=[AggregateSpec("sum", "f", "f_qty")],
        )
        # d_val = 5 holds for keys 1 and 3: f_qty 2 + 4 (the reference
        # evaluator needs the key index a bulk-loaded table lacks)
        assert CJoinOperator(catalog, STAR).execute(query) == [(6,)]

    def test_nan_column_is_not_ordered(self):
        schema = TableSchema(
            "m", [Column("m_id", DataType.INT), Column("m_x", DataType.FLOAT)],
            primary_key="m_id",
        )
        table = Table.from_rows(schema, [(1, 2.0), (2, float("nan")), (3, 1.0)])
        assert table.select(Comparison("m_x", "<", 5.0)) is None
        assert scanned(table, Comparison("m_x", "<", 5.0)) == [(1, 2.0), (3, 1.0)]

    def test_insert_and_upsert_invalidate(self):
        table = self._table()
        assert table.select(Comparison("d_val", ">=", 5)) == [
            (1, 5, "a"), (3, 7, "b"),
        ]
        table.insert((4, 6, "c"))
        table.upsert((1, 4, "a"))
        assert table.has_index("d_val")
        assert table.select(Comparison("d_val", ">=", 5)) == [
            (3, 7, "b"), (4, 6, "c"),
        ]
        assert table.index_lookup("d_val", [4, 6, 6]) == [
            (1, 4, "a"), (4, 6, "c"),
        ]
