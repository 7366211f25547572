"""Property-based tests for the extension paths:

partitioned CJOIN, snapshot isolation, mid-scan service admission,
and galaxy joins must agree with straightforward reference
computations on random inputs.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.catalog.catalog import Catalog
from repro.catalog.schema import (
    Column,
    DataType,
    ForeignKey,
    StarSchema,
    TableSchema,
)
from repro.cjoin import CJoinOperator
from repro.cjoin.partitioned import (
    PartitionedCJoinOperator,
    as_catalog_table,
)
from repro.query.aggregates import AggregateSpec
from repro.query.predicate import Between
from repro.query.reference import evaluate_star_query
from repro.query.star import StarQuery
from repro.storage.mvcc import Snapshot, TransactionManager, VersionedTable
from repro.storage.partition import PartitionedTable, RangePartitioning
from repro.storage.table import Table

INT = DataType.INT


def _single_dim_star() -> StarSchema:
    dim = TableSchema(
        "d",
        [Column("d_id", INT), Column("d_num", INT)],
        primary_key="d_id",
    )
    fact = TableSchema(
        "f",
        [Column("f_d", INT), Column("f_key", INT), Column("f_val", INT)],
        foreign_keys=[ForeignKey("f_d", "d", "d_id")],
    )
    return StarSchema(fact=fact, dimensions={"d": dim})


@st.composite
def partitioned_cases(draw):
    """Random fact data, partition boundaries, and interval queries."""
    star = _single_dim_star()
    dim_rows = [(i, draw(st.integers(0, 9))) for i in range(1, 4)]
    fact_rows = [
        (
            draw(st.integers(1, 3)),
            draw(st.integers(0, 30)),
            draw(st.integers(0, 100)),
        )
        for _ in range(draw(st.integers(1, 30)))
    ]
    boundary_set = draw(st.sets(st.integers(1, 29), min_size=1, max_size=3))
    boundaries = tuple(sorted(boundary_set))
    queries = []
    for _ in range(draw(st.integers(1, 3))):
        low = draw(st.integers(0, 30))
        high = draw(st.integers(low, 30))
        queries.append(
            StarQuery.build(
                "f",
                fact_predicate=Between("f_key", low, high),
                aggregates=[
                    AggregateSpec("count"),
                    AggregateSpec("sum", "f", "f_val"),
                ],
            )
        )
    return star, dim_rows, fact_rows, boundaries, queries


@settings(max_examples=40, deadline=None)
@given(case=partitioned_cases())
def test_partitioned_cjoin_matches_reference(case):
    star, dim_rows, fact_rows, boundaries, queries = case
    partitioning = RangePartitioning("f_key", boundaries)
    partitioned = PartitionedTable.from_rows(
        star.fact, partitioning, fact_rows, rows_per_page=4
    )
    catalog = Catalog()
    catalog.register_table(Table.from_rows(star.dimension("d"), dim_rows))
    catalog.register_table(as_catalog_table(partitioned))
    catalog.register_star(star)
    operator = PartitionedCJoinOperator(catalog, star, partitioned)
    handles = [operator.submit(query) for query in queries]
    operator.run_until_drained()
    for query, handle in zip(queries, handles):
        assert handle.results() == evaluate_star_query(query, catalog)


@settings(max_examples=40, deadline=None)
@given(case=partitioned_cases())
def test_partition_pruning_never_scans_more_than_full(case):
    star, dim_rows, fact_rows, boundaries, queries = case
    partitioning = RangePartitioning("f_key", boundaries)
    partitioned = PartitionedTable.from_rows(
        star.fact, partitioning, fact_rows, rows_per_page=4
    )
    catalog = Catalog()
    catalog.register_table(Table.from_rows(star.dimension("d"), dim_rows))
    catalog.register_table(as_catalog_table(partitioned))
    catalog.register_star(star)
    operator = PartitionedCJoinOperator(catalog, star, partitioned)
    handle = operator.submit(queries[0])
    operator.run_until_drained()
    assert handle.done
    # one query sees at most one full pass over the whole table (+1
    # tuple of lookahead for the wrap-around)
    assert operator.stats.tuples_scanned <= partitioned.row_count + 1


@st.composite
def midscan_admission_cases(draw):
    """Random data plus queries submitted at random scan offsets."""
    star = _single_dim_star()
    dim_rows = [(i, draw(st.integers(0, 9))) for i in range(1, 4)]
    fact_rows = [
        (
            draw(st.integers(1, 3)),
            draw(st.integers(0, 30)),
            draw(st.integers(0, 100)),
        )
        for _ in range(draw(st.integers(4, 40)))
    ]
    submissions = []
    for _ in range(draw(st.integers(2, 5))):
        low = draw(st.integers(0, 30))
        high = draw(st.integers(low, 30))
        kind = draw(st.sampled_from(["fact", "dimension", "plain"]))
        query = StarQuery.build(
            "f",
            fact_predicate=(
                Between("f_key", low, high) if kind == "fact" else None
            ),
            dimension_predicates=(
                {"d": Between("d_num", 0, draw(st.integers(0, 9)))}
                if kind == "dimension"
                else {}
            ),
            aggregates=[
                AggregateSpec("count"),
                AggregateSpec("sum", "f", "f_val"),
            ],
        )
        #: pipeline batches to advance before this submission lands —
        #: scatters admissions across arbitrary mid-cycle offsets
        submissions.append((query, draw(st.integers(0, 8))))
    return star, dim_rows, fact_rows, submissions


@settings(max_examples=40, deadline=None)
@given(case=midscan_admission_cases())
def test_midscan_service_admission_matches_reference(case):
    """Property: queries joining the live service at arbitrary scan
    offsets — while earlier queries are mid-cycle — return exactly the
    reference evaluator's rows (the paper's claim that admission point
    never affects answers)."""
    from repro.cjoin.executor import ExecutorConfig
    from repro.engine.service import WarehouseService
    from repro.tuning import TuningConfig

    star, dim_rows, fact_rows, submissions = case
    catalog = Catalog()
    catalog.register_table(Table.from_rows(star.dimension("d"), dim_rows))
    catalog.register_table(Table.from_rows(star.fact, fact_rows))
    catalog.register_star(star)
    operator = CJoinOperator(
        catalog, star, executor_config=ExecutorConfig(batch_size=3)
    )
    service = WarehouseService(operator, tuning=TuningConfig(max_in_flight=2))
    handles = []
    for query, offset in submissions:
        service.pump(batches=offset)
        handles.append(service.submit(query))
    service.drain()
    for (query, _), handle in zip(submissions, handles):
        assert handle.results() == evaluate_star_query(query, catalog)
    # telemetry covered every admission, including queued ones
    assert len(operator.stats.latency_records) == len(submissions)


@st.composite
def update_histories(draw):
    """An initial fact load plus a sequence of commits."""
    star = _single_dim_star()
    dim_rows = [(i, i * 10) for i in range(1, 4)]
    initial = [
        (draw(st.integers(1, 3)), draw(st.integers(0, 5)), draw(st.integers(0, 50)))
        for _ in range(draw(st.integers(1, 10)))
    ]
    commits = []
    for _ in range(draw(st.integers(1, 4))):
        inserts = [
            (
                draw(st.integers(1, 3)),
                draw(st.integers(0, 5)),
                draw(st.integers(0, 50)),
            )
            for _ in range(draw(st.integers(0, 4)))
        ]
        commits.append(inserts)
    return star, dim_rows, initial, commits


@settings(max_examples=40, deadline=None)
@given(history=update_histories(), data=st.data())
def test_snapshot_queries_see_committed_prefix(history, data):
    """Property: a query tagged with snapshot k sees exactly the rows

    committed by transactions 1..k (plus the bulk load), regardless of
    how many later commits exist — evaluated through the real CJOIN
    operator with the virtual-predicate mechanism.
    """
    star, dim_rows, initial, commits = history
    catalog = Catalog()
    catalog.register_table(Table.from_rows(star.dimension("d"), dim_rows))
    fact = Table.from_rows(star.fact, initial)
    catalog.register_table(fact)
    catalog.register_star(star)
    versioned = VersionedTable(fact)
    transactions = TransactionManager()
    prefix_counts = [len(initial)]
    for inserts in commits:
        transactions.commit(versioned, inserts=inserts)
        prefix_counts.append(prefix_counts[-1] + len(inserts))

    snapshot_id = data.draw(
        st.integers(0, len(commits)), label="snapshot_id"
    )
    query = StarQuery.build(
        "f",
        aggregates=[AggregateSpec("count")],
        snapshot_id=snapshot_id,
    )
    operator = CJoinOperator(catalog, star, versioned_fact=versioned)
    handle = operator.submit(query)
    operator.run_until_drained()
    assert handle.results() == [(prefix_counts[snapshot_id],)]
    # cross-check against the versioned reference evaluator
    assert handle.results() == evaluate_star_query(
        query, catalog, versioned_fact=versioned
    )
    # and against direct visibility computation
    assert prefix_counts[snapshot_id] == len(
        versioned.visible_rows(Snapshot(snapshot_id))
    )
