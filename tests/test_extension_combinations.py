"""Combinations of extensions working together."""

from repro.cjoin.executor import ExecutorConfig
from repro.cjoin.partitioned import PartitionedCJoinOperator
from repro.query.aggregates import AggregateSpec
from repro.query.predicate import Between
from repro.query.reference import evaluate_star_query
from repro.query.star import StarQuery
from tests.test_cjoin_partitioned import partitioned_setup, count_query


def test_partitioned_operator_with_sort_aggregation():
    catalog, star, partitioned = partitioned_setup()
    operator = PartitionedCJoinOperator(
        catalog, star, partitioned, aggregation_mode="sort"
    )
    query = count_query(Between("f_qty", 2, 5))
    assert operator.execute(query) == evaluate_star_query(query, catalog)


def test_snapshots_with_adaptive_ordering():
    """MVCC virtual predicates + run-time filter reordering together."""
    import dataclasses

    from repro.cjoin import CJoinOperator
    from repro.cjoin.optimizer import DropRatePolicy
    from repro.query.predicate import Comparison
    from repro.storage.mvcc import TransactionManager, VersionedTable
    from tests.conftest import make_tiny_star

    catalog, star = make_tiny_star()
    versioned = VersionedTable(catalog.table("sales"))
    transactions = TransactionManager()
    transactions.commit(versioned, inserts=[(1, 10, 50, 250)])
    operator = CJoinOperator(
        catalog,
        star,
        versioned_fact=versioned,
        ordering_policy=DropRatePolicy(),
        executor_config=ExecutorConfig(
            batch_size=4, reoptimize_interval=8, profile_sample_rate=0
        ),
    )
    query = dataclasses.replace(
        StarQuery.build(
            "sales",
            dimension_predicates={
                "store": Comparison("s_city", "=", "lyon"),
                "product": Comparison("p_category", "=", "food"),
            },
            aggregates=[AggregateSpec("sum", "sales", "f_qty")],
        ),
        snapshot_id=1,
    )
    handle = operator.submit(query)
    operator.run_until_drained()
    assert handle.results() == evaluate_star_query(
        query, catalog, versioned_fact=versioned
    )
