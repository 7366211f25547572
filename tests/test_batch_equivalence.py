"""The pipeline vs the reference evaluator, at every batch size.

Batch size is pure granularity (DESIGN.md section 5) — for every
workload, batch size (down to one row per batch), admission
interleaving, and update schedule the pipeline must produce the rows
of the independent evaluator in ``query/reference.py``.  These property
tests drive it over randomized SSB workloads, mid-scan admissions (the
control-tuple ordering hazard), mid-scan updates under snapshot
isolation, and the degenerate inputs of the whole-batch passes
(batches that drop in full, an empty fact table, bit-vectors wider
than a machine word), asserting equality each time.
"""

from __future__ import annotations

import dataclasses

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.catalog.catalog import Catalog
from repro.cjoin import CJoinOperator
from repro.cjoin.executor import ExecutorConfig
from repro.query.aggregates import AggregateSpec
from repro.query.predicate import Comparison
from repro.query.reference import evaluate_star_query
from repro.query.star import StarQuery
from repro.ssb.queries import ssb_workload_generator
from repro.storage.mvcc import TransactionManager, VersionedTable
from repro.storage.table import Table
from tests.conftest import make_tiny_star


def _run_all(catalog, star, queries, config, **operator_kwargs):
    operator = CJoinOperator(
        catalog, star, executor_config=config, **operator_kwargs
    )
    handles = [operator.submit(query) for query in queries]
    operator.run_until_drained()
    return [handle.results() for handle in handles]


def _assert_pipeline_matches_reference(catalog, star, queries, batch_size):
    """pipeline == query/reference.py, query by query."""
    expected = [evaluate_star_query(query, catalog) for query in queries]
    config = ExecutorConfig(batch_size=batch_size)
    assert _run_all(catalog, star, queries, config) == expected


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    count=st.integers(min_value=1, max_value=10),
    selectivity=st.sampled_from([0.02, 0.1, 0.4]),
    batch_size=st.sampled_from([1, 3, 64, 256]),
)
def test_random_workloads_equivalent(
    ssb_small, seed, count, selectivity, batch_size
):
    """Random SSB workloads: the reference's rows at every batch size."""
    catalog, star = ssb_small
    queries = ssb_workload_generator(seed=seed, catalog=catalog).generate(
        count, selectivity=selectivity
    )
    _assert_pipeline_matches_reference(catalog, star, queries, batch_size)


def test_more_queries_than_a_machine_word_equivalent(ssb_small):
    """Past 64 concurrent queries bit-vectors are multi-limb ints; the
    column passes must carry them exactly."""
    catalog, star = ssb_small
    queries = ssb_workload_generator(seed=5, catalog=catalog).generate(
        70, selectivity=0.1
    )
    _assert_pipeline_matches_reference(catalog, star, queries, batch_size=64)


def _lyon_and_atlantis():
    return [
        StarQuery.build(
            "sales",
            dimension_predicates={"store": Comparison("s_city", "=", city)},
            aggregates=[AggregateSpec("count")],
        )
        for city in ("lyon", "atlantis")
    ]


def test_all_rows_dropped_at_one_filter():
    """A predicate matching nothing drops every batch in full.

    Exercises the all-dropped compaction (an empty ``live`` list) and
    the Distributor's empty-batch early-out;
    the query must still complete with zero rows.
    """
    catalog, star = make_tiny_star()
    queries = _lyon_and_atlantis()
    _assert_pipeline_matches_reference(catalog, star, queries, batch_size=4)
    assert evaluate_star_query(queries[0], catalog) == [(5,)]
    assert evaluate_star_query(queries[1], catalog) == []


def test_empty_fact_table_drains_clean():
    """Zero fact batches: submission still completes."""
    catalog, star = make_tiny_star()
    empty_catalog = Catalog()
    for name in ("store", "product"):
        empty_catalog.register_table(catalog.table(name))
    empty_catalog.register_table(
        Table.from_rows(star.fact, [], rows_per_page=4)
    )
    empty_catalog.register_star(star)
    _assert_pipeline_matches_reference(
        empty_catalog, star, _lyon_and_atlantis(), batch_size=4
    )


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    steps_between=st.integers(min_value=0, max_value=7),
    batch_size=st.sampled_from([1, 2, 5, 64]),
)
def test_mid_scan_admission_equivalent(
    ssb_small, seed, steps_between, batch_size
):
    """Queries admitted mid-scan (control tuples between batches).

    Stepping the executor between submissions puts QueryStart/QueryEnd
    control tuples at arbitrary points of the stream; fact batches
    must be chopped around them so no row reaches a query before its
    QueryStart or after its QueryEnd.
    """
    catalog, star = ssb_small
    queries = ssb_workload_generator(seed=seed, catalog=catalog).generate(
        4, selectivity=0.1
    )

    operator = CJoinOperator(
        catalog, star, executor_config=ExecutorConfig(batch_size=batch_size)
    )
    handles = []
    for query in queries:
        handles.append(operator.submit(query))
        for _ in range(steps_between):
            operator.executor.step()
    operator.run_until_drained()
    expected = [evaluate_star_query(query, catalog) for query in queries]
    assert [handle.results() for handle in handles] == expected


@settings(max_examples=15, deadline=None)
@given(
    delete_positions=st.lists(
        st.integers(min_value=0, max_value=11), max_size=4, unique=True
    ),
    insert_count=st.integers(min_value=0, max_value=3),
    pre_steps=st.integers(min_value=0, max_value=4),
    batch_size=st.sampled_from([1, 3, 7, 64]),
)
def test_updates_mid_scan_equivalent(
    delete_positions, insert_count, pre_steps, batch_size
):
    """Updates committed mid-scan under snapshot isolation.

    An old-snapshot query straddling the commit and a new-snapshot
    query admitted after it must each see exactly the rows of their
    snapshot (the section 3.5 virtual predicate), wherever the commit
    falls relative to the scan and the batch boundaries.
    """

    def count_query(snapshot_id):
        return dataclasses.replace(
            StarQuery.build(
                "sales",
                aggregates=[
                    AggregateSpec("count"),
                    AggregateSpec("sum", "sales", "f_qty"),
                ],
            ),
            snapshot_id=snapshot_id,
        )

    catalog, star = make_tiny_star()
    versioned = VersionedTable(catalog.table("sales"))
    transactions = TransactionManager()
    operator = CJoinOperator(
        catalog,
        star,
        versioned_fact=versioned,
        executor_config=ExecutorConfig(batch_size=batch_size),
    )
    handles = [operator.submit(count_query(snapshot_id=0))]
    for _ in range(pre_steps):
        operator.executor.step()
    transactions.commit(
        versioned,
        inserts=[(1, 10, 100 + i, 1) for i in range(insert_count)],
        deletes=sorted(delete_positions),
    )
    handles.append(operator.submit(count_query(snapshot_id=1)))
    operator.run_until_drained()
    for handle in handles:
        assert handle.results() == evaluate_star_query(
            handle.query, catalog, versioned_fact=versioned
        )


def test_sort_aggregation_batched_equivalent(ssb_small, ssb_workload):
    """The sort-based operator's consume_rows matches hash results."""
    catalog, star = ssb_small
    hash_results = _run_all(catalog, star, ssb_workload, ExecutorConfig())
    sort_results = _run_all(
        catalog, star, ssb_workload, ExecutorConfig(), aggregation_mode="sort"
    )
    assert hash_results == sort_results


def test_batch_liveness_views_stay_in_sync(ssb_small, ssb_workload):
    """The live list and the bit-vector column agree on who is alive.

    A Filter compacts ``live`` and leaves bit-vector 0 on every row it
    drops; ``union_bits`` reduces the whole column on the strength of
    that, so a real filter chain must keep the two consistent at every
    stage (``alive`` is the live list as a mask).
    """
    from repro import bitvec
    from repro.cjoin.batch import FactBatch

    def rows_with_bits(batch):
        return bitvec.pack_positions(
            row for row, bits in enumerate(batch.bitvectors) if bits
        )

    catalog, star = ssb_small
    operator = CJoinOperator(catalog, star)
    for query in ssb_workload[:6]:
        operator.submit(query)
    preprocessor = operator.pipeline.preprocessor
    checked_batches = 0
    for _ in range(20):
        for item in preprocessor.next_batched_items(64):
            if not isinstance(item, FactBatch):
                operator.pipeline.process_item(item)
                continue
            assert item.alive == rows_with_bits(item)
            for stage_filter in operator.pipeline.filters:
                stage_filter.process_batch(item)
                assert item.alive == rows_with_bits(item)
                assert item.live_count == bitvec.popcount(item.alive)
                assert list(item.live) == sorted(item.live)
            checked_batches += 1
            operator.pipeline.distributor.process(item)
        operator.manager.process_finished()
    assert checked_batches > 0


def test_batched_probe_accounting(ssb_small, ssb_workload):
    """Probes are shared: stats stay bounded per tuple.

    The paper's section 3.2.3 bound — at most one probe per dimension
    per scanned tuple — must survive vectorization (a batch can only
    do fewer, via the batch-level skip on the bit-vector union).
    """
    catalog, star = ssb_small
    operator = CJoinOperator(catalog, star)
    for query in ssb_workload:
        operator.submit(query)
    operator.run_until_drained()
    stats = operator.stats
    assert stats.tuples_scanned > 0
    dimensions = len(star.dimensions)
    assert stats.probes_per_tuple <= dimensions


def test_admission_where_ends_exhaust_the_batch_budget():
    """A query admitted at the scan position where others wrap around.

    The wrap-around handling marks the position's row as the newcomer's
    first; when the QueryEnds it emits use up the batch budget the row
    must still go out in that batch, or the next arrival at the
    position ends the newcomer with no rows.
    """
    query = StarQuery.build(
        "sales",
        dimension_predicates={
            "product": Comparison("p_category", "=", "food")
        },
        aggregates=[AggregateSpec("count")],
    )
    catalog, star = make_tiny_star()
    operator = CJoinOperator(
        catalog, star, executor_config=ExecutorConfig(batch_size=3)
    )
    executor = operator.executor
    handles = [operator.submit(query)]
    for _ in range(2):
        executor.step()
    handles += [operator.submit(query), operator.submit(query)]
    for _ in range(5):
        executor.step()
    # the second step ended its batch at the page boundary (rows 2-3 of
    # a 4-row page, not 2-4), so the last two started at row 4; one
    # cycle later the scan is parked there again
    start = handles[1].registration.start_position
    assert operator.scan.next_position == start == 4
    assert [handle.done for handle in handles] == [True, False, False]
    # start control + two ends = the whole budget of the next batch
    handles.append(operator.submit(query))
    operator.run_until_drained()
    expected = evaluate_star_query(query, catalog)
    for handle in handles:
        assert handle.results() == expected
