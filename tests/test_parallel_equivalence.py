"""Data-parallel sharded drain vs the serial drain: result equivalence.

``execute_process_parallel`` (DESIGN.md section 8) is a pure
performance decomposition: for every workload, worker count, and
transport it must produce results identical to the serial drain and to
``query/reference.py``.  These tests drive randomized SSB workloads
through the reference, the serial pipeline and the sharded drain,
plus targeted cases for the
merge protocol itself: AVG/MIN/MAX partial-state merges, empty shards
(more workers than fact rows), the logged in-process fallback for
unpicklable workloads and dead pools, and the shard-span planner's
invariants.

Process pools are real but small here; the in-process transport runs
the identical shard/merge protocol deterministically, so most examples
use it and a handful of cases exercise the actual pools.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.cjoin import CJoinOperator, execute_process_parallel
from repro.cjoin.parallel import merge_shard_states
from repro.errors import ConfigError, StorageError
from repro.query.aggregates import AggregateSpec
from repro.query.predicate import Predicate
from repro.query.reference import evaluate_star_query
from repro.query.star import ColumnRef, StarQuery
from repro.ssb.queries import ssb_workload_generator
from repro.storage.partition import contiguous_spans
from tests.conftest import make_tiny_star


def _run_serial(catalog, star, queries):
    operator = CJoinOperator(catalog, star)
    handles = [operator.submit(query) for query in queries]
    operator.run_until_drained()
    return [handle.results() for handle in handles]


# ----------------------------------------------------------------------
# Property suite: reference, serial and sharded agree on random SSB workloads
# ----------------------------------------------------------------------
@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    count=st.integers(min_value=1, max_value=8),
    selectivity=st.sampled_from([0.02, 0.1, 0.4]),
    workers=st.sampled_from([1, 2, 3, 7]),
    batch_size=st.sampled_from([3, 64, 512]),
)
def test_random_workloads_equivalent(
    ssb_small, seed, count, selectivity, workers, batch_size
):
    """reference == serial == process-parallel on random workloads."""
    catalog, star = ssb_small
    queries = ssb_workload_generator(seed=seed, catalog=catalog).generate(
        count, selectivity=selectivity
    )
    expected = [evaluate_star_query(query, catalog) for query in queries]
    serial_results = _run_serial(catalog, star, queries)
    parallel_results = execute_process_parallel(
        catalog,
        star,
        queries,
        workers=workers,
        batch_size=batch_size,
        transport="inprocess",
    )
    assert serial_results == expected
    assert parallel_results == expected


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    workers=st.sampled_from([2, 5, 13, 30]),
)
def test_avg_min_max_merges(seed, workers):
    """Non-trivial mergeable states, including empty shards.

    The tiny star has 12 fact rows, so workers > 12 forces empty
    shards; AVG keeps (sum, count) pairs un-finalized, MIN/MAX must
    ignore empty partials, and the NULL-on-empty-input convention has
    to survive the merge.
    """
    catalog, star = make_tiny_star()
    query = StarQuery.build(
        "sales",
        group_by=[ColumnRef("store", "s_city")],
        aggregates=[
            AggregateSpec("avg", "sales", "f_total"),
            AggregateSpec("min", "sales", "f_qty"),
            AggregateSpec("max", "product", "p_price"),
            AggregateSpec("count"),
            AggregateSpec("count", "sales", "f_qty"),
            AggregateSpec("sum", "sales", "f_total", "f_qty", combine="-"),
        ],
        label=f"merge-case-{seed}",
    )
    global_query = StarQuery.build(
        "sales",
        aggregates=[
            AggregateSpec("avg", "sales", "f_total"),
            AggregateSpec("min", "sales", "f_total"),
            AggregateSpec("max", "sales", "f_total"),
        ],
    )
    queries = [query, global_query]
    serial = _run_serial(catalog, star, queries)
    parallel = execute_process_parallel(
        catalog, star, queries, workers=workers, transport="inprocess"
    )
    assert parallel == serial


def test_listing_queries_equivalent(ssb_small):
    """Aggregate-free (listing) operators merge by concatenation."""
    catalog, star = ssb_small
    query = StarQuery.build(
        "lineorder",
        select=[
            ColumnRef("date", "d_year"),
            ColumnRef("lineorder", "lo_quantity"),
        ],
        fact_predicate=None,
    )
    serial = _run_serial(catalog, star, [query])
    parallel = execute_process_parallel(
        catalog, star, [query], workers=4, transport="inprocess"
    )
    assert parallel == serial


def test_sort_aggregation_mode_equivalent(ssb_small, ssb_workload):
    """The sort-based operator merges shard buffers identically."""
    catalog, star = ssb_small
    queries = ssb_workload[:6]
    operator = CJoinOperator(
        catalog,
        star,
        aggregation_mode="sort",
    )
    handles = [operator.submit(query) for query in queries]
    operator.run_until_drained()
    serial = [handle.results() for handle in handles]
    parallel = execute_process_parallel(
        catalog,
        star,
        queries,
        workers=3,
        aggregation_mode="sort",
        transport="inprocess",
    )
    assert parallel == serial


# ----------------------------------------------------------------------
# Real process pools (small, to keep the suite fast)
# ----------------------------------------------------------------------
def test_fork_pool_equivalent(ssb_small, ssb_workload):
    """The fork transport (inherited memory) matches the serial drain."""
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("platform has no fork start method")
    catalog, star = ssb_small
    queries = ssb_workload[:6]
    serial = _run_serial(catalog, star, queries)
    parallel = execute_process_parallel(
        catalog, star, queries, workers=4, transport="fork"
    )
    assert parallel == serial


def test_shm_pool_equivalent(ssb_small, ssb_workload):
    """The shared-memory transport (DESIGN.md section 14) matches."""
    catalog, star = ssb_small
    queries = ssb_workload[:4]
    serial = _run_serial(catalog, star, queries)
    parallel = execute_process_parallel(
        catalog, star, queries, workers=2, transport="shm"
    )
    assert parallel == serial


def test_shm_publish_cache_reused_across_drains(ssb_small, ssb_workload):
    """Repeat shm drains reattach the same published segment.

    The fact table is laid out in shared memory once; the second drain
    must hit the publish cache (same segment name in the layout) and
    still produce correct results.
    """
    from repro.cjoin import parallel as parallel_module

    catalog, star = ssb_small
    queries = ssb_workload[:2]
    serial = _run_serial(catalog, star, queries)
    first = execute_process_parallel(
        catalog, star, queries, workers=2, transport="shm"
    )
    with parallel_module._SHM_LOCK:
        assert parallel_module._SHM_CACHE is not None
        first_layout = parallel_module._SHM_CACHE[3]
    second = execute_process_parallel(
        catalog, star, queries, workers=2, transport="shm"
    )
    with parallel_module._SHM_LOCK:
        assert parallel_module._SHM_CACHE[3] is first_layout
    assert first == serial
    assert second == serial


# ----------------------------------------------------------------------
# Fallback and protocol plumbing
# ----------------------------------------------------------------------
class _UnpicklablePredicate(Predicate):
    """A predicate closed over a lambda: works in-process, not in pickles."""

    def __init__(self) -> None:
        self._matcher = lambda row: True

    def bind(self, schema):
        return self._matcher

    def referenced_columns(self):
        return set()


def _fallback_warnings(caplog) -> list[str]:
    return [
        record.getMessage()
        for record in caplog.records
        if record.name == "repro.cjoin.parallel"
        and record.levelname == "WARNING"
    ]


def test_unpicklable_workload_falls_back(ssb_small, caplog):
    """Spawn transports drain unpicklable workloads in-process, and
    say so once: a dead pool must not look like a slow host."""
    import pickle

    catalog, star = ssb_small
    query = StarQuery.build(
        "lineorder",
        dimension_predicates={"date": _UnpicklablePredicate()},
        group_by=[ColumnRef("date", "d_year")],
        aggregates=[AggregateSpec("sum", "lineorder", "lo_revenue")],
    )
    serial = _run_serial(catalog, star, [query])
    with pytest.raises(Exception) as unpicklable:
        pickle.dumps(query)
    with caplog.at_level("WARNING", logger="repro.cjoin.parallel"):
        parallel = execute_process_parallel(
            catalog, star, [query], workers=3, transport="shm"
        )
    assert parallel == serial
    [message] = _fallback_warnings(caplog)
    assert "'shm' transport with 3 workers" in message
    assert repr(unpicklable.value) in message


def _dead_shard_worker(span):
    raise RuntimeError(f"worker for {span} died")


def test_dead_fork_pool_falls_back_with_one_warning(
    ssb_small, ssb_workload, caplog, monkeypatch
):
    import multiprocessing

    from repro.cjoin import parallel as parallel_module

    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("platform has no fork start method")
    catalog, star = ssb_small
    queries = ssb_workload[:2]
    serial = _run_serial(catalog, star, queries)
    monkeypatch.setattr(
        parallel_module, "_run_shard_span", _dead_shard_worker
    )
    with caplog.at_level("WARNING", logger="repro.cjoin.parallel"):
        parallel = execute_process_parallel(
            catalog, star, queries, workers=2, transport="fork"
        )
    assert parallel == serial
    [message] = _fallback_warnings(caplog)
    assert "'fork' transport with 2 workers" in message
    assert "RuntimeError('worker for" in message


def test_query_chunking_beyond_max_concurrent(ssb_small):
    """Query sets above the worker maxConc drain in full-shard passes."""
    catalog, star = ssb_small
    queries = ssb_workload_generator(seed=9, catalog=catalog).generate(
        7, selectivity=0.1
    )
    serial = _run_serial(catalog, star, queries)
    parallel = execute_process_parallel(
        catalog,
        star,
        queries,
        workers=2,
        max_concurrent=3,
        transport="inprocess",
    )
    assert parallel == serial


def test_merge_shard_states_orders_shards_like_the_scan(ssb_small):
    """merge_shard_states is the serial fold over shard-ordered states."""
    catalog, star = ssb_small
    queries = ssb_workload_generator(seed=5, catalog=catalog).generate(
        3, selectivity=0.1
    )
    serial = _run_serial(catalog, star, queries)
    from repro.cjoin.parallel import _run_inprocess

    fact_rows = catalog.table(star.fact.name).all_rows()
    dimension_tables = {
        name: catalog.table(name) for name in star.dimension_names()
    }
    spans = contiguous_spans(len(fact_rows), 4)
    shard_states = _run_inprocess(
        star, fact_rows, dimension_tables, tuple(queries), spans,
        256, "hash", 256,
    )
    assert len(shard_states) == 4
    merged = merge_shard_states(star, queries, shard_states)
    assert merged == serial


def test_empty_query_set_returns_empty():
    catalog, star = make_tiny_star()
    assert execute_process_parallel(catalog, star, [], workers=4) == []


def test_unknown_transport_rejected(ssb_small, ssb_workload):
    catalog, star = ssb_small
    with pytest.raises(ConfigError, match="unknown transport"):
        execute_process_parallel(
            catalog, star, ssb_workload[:1], workers=2, transport="osc"
        )


# ----------------------------------------------------------------------
# Shard-span planner invariants
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(
    row_count=st.integers(min_value=0, max_value=5000),
    segments=st.integers(min_value=1, max_value=64),
)
def test_contiguous_spans_partition_the_scan(row_count, segments):
    """Spans are contiguous, balanced, and cover [0, row_count)."""
    spans = contiguous_spans(row_count, segments)
    assert len(spans) == segments
    assert spans[0][0] == 0
    assert spans[-1][1] == row_count
    lengths = []
    for (start, end), (next_start, _) in zip(spans, spans[1:]):
        assert end == next_start
        lengths.append(end - start)
    lengths.append(spans[-1][1] - spans[-1][0])
    assert all(length >= 0 for length in lengths)
    assert max(lengths) - min(lengths) <= 1


def test_contiguous_spans_rejects_bad_counts():
    with pytest.raises(StorageError, match="segment_count"):
        contiguous_spans(10, 0)
    with pytest.raises(StorageError, match="row_count"):
        contiguous_spans(-1, 2)
