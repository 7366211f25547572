"""Arrivals spread over the scan cycle, one admission every few batches.

The closed-loop benchmarks converge to one aligned burst per cycle, so
every registration change there happens at one scan position.  Real
clients arrive whenever they like: each admission and each cleanup is
its own event, ids are recycled between them, and the dimension hash
tables change under the batches in flight
(:mod:`repro.cjoin.dimtable`).  This drives that shape on one thread —
deterministic, unlike tests/test_caller_thread_admission.py, which
races it — and holds every result to ``query/reference.py``.
"""

from __future__ import annotations

from repro.cjoin import CJoinOperator
from repro.cjoin.aggregation import make_output_operator
from repro.cjoin.executor import ExecutorConfig
from repro.query.reference import evaluate_star_query
from repro.ssb.queries import ssb_workload_generator

BATCH_SIZE = 64
ADMIT_EVERY = 2  # batches between arrivals
CYCLES = 3


def spread_run(catalog, star, queries):
    """Admit one query every ``ADMIT_EVERY`` batches for three cycles."""
    operator = CJoinOperator(
        catalog, star, executor_config=ExecutorConfig(batch_size=BATCH_SIZE)
    )
    fact_rows = catalog.table(star.fact.name).row_count
    handles = []
    for step in range(CYCLES * -(-fact_rows // BATCH_SIZE)):
        if step % ADMIT_EVERY == 0:
            query = queries[len(handles) % len(queries)]
            handles.append(operator.submit(query))
        operator.executor.step()
    operator.run_until_drained()
    return operator, handles


def test_spread_arrivals_match_the_reference(ssb_small):
    catalog, star = ssb_small
    queries = ssb_workload_generator(seed=6, catalog=catalog).generate(
        24, selectivity=0.1
    )
    expected = {
        id(query): evaluate_star_query(query, catalog) for query in queries
    }
    operator, handles = spread_run(catalog, star, queries)
    assert len(handles) > 2 * len(queries)  # every id was recycled
    assert operator.manager.allocator.max_id == 0
    assert operator.pipeline.filter_order() == ()
    assert any(expected.values())
    for handle in handles:
        assert handle.results() == expected[id(handle.query)], handle.query


def test_getters_compile_once_per_operator(ssb_small, monkeypatch):
    """The lookups an operator compiles against outlive registrations.

    Each output operator reads dimension rows through the hash tables'
    ``key -> row`` dicts, which keep their identity while the table
    lives: however many admissions and cleanups interleave with an
    operator's batches, it compiles its row getters once.
    """
    catalog, star = ssb_small
    queries = ssb_workload_generator(seed=6, catalog=catalog).generate(
        32, selectivity=0.1
    )
    compiles = []  # per operator: [factory calls, factories per compile]

    def counting_operator(query, star, mode="hash"):
        output = make_output_operator(query, star, mode)
        factories = output._row_getter_factories
        count = [0, sum(map(len, factories))]
        compiles.append(count)

        def counted(factory):
            def compile_getter(lookup_of):
                count[0] += 1
                return factory(lookup_of)
            return compile_getter

        output._row_getter_factories = tuple(
            [counted(factory) for factory in group] for group in factories
        )
        return output

    monkeypatch.setattr(
        "repro.cjoin.distributor.make_output_operator", counting_operator
    )
    _, handles = spread_run(catalog, star, queries)
    assert len(compiles) == len(handles) >= 32
    assert any(calls for calls, _ in compiles), "nobody took the columnar path"
    for calls, per_compile in compiles:
        assert calls in (0, per_compile)
