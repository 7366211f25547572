"""Group cleanup (Algorithm 2 once per batch of finished queries) must

leave the sharing-side state exactly where cleaning the same ids one at
a time leaves it.  Two operators run the same admit / scan / cancel
script over the same data; one drains its finished queue as a group,
the other feeds the queue to the manager one id at a time.

Both sides are also held, after every step, to a model rebuilt from
scratch (:func:`assert_matches_model`): what a probe of every dimension
key contributes must be what section 3.2.1 defines for the queries
still in flight, and no bit of an unallocated id may be visible — the
hash tables clear a non-referencing query's entry bits lazily, so this
is where a stale bit surviving into an id's next life would show.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import bitvec
from repro.cjoin import CJoinOperator
from repro.cjoin.executor import ExecutorConfig
from repro.errors import AdmissionError
from repro.query.aggregates import AggregateSpec
from repro.query.predicate import Between, Comparison, InList
from repro.query.reference import evaluate_star_query
from repro.query.star import StarQuery
from tests.conftest import make_tiny_star

MAX_CONCURRENT = 4  # small, so ids recycle within a script


def make_operator():
    catalog, star = make_tiny_star()
    operator = CJoinOperator(
        catalog,
        star,
        max_concurrent=MAX_CONCURRENT,
        executor_config=ExecutorConfig(batch_size=3),
    )
    return catalog, operator


def scan_batches(operator, batches):
    """Advance the scan without the executor's own cleanup call."""
    batch_size = operator.executor.config.batch_size
    for _ in range(batches):
        for item in operator.preprocessor.next_batched_items(batch_size):
            operator.pipeline.process_item(item)


def clean_one_at_a_time(manager):
    """Make ``manager.process_finished`` the per-query loop.

    Every queued id becomes its own one-element group — also when
    admission calls ``process_finished`` to reclaim ids.
    """
    clean_group = manager.process_finished

    def process_finished():
        queue = manager._finished_queue
        pending = list(queue)
        queue.clear()
        errors = []
        for query_id in pending:
            queue.append(query_id)
            try:
                clean_group()
            except AdmissionError as error:
                errors.append(error)
        if errors:
            raise errors[0]

    manager.process_finished = process_finished


def sharing_state(operator):
    manager = operator.manager
    return {
        "tables": {
            name: (
                table.complement_bitmap,
                {key: entry.bits for key, entry in table.entries_view().items()},
            )
            for name, table in manager._tables.items()
        },
        "filters": operator.pipeline.filter_order(),
        "allocated": sorted(manager.allocator._in_use),
        "registered": sorted(manager._registrations),
        "referenced_by": {
            query_id: sorted(names)
            for query_id, names in manager._referenced_by.items()
        },
        "latencies": [
            record.query_id for record in operator.stats.latency_records
        ],
    }


def assert_matches_model(side, step):
    """Every table answers probes as one rebuilt from scratch would."""
    operator, manager = side.operator, side.operator.manager
    in_flight = set(operator.distributor.open_query_ids) | set(
        operator.preprocessor.active_query_ids
    )
    registered = bitvec.or_reduce(
        map(bitvec.bit_for_query, manager._registrations)
    )
    for name, table in manager._tables.items():
        dimension = side.catalog.table(name)
        selects = {
            query_id: manager._registrations[query_id]
            .query.predicate_on(name).bind(dimension.schema)
            for query_id in in_flight
            if name in manager._referenced_by[query_id]
        }
        assert not table._stale_bits & registered, (step, name)
        assert not table.complement_bitmap & ~registered, (step, name)
        bits_by_key, rows_by_key = table.columnar_view()
        assert bits_by_key.keys() == rows_by_key.keys(), (step, name)
        for row in dimension.all_rows():
            probed = table.bits_for_key(row[0])
            assert not probed & ~registered, (step, name, row)
            for query_id in in_flight:
                select = selects.get(query_id)
                assert bitvec.test_bit(probed, query_id) == (
                    select is None or bool(select(row))
                ), (step, name, row, query_id)


STORE_PREDICATES = st.sampled_from([
    Comparison("s_city", "=", "lyon"),
    Comparison("s_city", "=", "nowhere"),  # selects zero rows
    Between("s_size", 60, 300),
    Between("s_size", 300, 60),  # inverted: zero rows
    InList("s_city", ["paris", "nice"]),
    Comparison("s_size", ">=", 100),
])
PRODUCT_PREDICATES = st.sampled_from([
    Comparison("p_category", "=", "food"),
    Comparison("p_category", "=", "nothing"),  # selects zero rows
    Between("p_price", 6, 20),
    Comparison("p_price", "<", 10),
])


@st.composite
def queries(draw):
    predicates = {}
    if draw(st.booleans()):
        predicates["store"] = draw(STORE_PREDICATES)
    if draw(st.booleans()) or not predicates:
        predicates["product"] = draw(PRODUCT_PREDICATES)
    return StarQuery.build(
        "sales",
        dimension_predicates=predicates,
        aggregates=[AggregateSpec("count"), AggregateSpec("sum", "sales", "f_qty")],
    )


@st.composite
def scripts(draw):
    """Scan cycles in which queries arrive together and apart.

    Each block admits a burst at one scan position (they finish as one
    group), lets the scan move on, admits latecomers (still active when
    the burst is cleaned up), then scans and cleans up.
    """
    steps = []
    for _ in range(draw(st.integers(1, 6))):
        steps.append(
            ("burst", draw(st.lists(queries(), min_size=1, max_size=3)))
        )
        steps.append(("scan", draw(st.integers(1, 3))))
        for query in draw(st.lists(queries(), max_size=2)):
            steps.append(("admit", query))
        if draw(st.booleans()):
            steps.append(("cancel", draw(st.integers(0, 7))))
        if draw(st.booleans()):
            steps.append(
                ("bogus", draw(st.integers(1, MAX_CONCURRENT + 2)))
            )
        steps.append(("scan", draw(st.integers(1, 4))))
        if draw(st.booleans()):
            steps.append(("clean", None))
            # the ids just released are taken again at once, by queries
            # that may or may not reference what their last holders did
            for query in draw(st.lists(queries(), max_size=2)):
                steps.append(("admit", query))
        if draw(st.booleans()):
            # one query leaves alone, mid-scan: a single-id cleanup
            steps.append(("cancel", draw(st.integers(0, 7))))
            steps.append(("scan", 1))
            steps.append(("clean", None))
    return steps


class Side:
    def __init__(self, one_at_a_time):
        self.catalog, self.operator = make_operator()
        self.handles = []
        if one_at_a_time:
            clean_one_at_a_time(self.operator.manager)

    def apply(self, step):
        """Run one script step; returns what the other side must match."""
        kind, argument = step
        operator = self.operator
        if kind == "admit":
            try:
                self.handles.append(operator.submit(argument))
            except AdmissionError:
                return "full"
        elif kind == "burst":
            return [self.apply(("admit", query)) for query in argument]
        elif kind == "scan":
            scan_batches(operator, argument)
        elif kind == "cancel":
            live = [h for h in self.handles if not h.done]
            if live:
                return live[argument % len(live)].cancel()
        elif kind == "bogus":
            # an id the manager does not know (never admitted, or
            # already cleaned) turns up in the finished queue
            if argument not in operator.manager._registrations:
                operator.manager._finished_queue.append(argument)
        else:
            try:
                operator.manager.process_finished()
            except AdmissionError:
                return "unknown id"
        return None


@settings(max_examples=100, deadline=None)
@given(script=scripts())
def test_group_cleanup_equals_one_at_a_time(script):
    grouped = Side(one_at_a_time=False)
    single = Side(one_at_a_time=True)
    for step in script:
        assert grouped.apply(step) == single.apply(step), step
        assert sharing_state(grouped.operator) == sharing_state(
            single.operator
        ), step
        assert_matches_model(grouped, step)
        assert_matches_model(single, step)
    for side in (grouped, single):
        side.apply(("clean", None))  # also drops leftover bogus ids
        for _ in range(100):
            if not side.operator.active_query_count:
                break
            scan_batches(side.operator, 1)
            side.operator.manager.process_finished()
        assert not side.operator.active_query_count
    assert sharing_state(grouped.operator) == sharing_state(single.operator)
    assert sharing_state(grouped.operator)["allocated"] == []
    assert grouped.operator.pipeline.filter_order() == ()
    for side in (grouped, single):
        for handle in side.handles:
            if handle.cancelled:
                continue
            assert handle.results() == evaluate_star_query(
                handle.query, side.catalog
            )


def test_zero_row_query_finishing_keeps_a_still_referenced_filter():
    """The ``still_referenced`` safety case, by example.

    Two queries finish in one group while a third, whose predicate
    selected no store rows, is still active: the store table is empty
    after the group's cleanup, yet its Filter must stay — it is what
    drops every fact tuple for the active query.
    """
    catalog, operator = make_operator()
    first = operator.submit(
        StarQuery.build(
            "sales",
            dimension_predicates={"store": Comparison("s_city", "=", "lyon")},
            aggregates=[AggregateSpec("count")],
        )
    )
    second = operator.submit(
        StarQuery.build(
            "sales",
            dimension_predicates={"store": Comparison("s_city", "=", "nowhere")},
            aggregates=[AggregateSpec("count")],
        )
    )
    scan_batches(operator, 2)
    late = operator.submit(
        StarQuery.build(
            "sales",
            dimension_predicates={"store": Comparison("s_city", "=", "nowhere")},
            aggregates=[AggregateSpec("count")],
        )
    )
    while not (first.done and second.done):
        scan_batches(operator, 1)
    assert not late.done  # admitted mid-scan: wraps later
    assert operator.manager.process_finished() == 2
    assert operator.manager.dimension_table("store").is_empty
    assert operator.pipeline.filter_order() == ("store",)
    operator.run_until_drained()
    assert late.results() == evaluate_star_query(late.query, catalog)
    assert operator.pipeline.filter_order() == ()


def test_unknown_id_does_not_strand_the_rest_of_the_group():
    _, operator = make_operator()
    manager = operator.manager
    handles = [
        operator.submit(
            StarQuery.build(
                "sales",
                dimension_predicates={
                    "store": Comparison("s_city", "=", city)
                },
                aggregates=[AggregateSpec("count")],
            )
        )
        for city in ("lyon", "paris")
    ]
    while not all(handle.done for handle in handles):
        scan_batches(operator, 1)
    manager._finished_queue.insert(1, 99)  # between the two real ids
    with pytest.raises(AdmissionError, match="99"):
        manager.process_finished()
    assert manager.active_query_count == 0
    assert manager.allocator.active_count == 0
    assert not manager._finished_queue
    assert operator.pipeline.filter_order() == ()
    assert len(operator.stats.latency_records) == 2
