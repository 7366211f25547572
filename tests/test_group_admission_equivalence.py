"""Group admission (Algorithm 1 once per burst) must leave the

sharing-side state exactly where admitting the same queries one at a
time leaves it.  Two operators run the same admit / scan / cancel /
clean script over the same data; one hands every burst to
``PipelineManager.admit_group`` whole, the other submits its members
one by one.  The scripts are those of
tests/test_group_cleanup_equivalence.py — bursts and latecomers
mid-scan, cancels, ids taken again the moment they are released, stale
bits of non-referencing queries in play — and both sides are held,
after every step, to the same model rebuilt from scratch.

Beside the property: the work a group saves, as exact counts (one
``Table.select`` and one write of the selected rows per distinct
predicate, one sweep per table), and what a member whose dimension
predicate raises leaves behind (nothing).
"""

import pytest
from hypothesis import given, settings

from repro.errors import AdmissionError
from repro.query.aggregates import AggregateSpec
from repro.query.predicate import Comparison
from repro.query.reference import evaluate_star_query
from repro.query.star import StarQuery
from tests.test_failure_injection import _ExplodingPredicate
from tests.test_group_cleanup_equivalence import (
    assert_matches_model,
    make_operator,
    scan_batches,
    scripts,
    sharing_state,
)


class Side:
    def __init__(self, grouped):
        self.catalog, self.operator = make_operator()
        self.grouped = grouped
        self.handles = []

    def admit(self, burst):
        """Admit ``burst`` — cut at the free ids, so both sides refuse
        the same tail; returns what the other side must match."""
        manager = self.operator.manager
        try:
            # reclaim ids first, on both sides alike: inside the
            # admission it is then a no-op, whatever the grouping
            manager.process_finished()
        except AdmissionError:
            pass  # a bogus id of the script; the queue is clean now
        allocator = manager.allocator
        free = allocator.max_concurrent - allocator.active_count
        fits = burst[:free]
        if self.grouped:
            if fits:
                self.handles.extend(
                    manager.admit_group([(query, None) for query in fits])
                )
        else:
            for query in fits:
                self.handles.append(self.operator.submit(query))
        return len(fits)

    def apply(self, step):
        kind, argument = step
        operator = self.operator
        if kind == "admit":
            return self.admit([argument])
        if kind == "burst":
            return self.admit(argument)
        if kind == "scan":
            scan_batches(operator, argument)
        elif kind == "cancel":
            live = [h for h in self.handles if not h.done]
            if live:
                return live[argument % len(live)].cancel()
        elif kind == "bogus":
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
def test_group_admission_equals_one_at_a_time(script):
    grouped = Side(grouped=True)
    single = Side(grouped=False)
    for step in script:
        assert grouped.apply(step) == single.apply(step), step
        assert sharing_state(grouped.operator) == sharing_state(
            single.operator
        ), step
        assert_matches_model(grouped, step)
        assert_matches_model(single, step)
        assert [h.registration.query_id for h in grouped.handles] == [
            h.registration.query_id for h in single.handles
        ], step
    for side in (grouped, single):
        side.apply(("clean", None))  # also drops leftover bogus ids
        side.operator.run_until_drained(max_batches=200)
        side.operator.manager.process_finished()
        assert side.operator.manager.allocator.active_count == 0
        assert side.operator.pipeline.filter_order() == ()
        for handle in side.handles:
            if not handle.cancelled:
                assert handle.results() == evaluate_star_query(
                    handle.query, side.catalog
                )
    assert sharing_state(grouped.operator) == sharing_state(single.operator)


def count_query(**dimension_predicates):
    return StarQuery.build(
        "sales",
        dimension_predicates=dimension_predicates,
        aggregates=[AggregateSpec("count")],
    )


def counting(obj, name):
    """Wrap ``obj.name`` to count its calls; returns the counter list."""
    calls = []
    wrapped = getattr(obj, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return wrapped(*args, **kwargs)

    setattr(obj, name, counted)
    return calls


class TestWorkIsPerDistinctPredicate:
    def test_shared_predicate_is_selected_and_written_once(self):
        catalog, operator = make_operator()
        manager = operator.manager
        selects = counting(catalog.table("store"), "select")
        big = Comparison("s_size", ">=", 100)  # two of the three stores
        handles = manager.admit_group(
            [(count_query(store=big), None) for _ in range(3)]
            + [(count_query(store=Comparison("s_city", "=", "nice")), None)]
        )
        assert len(selects) == 2  # one per distinct predicate, not four
        # rows selected, once each: 2 + 1 (a new table: nothing to sweep)
        assert operator.stats.dim_entries_touched == 3
        table = manager.dimension_table("store")
        keys = [table._selected_keys[h.registration.query_id] for h in handles]
        assert keys[0] is keys[1] is keys[2] and keys[3] is not keys[0]
        # what each member loaded is still reported per member
        assert manager.timings.dimension_rows_loaded == [2, 2, 2, 1]
        operator.run_until_drained()
        for handle in handles:
            assert handle.results() == evaluate_star_query(handle.query, catalog)

    def test_shared_key_list_is_cleaned_once(self):
        catalog, operator = make_operator()
        manager = operator.manager
        food = Comparison("p_category", "=", "food")  # two of four products
        handles = manager.admit_group(
            [(count_query(product=food), None) for _ in range(3)]
        )
        scan_batches(operator, 2)  # the three QueryStarts, then three rows
        late = operator.submit(count_query(product=Comparison("p_price", ">", 0)))
        assert late.registration.start_position == 3
        assert manager.dimension_table("product").tuple_count == 4
        while not all(handle.done for handle in handles):
            scan_batches(operator, 1)
        before = operator.stats.dim_entries_touched
        assert manager.process_finished() == 3
        # the group's two keys, once: 3 x 2 would have been a whole-table pass
        assert operator.stats.dim_entries_touched - before == 2
        operator.run_until_drained()
        assert late.results() == evaluate_star_query(late.query, catalog)

    def test_non_referencing_members_sweep_a_table_once(self):
        catalog, operator = make_operator()
        manager = operator.manager
        operator.submit(count_query(product=Comparison("p_price", "<", 100)))
        product = manager.dimension_table("product")
        stored = product.tuple_count
        assert stored > 1
        sweeps = counting(product, "_sweep")
        before = operator.stats.dim_entries_touched
        manager.admit_group(
            [
                (count_query(store=Comparison("s_city", "=", city)), None)
                for city in ("lyon", "paris", "nice")
            ]
        )
        assert len(sweeps) == 1  # one pass sets all three bits
        # the pass over product, plus one store row per member
        assert operator.stats.dim_entries_touched - before == stored + 3
        assert product.complement_bitmap == 0b1110

    def test_a_group_of_one_costs_what_admit_did(self):
        """rows selected + one table length per unreferenced dimension."""
        catalog, operator = make_operator()
        operator.submit(count_query(product=Comparison("p_price", "<", 100)))
        stored = operator.manager.dimension_table("product").tuple_count
        before = operator.stats.dim_entries_touched
        operator.submit(count_query(store=Comparison("s_city", "=", "lyon")))
        assert operator.stats.dim_entries_touched - before == stored + 1


class TestAMemberWhosePredicateRaises:
    def test_nothing_is_written_and_every_id_is_released(self):
        catalog, operator = make_operator()
        manager = operator.manager
        running = operator.submit(count_query(store=Comparison("s_size", ">", 0)))
        scan_batches(operator, 1)
        state = sharing_state(operator)
        touched = operator.stats.dim_entries_touched
        good = count_query(store=Comparison("s_city", "=", "lyon"))
        bad = count_query(
            store=Comparison("s_city", "=", "paris"),
            product=_ExplodingPredicate(),
        )
        with pytest.raises(RuntimeError, match="injected") as raised:
            manager.admit_group([(good, None), (bad, None), (good, None)])
        assert raised.value.failed_submission == 1
        assert sharing_state(operator) == state  # tables, ids, filters
        assert operator.stats.dim_entries_touched == touched
        assert "product" not in manager._tables
        assert not operator.preprocessor.is_stalled
        assert operator.stats.queries_admitted == 1
        # the rest of the group is admitted by the next call
        handles = manager.admit_group([(good, None), (good, None)])
        operator.run_until_drained()
        for handle in [running, *handles]:
            assert handle.results() == evaluate_star_query(handle.query, catalog)

    def test_more_members_than_free_ids_admits_none(self):
        catalog, operator = make_operator()  # four ids
        good = count_query(store=Comparison("s_city", "=", "lyon"))
        operator.submit(good)
        with pytest.raises(AdmissionError, match="concurrency limit"):
            operator.manager.admit_group([(good, None)] * 4)
        assert operator.manager.allocator.active_count == 1
        assert operator.manager.active_query_count == 1
        operator.manager.admit_group([(good, None)] * 3)
        assert operator.manager.allocator.max_id == 4
