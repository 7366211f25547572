"""Admission at the batch boundary (DESIGN.md section 9).

``WarehouseService.submit`` only enqueues; the driving thread pops
``min(queued, free slots)`` at its next batch boundary and hands them to
the Pipeline Manager as one group.  What that must keep: FIFO order of
ids and QueryStart tuples, the slot bound, a queue bound that never
refuses a submission a free slot is waiting for, cancellation of a
submission nobody has pumped yet, the snapshot a query was stamped with
when it was submitted, a lone query's latency on an idle driver, and —
when a member's dimension predicate raises — the error on that handle
and everyone else admitted at the next boundary.
"""

from __future__ import annotations

import time

import pytest

from repro.cjoin import CJoinOperator, ExecutorConfig
from repro.cjoin.tuples import QueryStart
from repro.engine import Warehouse, WarehouseService
from repro.errors import AdmissionError, CancelledError
from repro.query.aggregates import AggregateSpec
from repro.query.predicate import Comparison
from repro.query.reference import evaluate_star_query
from repro.query.star import StarQuery
from repro.tuning import TuningConfig
from tests.test_failure_injection import _ExplodingPredicate

CITIES = ("lyon", "paris", "nice")


def city_query(city: str) -> StarQuery:
    return StarQuery.build(
        "sales",
        dimension_predicates={"store": Comparison("s_city", "=", city)},
        aggregates=[AggregateSpec("count")],
        label=city,
    )


def pump_service(catalog, star, **tuning) -> WarehouseService:
    """A deterministic pump-mode service over 4-row batches."""
    operator = CJoinOperator(
        catalog, star, executor_config=ExecutorConfig(batch_size=4)
    )
    return WarehouseService(operator, tuning=TuningConfig(**tuning))


def log_items(operator) -> list:
    """Record every item the pipeline processes, in order."""
    items = []
    process_item = operator.pipeline.process_item

    def logged(item):
        items.append(item)
        process_item(item)

    operator.pipeline.process_item = logged
    return items


class TestOneGroupPerBoundary:
    def test_submit_only_enqueues(self, tiny_star):
        catalog, star = tiny_star
        service = pump_service(catalog, star)
        handles = [service.submit(city_query(city)) for city in CITIES]
        assert service.queued == 3 and service.in_flight == 0
        assert service.operator.active_query_count == 0
        assert all(handle.registration is None for handle in handles)

    def test_ids_and_query_starts_come_out_in_fifo_order(self, tiny_star):
        catalog, star = tiny_star
        service = pump_service(catalog, star)
        items = log_items(service.operator)
        handles = [
            service.submit(city_query(CITIES[index % 3])) for index in range(5)
        ]
        service.pump(batches=2)
        assert [h.registration.query_id for h in handles] == [1, 2, 3, 4, 5]
        starts = [item for item in items if isinstance(item, QueryStart)]
        assert [s.registration for s in starts] == [
            h.registration for h in handles
        ]
        sequences = [start.sequence for start in starts]
        assert sequences == sorted(sequences)
        # one group: one start position, one admission stall's worth
        assert {h.registration.start_position for h in handles} == {0}
        assert [h.registration.admitted_with_in_flight for h in handles] == [
            0, 1, 2, 3, 4,
        ]
        assert len({h.admitted_at for h in handles}) == 1
        service.drain()
        for handle in handles:
            assert handle.results() == evaluate_star_query(handle.query, catalog)

    def test_a_group_is_cut_at_the_free_slots_and_the_tail_waits(
        self, tiny_star
    ):
        catalog, star = tiny_star
        service = pump_service(catalog, star, max_in_flight=3)
        handles = [
            service.submit(city_query(CITIES[index % 3])) for index in range(7)
        ]
        service.pump()
        assert service.in_flight == 3 and service.queued == 4
        assert [h.registration is not None for h in handles] == (
            [True] * 3 + [False] * 4
        )
        service.pump()  # no slot came free: nobody moves
        assert service.in_flight == 3 and service.queued == 4
        service.drain()
        assert service.in_flight == 0 and service.queued == 0
        for handle in handles:
            assert handle.results() == evaluate_star_query(handle.query, catalog)
        # the tail was admitted in order too, as slots came free
        waits = [h.admitted_at for h in handles]
        assert waits == sorted(waits)

    def test_the_queue_refuses_only_beyond_free_slots_plus_depth(
        self, tiny_star
    ):
        catalog, star = tiny_star
        service = pump_service(
            catalog, star, max_in_flight=2, admission_queue_depth=1
        )
        accepted = [service.submit(city_query("lyon")) for _ in range(3)]
        with pytest.raises(AdmissionError, match="admission queue is full"):
            service.submit(city_query("lyon"))  # 2 free slots + 1 deep
        service.pump()
        assert service.in_flight == 2 and service.queued == 1
        with pytest.raises(AdmissionError, match="admission queue is full"):
            service.submit(city_query("lyon"))  # no slot free, 1 deep
        assert accepted[0].cancel() is True
        service.pump(batches=2)  # the cancelled query leaves; the tail moves up
        assert service.queued == 0
        service.submit(city_query("paris"))  # room again
        service.drain()
        assert accepted[1].done and accepted[2].done

    def test_cancel_before_any_boundary(self, tiny_star):
        catalog, star = tiny_star
        service = pump_service(catalog, star)
        keep = service.submit(city_query("lyon"))
        drop = service.submit(city_query("paris"))
        assert drop.cancel() is True  # still in the FIFO: dropped in place
        assert drop.done and drop.cancelled and service.queued == 1
        with pytest.raises(CancelledError):
            drop.results()
        service.drain()
        assert drop.registration is None  # never reached the pipeline
        assert service.operator.stats.queries_admitted == 1
        assert service.operator.stats.queries_cancelled == 0
        assert keep.results() == evaluate_star_query(city_query("lyon"), catalog)

    def test_a_queued_query_keeps_the_snapshot_it_was_stamped_with(
        self, tiny_star
    ):
        catalog, star = tiny_star
        warehouse = Warehouse(catalog, star, enable_updates=True)
        before = warehouse.submit_sql("SELECT COUNT(*) FROM sales")
        assert warehouse.service.queued == 1  # a slot is free; it still waits
        warehouse.apply_update(inserts=[(1, 10, 1, 5)])
        after = warehouse.submit_sql("SELECT COUNT(*) FROM sales")
        assert before.query.snapshot_id + 1 == after.query.snapshot_id
        warehouse.run()  # both admitted at one boundary, as one group
        assert before.registration.start_position == 0
        assert after.registration.start_position == 0
        assert before.results() == [(12,)]
        assert after.results() == [(13,)]


class TestAFailingMember:
    def test_error_reaches_its_handle_and_the_rest_go_next_boundary(
        self, tiny_star
    ):
        catalog, star = tiny_star
        service = pump_service(catalog, star)
        bad_query = StarQuery.build(
            "sales",
            dimension_predicates={"product": _ExplodingPredicate()},
            aggregates=[AggregateSpec("count")],
        )
        first = service.submit(city_query("lyon"))
        bad = service.submit(bad_query)
        last = service.submit(city_query("nice"))
        service.pump()  # the group is refused whole: nothing admitted
        assert bad.done and not bad.cancelled
        with pytest.raises(RuntimeError, match="injected"):
            bad.results()
        with pytest.raises(RuntimeError, match="injected"):
            list(bad)
        assert service.in_flight == 0 and service.queued == 2
        assert service.operator.manager.allocator.active_count == 0
        assert service.operator.filter_order() == ()
        assert first.registration is None and last.registration is None
        assert last.cancel() is True  # back in the FIFO, still cancellable
        service.pump()  # the next boundary admits who is left
        assert first.registration.query_id == 1
        service.drain()
        assert first.results() == evaluate_star_query(city_query("lyon"), catalog)
        assert service.operator.stats.queries_admitted == 1

    def test_running_driver_survives_a_failing_member(self, tiny_star):
        catalog, star = tiny_star
        warehouse = Warehouse(catalog, star)
        warehouse.start_service()
        try:
            bad = warehouse.submit(
                StarQuery.build(
                    "sales",
                    dimension_predicates={
                        "store": Comparison("s_city", "<", 5)  # str < int
                    },
                    aggregates=[AggregateSpec("count")],
                )
            )
            with pytest.raises(TypeError):
                bad.results(timeout=10.0)
            good = warehouse.submit(city_query("paris"))
            assert good.results(timeout=10.0) == evaluate_star_query(
                city_query("paris"), catalog
            )
            assert warehouse.service.running
        finally:
            warehouse.stop_service()


class TestIdleDriverWakesOnSubmit:
    def test_lone_query_does_not_sleep_out_idle_sleep(self, tiny_star):
        catalog, star = tiny_star
        warehouse = Warehouse(catalog, star, tuning=TuningConfig(idle_sleep=1.0))
        warehouse.start_service()
        try:
            time.sleep(0.05)  # the driver found nothing and went to sleep
            handle = warehouse.submit(city_query("lyon"))
            assert handle.results(timeout=0.5) == evaluate_star_query(
                city_query("lyon"), catalog
            )
            assert handle.wait_seconds < 0.25  # a few ms, not the 1 s sleep
            # and again, from the idle state the completion left behind
            time.sleep(0.05)
            again = warehouse.submit(city_query("nice"))
            again.results(timeout=0.5)
            assert again.wait_seconds < 0.25
        finally:
            started = time.perf_counter()
            warehouse.stop_service()
            assert time.perf_counter() - started < 0.5  # stop wakes it too
