"""Mid-scan query cancellation (DESIGN.md section 10).

Covers every place a warehouse submission can be cancelled —
registered mid-scan, queued in the service FIFO — and the ISSUE-4
acceptance property: cancelling one of N in-flight queries frees its
slot within one scan cycle while the other N-1 results stay
reference-equal.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.cjoin import CJoinOperator, ExecutorConfig
from repro.engine import Warehouse, WarehouseService
from repro.errors import CancelledError
from repro.query.aggregates import AggregateSpec
from repro.query.predicate import Comparison
from repro.query.reference import evaluate_star_query
from repro.query.star import StarQuery
from repro.tuning import TuningConfig
from tests.conftest import make_tiny_star

CITIES = ("lyon", "paris", "nice")


def city_query(city: str, label: str | None = None) -> StarQuery:
    return StarQuery.build(
        "sales",
        dimension_predicates={"store": Comparison("s_city", "=", city)},
        aggregates=[
            AggregateSpec("count"),
            AggregateSpec("sum", "sales", "f_total"),
        ],
        label=label or city,
    )


def small_batch_service(
    catalog, star, max_in_flight: int | None = None
) -> WarehouseService:
    """A deterministic pump-mode service over 4-row batches."""
    operator = CJoinOperator(
        catalog, star, executor_config=ExecutorConfig(batch_size=4)
    )
    return WarehouseService(
        operator, tuning=TuningConfig(max_in_flight=max_in_flight or 256)
    )


class TestMidScanCancel:
    def test_cancel_discards_results_and_spares_survivors(self, tiny_star):
        catalog, star = tiny_star
        service = small_batch_service(catalog, star)
        keep = service.submit(city_query("lyon"))
        drop = service.submit(city_query("paris"))
        service.pump(batches=1)  # both are mid-scan now
        assert not keep.done and not drop.done
        assert drop.cancel() is True
        assert drop.cancelled
        assert drop.cancel() is True  # idempotent
        service.drain()
        assert keep.results() == evaluate_star_query(
            city_query("lyon"), catalog
        )
        with pytest.raises(CancelledError):
            drop.results()
        with pytest.raises(CancelledError):
            list(drop)
        stats = service.operator.stats
        assert stats.queries_cancelled == 1
        # a cancellation is not a latency sample
        assert [record.label for record in stats.latency_records] == ["lyon"]

    def test_cancel_after_completion_returns_false(self, tiny_star):
        catalog, star = tiny_star
        service = small_batch_service(catalog, star)
        handle = service.submit(city_query("lyon"))
        service.drain()
        assert handle.cancel() is False
        assert handle.results() == evaluate_star_query(
            city_query("lyon"), catalog
        )

    def test_unowned_handle_cancel_returns_false(self, tiny_star):
        from repro.cjoin.registry import QueryHandle

        handle = QueryHandle(city_query("lyon"))
        assert handle.cancel() is False

    def test_freed_slot_reused_within_one_scan_cycle(self, tiny_star):
        """The acceptance bound: cancel -> slot free -> queued query
        admitted, all before the current scan cycle ends."""
        catalog, star = tiny_star
        service = small_batch_service(catalog, star, max_in_flight=1)
        first = service.submit(city_query("lyon"))
        queued = service.submit(city_query("paris"))
        assert service.queued == 2  # submit only enqueues
        service.pump(batches=1)  # scan is 4/12 tuples into the cycle
        # the boundary admitted one group of min(queued, free slots) = 1
        assert service.queued == 1 and first.registration is not None
        assert first.cancel() is True
        # one batch flushes the early QueryEnd and frees the slot; the
        # next pump admits the queued query mid-cycle
        service.pump(batches=2)
        assert service.queued == 0
        assert queued.registration is not None
        assert 0 < queued.registration.start_position < 12  # mid-scan
        service.drain()
        assert queued.results() == evaluate_star_query(
            city_query("paris"), catalog
        )
        assert service.operator.manager.allocator.active_count == 0

    def test_stale_canceller_cannot_hit_a_recycled_query_id(
        self, tiny_star
    ):
        """A canceller that raced its query's completion must not tear
        down the next query admitted under the recycled id."""
        catalog, star = tiny_star
        service = small_batch_service(catalog, star)
        first = service.submit(city_query("lyon"))
        service.pump(batches=1)  # admitted at the boundary: the manager's
        stale_canceller = first._canceller  # as QueryHandle.cancel reads it
        service.drain()
        assert first.done
        second = service.submit(city_query("paris"))
        service.pump(batches=1)
        # the id was recycled to the new query
        assert second.registration.query_id == 1
        assert stale_canceller() is False  # identity check refuses
        assert not second.cancelled
        service.drain()
        assert second.results() == evaluate_star_query(
            city_query("paris"), catalog
        )

    def test_cancelled_query_id_is_reallocated(self, tiny_star):
        catalog, star = tiny_star
        service = small_batch_service(catalog, star)
        first = service.submit(city_query("lyon"))
        service.pump(batches=1)
        first_id = first.registration.query_id
        first.cancel()
        service.drain()
        replacement = service.submit(city_query("nice"))
        service.pump(batches=1)
        assert replacement.registration.query_id == first_id
        service.drain()
        assert replacement.results() == evaluate_star_query(
            city_query("nice"), catalog
        )


class TestQueuedCancel:
    def test_cancel_queued_service_submission(self, tiny_star):
        catalog, star = tiny_star
        service = small_batch_service(catalog, star, max_in_flight=1)
        running = service.submit(city_query("lyon"))
        queued = service.submit(city_query("paris"))
        service.pump(batches=1)  # one slot: the second waits its turn
        assert service.queued == 1 and queued.registration is None
        assert queued.cancel() is True
        assert service.queued == 0
        assert queued.done and queued.cancelled
        with pytest.raises(CancelledError):
            queued.results()
        service.drain()
        assert running.results() == evaluate_star_query(
            city_query("lyon"), catalog
        )


class TestLiveServiceCancel:
    def test_cancel_under_running_driver(self):
        """Cancel from the client thread while the driver cycles."""
        from repro.ssb.generator import load_ssb

        catalog, star = load_ssb(scale_factor=0.002, seed=13)
        year_query = StarQuery.build(
            "lineorder",
            dimension_predicates={
                "date": Comparison("d_year", ">=", 1992)
            },
            aggregates=[AggregateSpec("sum", "lineorder", "lo_revenue")],
        )
        with Warehouse(catalog, star) as warehouse:
            warehouse.start_service()
            survivors = [warehouse.submit(year_query) for _ in range(3)]
            victim = warehouse.submit(year_query)
            victim.cancel()  # may race natural completion; both are fine
            expected = evaluate_star_query(year_query, catalog)
            for handle in survivors:
                assert handle.results(timeout=30.0) == expected
            if victim.cancelled:
                with pytest.raises(CancelledError):
                    victim.results(timeout=30.0)
            else:
                assert victim.results(timeout=30.0) == expected
            warehouse.service.drain(timeout=30.0)
        assert warehouse.cjoin.manager.allocator.active_count == 0


@settings(max_examples=30, deadline=None)
@given(
    cancel_mask=st.lists(st.booleans(), min_size=6, max_size=6),
    warmup_batches=st.integers(min_value=0, max_value=3),
)
def test_cancel_property_survivors_reference_equal(
    cancel_mask, warmup_batches
):
    """ISSUE 4 acceptance property: for any subset of N in-flight
    queries cancelled at any scan offset, every survivor's results are
    reference-equal, every cancelled handle raises, all slots are
    released, and the freed capacity is reused by queued submissions.
    """
    catalog, star = make_tiny_star()
    service = small_batch_service(catalog, star, max_in_flight=3)
    queries = [
        city_query(CITIES[index % 3], label=f"q{index}")
        for index in range(6)
    ]
    handles = [service.submit(query) for query in queries]
    assert service.queued == 6  # all wait for the next batch boundary
    service.pump(batches=warmup_batches)
    # capacity 3: the boundary admits the first three as one group
    assert service.queued == (3 if warmup_batches else 6)
    cancelled = [
        handle
        for handle, cancel in zip(handles, cancel_mask)
        if cancel and handle.cancel()
    ]
    service.drain()
    for handle, query in zip(handles, queries):
        if handle.cancelled:
            with pytest.raises(CancelledError):
                handle.results()
        else:
            # reference-equal: exactly the rows of an uncancelled run
            assert handle.results() == evaluate_star_query(query, catalog)
    completed = [handle for handle in handles if not handle.cancelled]
    assert len(completed) + len(cancelled) == 6
    assert service.in_flight == 0 and service.queued == 0
    assert service.operator.manager.allocator.active_count == 0
    assert service.operator.stats.queries_cancelled == sum(
        1 for handle in cancelled if handle.registration is not None
    )
