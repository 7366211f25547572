"""The unified tuning API: TuningConfig and live reconfiguration.

Coverage for DESIGN.md section 13:

* **TuningConfig** — validation ranges, immutability, the one
  ``tuning=`` spelling on ``Warehouse`` and ``WarehouseService``;
* **reconfigure plumbing** — a new config reaches every layer, or
  none when it cannot apply;
* **live resizing** — a warehouse resized mid-burst keeps results
  reference-equal and leaks no threads.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.engine import Warehouse
from repro.errors import ConfigError
from repro.query.aggregates import AggregateSpec
from repro.query.predicate import Comparison
from repro.query.reference import evaluate_star_query
from repro.query.star import StarQuery
from repro.tuning import TuningConfig


def city_query(city: str, label: str | None = None) -> StarQuery:
    return StarQuery.build(
        "sales",
        dimension_predicates={"store": Comparison("s_city", "=", city)},
        aggregates=[
            AggregateSpec("count"),
            AggregateSpec("sum", "sales", "f_total"),
        ],
        label=label,
    )


# ----------------------------------------------------------------------
# TuningConfig: validation and value semantics
# ----------------------------------------------------------------------
class TestTuningConfig:
    def test_defaults_validate(self):
        config = TuningConfig()
        assert config.max_in_flight is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_in_flight": 0},
            {"max_in_flight": "many"},
            {"max_in_flight": True},
            {"admission_queue_depth": 0},
            {"idle_sleep": -0.1},
            {"batch_size": 0},
        ],
    )
    def test_out_of_range_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            TuningConfig(**kwargs)

    def test_replace_revalidates(self):
        config = TuningConfig(max_in_flight=8)
        assert config.replace(max_in_flight=16).max_in_flight == 16
        with pytest.raises(ConfigError):
            config.replace(batch_size=-1)
        # the original is untouched (immutability)
        assert config.max_in_flight == 8

    def test_as_dict_round_trips(self):
        config = TuningConfig(max_in_flight=4, batch_size=64)
        assert TuningConfig(**config.as_dict()) == config


# ----------------------------------------------------------------------
# One spelling: knobs ride tuning=, never loose constructor keywords
# ----------------------------------------------------------------------
class TestSingleSpelling:
    @pytest.mark.parametrize(
        "keyword", ["max_in_flight", "idle_sleep", "workers", "max_inflight"]
    )
    def test_loose_knob_keyword_is_a_type_error(self, tiny_star, keyword):
        from repro.engine import WarehouseService

        catalog, star = tiny_star
        with pytest.raises(TypeError, match="unexpected keyword"):
            Warehouse(catalog, star, **{keyword: 2})
        warehouse = Warehouse(catalog, star)
        try:
            with pytest.raises(TypeError, match="unexpected keyword"):
                WarehouseService(warehouse.cjoin, **{keyword: 2})
        finally:
            warehouse.close()


# ----------------------------------------------------------------------
# Runtime reconfiguration plumbing
# ----------------------------------------------------------------------
class TestReconfigure:
    def test_reconfigure_threads_through_every_layer(self, tiny_star):
        catalog, star = tiny_star
        warehouse = Warehouse(
            catalog, star, tuning=TuningConfig(max_in_flight=4, batch_size=32)
        )
        try:
            warehouse.reconfigure(
                warehouse.tuning.replace(max_in_flight=8, batch_size=64)
            )
            assert warehouse.tuning.max_in_flight == 8
            assert warehouse.service.max_in_flight == 8
            assert warehouse.cjoin.executor.config.batch_size == 64
        finally:
            warehouse.close()

    def test_reconfigure_validates_before_mutating(self, tiny_star):
        catalog, star = tiny_star
        warehouse = Warehouse(catalog, star)
        try:
            before = warehouse.tuning
            with pytest.raises(ConfigError):
                # a config that cannot apply cannot exist; nothing moves
                warehouse.reconfigure(before.replace(batch_size=0))
            assert warehouse.tuning is before
            assert warehouse.service.max_in_flight > 0
        finally:
            warehouse.close()

    def test_stats_snapshot_shape(self, tiny_star):
        catalog, star = tiny_star
        warehouse = Warehouse(catalog, star)
        try:
            stats = warehouse.stats()
            assert set(stats) == {
                "latency", "pipeline", "service", "tuning", "ingest",
            }
            assert stats["tuning"] == warehouse.tuning.as_dict()
            import json

            json.dumps(stats)  # the wire shape must stay JSON-able
        finally:
            warehouse.close()


# ----------------------------------------------------------------------
# Live integration: resize mid-burst, results stay reference-equal
# ----------------------------------------------------------------------
class TestLiveResizing:
    def test_mid_burst_resize_keeps_results_reference_equal(self, tiny_star):
        catalog, star = tiny_star
        threads_before = set(threading.enumerate())
        warehouse = Warehouse(
            catalog, star, tuning=TuningConfig(max_in_flight=2)
        )
        warehouse.start_service()
        cities = ["lyon", "paris", "nice"] * 8
        handles = []
        try:
            for index, city in enumerate(cities):
                handles.append(
                    warehouse.submit(city_query(city, label=f"live-{index}"))
                )
                # grow the bound and the batch while the burst queues,
                # then shrink both back while queries are still in flight
                if index == 7:
                    warehouse.reconfigure(
                        warehouse.tuning.replace(max_in_flight=16, batch_size=8)
                    )
                elif index == 15:
                    warehouse.reconfigure(
                        warehouse.tuning.replace(max_in_flight=2, batch_size=256)
                    )
            results = [handle.results(timeout=30.0) for handle in handles]
        finally:
            warehouse.close()
        assert results == [
            evaluate_star_query(city_query(city), catalog) for city in cities
        ]
        deadline = time.monotonic() + 5.0
        while (
            set(threading.enumerate()) - threads_before
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        assert set(threading.enumerate()) == threads_before
