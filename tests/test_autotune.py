"""The adaptive right-sizing controller and the unified tuning API.

Three layers of coverage for DESIGN.md section 13:

* **TuningConfig and the deprecation shims** — validation ranges, the
  ``tuning=`` / legacy-keyword resolution rules on ``Warehouse`` and
  ``WarehouseService``, and runtime ``reconfigure`` plumbing;
* **controller rules, deterministically** — every AutoTuner rule
  (grow/shrink admission, cooldown suppression,
  bounds clamping, the audit ring bound) driven by a fake clock and a
  fake telemetry probe against a stub warehouse, no threads involved;
* **live integration** — a warehouse resized mid-burst by the real
  controller thread keeps results reference-equal and leaks no
  threads.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.engine import Warehouse
from repro.engine.autotune import (
    AutoTuner,
    TuningDecision,
    TuningPolicy,
    TuningSample,
)
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
                "latency", "pipeline", "service", "tuning",
                "autotune", "ingest",
            }
            assert stats["tuning"] == warehouse.tuning.as_dict()
            assert stats["autotune"] == {"enabled": False, "decisions": []}
            import json

            json.dumps(stats)  # the wire shape must stay JSON-able
        finally:
            warehouse.close()


# ----------------------------------------------------------------------
# Controller rules with a fake clock and fake telemetry (no threads)
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class StubWarehouse:
    """Just enough warehouse for AutoTuner.apply: tuning + reconfigure."""

    def __init__(self, tuning: TuningConfig) -> None:
        self.tuning = tuning
        self.applied: list[TuningConfig] = []
        self.fail_with: Exception | None = None

    def reconfigure(self, tuning: TuningConfig) -> TuningConfig:
        if self.fail_with is not None:
            raise self.fail_with
        self.tuning = tuning
        self.applied.append(tuning)
        return tuning


def make_tuner(
    tuning: TuningConfig | None = None,
    policy: TuningPolicy | None = None,
    **tuner_kwargs,
) -> tuple[AutoTuner, StubWarehouse, FakeClock, dict]:
    """A tick-driven tuner: the test mutates ``signals`` between ticks."""
    clock = FakeClock()
    warehouse = StubWarehouse(tuning or TuningConfig(max_in_flight=8))
    signals = {
        "p95": 0.05,
        "wait_p95": 0.0,
        "queued": 0,
        "in_flight": 4,
    }

    def probe() -> TuningSample:
        return TuningSample(
            at=clock(),
            p95=signals["p95"],
            wait_p95=signals["wait_p95"],
            window_count=16,
            queued=signals["queued"],
            in_flight=signals["in_flight"],
            max_in_flight=warehouse.tuning.max_in_flight,
        )

    tuner = AutoTuner(
        warehouse,
        policy=policy
        or TuningPolicy(
            min_in_flight=2,
            max_in_flight=32,
            cooldown_seconds=1.0,
            shrink_patience=3,
        ),
        clock=clock,
        probe=probe,
        **tuner_kwargs,
    )
    return tuner, warehouse, clock, signals


class TestGrowAdmission:
    def test_queue_pressure_doubles_the_bound(self):
        tuner, warehouse, _, signals = make_tuner()
        signals["queued"] = 4  # >= 0.25 * 8
        decision = tuner.tick()
        assert decision is not None and decision.applied
        assert decision.rule == "grow_admission"
        assert decision.action == {
            "knob": "max_in_flight", "from": 8, "raw_target": 16, "to": 16,
        }
        assert warehouse.tuning.max_in_flight == 16
        assert decision.signals["queued"] == 4

    def test_no_growth_below_the_queue_threshold(self):
        tuner, warehouse, _, signals = make_tuner()
        signals["queued"] = 1  # < max(1, 0.25 * 8) = 2
        assert tuner.tick() is None
        assert warehouse.applied == []

    def test_growth_clamps_to_the_policy_bound(self):
        tuner, warehouse, clock, signals = make_tuner(
            policy=TuningPolicy(
                min_in_flight=2, max_in_flight=12, cooldown_seconds=0.0
            )
        )
        signals["queued"] = 8
        decision = tuner.tick()
        assert decision.applied
        assert decision.action["raw_target"] == 16
        assert decision.action["to"] == 12
        assert "clamped" in decision.reason
        assert warehouse.tuning.max_in_flight == 12
        # at the bound, the rule still fires but becomes a no-op audit
        clock.advance(5.0)
        decision = tuner.tick()
        assert not decision.applied
        assert "bounds clamp" in decision.reason
        assert warehouse.tuning.max_in_flight == 12


class TestCooldown:
    def test_actions_inside_the_cooldown_are_suppressed(self):
        tuner, warehouse, clock, signals = make_tuner()
        signals["queued"] = 8
        assert tuner.tick().applied
        clock.advance(0.5)  # < cooldown_seconds=1.0
        suppressed = tuner.tick()
        assert suppressed is not None and not suppressed.applied
        assert suppressed.reason.startswith("cooldown")
        assert warehouse.tuning.max_in_flight == 16  # unchanged
        clock.advance(0.6)  # past the cooldown
        assert tuner.tick().applied
        assert warehouse.tuning.max_in_flight == 32


class TestShrinkAdmission:
    def idle(self, signals) -> None:
        signals["queued"] = 0
        signals["in_flight"] = 0

    def test_shrink_needs_sustained_idleness(self):
        tuner, warehouse, clock, signals = make_tuner()
        self.idle(signals)
        # patience=3: the first three idle ticks only build the streak
        for _ in range(3):
            assert tuner.tick() is None
            clock.advance(0.25)
        decision = tuner.tick()
        assert decision.applied and decision.rule == "shrink_admission"
        assert warehouse.tuning.max_in_flight == 4

    def test_a_busy_sample_resets_the_streak(self):
        tuner, warehouse, clock, signals = make_tuner()
        self.idle(signals)
        for _ in range(3):
            tuner.tick()
            clock.advance(0.25)
        signals["in_flight"] = 8  # busy again
        assert tuner.tick() is None
        self.idle(signals)
        for _ in range(3):  # patience starts over
            assert tuner.tick() is None
            clock.advance(0.25)
        assert tuner.tick().applied

    def test_never_shrinks_below_the_floor(self):
        tuner, warehouse, clock, signals = make_tuner(
            tuning=TuningConfig(max_in_flight=2),
            policy=TuningPolicy(
                min_in_flight=2, max_in_flight=32,
                cooldown_seconds=0.0, shrink_patience=1,
            ),
        )
        self.idle(signals)
        for _ in range(4):
            tuner.tick()
            clock.advance(1.0)
        assert warehouse.tuning.max_in_flight == 2
        assert all(not d.applied for d in tuner.decisions)


class TestAudit:
    def test_ring_buffer_is_bounded(self):
        tuner, _, clock, signals = make_tuner(
            policy=TuningPolicy(cooldown_seconds=0.0), audit_limit=4
        )
        signals["queued"] = 64
        for _ in range(7):
            tuner.tick()
            clock.advance(1.0)
        decisions = tuner.decisions
        assert len(decisions) == 4  # oldest dropped
        assert decisions == sorted(decisions, key=lambda d: d.at)

    def test_decisions_are_jsonable(self):
        import json

        tuner, _, _, signals = make_tuner()
        signals["queued"] = 8
        decision = tuner.tick()
        assert isinstance(decision, TuningDecision)
        payload = decision.as_dict()
        json.dumps(payload)
        assert payload["rule"] == "grow_admission"
        assert payload["applied"] is True

    def test_apply_failure_is_audited_not_raised(self):
        tuner, warehouse, _, signals = make_tuner()
        warehouse.fail_with = ConfigError("no")
        signals["queued"] = 8
        decision = tuner.tick()
        assert not decision.applied
        assert decision.reason.startswith("apply failed")
        assert warehouse.tuning.max_in_flight == 8


class TestPolicyValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_in_flight": 0},
            {"max_in_flight": 1, "min_in_flight": 2},
            {"grow_factor": 0.5},
            {"shrink_factor": 1.5},
            {"shrink_patience": 0},
            {"cooldown_seconds": -1.0},
        ],
    )
    def test_bad_policies_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            TuningPolicy(**kwargs)


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
        tuner = warehouse.enable_autotuning(
            policy=TuningPolicy(
                min_in_flight=2, max_in_flight=16, cooldown_seconds=0.01
            ),
            interval=0.005,
        )
        cities = ["lyon", "paris", "nice"] * 8
        try:
            handles = [
                warehouse.submit(city_query(city, label=f"live-{index}"))
                for index, city in enumerate(cities)
            ]
            results = [handle.results(timeout=30.0) for handle in handles]
        finally:
            warehouse.close()
        assert results == [
            evaluate_star_query(city_query(city), catalog) for city in cities
        ]
        assert not tuner.running
        assert tuner.last_error is None
        deadline = time.monotonic() + 5.0
        while (
            set(threading.enumerate()) - threads_before
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        assert set(threading.enumerate()) == threads_before

    def test_enable_autotuning_is_idempotent_and_closable(self, tiny_star):
        catalog, star = tiny_star
        warehouse = Warehouse(catalog, star)
        tuner = warehouse.enable_autotuning(interval=0.01)
        assert warehouse.enable_autotuning() is tuner  # still running
        assert warehouse.stats()["autotune"]["enabled"]
        warehouse.disable_autotuning()
        assert not tuner.running
        warehouse.disable_autotuning()  # idempotent
        warehouse.close()  # close after disable is clean too
