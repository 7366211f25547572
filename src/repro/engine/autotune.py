"""Adaptive right-sizing: the telemetry-driven controller (DESIGN.md
section 13).

The paper's promise is predictable latency under arbitrary
concurrency, but the knob that defends it — the service's admission
bound — was static while
:meth:`~repro.cjoin.stats.PipelineStats.latency_summary` already
measures exactly what an autoscaler needs.  :class:`AutoTuner` closes
that loop natively inside the engine, in the observe → decide → apply
shape production autoscalers use:

* **observe** — each tick samples a :class:`TuningSample` from the
  warehouse's own telemetry: tail-window p95 end-to-end latency and
  p95 admission wait, live admission-queue depth and in-flight
  occupancy;
* **decide** — pure rules over the sample (no I/O, so every rule is
  unit-testable with a fake clock and fake telemetry): grow the
  admission bound when submissions queue behind it, shrink it after
  sustained idleness, both bounded by the policy's clamps and
  rate-limited by a cooldown;
* **apply** — actions go through ``Warehouse.reconfigure``, the same
  runtime path a human operator uses, so every knob lands at its safe
  boundary (scan cycle or batch) and results stay reference-equal
  across a resize.

Every tick that proposes an action — applied, clamped, or suppressed
by the cooldown — is recorded as a :class:`TuningDecision` in a
bounded ring buffer, queryable from any client through
``Connection.stats()`` (docs/PROTOCOL.md section 9): the audit trail
that makes an autonomic controller debuggable.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass

from repro.cjoin.stats import percentile
from repro.errors import ConfigError, ReproError
from repro.tuning import (
    MAX_CONCURRENT_QUERIES,
    _require_float,
    _require_int,
)

#: Default seconds between controller ticks.
DEFAULT_INTERVAL = 0.25

#: Default size of the decision-audit ring buffer.
DEFAULT_AUDIT_LIMIT = 256


@dataclass(frozen=True)
class TuningSample:
    """One tick's observed signals (the controller's whole input)."""

    #: controller-clock timestamp (monotonic seconds)
    at: float
    #: p95 end-to-end latency over the tail window, seconds
    p95: float
    #: p95 admission wait over the tail window, seconds
    wait_p95: float
    #: completed queries covered by the two percentiles
    window_count: int
    #: submissions waiting in the service admission FIFO for a slot
    #: (those a free slot awaits at the next batch boundary excluded)
    queued: int
    #: queries admitted and not yet completed
    in_flight: int
    #: the service's current (effective) admission bound
    max_in_flight: int


@dataclass(frozen=True)
class TuningDecision:
    """One audited controller decision: signals → rule → action → effect.

    ``applied`` is False when the rule fired but the action was
    suppressed (cooldown) or was a no-op (already at the bound);
    ``reason`` says which.  ``action`` records the knob, the value it
    moved from, the raw (pre-clamp) target, and the value actually
    requested, so a bounds clamp is visible in the audit.
    """

    at: float
    rule: str
    signals: dict
    action: dict
    applied: bool
    reason: str

    def as_dict(self) -> dict:
        """A JSON-able view (the wire shape of the stats audit)."""
        return {
            "at": self.at,
            "rule": self.rule,
            "signals": dict(self.signals),
            "action": dict(self.action),
            "applied": self.applied,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class TuningPolicy:
    """Bounds, thresholds, and cadence for the controller's rules.

    Attributes:
        min_in_flight / max_in_flight: clamp on the admission bound.
        grow_factor / shrink_factor: multiplicative step sizes.
        queue_grow_fraction: grow the admission bound when the FIFO
            holds more than this fraction of it.
        idle_shrink_fraction: an "idle" sample has occupancy at or
            under this fraction of the bound (and an empty FIFO).
        shrink_patience: consecutive idle samples before shrinking
            (hysteresis, so one quiet tick never thrashes the bound).
        cooldown_seconds: minimum spacing between *applied* actions;
            rules that fire inside it are audited but suppressed.
        latency_window: completed-query records in the p95 tail window.
    """

    min_in_flight: int = 2
    max_in_flight: int = 1024
    grow_factor: float = 2.0
    shrink_factor: float = 0.5
    queue_grow_fraction: float = 0.25
    idle_shrink_fraction: float = 0.25
    shrink_patience: int = 3
    cooldown_seconds: float = 1.0
    latency_window: int = 64

    def __post_init__(self) -> None:
        _require_int(
            "min_in_flight", self.min_in_flight, 1, MAX_CONCURRENT_QUERIES
        )
        _require_int(
            "max_in_flight", self.max_in_flight,
            self.min_in_flight, MAX_CONCURRENT_QUERIES,
        )
        _require_float("grow_factor", self.grow_factor, 1.0, 64.0)
        _require_float("shrink_factor", self.shrink_factor, 0.0, 1.0)
        _require_float(
            "queue_grow_fraction", self.queue_grow_fraction, 0.0, 1.0
        )
        _require_float(
            "idle_shrink_fraction", self.idle_shrink_fraction, 0.0, 1.0
        )
        _require_int("shrink_patience", self.shrink_patience, 1, 1 << 16)
        _require_float(
            "cooldown_seconds", self.cooldown_seconds, 0.0, 3600.0
        )
        _require_int("latency_window", self.latency_window, 1, 1 << 20)


class AutoTuner:
    """The controller thread: sample → rules → bounded resize actions.

    Args:
        warehouse: the live warehouse to observe and resize; only
            ``tuning``, ``reconfigure``, and (for the default probe)
            ``service`` / ``cjoin`` are touched, so tests drive the
            rules with a stub warehouse.
        policy: rule thresholds and clamps (default
            :class:`TuningPolicy`).
        interval: seconds between ticks of the background thread.
        clock: monotonic-seconds source, injectable so cooldown and
            timestamps are deterministic under test.
        probe: zero-argument callable returning a
            :class:`TuningSample`; ``None`` samples the warehouse's
            real telemetry.  Injectable for fake-telemetry tests.
        audit_limit: decisions retained in the audit ring buffer.
    """

    def __init__(
        self,
        warehouse,
        policy: TuningPolicy | None = None,
        interval: float = DEFAULT_INTERVAL,
        clock=time.monotonic,
        probe=None,
        audit_limit: int = DEFAULT_AUDIT_LIMIT,
    ) -> None:
        _require_float("interval", interval, 0.001, 3600.0)
        _require_int("audit_limit", audit_limit, 1, 1 << 20)
        self.warehouse = warehouse
        self.policy = policy if policy is not None else TuningPolicy()
        self.interval = interval
        self.clock = clock
        self.probe = probe
        self._decisions: deque[TuningDecision] = deque(maxlen=audit_limit)
        self._lock = threading.Lock()
        self._stop_event = threading.Event()
        self._thread: threading.Thread | None = None
        self._last_action_at: float | None = None
        self._idle_streak = 0
        self.last_sample: TuningSample | None = None
        self.last_error: BaseException | None = None

    # ------------------------------------------------------------------
    # Observe
    # ------------------------------------------------------------------
    def sample(self) -> TuningSample:
        """One observation — the injected probe or the live warehouse."""
        if self.probe is not None:
            return self.probe()
        warehouse = self.warehouse
        service = warehouse.service.snapshot()
        tail = warehouse.cjoin.stats.recent_latency_records(
            self.policy.latency_window
        )
        return TuningSample(
            at=self.clock(),
            p95=percentile([r.latency_seconds for r in tail], 0.95),
            wait_p95=percentile([r.wait_seconds for r in tail], 0.95),
            window_count=len(tail),
            # every submission queues until the next batch boundary;
            # pressure is what the free slots will not absorb there
            queued=max(
                service["queued"]
                - max(service["max_in_flight"] - service["in_flight"], 0),
                0,
            ),
            in_flight=service["in_flight"],
            max_in_flight=service["max_in_flight"],
        )

    # ------------------------------------------------------------------
    # Decide (pure: sample + policy + streak state → decisions)
    # ------------------------------------------------------------------
    def _propose(self, sample: TuningSample) -> tuple[str, int] | None:
        """The first rule that wants to move the bound, or None.

        Returns ``(rule, raw_target)``; priority favors growing under
        pressure over shrinking when idle.
        """
        policy = self.policy
        # grow_admission: submissions are queueing behind the bound
        if sample.queued > 0 and sample.queued >= max(
            1, int(policy.queue_grow_fraction * sample.max_in_flight)
        ):
            raw = max(
                sample.max_in_flight + 1,
                int(sample.max_in_flight * policy.grow_factor),
            )
            return ("grow_admission", raw)
        # shrink_admission: sustained low occupancy, nothing waiting
        if (
            self._admission_idle(sample)
            and self._idle_streak >= policy.shrink_patience
            and sample.max_in_flight > policy.min_in_flight
        ):
            return (
                "shrink_admission",
                int(sample.max_in_flight * policy.shrink_factor),
            )
        return None

    def _admission_idle(self, sample: TuningSample) -> bool:
        return (
            sample.queued == 0
            and sample.in_flight
            <= self.policy.idle_shrink_fraction * sample.max_in_flight
        )

    # ------------------------------------------------------------------
    # Tick: observe → decide → apply → audit
    # ------------------------------------------------------------------
    def tick(self) -> TuningDecision | None:
        """One control cycle; returns the decision taken, if any.

        Called by the background thread each interval; tests call it
        directly (with a fake clock/probe) for determinism.
        """
        sample = self.sample()
        self.last_sample = sample
        proposal = self._propose(sample)
        # streaks advance after proposing, so patience is measured in
        # *previous* consecutive idle samples
        self._idle_streak = (
            self._idle_streak + 1 if self._admission_idle(sample) else 0
        )
        if proposal is None:
            return None
        rule, raw = proposal
        policy = self.policy
        current = sample.max_in_flight
        target = min(max(raw, policy.min_in_flight), policy.max_in_flight)
        signals = {
            "p95": sample.p95,
            "wait_p95": sample.wait_p95,
            "queued": sample.queued,
            "in_flight": sample.in_flight,
            "max_in_flight": sample.max_in_flight,
        }
        action = {"knob": "max_in_flight", "from": current,
                  "raw_target": raw, "to": target}
        if target == current:
            return self._record(
                sample.at, rule, signals, action, False,
                "bounds clamp: already at the policy limit",
            )
        if (
            self._last_action_at is not None
            and sample.at - self._last_action_at
            < policy.cooldown_seconds
        ):
            return self._record(
                sample.at, rule, signals, action, False,
                f"cooldown: last action "
                f"{sample.at - self._last_action_at:.3f}s ago",
            )
        reason = "applied"
        if target != raw:
            reason = "applied (clamped to the policy bound)"
        try:
            self.warehouse.reconfigure(
                self.warehouse.tuning.replace(max_in_flight=target)
            )
        except (ConfigError, ReproError) as error:
            return self._record(
                sample.at, rule, signals, action, False,
                f"apply failed: {error}",
            )
        self._last_action_at = sample.at
        # an applied action resets the hysteresis
        self._idle_streak = 0
        return self._record(sample.at, rule, signals, action, True, reason)

    def _record(
        self, at, rule, signals, action, applied, reason
    ) -> TuningDecision:
        decision = TuningDecision(
            at=at, rule=rule, signals=signals, action=action,
            applied=applied, reason=reason,
        )
        with self._lock:
            self._decisions.append(decision)
        return decision

    @property
    def decisions(self) -> list[TuningDecision]:
        """The audit ring's contents, oldest first (bounded copy)."""
        with self._lock:
            return list(self._decisions)

    # ------------------------------------------------------------------
    # Controller thread lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        """True while the controller thread is alive."""
        thread = self._thread
        return thread is not None and thread.is_alive()

    def start(self) -> "AutoTuner":
        """Start the background controller (restartable after stop)."""
        if self.running:
            return self
        self.last_error = None
        self._stop_event = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="warehouse-autotuner", daemon=True
        )
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop_event.wait(self.interval):
            try:
                self.tick()
            except Exception as error:  # keep the warehouse unharmed:
                # a controller crash must never take the service down
                self.last_error = error
                return

    def stop(self, timeout: float = 10.0) -> None:
        """Stop the controller thread (idempotent); audit is retained."""
        self._stop_event.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout)
        self._thread = None
