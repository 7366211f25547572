"""The unified runtime-tuning surface (DESIGN.md section 13).

Every knob that defends the paper's predictability claim used to be a
loose constructor keyword scattered across three layers:
``max_in_flight`` and ``admission_queue_depth`` on the service,
``batch_size`` on the executor config, ``idle_sleep`` on both.
:class:`TuningConfig` consolidates them into one validated, immutable
value object that is also the unit of *runtime* reconfiguration:
``Warehouse.reconfigure(tuning)`` threads a new config through
service → executor atomically, which is how an operator resizes a
live warehouse between scan cycles.

This module sits below every engine layer (it depends only on
:mod:`repro.errors`), so the executor, the service, the warehouse,
and the server can all import it without cycles; the range-bound
constants and the ``_require_int`` / ``_require_float`` validators
live here for the same reason.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.errors import ConfigError

#: Default number of items pulled from the Preprocessor per batch.
DEFAULT_BATCH_SIZE = 256

#: Upper bound on batch_size: one batch should never be asked to hold
#: more rows than a large fact table, which only wastes memory.
MAX_BATCH_SIZE = 1 << 20

#: Upper bound on maxConc / service in-flight limits: bit-vectors are
#: arbitrary-precision ints, but beyond this bound every per-tuple
#: bit operation touches kilobytes of limbs for no plausible workload.
MAX_CONCURRENT_QUERIES = 1 << 16

#: Upper bound on the service's pending-admission FIFO.
MAX_ADMISSION_QUEUE_DEPTH = 1 << 20

#: Upper bound on the service's idle-throttle sleep, in seconds: a
#: larger value only adds admission latency, never saves more CPU.
MAX_IDLE_SLEEP = 60.0

#: Default idle-throttle sleep for continuous mode.
DEFAULT_IDLE_SLEEP = 0.001

#: Default bound on submissions waiting for an in-flight slot.
DEFAULT_ADMISSION_QUEUE_DEPTH = 1024

#: Default per-connection bound on concurrently submitted statements
#: (the server-side fairness layer, docs/ARCHITECTURE.md section 4).
DEFAULT_MAX_IN_FLIGHT_PER_CONNECTION = 16

def _require_int(name: str, value, low: int, high: int) -> None:
    """Range-check an integer config field with an actionable message."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(
            f"{name} must be an int, got {value!r} "
            f"({type(value).__name__})"
        )
    if not low <= value <= high:
        raise ConfigError(
            f"{name} must be in [{low}, {high}], got {value}"
        )


def _require_float(name: str, value, low: float, high: float) -> None:
    """Range-check a numeric config field with an actionable message."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(
            f"{name} must be a number, got {value!r} "
            f"({type(value).__name__})"
        )
    if not low <= value <= high:
        raise ConfigError(
            f"{name} must be in [{low}, {high}], got {value}"
        )


@dataclass(frozen=True)
class TuningConfig:
    """The runtime-tunable knobs of one warehouse, as one value.

    Immutable and validated on construction, so a config that exists
    is a config that can be applied; runtime changes build a new value
    (:meth:`replace`) and hand it to ``Warehouse.reconfigure``.

    Attributes:
        max_in_flight: bound on concurrently registered CJOIN queries;
            ``None`` defers to the operator's ``max_concurrent`` (and
            any explicit value is clamped to it at apply time).
        admission_queue_depth: bound on queued submissions beyond the
            free in-flight slots before
            :class:`~repro.errors.AdmissionError` back-pressure kicks in.
        idle_sleep: service driver sleep, in seconds, between polls
            while no query is registered (a submission wakes it).
        batch_size: items per preprocessor batch.
    """

    max_in_flight: int | None = None
    admission_queue_depth: int = DEFAULT_ADMISSION_QUEUE_DEPTH
    idle_sleep: float = DEFAULT_IDLE_SLEEP
    batch_size: int = DEFAULT_BATCH_SIZE

    def __post_init__(self) -> None:
        if self.max_in_flight is not None:
            _require_int(
                "max_in_flight", self.max_in_flight, 1, MAX_CONCURRENT_QUERIES
            )
        _require_int(
            "admission_queue_depth",
            self.admission_queue_depth,
            1,
            MAX_ADMISSION_QUEUE_DEPTH,
        )
        _require_float("idle_sleep", self.idle_sleep, 0.0, MAX_IDLE_SLEEP)
        _require_int("batch_size", self.batch_size, 1, MAX_BATCH_SIZE)

    def replace(self, **changes) -> "TuningConfig":
        """A new config with ``changes`` applied (and re-validated)."""
        return dataclasses.replace(self, **changes)

    def as_dict(self) -> dict:
        """A JSON-able snapshot (the ``tuning`` key of stats frames)."""
        return dataclasses.asdict(self)
