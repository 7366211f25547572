"""Warehouse facade: the system architecture of paper section 2.1.

Concurrent star queries ride the specialized CJOIN processor; the
conventional query-at-a-time engine sits beside it on the same catalog
(``Warehouse.baseline``).  Updates flow through
snapshot isolation (section 3.5).  The always-on serving surface —
background continuous scan, mid-scan online admission, latency
telemetry — is :class:`~repro.engine.service.WarehouseService`
(DESIGN.md section 9).
"""

from repro.engine.autotune import AutoTuner, TuningDecision, TuningPolicy
from repro.engine.service import WarehouseService
from repro.engine.submission import Submission, SubmissionQueue
from repro.engine.swap import SwapReport, WarehouseHolder, blue_green_swap
from repro.engine.warehouse import Warehouse

__all__ = [
    "AutoTuner",
    "Submission",
    "SubmissionQueue",
    "SwapReport",
    "TuningDecision",
    "TuningPolicy",
    "Warehouse",
    "WarehouseHolder",
    "WarehouseService",
    "blue_green_swap",
]
