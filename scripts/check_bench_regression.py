#!/usr/bin/env python3
"""Fail when a headline performance ratio regresses > 20% vs baseline.

Tracked ratios (ratios, not absolute seconds, so the gate is
meaningful across machines of different speeds):

* ``parallel_scaleup_speedup`` — the 4-worker sharded drain
  (``execute_process_parallel``) vs the serial drain (benchmarks/bench_parallel_scaleup.py);
  only measurable on hosts with >= 4 CPUs, skipped elsewhere;
* ``open_loop_flatness`` — p95 latency at a low Poisson arrival rate
  over p95 at 8x that rate against the always-on service
  (benchmarks/bench_open_loop_latency.py; 1.0 = perfectly flat, the
  paper's predictability claim);
* ``async_session_flatness`` — probe-statement p95 with 64 concurrent
  remote sessions held open over probe p95 with 1024 held, multiplexed
  over 4 sockets against one server
  (benchmarks/bench_remote_concurrency.py; 1.0 = session count does
  not move tail latency, the serving-layer predictability claim);
* ``burst_recovery_ratio`` — p95 under an 8x Poisson burst with a
  *static* tight admission bound over p95 with the adaptive
  right-sizing controller enabled
  (benchmarks/bench_burst_recovery.py).  Deliberately inverted —
  static over adaptive — so that, like every other tracked ratio,
  higher is better: 1.0 = the controller matched the static config,
  above 1.0 it relieved the burst;
* ``ingest_flatness`` — open-loop query p95 with no ingest over p95
  while a producer streams >= 2k appended fact rows per second
  through the bounded ingest buffer, applied at scan boundaries
  (benchmarks/bench_ingest_flatness.py; 1.0 = streaming writes are
  free, the streaming-ingest predictability claim);
* ``restart_recovery`` — seconds to regenerate and load the SSB
  dataset from scratch over seconds for ``Warehouse.open`` on a
  durable data directory after a crash (decode columns + replay the
  WAL tail; benchmarks/bench_restart_recovery.py, DESIGN.md section
  16).  The bench also enforces the correctness half inline: every
  acked ingest row must survive the simulated power loss
  (``acked_survival == 1.0``) or measurement fails outright.

Each measured ratio is compared against BENCH_baseline.json at the
repository root; a measurement below ``baseline * (1 - tolerance)``
(default tolerance 20%) fails the check.  Wired into CI as a
non-blocking job (timing on shared runners is advisory); run it
locally before and after touching hot paths.

Updating the baseline (see EXPERIMENTS.md section 5): after an
intentional performance change, run on a quiet multi-core host::

    python scripts/check_bench_regression.py --update

review the diff to BENCH_baseline.json, and commit it together with
the change that moved the numbers.  ``--update`` only overwrites
metrics that are measurable on the current host, so a 2-core laptop
refreshing the other ratios will not clobber the parallel one.  To
refresh a subset without re-measuring (or touching) the rest —
e.g. after a change that only moves the ingest ratios, or to
protect floor-seeded metrics — name the metrics to run::

    python scripts/check_bench_regression.py --update \\
        --only ingest_flatness --only restart_recovery
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "BENCH_baseline.json"

#: fraction of the baseline ratio a measurement may lose before the
#: gate fails (0.2 = fail below 80% of baseline)
DEFAULT_TOLERANCE = 0.2


def _ensure_import_paths() -> None:
    for path in (str(REPO_ROOT), str(REPO_ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


#: every metric measure_metrics() knows how to produce, in run order
TRACKED_METRICS = (
    "parallel_scaleup_speedup",
    "open_loop_flatness",
    "async_session_flatness",
    "burst_recovery_ratio",
    "ingest_flatness",
    "restart_recovery",
)


def measure_metrics(
    only: tuple[str, ...] | None = None,
) -> dict[str, float | None]:
    """Run the tracked benchmarks; None marks unmeasurable-here metrics.

    ``only`` restricts both measurement and the returned dict to the
    named metrics — metrics left out are neither run nor reported, so
    ``--update --only ...`` cannot clobber them.
    """
    _ensure_import_paths()
    wanted = set(TRACKED_METRICS if only is None else only)
    metrics: dict[str, float | None] = {}
    if "parallel_scaleup_speedup" in wanted:
        from benchmarks.bench_parallel_scaleup import WORKERS, measure_scaleup

        if (os.cpu_count() or 1) >= WORKERS:
            scaleup = measure_scaleup()
            if not scaleup["identical"]:
                raise AssertionError(
                    "parallel drain produced different results"
                )
            metrics["parallel_scaleup_speedup"] = round(
                scaleup["speedup"], 3
            )
        else:
            metrics["parallel_scaleup_speedup"] = None
    if "open_loop_flatness" in wanted:
        from benchmarks.bench_open_loop_latency import measure_open_loop

        open_loop = measure_open_loop()
        if not open_loop["identical"]:
            raise AssertionError(
                "open-loop service results diverged from reference"
            )
        metrics["open_loop_flatness"] = round(open_loop["flatness"], 3)
    if "async_session_flatness" in wanted:
        from benchmarks.bench_remote_concurrency import (
            measure_async_sessions,
        )

        async_sessions = measure_async_sessions()
        if not async_sessions["rows_ok"]:
            raise AssertionError("async session rows diverged from reference")
        if not async_sessions["sustained_target"]:
            raise AssertionError(
                "async server failed to hold the full session rung "
                f"({async_sessions['peak_sessions']} < "
                f"{async_sessions['sessions']})"
            )
        if not (
            async_sessions["tasks_clean"] and async_sessions["threads_clean"]
        ):
            raise AssertionError("async session bench leaked tasks or threads")
        metrics["async_session_flatness"] = round(
            async_sessions["flatness"], 3
        )
    if "burst_recovery_ratio" in wanted:
        from benchmarks.bench_burst_recovery import measure_burst_recovery

        burst = measure_burst_recovery()
        if not burst["identical"]:
            raise AssertionError(
                "burst-recovery results diverged from reference"
            )
        if not burst["resized"]:
            raise AssertionError(
                "adaptive controller applied no resize during the burst"
            )
        metrics["burst_recovery_ratio"] = round(burst["ratio"], 3)
    if "ingest_flatness" in wanted:
        from benchmarks.bench_ingest_flatness import measure_ingest_flatness

        ingest = measure_ingest_flatness()
        if not ingest["identical"]:
            raise AssertionError(
                "ingest-race results diverged from reference"
            )
        racing = ingest["racing"]
        if not racing["probe_saw_rows"]:
            raise AssertionError(
                "acked ingest rows were not visible to the probe"
            )
        if racing["rows_applied"] <= 0:
            raise AssertionError(
                "ingest producer applied no rows; the race never happened"
            )
        metrics["ingest_flatness"] = round(ingest["flatness"], 3)
    if "restart_recovery" in wanted:
        from benchmarks.bench_restart_recovery import (
            measure_restart_recovery,
        )

        restart = measure_restart_recovery()
        if restart["acked_survival"] != 1.0 or not restart["identical"]:
            raise AssertionError(
                "acked ingest rows did not survive the simulated crash"
            )
        if not restart["generation_resumed"]:
            raise AssertionError(
                "the ingest generation did not resume past the last ack"
            )
        if restart["wal_records_replayed"] < 1:
            raise AssertionError(
                "the crash never exercised the WAL replay path"
            )
        metrics["restart_recovery"] = round(restart["speedup"], 3)
    return metrics


def check(
    measured: dict[str, float | None],
    baseline: dict,
    tolerance: float,
) -> list[str]:
    """Return failure messages (empty = all tracked ratios hold up)."""
    problems = []
    floor_seeded = set(baseline.get("floor_seeded", ()))
    for name, reference in baseline.get("metrics", {}).items():
        if name not in measured:
            print(f"{name}: skipped (not selected by --only)")
            continue
        value = measured[name]
        if reference is None:
            print(f"{name}: skipped (no committed baseline; see --update)")
            continue
        if value is None:
            print(f"{name}: skipped (not measurable on this host)")
            continue
        floor = reference * (1.0 - tolerance)
        status = "ok" if value >= floor else "REGRESSION"
        origin = (
            "acceptance floor, never measured here"
            if name in floor_seeded
            else "measured baseline"
        )
        print(
            f"{name}: measured {value:.2f}x vs baseline {reference:.2f}x "
            f"({origin}; floor {floor:.2f}x) -> {status}"
        )
        if value < floor:
            problems.append(
                f"{name} regressed: {value:.2f}x < {floor:.2f}x "
                f"(baseline {reference:.2f}x - {tolerance:.0%})"
            )
    return problems


def update_baseline(
    measured: dict[str, float | None],
    only: tuple[str, ...] | None = None,
) -> None:
    """Overwrite measurable metrics in BENCH_baseline.json.

    Metrics listed under the baseline's ``floor_seeded`` annotation
    hold an acceptance floor, not a measurement from a qualified host
    (e.g. a parallel ratio seeded on a single-CPU container).  A blanket
    ``--update`` leaves them alone; naming one via ``--only`` is the
    explicit promotion path — the floor is replaced by the measurement
    and the name drops off the annotation.
    """
    baseline = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
    floor_seeded = list(baseline.get("floor_seeded", ()))
    explicit = set(only or ())
    for name, value in measured.items():
        if value is None:
            continue
        if name in floor_seeded and name not in explicit:
            print(
                f"{name}: kept floor seed {baseline['metrics'][name]} "
                f"(measured {value}; promote with --only {name})"
            )
            continue
        baseline["metrics"][name] = value
        if name in floor_seeded:
            floor_seeded.remove(name)
    baseline["floor_seeded"] = floor_seeded
    BASELINE_PATH.write_text(
        json.dumps(baseline, indent=2) + "\n", encoding="utf-8"
    )
    print(f"updated {BASELINE_PATH.name}: {baseline['metrics']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update",
        action="store_true",
        help="write measured ratios into BENCH_baseline.json",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed fractional loss vs baseline (default 0.2)",
    )
    parser.add_argument(
        "--only",
        action="append",
        choices=TRACKED_METRICS,
        metavar="METRIC",
        help="measure (and with --update, overwrite) only this metric; "
        "repeatable",
    )
    args = parser.parse_args(argv)
    baseline = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
    measured = measure_metrics(tuple(args.only) if args.only else None)
    if args.update:
        update_baseline(
            measured, tuple(args.only) if args.only else None
        )
        return 0
    problems = check(measured, baseline, args.tolerance)
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        return 1
    print("benchmark ratios within tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
