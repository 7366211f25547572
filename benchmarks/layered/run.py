"""The layered end-to-end benchmark: one command, every metric by name.

    python benchmarks/layered/run.py [--workload NAME] [--seed S]
        [--seconds T] [--trace 0|1] [--record] [--smoke] [--out FILE]

Runs each workload untraced for the end-to-end metrics, then a separate
seam-traced pass and the caller-thread probe for the per-layer metrics,
checks sampled results against ``repro.query.reference``, and prints
every metric with its unit.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0``
the end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the
per-layer ones, without ``--trace`` both.  README.md explains every
metric, workload and parameter.
"""

from __future__ import annotations

import argparse
import asyncio
import csv
import gc
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import closedloop  # noqa: E402
import engines  # noqa: E402
import seamtrace  # noqa: E402
import spec  # noqa: E402

from repro import Warehouse  # noqa: E402
from repro.cjoin.registry import QueryHandle  # noqa: E402
from repro.query.reference import evaluate_star_query  # noqa: E402
from repro.sql.render import render_star_query  # noqa: E402

OUT = HERE / "out"
TRAJECTORY = HERE / "trajectory.csv"
#: generated queries per run; the loops cycle through them
QUERY_POOL = 2048
FIRST_ACCEPT_TIMEOUT_S = 60.0


class MalformedResult(Exception):
    """A metric is missing or not a finite number."""


# ----------------------------------------------------------------------
# Live (untraced) pass
# ----------------------------------------------------------------------
def wait_accepted(handle: QueryHandle) -> None:
    """Block until the pipeline registered the query (or refused it)."""
    deadline = time.perf_counter() + FIRST_ACCEPT_TIMEOUT_S
    while handle.admitted_at is None and not handle.done:
        if time.perf_counter() > deadline:
            raise RuntimeError("first query was not accepted in time")
        time.sleep(0.0002)


def run_local_live(workload, seed, warmup_s, window_s, windows, scale_factor,
                   setup_repeats, scratch) -> dict:
    queries = engine = catalog = star = None
    setups = []
    for _ in range(setup_repeats):
        if engine is not None:
            engine.close()
            engine = catalog = star = None
            gc.collect()  # the discarded world must not count in peak RSS
        catalog, star, load_s = engines.load_world(scale_factor)
        if queries is None:
            queries = engines.make_queries(seed, catalog, QUERY_POOL)
        engine = engines.LocalEngine(workload, catalog, star, scratch)
        started = time.perf_counter()
        engine.start()
        first = engine.submit(queries[0], lambda handle: None)
        wait_accepted(first)
        setups.append(load_s + time.perf_counter() - started)
        first.wait(FIRST_ACCEPT_TIMEOUT_S)
    fact = catalog.table(star.fact.name)
    fact_rows = fact.row_count
    batches = (
        engines.make_ingest_batches(seed, catalog, star) if workload.ingest else None
    )
    try:
        loop = closedloop.LocalLoop(engine, queries, workload.in_flight, batches)
        rec = loop.run(warmup_s, window_s, windows)
        rss = engines.peak_rss_mb()
        submit_log = engine.submit_log
        closing = time.perf_counter()
    finally:
        engine.close()
    reopened = (
        reopen_and_check(engine, closing, rec, fact_rows, queries)
        if workload.ingest else {}
    )
    live = {
        "rec": rec, "submit_log": submit_log, "setups": setups,
        "peak_rss_mb": rss, "fact_rows": fact_rows,
        "verified": len(rec.samples), "wrong": count_wrong(engine, rec, queries),
        "catalog": catalog, "star": star, "queries": queries,
        "ingest_batches": batches,
        **reopened,
    }
    return live


def count_wrong(engine, rec, queries) -> int:
    """Sampled results of a local pass that differ from the reference."""
    versioned = engine.warehouse.versioned_fact
    return sum(
        rows != evaluate_star_query(
            # under MVCC: at the snapshot the query was stamped with
            handle.registration.query if versioned is not None
            else queries[index % len(queries)],
            engine.catalog, versioned,
        )
        for index, rows, handle in rec.samples
    )


def reopen_and_check(engine, closing, rec, fact_rows, queries) -> dict:
    """Cold-start from the data directory: acked rows survive, queries agree."""
    reopened = Warehouse.open(
        str(engine.data_dir), execution="batched", enable_updates=True
    )
    reopen_s = time.perf_counter() - closing
    try:
        acked_rows = sum(rows for _, _, _, rows in rec.acks)
        survived = reopened.catalog.table(engine.star.fact.name).row_count
        missing_rows = max(0, fact_rows + acked_rows - survived)
        # quiesced: drained on this thread, no service driver to race
        handles = [
            reopened.submit(query) for query in queries[:spec.REOPEN_QUERIES]
        ]
        reopened.run()
        wrong = sum(
            handle.results() != evaluate_star_query(handle.query, reopened.catalog)
            for handle in handles
        )
    finally:
        reopened.close()
    return {
        "reopen_s": reopen_s,
        "lost_batches": math.ceil(missing_rows / spec.INGEST_BATCH_ROWS),
        "verified_after_reopen": len(handles),
        "wrong_after_reopen": wrong,
    }


def caller_thread_probe(workload, live: dict, window_s: float, scratch) -> dict:
    """Finding c, measured: the workload's closed loop once more, with
    ``Warehouse.submit`` on the harness thread as the service documents it."""
    engine = engines.LocalEngine(
        workload, live["catalog"], live["star"], scratch, on_driver_thread=False
    )
    engine.start()
    try:
        loop = closedloop.LocalLoop(engine, live["queries"], workload.in_flight)
        rec = loop.run(0.0, window_s, spec.PROBE_WINDOWS)
    finally:
        engine.close()
    failed = len(rec.failures)
    return {
        "engine.caller_submit.driver_crashes": rec.crashes,
        "engine.caller_submit.failed_ops_ratio": (
            failed / max(failed + len(rec.completions), 1)
        ),
        "engine.caller_submit.wrong_result_ratio": (
            count_wrong(engine, rec, live["queries"]) / max(len(rec.samples), 1)
        ),
    }


async def run_remote_live(workload, seed, warmup_s, window_s, windows,
                          scale_factor, setup_repeats) -> dict:
    # the harness's own copy of the data: query generation and reference
    catalog, star, _ = engines.load_world(scale_factor)
    queries = engines.make_queries(seed, catalog, QUERY_POOL)
    statements = [render_star_query(query, star) for query in queries]
    engine = None
    setups = []
    try:
        for _ in range(setup_repeats):
            if engine is not None:
                await engine.stop()
            engine = engines.RemoteEngine(workload, scale_factor)
            started = time.perf_counter()
            await engine.start()
            cursor = await engine.pools[0].execute(statements[0])
            setups.append(time.perf_counter() - started)
            await cursor.fetchall()
            await cursor.close()
        rec = await closedloop.run_remote(
            engine, statements, workload.in_flight, warmup_s, window_s, windows
        )
        rss = (await engine.snapshot())["peak_rss_mb"]
    finally:
        stopped = await engine.stop() if engine is not None else {}
    checked = [(queries[index % len(queries)], rows) for index, rows, _ in rec.samples]
    wrong = sum(
        rows != evaluate_star_query(query, catalog) for query, rows in checked
    )
    return {
        "rec": rec, "submit_log": None, "setups": setups,
        "peak_rss_mb": rss, "fact_rows": catalog.table(star.fact.name).row_count,
        "verified": len(checked), "wrong": wrong,
        "catalog": catalog, "star": star, "queries": queries,
        "ingest_batches": None,
        "leaked_child_threads": stopped.get("leaked_threads", []),
    }


def live_metrics(workload, live: dict) -> dict:
    """End-to-end, outcome and live-layer values of one untraced pass."""
    rec = live["rec"]
    summary = closedloop.summarize(rec, live["submit_log"])
    windows = summary["windows"]
    windows["setup_s"] = live["setups"]  # the repeats are its spread
    lost_batches = live.get("lost_batches", 0)  # acked, gone after reopen
    attempted = summary["attempted"] + lost_batches
    failed = summary["failed"] + lost_batches
    verified = live["verified"] + live.get("verified_after_reopen", 0)
    wrong = live["wrong"] + live.get("wrong_after_reopen", 0)
    completed = max(summary["completed"], 1)
    cpu_per_query = summary["cpu_s"] / completed
    values = {
        name: closedloop.fast_decile(windows[name], spec.metric(name).better)
        for name in (
            "setup_s", "query_throughput_qps", "query_latency_p50_ms",
            "submit_latency_p50_ms", "ingest_ack_p50_ms",
        )
    }
    values.update({
        "query_latency_p90_ms": summary["query_latency_p90_ms"],
        "peak_rss_mb": live["peak_rss_mb"],
        "failed_ops_ratio": failed / max(attempted, 1),
        "wrong_result_ratio": wrong / max(verified, 1),
        "ingest_rows_per_s": summary["ingest_rows_per_s"],
        "ingest_ack_p90_ms": summary["ingest_ack_p90_ms"],
        "reopen_s": live.get("reopen_s", 0.0),
        "engine.scan_tuples_per_s": summary["scan_tuples_per_s"],
        "engine.scan_cycles_per_s": summary["scan_tuples_per_s"] / live["fact_rows"],
        "engine.queue_wait_p50_ms": summary["queue_wait_p50_ms"],
        "engine.driver_crashes": rec.crashes,
        "engine.driver_alive_at_end": int(rec.alive_at_end),
        "engine.cpu_s_per_query": 0.0 if workload.remote else cpu_per_query,
        "server.cpu_s_per_query": cpu_per_query if workload.remote else 0.0,
        "client.execute_rtt_p50_ms": summary["execute_rtt_p50_ms"],
        "client.fetch_wait_p50_ms": summary["fetch_wait_p50_ms"],
        "client.rows_per_query": summary["rows_per_query"],
        "harness.ingest_send_lag_p90_ms": summary["send_lag_p90_ms"],
        "harness.cpu_share": summary["harness_cpu_share"],
    })
    return {
        "values": values,
        "windows": windows,
        "attempted": attempted,
        "failed": failed,
        "verified": verified,
        "correct": wrong == 0 and verified > 0,
        "latency_samples": summary["completed"],
    }


# ----------------------------------------------------------------------
# One workload, start to finish
# ----------------------------------------------------------------------
def run_workload(workload, seed: int, seconds: float, trace: int | None,
                 scale_factor: float, smoke_window_s: float | None = None) -> dict:
    """Run the passes ``trace`` selects; returns the result record.

    ``smoke_window_s`` shrinks warm-up and windows alike for ``--smoke``
    and the tests; the measured runs use the workload's own window.
    """
    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    engines.reset_peak_rss()
    window_s = smoke_window_s or workload.window_s
    warmup_s = smoke_window_s or spec.WARMUP_S
    windows = spec.window_count(seconds, window_s)
    # set-up time is an end-to-end metric the per-layer run does not report
    setup_repeats = 1 if trace == 1 or smoke_window_s else spec.SETUP_REPEATS
    try:
        if workload.remote:
            live = asyncio.run(run_remote_live(
                workload, seed, warmup_s, window_s, windows, scale_factor,
                setup_repeats,
            ))
        else:
            live = run_local_live(
                workload, seed, warmup_s, window_s, windows, scale_factor,
                setup_repeats, scratch,
            )
        result = live_metrics(workload, live)
        if trace != 0:
            result["values"].update(seamtrace.traced_pass(
                workload, live["catalog"], live["star"], live["queries"],
                live["ingest_batches"], scratch,
                OUT / f"{workload.name}.trace.jsonl",
            ))
            result["values"].update(
                # two windows as long as the warm-up: 4 s on every workload
                caller_thread_probe(workload, live, warmup_s, scratch)
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    reported = {0: spec.END_TO_END, 1: spec.PER_LAYER, None: spec.ALL_METRICS}[trace]
    metrics = {}
    for metric in reported:
        value = result["values"].get(metric.name)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise MalformedResult(f"{workload.name}: {metric.name} = {value!r}")
        metrics[metric.name] = {"value": value, "unit": metric.unit}
    return {
        "workload": workload.name,
        "seed": seed,
        "window_s": window_s,
        "window_count": windows,
        "trace": trace,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "verified": result["verified"],
        "latency_samples": result["latency_samples"],
        "metrics": metrics,
        "windows": result["windows"],
        "leaked_child_threads": live.get("leaked_child_threads", []),
    }


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def print_record(record: dict) -> None:
    print(f"== {record['workload']}  seed={record['seed']} "
          f"window={record['window_s']:g}s x {record['window_count']} ==")
    for name, entry in record["metrics"].items():
        note = ""
        if name == "query_latency_p90_ms":
            note = f"   (pooled, n={record['latency_samples']})"
        print(f"  {name:<46} {entry['value']:>14.6g} {entry['unit']}{note}")
    print(f"  operations: {record['attempted']} attempted, "
          f"{record['failed']} failed; results: {record['verified']} checked "
          f"against the reference, correct={record['correct']}")


def contract_line(record: dict) -> str:
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    })


def git_sha() -> str:
    """Short HEAD hash, ``-dirty`` when the tree differs from it."""
    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True,
        ).stdout.strip()
    try:
        sha = git("rev-parse", "--short", "HEAD")
        return sha + ("-dirty" if git("status", "--porcelain") else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def append_run(path: Path, record: dict) -> None:
    """Add a run to a result file that compare.py reads."""
    path.parent.mkdir(parents=True, exist_ok=True)
    runs = json.loads(path.read_text())["runs"] if path.exists() else []
    runs.append(record)
    path.write_text(json.dumps({"runs": runs}, indent=1) + "\n")


def append_trajectory(record: dict) -> None:
    """One row per (workload, window): the run-table of README.md."""
    names = [metric.name for metric in spec.END_TO_END + spec.OUTCOME]
    header = [
        "git_sha", "nproc", "python", "seed", "window_s", "workload", "window",
        *names,
    ]
    new = not TRAJECTORY.exists()
    sha = git_sha()
    with TRAJECTORY.open("a", newline="") as out:
        writer = csv.writer(out)
        if new:
            writer.writerow(header)
        for window in range(record["window_count"]):
            row = [
                sha, os.cpu_count(), platform.python_version(),
                record["seed"], f"{record['window_s']:g}", record["workload"],
                window,
            ]
            for name in names:
                series = record["windows"].get(name, [])
                value = (
                    series[window] if len(series) == record["window_count"]
                    else record["metrics"][name]["value"]  # one value per run
                )
                row.append(f"{value:.6g}")
            writer.writerow(row)


def check_smoke(record: dict) -> None:
    """What ``--smoke`` asserts beyond a well-formed result."""
    if not record["correct"]:
        raise MalformedResult(f"{record['workload']}: sampled results differ")
    threads = [t.name for t in threading.enumerate() if t is not threading.main_thread()]
    if threads or record["leaked_child_threads"]:
        raise MalformedResult(
            f"{record['workload']}: leaked threads {threads} "
            f"{record['leaked_child_threads']}"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w.name for w in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=4)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed span")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only; 1: per-layer only")
    parser.add_argument("--record", action="store_true",
                        help="append one row per window to trajectory.csv")
    parser.add_argument("--smoke", action="store_true",
                        help="sf=0.002, short windows; asserts correctness and no leaks")
    parser.add_argument("--out", type=Path, default=None,
                        help="append the runs to this result file (compare.py)")
    args = parser.parse_args(argv)
    seconds = args.seconds or (
        spec.SMOKE_SECONDS if args.smoke else spec.DEFAULT_SECONDS
    )
    scale_factor = spec.SMOKE_SCALE_FACTOR if args.smoke else spec.SCALE_FACTOR
    chosen = [spec.workload(args.workload)] if args.workload else spec.WORKLOADS
    records = []
    for workload in chosen:
        record = run_workload(
            workload, args.seed, seconds, args.trace, scale_factor,
            spec.SMOKE_WINDOW_S if args.smoke else None,
        )
        print_record(record)
        if args.smoke:
            check_smoke(record)
        if args.record:
            append_trajectory(record)
        if args.out is not None:
            append_run(args.out, record)
        records.append(record)
        (OUT / "last.json").write_text(json.dumps({"runs": records}, indent=1) + "\n")
        print(contract_line(record), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
