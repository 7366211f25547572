"""Tier-1 coverage of the layered benchmark harness (a few seconds).

* BENCHMARK.json and ``spec.py`` name the same workloads and metrics;
* a smoke-sized run of ``solo_n1`` and ``ingest_n8`` yields every named
  metric with its unit, reference-equal samples, and no leaked threads;
* the watchdog survives a service that dies mid-window: what was in
  flight counts as failed (never completed) and the run finishes;
* ``compare.py`` tells regressed from unchanged from unresolved.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

import closedloop
import compare
import run
import spec

from repro.cjoin.registry import QueryHandle


def test_benchmark_json_names_match_spec():
    contract = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in contract["workloads"]] == list(spec.GATED_WORKLOADS)
    assert all(
        w["why"] == spec.workload(w["name"]).why for w in contract["workloads"]
    )
    for section, metrics in (
        ("end_to_end", spec.END_TO_END), ("per_layer", spec.PER_LAYER)
    ):
        declared = {
            (m["name"], m["unit"], m["better"], m.get("bound"))
            for m in contract[section]
        }
        expected = {
            (m.name, m.unit, m.better, m.bound if section == "end_to_end" else None)
            for m in metrics
        }
        assert declared == expected
    assert contract["run_seconds"] == spec.DEFAULT_SECONDS
    assert contract["paths"] == ["benchmarks/layered"]


@pytest.mark.parametrize("name", ["solo_n1", "ingest_n8"])
def test_smoke_run_reports_every_metric(name):
    before = set(threading.enumerate())
    record = run.run_workload(
        spec.workload(name), seed=4, seconds=1.0, trace=None,
        scale_factor=spec.SMOKE_SCALE_FACTOR, smoke_window_s=0.2,
    )
    # run_workload raises MalformedResult on a missing or non-finite value
    assert set(record["metrics"]) == {m.name for m in spec.ALL_METRICS}
    assert all(entry["unit"] for entry in record["metrics"].values())
    assert record["correct"] and record["verified"] > 0
    assert record["failed"] == 0 and record["attempted"] > 0
    assert record["metrics"]["engine.driver_crashes"]["value"] == 0
    if name == "ingest_n8":
        assert record["metrics"]["ingest_rows_per_s"]["value"] > 0
        assert record["metrics"]["reopen_s"]["value"] > 0
    assert set(threading.enumerate()) <= before
    assert (run.OUT / f"{name}.trace.jsonl").stat().st_size > 0


class DyingEngine:
    """A service stand-in: instant completions, one death at ``die_at``.

    From the death until ``restart`` nothing completes; the restart
    lets the stranded queries finish late, as the real service's
    resume-on-start does.
    """

    def __init__(self, die_at: float) -> None:
        self.die_at = die_at
        self.dead = False
        self.died_once = False
        self.submits = 0
        self.stranded: list[QueryHandle] = []

    def submit(self, query, on_complete) -> QueryHandle:
        self.submits += 1
        handle = QueryHandle(query)
        handle.admitted_at = handle.submitted_at
        handle.on_complete(on_complete)
        if not self.died_once and time.perf_counter() >= self.die_at:
            self.dead = self.died_once = True
        if self.dead:
            self.stranded.append(handle)
        else:
            handle.complete([])
        return handle

    def alive(self) -> bool:
        return not self.dead

    def restart(self) -> None:
        self.dead = False
        stranded, self.stranded = self.stranded, []
        for handle in stranded:
            handle.complete([])

    def snapshot(self) -> dict:
        return {"tuples_scanned": 0, "cpu_s": 0.0, "harness_cpu_s": 0.0}


def test_watchdog_fails_in_flight_and_finishes_the_run():
    window_s, in_flight = 0.1, 4
    death = time.perf_counter() + 2.5 * window_s  # inside the timed span
    engine = DyingEngine(death)
    loop = closedloop.LocalLoop(engine, ["q"], in_flight)
    rec = loop.run(warmup_s=window_s, window_s=window_s, windows=5)

    assert rec.crashes == 1 and rec.alive_at_end
    assert len(rec.edges) == 5 + 1  # the run went to its end
    # exactly what was in flight at the death failed, none of it completed
    assert len(rec.failures) == in_flight
    assert len(rec.completions) + len(rec.failures) == engine.submits
    assert max(done_at for done_at, *_ in rec.completions) > death + window_s
    summary = closedloop.summarize(rec, [])
    assert summary["failed"] == in_flight
    assert 0 < summary["failed"] / summary["attempted"] < 1


def test_compare_verdicts():
    throughput = spec.metric("query_throughput_qps")
    beyond, within = 100 * (throughput.bound + 0.05), 100 * throughput.bound / 2
    assert compare.verdict(throughput, 100.0, 100.0 - beyond, 0.02)[1] == "regressed"
    assert compare.verdict(throughput, 100.0, 100.0 - within, 0.02)[1] == "unchanged"
    assert compare.verdict(throughput, 100.0, 100.0 + beyond, 0.02)[1] == "improved"
    assert compare.verdict(
        throughput, 100.0, 100.0 - beyond, throughput.bound + 0.05
    )[1] == "unresolved"
    failed = spec.metric("failed_ops_ratio")
    assert compare.verdict(failed, 0.0, 0.02, 0.0) == (0.02, "regressed")
    assert compare.verdict(spec.metric("sql.parse_us"), 10.0, 20.0, 0.0)[1] == "-"
