"""Closed-loop load generation, the driver watchdog, and window statistics.

Load model (paper section 6.1.3): n queries in flight, each completion
immediately replaced, from one harness thread (local) or one event loop
(remote).  All n start together and, since every query takes exactly
one scan cycle, stay together: completions arrive in one burst per
cycle.  That is the state this closed loop converges to from any start
(clients started at spread-out scan phases coalesced into clumps of 16
within three minutes), so starting in it keeps a short run stationary.

The ingest workload adds an open loop on the same thread: batches are
due on a fixed schedule, ack latency counts from the due time, and how
late each batch was sent is reported as send lag.

Driver-death policy: when no completion arrives for
``spec.WATCHDOG_POLL_S`` the loop asks the engine whether the service
driver is alive.  On death it counts a crash, fails every operation in
flight (a late completion of one of them is not a completion), restarts
the service and refills to n.
"""

from __future__ import annotations

import asyncio
import math
import queue
import statistics
import time

import spec

from repro.cjoin.stats import percentile
from repro.client.exceptions import Error as ClientError
from repro.errors import IngestError, ReproError

#: how long the loops wait for in-flight work after the timed span
DRAIN_TIMEOUT_S = 5.0


class Recorder:
    """Everything a live pass observes, kept in memory until the end."""

    def __init__(self, windows: int) -> None:
        #: timed windows in the run; one edge more than that closes it
        self.windows = windows
        #: (done at, latency s, submit/EXECUTE s, fetch wait s,
        #: admission wait s, result rows) per completed query
        self.completions: list[tuple] = []
        #: time of every failed, refused or timed-out operation
        self.failures: list[float] = []
        #: (acked at, ack latency s from due time, send lag s, rows)
        self.acks: list[tuple] = []
        #: (query index, rows, local handle or None) for the reference check
        self.samples: list[tuple] = []
        #: engine counters read at the window edges
        self.edges: list[dict] = []
        self.crashes = 0
        self.alive_at_end = True
        self._seen = 0

    def complete(self, done_at, latency, submit, fetch_wait, wait, rows) -> bool:
        """Record a completion; True when it should be kept for checking."""
        self.completions.append(
            (done_at, latency, submit, fetch_wait, wait, rows)
        )
        if not self.edges or len(self.edges) > self.windows:
            return False  # warm-up or drain: not part of the timed span
        self._seen += 1
        return (
            self._seen % spec.VERIFY_EVERY == 1
            and len(self.samples) < spec.VERIFY_CAP
        )


def next_edge(rec: Recorder, edges: list[float]) -> float:
    return edges[len(rec.edges)]


def span_edges(start: float, warmup_s: float, window_s: float,
               windows: int) -> list[float]:
    return [start + warmup_s + i * window_s for i in range(windows + 1)]


class LocalLoop:
    """n queries in flight against a :class:`engines.LocalEngine`."""

    def __init__(self, engine, queries, in_flight, ingest_batches=None,
                 clock=time.perf_counter) -> None:
        self.engine = engine
        self.queries = queries
        self.target = in_flight
        self.ingest_batches = ingest_batches
        self.clock = clock
        self.rec: Recorder | None = None  # run() starts one
        self._done: queue.SimpleQueue = queue.SimpleQueue()
        #: handle -> (submitted at, query index), oldest first
        self._in_flight: dict = {}
        #: ticket -> (due at, sent at)
        self._tickets: dict = {}
        self._next_query = 0
        self._stopping = False

    # -- operations ----------------------------------------------------
    def _submit(self) -> None:
        index = self._next_query
        self._next_query += 1
        query = self.queries[index % len(self.queries)]
        now = self.clock()
        handle = self.engine.submit(query, self._done.put)
        self._in_flight[handle] = (now, index)

    def _send_ingest(self, due: float) -> None:
        sent = self.clock()
        try:
            ticket = self.engine.ingest(next(self.ingest_batches), self._done.put)
        except IngestError:  # back-pressure: a refused write is a failed one
            self.rec.failures.append(sent)
            return
        self._tickets[ticket] = (due, sent)

    def _on_done(self, item) -> None:
        now = self.clock()
        if item in self._tickets:
            due, sent = self._tickets.pop(item)
            if item.applied:
                self.rec.acks.append((now, now - due, sent - due, item.rows))
            else:
                self.rec.failures.append(now)
            return
        entry = self._in_flight.pop(item, None)
        if entry is None:
            return  # failed earlier (driver death, timeout): stays failed
        submitted, index = entry
        if item.cancelled:
            self.rec.failures.append(now)
        else:
            rows = item.results()
            keep = self.rec.complete(
                now, now - submitted, None, None, item.wait_seconds, len(rows)
            )
            if keep:
                self.rec.samples.append((index, rows, item))
        if not self._stopping:
            self._submit()

    def _fail_in_flight(self, now: float) -> None:
        for handle in self._in_flight:
            self.rec.failures.append(now)
            try:
                handle.cancel()
            except ReproError:
                pass  # the pipeline the handle lived in may be gone
        self._in_flight.clear()

    def _watchdog(self) -> None:
        now = self.clock()
        if not self.engine.alive():
            self.rec.crashes += 1
            self._fail_in_flight(now)
            self.engine.restart()
            if not self._stopping:
                for _ in range(self.target):
                    self._submit()
            return
        while self._in_flight:
            handle, (submitted, _) = next(iter(self._in_flight.items()))
            if now - submitted < spec.OP_TIMEOUT_S:
                break
            del self._in_flight[handle]
            self.rec.failures.append(now)
            handle.cancel()
            if not self._stopping:
                self._submit()

    # -- the loop ------------------------------------------------------
    def run(self, warmup_s: float, window_s: float, windows: int) -> Recorder:
        clock = self.clock
        rec = self.rec = Recorder(windows)
        start = clock()
        edges = span_edges(start, warmup_s, window_s, windows)
        for _ in range(self.target):
            self._submit()
        ingest_gap = spec.INGEST_BATCH_ROWS / spec.INGEST_ROWS_PER_S
        next_ingest = start if self.ingest_batches is not None else math.inf
        last_done = start
        while True:
            now = clock()
            if now >= next_edge(rec, edges):
                rec.edges.append({"at": now, **self.engine.snapshot()})
                if len(rec.edges) == len(edges):
                    break
            if now >= next_ingest:
                self._send_ingest(next_ingest)
                next_ingest += ingest_gap
            wake = min(
                next_edge(rec, edges),
                next_ingest,
                clock() + spec.WATCHDOG_POLL_S,
            )
            try:
                item = self._done.get(timeout=max(0.0, wake - clock()))
            except queue.Empty:
                if clock() - last_done >= spec.WATCHDOG_POLL_S:
                    self._watchdog()
                continue
            last_done = clock()
            self._on_done(item)
        self._drain()
        rec.alive_at_end = self.engine.alive()
        return rec

    def _drain(self) -> None:
        """Stop replacing completions; wait for what is in flight."""
        self._stopping = True
        deadline = self.clock() + DRAIN_TIMEOUT_S
        while (self._in_flight or self._tickets) and self.clock() < deadline:
            try:
                self._on_done(self._done.get(timeout=spec.WATCHDOG_POLL_S))
            except queue.Empty:
                self._watchdog()
        now = self.clock()
        self._fail_in_flight(now)
        self.rec.failures.extend(now for _ in self._tickets)
        self._tickets.clear()


async def run_remote(engine, statements, in_flight, warmup_s, window_s, windows,
                     clock=time.perf_counter) -> Recorder:
    """n sessions against a :class:`engines.RemoteEngine`, one event loop."""
    rec = Recorder(windows)
    start = clock()
    edges = span_edges(start, warmup_s, window_s, windows)
    state = {"next": 0, "epoch": 0, "stopping": False, "last_done": start}

    async def session(position: int) -> None:
        pool = engine.pools[position % len(engine.pools)]
        while not state["stopping"]:
            index = state["next"]
            state["next"] += 1
            epoch = state["epoch"]
            sent = clock()
            try:
                cursor = await asyncio.wait_for(
                    pool.execute(statements[index % len(statements)]),
                    spec.OP_TIMEOUT_S,
                )
                accepted = clock()
                rows = await asyncio.wait_for(
                    cursor.fetchall(), spec.OP_TIMEOUT_S
                )
                done = clock()
                await cursor.close()
            except (ClientError, asyncio.TimeoutError):
                rec.failures.append(clock())
                await asyncio.sleep(spec.WATCHDOG_POLL_S)
                continue
            state["last_done"] = done
            if epoch != state["epoch"]:
                rec.failures.append(done)  # in flight when the driver died
                continue
            keep = rec.complete(
                done, done - sent, accepted - sent, done - accepted, None,
                len(rows),
            )
            if keep:
                rec.samples.append((index, rows, None))

    sessions = [
        asyncio.create_task(session(position)) for position in range(in_flight)
    ]
    try:
        while True:
            if clock() >= next_edge(rec, edges):
                snapshot = await engine.snapshot()
                rec.edges.append({"at": clock(), **snapshot})
                if len(rec.edges) == len(edges):
                    break
            await asyncio.sleep(
                max(0.0, min(next_edge(rec, edges) - clock(), spec.WATCHDOG_POLL_S))
            )
            if clock() - state["last_done"] < spec.WATCHDOG_POLL_S:
                continue
            if not (await engine.snapshot())["running"]:
                rec.crashes += 1
                state["epoch"] += 1
                await engine.restart()
        state["stopping"] = True
        _, unfinished = await asyncio.wait(sessions, timeout=DRAIN_TIMEOUT_S)
        rec.failures.extend(clock() for _ in unfinished)
        rec.alive_at_end = (await engine.snapshot())["running"]
    finally:
        for task in sessions:
            task.cancel()
        await asyncio.gather(*sessions, return_exceptions=True)
    return rec


# ----------------------------------------------------------------------
# Window statistics
# ----------------------------------------------------------------------
def by_window(rec: Recorder, stamped: list[tuple]) -> list[list[tuple]]:
    """Split time-stamped tuples (time first) into the timed windows."""
    bounds = [edge["at"] for edge in rec.edges]
    windows: list[list[tuple]] = [[] for _ in range(len(bounds) - 1)]
    for item in stamped:
        for position in range(len(windows)):
            if bounds[position] <= item[0] < bounds[position + 1]:
                windows[position].append(item)
                break
    return windows


def credited(rec: Recorder) -> list[float]:
    """Completed queries per window, each credited where it ran.

    A plain count per window jumps by a whole query (by a whole clump,
    once clients' scan phases coalesce) depending on which side of an
    edge a completion falls: at n=8 that alone moved a 2 s window by
    20%.  Crediting each completed query to the windows its lifetime
    overlaps, in proportion, counts the same completions without the
    edge effect; failed queries earn nothing.
    """
    bounds = [edge["at"] for edge in rec.edges]
    credit = [0.0] * (len(bounds) - 1)
    for done_at, latency, *_ in rec.completions:
        began = done_at - latency
        for position in range(len(credit)):
            overlap = min(done_at, bounds[position + 1]) - max(began, bounds[position])
            if overlap > 0:
                credit[position] += overlap / latency
    return credit


def window_lengths(rec: Recorder) -> list[float]:
    times = [edge["at"] for edge in rec.edges]
    return [later - earlier for earlier, later in zip(times, times[1:])]


def per_window_delta(rec: Recorder, key: str) -> list[float]:
    values = [edge[key] for edge in rec.edges]
    return [later - earlier for earlier, later in zip(values, values[1:])]


def median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def fast_decile(values: list[float], better: str) -> float:
    """A run's value of a metric measured once per window (or set-up).

    The decile of the windows on the fast side: low for a latency, high
    for a rate.  A shared host slows a program down for seconds at a
    time and never speeds it up, so the least disturbed windows say
    what the program does and the median says how the host was; over
    recorded 240 s series the median of windows moved between 20 s runs
    by 0.07-0.17 of itself, the decile by 0.02-0.06 (README.md).
    """
    if len(values) < 2:
        return values[0] if values else 0.0
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return deciles[0] if better == spec.LOWER else deciles[-1]


def summarize(rec: Recorder, submit_log: list[tuple] | None) -> dict:
    """Per-window series and pooled values of one live pass.

    ``submit_log`` is the local engine's ``(finished at, seconds)`` log
    of ``Warehouse.submit`` calls; remote passes time ``pool.execute``
    per completion instead.
    """
    lengths = window_lengths(rec)
    done = by_window(rec, rec.completions)
    pooled = [item for window in done for item in window]
    if submit_log is None:
        submits = [[item[2] for item in window] for window in done]
    else:
        submits = [
            [seconds for _, seconds in window]
            for window in by_window(rec, submit_log)
        ]
    acks = by_window(rec, rec.acks)
    pooled_acks = [item for window in acks for item in window]
    failures = sum(len(window) for window in by_window(rec, [(t,) for t in rec.failures]))
    attempted = len(pooled) + len(pooled_acks) + failures
    windows = {
        "query_throughput_qps": [
            credit / length for credit, length in zip(credited(rec), lengths)
        ],
        "query_latency_p50_ms": [
            1e3 * statistics.median(item[1] for item in window)
            for window in done if window
        ],
        "query_latency_p90_ms": [
            1e3 * percentile([item[1] for item in window], spec.TAIL)
            for window in done if window
        ],
        "submit_latency_p50_ms": [
            1e3 * statistics.median(window) for window in submits if window
        ],
        "ingest_rows_per_s": [
            sum(item[3] for item in window) / length
            for window, length in zip(acks, lengths)
        ],
        "ingest_ack_p50_ms": [
            1e3 * statistics.median(item[1] for item in window)
            for window in acks if window
        ],
    }
    tuples = per_window_delta(rec, "tuples_scanned")
    return {
        "windows": windows,
        "completed": len(pooled),
        "attempted": attempted,
        "failed": failures,
        "query_latency_p90_ms": 1e3 * percentile(
            [item[1] for item in pooled], spec.TAIL
        ),
        # an open loop's rate is what was offered unless a backlog grows:
        # the whole span, not a choice of windows
        "ingest_rows_per_s": sum(item[3] for item in pooled_acks) / sum(lengths),
        "ingest_ack_p90_ms": 1e3 * percentile(
            [item[1] for item in pooled_acks], spec.TAIL
        ),
        "send_lag_p90_ms": 1e3 * percentile(
            [item[2] for item in pooled_acks], spec.TAIL
        ),
        "scan_tuples_per_s": fast_decile(
            [count / length for count, length in zip(tuples, lengths)], spec.HIGHER
        ),
        "queue_wait_p50_ms": 1e3 * median_or_zero(
            [item[4] for item in pooled if item[4] is not None]
        ),
        "execute_rtt_p50_ms": 1e3 * median_or_zero(
            [item[2] for item in pooled if item[2] is not None]
        ),
        "fetch_wait_p50_ms": 1e3 * median_or_zero(
            [item[3] for item in pooled if item[3] is not None]
        ),
        "rows_per_query": (
            sum(item[5] for item in pooled) / len(pooled) if pooled else 0.0
        ),
        "cpu_s": sum(per_window_delta(rec, "cpu_s")),
        "harness_cpu_share": (
            sum(per_window_delta(rec, "harness_cpu_s")) / sum(lengths)
        ),
    }
