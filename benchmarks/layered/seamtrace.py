"""The seam-traced pass: per-layer time and counts, measured from outside.

Single harness thread, no background driver, so counts repeat exactly.
Each round admits n of the workload's queries with
``CJoinOperator.submit`` and then drives the pipeline with a
re-implementation of ``SynchronousExecutor.step()`` from its public
pieces, recording a ``perf_counter_ns`` span around every call across a
layer seam.  Spans carry (name, start, end, parent, round) and stay in
memory until :meth:`SpanLog.write`.  A span's self time is its duration
minus its children's; the drain span's self time is what the layers do
not account for.

The same rounds then run on a fresh warehouse through the repo's own
``run_until_drained``: the ratio of the two drain times is the tracing
overhead, and the two passes' exact counts must agree, which also shows
the re-implemented step does the work of the real one.

The remaining layers (SQL, session, protocol, ingest, storage) have no
loop to trace; their probes time calls into their public functions on
the workload's own queries, frames and result rows.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import time
from pathlib import Path
from types import SimpleNamespace

import engines
import spec

from repro import Warehouse
from repro.cjoin.batch import FactBatch
from repro.server import protocol
from repro.server.session import ServerSession
from repro.sql.parser import bind_parameters, bind_star_query, parse_select
from repro.sql.render import render_star_query
from repro.tuning import DEFAULT_MAX_IN_FLIGHT_PER_CONNECTION

ns = time.perf_counter_ns


class SpanLog:
    """Spans of one traced pass: (name, start ns, end ns, parent, round)."""

    def __init__(self) -> None:
        self.spans: list = []

    def reserve(self) -> int:
        """Claim an id for a span that ends after its children."""
        self.spans.append(None)
        return len(self.spans) - 1

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span_id, (name, start, end, parent, tag) in enumerate(self.spans):
                out.write(json.dumps({
                    "id": span_id, "name": name, "start_ns": start,
                    "end_ns": end, "parent": parent, "round": tag,
                }) + "\n")

    def totals(self) -> dict:
        """Summed duration per (parent id, span name)."""
        summed: dict = {}
        for name, start, end, parent, _ in self.spans:
            key = (parent, name)
            summed[key] = summed.get(key, 0) + end - start
        return summed


def stamped(warehouse: Warehouse, query):
    """What ``Warehouse.submit`` does before routing: pin the snapshot."""
    if warehouse.transactions is None:
        return query
    return dataclasses.replace(
        query, snapshot_id=warehouse.current_snapshot_id
    )


def counts(warehouse: Warehouse) -> dict:
    stats = warehouse.cjoin.stats
    return {
        "tuples_scanned": stats.tuples_scanned,
        "tuples_distributed": stats.tuples_distributed,
        "probes": stats.probes_total,
        "probe_skips": stats.probe_skips_total,
        "dim_rows_loaded": sum(
            warehouse.cjoin.manager.timings.dimension_rows_loaded
        ),
    }


def traced_drain(warehouse: Warehouse, log: SpanLog, parent: int, tag: int) -> None:
    """``SynchronousExecutor.run_until_drained`` with a span per seam."""
    operator = warehouse.cjoin
    pipeline, manager = operator.pipeline, operator.manager
    preprocessor, distributor = operator.preprocessor, operator.distributor
    executor = operator.executor
    # the executor's profiling/reordering cadence has no public name;
    # skipping it would change the filter order the real step produces
    try:
        observe = executor._profiler.observe
    except AttributeError as error:
        raise RuntimeError(
            "seamtrace re-implements SynchronousExecutor.step() and needs its "
            "profiling driver (executor._profiler.observe), which this build "
            "of repro.cjoin.executor no longer has: per-layer times cannot be "
            "attributed until benchmarks/layered/seamtrace.py follows the rename"
        ) from error
    add = log.spans.append
    while manager.active_query_count > 0:
        start = ns()
        items = preprocessor.next_batched_items(executor.config.batch_size)
        add(("cjoin.preprocessor", start, ns(), parent, tag))
        for item in items:
            start = ns()
            observe(item)
            add(("cjoin.executor.profile", start, ns(), parent, tag))
            if isinstance(item, FactBatch):
                for stage in pipeline.filters:
                    start = ns()
                    stage.process_batch(item)
                    add((f"cjoin.filter.{stage.name}", start, ns(), parent, tag))
                    if not item.live:
                        break
            start = ns()
            distributor.process(item)
            add(("cjoin.distributor", start, ns(), parent, tag))
        start = ns()
        manager.process_finished()
        add(("cjoin.manager.finish", start, ns(), parent, tag))


def run_rounds(warehouse, queries, in_flight, log: SpanLog | None) -> dict:
    """``spec.TRACE_ROUNDS`` rounds of n queries; traced iff ``log``."""
    operator = warehouse.cjoin
    rounds = []
    results = []
    for tag in range(spec.TRACE_ROUNDS):
        block = [
            queries[(tag * in_flight + offset) % len(queries)]
            for offset in range(in_flight)
        ]
        round_id = log.reserve() if log is not None else None
        round_start = ns()
        before = counts(warehouse)
        handles = []
        admit_ns = 0
        for query in block:
            query = stamped(warehouse, query)
            start = ns()
            handles.append(operator.submit(query))
            end = ns()
            admit_ns += end - start
            if log is not None:
                log.spans.append(("cjoin.admit", start, end, round_id, tag))
        drain_id = log.reserve() if log is not None else None
        drain_start = ns()
        if log is not None:
            traced_drain(warehouse, log, drain_id, tag)
        else:
            operator.run_until_drained()
        drain_end = ns()
        if log is not None:
            log.spans[drain_id] = ("cjoin.drain", drain_start, drain_end, round_id, tag)
            log.spans[round_id] = ("round", round_start, drain_end, None, tag)
        after = counts(warehouse)
        delta = {key: after[key] - before[key] for key in after}
        delta["routed_rows"] = sum(
            handle.registration.tuples_streamed for handle in handles
        )
        rounds.append({
            "drain_ns": drain_end - drain_start,
            "drain_id": drain_id,
            "admit_us": admit_ns / 1e3 / len(block),
            "counts": delta,
        })
        results.extend(zip(block, (handle.results() for handle in handles)))
    return {"rounds": rounds, "results": results}


def exact_counts(run: dict, queries_per_round: int) -> dict:
    """The counts that must repeat exactly between two passes of one seed."""
    total = {
        key: sum(one["counts"][key] for one in run["rounds"])
        for key in run["rounds"][0]["counts"]
    }
    tuples = total["tuples_scanned"]
    probes_and_skips = total["probes"] + total["probe_skips"]
    return {
        "cjoin.tuples_scanned": tuples,
        "cjoin.filter.probes_per_tuple": total["probes"] / tuples,
        "cjoin.filter.probe_skip_ratio": (
            total["probe_skips"] / probes_and_skips if probes_and_skips else 0.0
        ),
        "cjoin.filter.survivor_ratio": total["tuples_distributed"] / tuples,
        "cjoin.distributor.routed_rows_per_tuple": total["routed_rows"] / tuples,
        "cjoin.manager.dim_rows_loaded_per_query": (
            total["dim_rows_loaded"] / (queries_per_round * len(run["rounds"]))
        ),
    }


def layer_times(run: dict, log: SpanLog) -> dict:
    """Median over the rounds of each layer's ns per scanned tuple."""
    totals = log.totals()
    seams = {
        "cjoin.preprocessor": "cjoin.preprocessor.ns_per_tuple",
        "cjoin.executor.profile": "cjoin.executor.profile_ns_per_tuple",
        "cjoin.distributor": "cjoin.distributor.ns_per_tuple",
        "cjoin.manager.finish": "cjoin.manager.finish_ns_per_tuple",
        **{
            f"cjoin.filter.{dim}": f"cjoin.filter.{dim}.ns_per_tuple"
            for dim in spec.DIMENSIONS
        },
    }
    per_round: dict[str, list[float]] = {}
    for one in run["rounds"]:
        tuples = one["counts"]["tuples_scanned"]
        spent = {
            seam: totals.get((one["drain_id"], seam), 0) for seam in seams
        }
        values = {metric: spent[seam] / tuples for seam, metric in seams.items()}
        values["cjoin.filter.ns_per_tuple"] = sum(
            spent[f"cjoin.filter.{dim}"] for dim in spec.DIMENSIONS
        ) / tuples
        values["cjoin.pipeline.ns_per_tuple"] = one["drain_ns"] / tuples
        # the drain span's self time: what no seam accounts for
        values["cjoin.unattributed_share"] = (
            1.0 - sum(spent.values()) / one["drain_ns"]
        )
        values["cjoin.manager.admit_us"] = one["admit_us"]
        for name, value in values.items():
            per_round.setdefault(name, []).append(value)
    return {name: statistics.median(values) for name, values in per_round.items()}


def directory_bytes(path: Path, prefix: str = "") -> int:
    return sum(
        entry.stat().st_size
        for entry in path.iterdir()
        if entry.name.startswith(prefix)
    )


def ingest_and_storage_probes(warehouse: Warehouse, data_dir: Path,
                              ingest_batches, batches: int) -> dict:
    """Per-row write costs on a durable MVCC warehouse, then save/open.

    Runs last: it is the only probe that changes the catalog.
    """
    rows = stage_ns = apply_ns = 0
    for _ in range(batches):
        batch = next(ingest_batches)
        start = ns()
        warehouse.ingest(fact_rows=batch)  # validate + stage
        staged = ns()
        warehouse.apply_pending_ingest()  # WAL fsync + MVCC apply
        applied = ns()
        rows += len(batch)
        stage_ns += staged - start
        apply_ns += applied - staged
    wal_bytes = directory_bytes(data_dir, "wal-")
    start = time.perf_counter()
    warehouse.save()
    saved = time.perf_counter()
    fact_rows = warehouse.catalog.table(warehouse.star.fact.name).row_count
    snapshot_bytes = directory_bytes(data_dir)
    warehouse.close()
    opening = time.perf_counter()
    reopened = Warehouse.open(
        str(data_dir), execution="batched", enable_updates=True
    )
    opened = time.perf_counter()
    reopened.close()
    return {
        "ingest.stage_us_per_row": stage_ns / 1e3 / rows,
        "ingest.apply_us_per_row": apply_ns / 1e3 / rows,
        "storage.persist.save_s": saved - start,
        "storage.persist.open_s": opened - opening,
        "storage.persist.bytes_per_fact_row": snapshot_bytes / fact_rows,
        "storage.persist.wal_bytes_per_row": wal_bytes / rows,
    }


def wire_probes(star, results: list[tuple]) -> dict:
    """SQL, session and protocol costs on the workload's own statements.

    ``results`` pairs each traced query with its real result rows, so
    the paging and row-codec probes see the frames a client would.
    """
    clock = time.perf_counter
    spent = dict.fromkeys(
        ("parse", "bind", "execute", "page", "encode", "decode",
         "page_encode", "decode_rows"), 0.0,
    )
    frames = rows_total = 0
    # the session reads server.warehouse.star and hands the bound query
    # to server.warehouse.submit: a stub keeps admission out of the span
    server = SimpleNamespace(
        warehouse=SimpleNamespace(star=star, submit=lambda query, handle: None),
        max_in_flight_per_connection=DEFAULT_MAX_IN_FLIGHT_PER_CONNECTION,
    )
    session = ServerSession(server)
    session.hello({"type": protocol.HELLO, "version": protocol.PROTOCOL_VERSION})
    for request_id, (query, rows) in enumerate(results, start=1):
        sql = render_star_query(query, star)
        start = clock()
        statement = parse_select(sql)
        parsed = clock()
        bind_star_query(bind_parameters(statement, None), star)
        spent["parse"] += parsed - start
        spent["bind"] += clock() - parsed

        execute = {"type": protocol.EXECUTE, "sql": sql, "params": None, "id": request_id}
        start = clock()
        execute_ok = session.execute(execute)
        spent["execute"] += clock() - start
        query_id = execute_ok["query_ids"][0]
        state = session.queries[query_id]
        state.handle.complete(rows)
        fetch = {
            "type": protocol.FETCH, "query_id": query_id, "id": request_id,
            "max_rows": protocol.DEFAULT_PAGE_ROWS, "timeout": 60.0,
        }
        start = clock()
        page = session.page_reply(query_id, state, protocol.DEFAULT_PAGE_ROWS)
        spent["page"] += clock() - start
        close = {"type": protocol.CLOSE, "query_id": query_id, "id": request_id}
        close_ok = session.close(close)

        for payload in (execute, execute_ok, fetch, page, close, close_ok):
            start = clock()
            encoded = protocol.encode_frame(payload)
            took = clock() - start
            spent["encode"] += took
            if payload is page:
                spent["page_encode"] += took
            body = encoded[protocol.HEADER_BYTES:]
            start = clock()
            decoded = protocol.decode_frame_body(body)
            spent["decode"] += clock() - start
            frames += 1
            if payload is page:
                start = clock()
                protocol.decode_rows(decoded["rows"])
                spent["decode_rows"] += clock() - start
        rows_total += len(rows)
    statements = len(results)
    per_row = 1e6 / max(rows_total, 1)
    return {
        "sql.parse_us": 1e6 * spent["parse"] / statements,
        "sql.bind_us": 1e6 * spent["bind"] / statements,
        "server.session.execute_us": 1e6 * spent["execute"] / statements,
        "server.session.page_reply_us_per_row": spent["page"] * per_row,
        "server.protocol.encode_us_per_frame": 1e6 * spent["encode"] / frames,
        "server.protocol.decode_us_per_frame": 1e6 * spent["decode"] / frames,
        "server.protocol.page_encode_us_per_row": spent["page_encode"] * per_row,
        "client.decode_rows_us_per_row": spent["decode_rows"] * per_row,
    }


def traced_pass(workload, catalog, star, queries, ingest_batches,
                scratch: Path, trace_path: Path) -> dict:
    """Every ``spec.TRACED_LAYER`` metric of one workload."""
    n = workload.in_flight
    data_dir = scratch / "traced-data" if workload.ingest else None

    log = SpanLog()
    warehouse = engines.build_warehouse(workload, catalog, star, data_dir)
    traced = run_rounds(warehouse, queries, n, log)

    plain_warehouse = engines.build_warehouse(workload, catalog, star, None)
    plain = run_rounds(plain_warehouse, queries, n, None)
    plain_warehouse.close()

    metrics = exact_counts(traced, n)
    repeat = exact_counts(plain, n)
    if metrics != repeat:
        differing = {
            name: (metrics[name], repeat[name])
            for name in metrics if metrics[name] != repeat[name]
        }
        raise RuntimeError(
            f"exact counts differ between the traced step loop and "
            f"run_until_drained on the same work: {differing}"
        )
    metrics.update(layer_times(traced, log))
    metrics["harness.trace_overhead_ratio"] = (
        statistics.median(one["drain_ns"] for one in traced["rounds"])
        / statistics.median(one["drain_ns"] for one in plain["rounds"])
    )

    if n == 1:
        solo_ns = metrics["cjoin.pipeline.ns_per_tuple"]
    else:
        solo_log = SpanLog()
        solo_warehouse = engines.build_warehouse(workload, catalog, star, None)
        solo = run_rounds(solo_warehouse, queries, 1, solo_log)
        solo_warehouse.close()
        solo_ns = layer_times(solo, solo_log)["cjoin.pipeline.ns_per_tuple"]
    metrics["cjoin.pipeline.flatness_vs_solo"] = (
        metrics["cjoin.pipeline.ns_per_tuple"] / solo_ns
    )

    if workload.remote:
        metrics.update(wire_probes(star, traced["results"]))
    if workload.ingest:
        metrics.update(
            ingest_and_storage_probes(
                warehouse, data_dir, ingest_batches, n * spec.TRACE_ROUNDS
            )
        )
    else:
        warehouse.close()
    log.write(trace_path)
    # a layer off this workload's path spent no time on it
    for layer in spec.TRACED_LAYER:
        metrics.setdefault(layer.name, 0.0)
    return metrics
