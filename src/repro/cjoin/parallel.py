"""Data-parallel sharded CJOIN drain, a library call (DESIGN.md
section 8): :func:`execute_process_parallel`.

The paper scales CJOIN by mapping pipeline components onto cores
(section 4); under CPython's GIL that mapping is architecture-only
(see :mod:`repro.cjoin.executor`).  The one axis of real hardware
parallelism open to a pure-Python reproduction is *data parallelism*:
shard the fact table into contiguous segments, drain the full query
set over every shard in its own process, and merge the per-shard
aggregation states — the same decomposition HoneyComb-style systems
use to scale shared joins on multicores, and the one the paper's
section 5 partitioning already sets up.

Protocol (coordinator side):

1. plan ``workers`` contiguous ``[start, end)`` spans of the fact
   table in scan order (:func:`repro.storage.partition.contiguous_spans`);
2. hand every worker its span plus a dimension snapshot and the FULL
   active query set; each worker rebuilds a shard-local catalog and
   runs the whole pipeline (admission, filters, distributor)
   to completion over its shard;
3. instead of finalized rows, each worker exports every query's
   *un-finalized* operator state (mergeable accumulators; see
   :mod:`repro.query.aggregates`) through the Distributor's
   ``partial_sink``;
4. the coordinator folds shard states into a fresh output operator
   per query — in shard order, which is scan order — and finalizes
   once, producing results identical to the serial drain.

Transports:

* ``'fork'`` (default where available) — workers inherit the parent's
  catalog via copy-on-write fork memory, so no fact rows are pickled;
  only spans go in and partial states come back;
* ``'shm'`` (default where fork is not) — the fact table is laid out
  once as typed shared-memory columns (:mod:`repro.storage.shm`,
  DESIGN.md section 14) and the published segment is cached per fact
  table, so repeat drains skip the encode; spawn workers attach the
  segment read-only and decode only their shard slice, so fact rows
  never cross a pipe even without fork;
* ``'inprocess'`` — the same shard/merge protocol on the calling
  thread; used for ``workers=1``, as the fallback for unpicklable
  workloads or pool failures (each one logged as a warning), and for
  deterministic testing of the merge path.

Not a warehouse mode: no query a ``Warehouse`` accepts comes through
here.  The call takes a closed query set, every query sees every shard
in full, and MVCC snapshots are not consulted (matching the serial
path when no versioned fact table is attached).
"""

from __future__ import annotations

import atexit
import logging
import multiprocessing
import os
import pickle
import sys
import threading
import weakref
from dataclasses import dataclass

from repro.catalog.catalog import Catalog
from repro.catalog.schema import StarSchema
from repro.cjoin.aggregation import make_output_operator
from repro.cjoin.executor import ExecutorConfig
from repro.errors import ConfigError
from repro.query.star import StarQuery
from repro.storage.partition import contiguous_spans
from repro.storage.shm import (
    ShmLayout,
    attach_fact_slice,
    publish_fact_rows,
)
from repro.storage.table import Table
from repro.tuning import DEFAULT_BATCH_SIZE, MAX_BATCH_SIZE, _require_int

logger = logging.getLogger(__name__)

#: Upper bound on shard workers: beyond this, shard setup cost dwarfs
#: any conceivable speedup on real hardware.
MAX_WORKERS = 128

#: Default cap on queries drained concurrently inside one shard
#: pipeline (the worker-side ``maxConc``); larger query sets are
#: drained in successive full-shard passes.
DEFAULT_MAX_CONCURRENT = 256


@dataclass(frozen=True)
class ShmShardTask:
    """Picklable payload for one worker under the 'shm' transport.

    Carries the shared-memory layout descriptor and the worker's
    ``[start, end)`` span instead of fact rows — the whole point of
    the transport (DESIGN.md section 14).  Dimension rows still ride
    along pickled: they are orders of magnitude smaller than the fact
    table and each worker needs them whole.
    """

    shard_index: int
    star: StarSchema
    layout: ShmLayout
    span: tuple[int, int]
    dimension_rows: tuple[tuple[str, tuple[tuple, ...]], ...]
    queries: tuple[StarQuery, ...]
    batch_size: int
    aggregation_mode: str
    max_concurrent: int


def default_transport() -> str:
    """'fork' where the OS supports it, else 'shm'.

    Copy-on-write fork memory is still the cheapest way to hand
    workers the catalog; where only spawn exists (Windows, macOS
    default), the shared-memory column transport keeps fact rows
    off the pipes.
    """
    if "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return "shm"


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _shard_catalog(
    star: StarSchema,
    fact_rows,
    dimension_tables: dict[str, Table],
) -> Catalog:
    """A single-star catalog over one fact shard.

    Dimension :class:`Table` objects are registered as-is (they are
    read-only during a drain); only the fact shard is rebuilt.
    """
    catalog = Catalog()
    for table in dimension_tables.values():
        catalog.register_table(table)
    catalog.register_table(
        Table.from_validated_rows(star.fact, list(fact_rows))
    )
    catalog.register_star(star)
    return catalog


def _drain_shard(
    catalog: Catalog,
    star: StarSchema,
    queries: tuple[StarQuery, ...],
    batch_size: int,
    aggregation_mode: str,
    max_concurrent: int,
) -> list:
    """Run the pipeline over one shard; return partial states.

    Returns one :meth:`~repro.cjoin.aggregation.OutputOperator.partial_state`
    export per query, in query order.  Query sets larger than
    ``max_concurrent`` are drained in successive passes; each pass
    re-scans the whole shard, so every query still sees every row.
    """
    from repro.cjoin.operator import CJoinOperator

    states: list = []
    for chunk_start in range(0, len(queries), max_concurrent):
        chunk = queries[chunk_start:chunk_start + max_concurrent]
        operator = CJoinOperator(
            catalog,
            star,
            max_concurrent=max_concurrent,
            executor_config=ExecutorConfig(batch_size=batch_size),
            aggregation_mode=aggregation_mode,
        )
        sink: dict[int, object] = {}
        operator.distributor.partial_sink = sink
        query_ids = [
            operator.submit(query).registration.query_id for query in chunk
        ]
        operator.run_until_drained()
        states.extend(sink[query_id] for query_id in query_ids)
    return states


def _run_shm_task(task: ShmShardTask) -> list:
    """Shm-transport worker body: attach, decode the slice, drain.

    Only this worker's ``[start, end)`` rows are ever decoded into
    Python objects; the segment is detached again before the drain
    starts.
    """
    start, end = task.span
    fact_rows = attach_fact_slice(task.layout, start, end)
    dimension_tables = {
        name: Table.from_validated_rows(task.star.dimension(name), list(rows))
        for name, rows in task.dimension_rows
    }
    catalog = _shard_catalog(task.star, fact_rows, dimension_tables)
    return _drain_shard(
        catalog,
        task.star,
        task.queries,
        task.batch_size,
        task.aggregation_mode,
        task.max_concurrent,
    )


#: Fork-transport state, set by the coordinator immediately before the
#: pool forks and cleared right after; children inherit it by
#: copy-on-write, so fact rows never cross a pipe.  Guarded by
#: :data:`_FORK_LOCK`: concurrent fork-transport drains (two
#: warehouses on threads) serialize instead of forking each other's
#: tables.
_FORK_STATE: tuple | None = None
_FORK_LOCK = threading.Lock()


def _run_shard_span(span: tuple[int, int]) -> list:
    """Fork-transport worker body: slice the inherited fact table."""
    if _FORK_STATE is None:  # pragma: no cover - coordinator bug guard
        raise ConfigError("fork worker started without coordinator state")
    (star, fact_rows, dimension_tables, queries, batch_size,
     aggregation_mode, max_concurrent) = _FORK_STATE
    start, end = span
    catalog = _shard_catalog(star, fact_rows[start:end], dimension_tables)
    return _drain_shard(
        catalog, star, queries, batch_size, aggregation_mode, max_concurrent
    )


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------
def merge_shard_states(
    star: StarSchema,
    queries,
    shard_states: list[list],
    aggregation_mode: str = "hash",
) -> list[list[tuple]]:
    """Fold per-shard partial states into finalized per-query results.

    ``shard_states[s][q]`` is shard ``s``'s partial state for query
    ``q``.  Shards are merged in shard order (= scan order), so group
    discovery order — and therefore result-row order — matches the
    serial drain exactly.
    """
    results: list[list[tuple]] = []
    for index, query in enumerate(queries):
        operator = make_output_operator(query, star, aggregation_mode)
        for states in shard_states:
            operator.merge_partial(states[index])
        results.append(operator.results())
    return results


def execute_process_parallel(
    catalog: Catalog,
    star: StarSchema,
    queries,
    workers: int,
    batch_size: int = DEFAULT_BATCH_SIZE,
    aggregation_mode: str = "hash",
    max_concurrent: int = DEFAULT_MAX_CONCURRENT,
    transport: str | None = None,
) -> list[list[tuple]]:
    """Drain ``queries`` over ``workers`` fact shards; merge results.

    Results are identical to submitting the same queries to a serial
    :class:`~repro.cjoin.operator.CJoinOperator` and draining (enforced
    by tests/test_parallel_equivalence.py).

    Args:
        workers: shard count = worker process count.  ``workers=1``
            runs in-process (no pool).
        transport: 'fork', 'shm', 'inprocess', or None to pick the
            platform default.  Pool or serialization failures under a
            process transport fall back to 'inprocess' — same
            protocol, same results — with one logged warning.

    Raises:
        ConfigError: on an invalid worker count or unknown transport.
    """
    queries = tuple(queries)
    if transport is None:
        transport = default_transport()
    if transport not in ("fork", "shm", "inprocess"):
        raise ConfigError(
            f"unknown transport {transport!r}; expected 'fork', 'shm', "
            f"or 'inprocess'"
        )
    _require_int("workers", workers, 1, MAX_WORKERS)
    _require_int("batch_size", batch_size, 1, MAX_BATCH_SIZE)
    for query in queries:
        query.validate(star)
    if not queries:
        return []
    fact_table = catalog.table(star.fact.name)
    fact_rows = fact_table.all_rows()
    dimension_tables = {
        name: catalog.table(name) for name in star.dimension_names()
    }
    spans = contiguous_spans(len(fact_rows), workers)
    if workers == 1 or transport == "inprocess":
        shard_states = _run_inprocess(
            star, fact_rows, dimension_tables, queries, spans,
            batch_size, aggregation_mode, max_concurrent,
        )
    elif transport == "fork":
        shard_states = _run_fork_pool(
            star, fact_rows, dimension_tables, queries, spans,
            batch_size, aggregation_mode, max_concurrent,
        )
    else:
        shard_states = _run_shm_pool(
            star, fact_rows, dimension_tables, queries, spans,
            batch_size, aggregation_mode, max_concurrent,
            fact_table=fact_table,
        )
    return merge_shard_states(star, queries, shard_states, aggregation_mode)


def _run_inprocess(
    star, fact_rows, dimension_tables, queries, spans,
    batch_size, aggregation_mode, max_concurrent,
) -> list[list]:
    """The shard/merge protocol on the calling thread (no processes)."""
    shard_states = []
    for start, end in spans:
        shard = _shard_catalog(star, fact_rows[start:end], dimension_tables)
        shard_states.append(
            _drain_shard(
                shard, star, queries, batch_size, aggregation_mode,
                max_concurrent,
            )
        )
    return shard_states


def _warn_fallback(transport: str, workers: int, reason: str) -> None:
    """One warning per abandoned pool: a dead pool must not look like
    a slow host (the in-process redo is slower than the serial drain)."""
    logger.warning(
        "%r transport with %d workers fell back to the in-process "
        "drain: %s",
        transport, workers, reason,
    )


def _run_fork_pool(
    star, fact_rows, dimension_tables, queries, spans,
    batch_size, aggregation_mode, max_concurrent,
) -> list[list]:
    """Fan out over a fork pool; fall back in-process on failure.

    The lock is held for the whole drain: the state must stay set in
    the parent while the pool lives (a respawned worker re-forks and
    re-reads it), and two threads draining at once must not fork each
    other's tables.
    """
    global _FORK_STATE
    context = multiprocessing.get_context("fork")
    with _FORK_LOCK:
        _FORK_STATE = (
            star, fact_rows, dimension_tables, queries, batch_size,
            aggregation_mode, max_concurrent,
        )
        try:
            with context.Pool(processes=len(spans)) as pool:
                return pool.map(_run_shard_span, spans)
        except Exception as error:
            _warn_fallback("fork", len(spans), repr(error))
            return _run_inprocess(
                star, fact_rows, dimension_tables, queries, spans,
                batch_size, aggregation_mode, max_concurrent,
            )
        finally:
            _FORK_STATE = None


def _spawn_is_safe() -> bool:
    """True when spawn children can re-import ``__main__``.

    A spawn child re-executes the parent's main script during
    bootstrap; when the parent was fed a script that is not a real
    file (``python - <<EOF`` heredocs report ``__file__ = '<stdin>'``),
    every child dies at startup and the pool respawns them forever —
    a hang, not an exception, so it must be caught preflight.
    """
    main_module = sys.modules.get("__main__")
    main_file = getattr(main_module, "__file__", None)
    return main_file is None or os.path.isfile(main_file)


#: Published-segment cache for the 'shm' transport: the fact table is
#: laid out in shared memory ONCE and every subsequent drain reattaches
#: the same segment, so repeat drains pay only the per-worker slice
#: decode.  Single slot (one warehouse serves one star); keyed by the
#: :class:`~repro.storage.table.Table` identity (held weakly) plus its
#: row count — tables are insert-only, so (same object, same count)
#: implies identical rows.  Guarded by :data:`_SHM_LOCK`; the segment
#: is unlinked on replacement and at interpreter exit.
_SHM_CACHE: tuple | None = None
_SHM_LOCK = threading.Lock()


def _discard_shm_cache() -> None:
    """Unlink the cached fact-table segment (idempotent)."""
    global _SHM_CACHE
    with _SHM_LOCK:
        cached, _SHM_CACHE = _SHM_CACHE, None
    if cached is not None:
        _, _, segment, _ = cached
        segment.close()
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


atexit.register(_discard_shm_cache)


def _published_layout(fact_table, fact_rows, column_count: int) -> ShmLayout:
    """Return the cached layout for ``fact_table``, publishing on miss."""
    global _SHM_CACHE
    with _SHM_LOCK:
        if _SHM_CACHE is not None:
            table_ref, row_count, segment, layout = _SHM_CACHE
            if table_ref() is fact_table and row_count == len(fact_rows):
                return layout
            _SHM_CACHE = None
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        segment, layout = publish_fact_rows(fact_rows, column_count)
        _SHM_CACHE = (
            weakref.ref(fact_table), len(fact_rows), segment, layout,
        )
        return layout


def _run_shm_pool(
    star, fact_rows, dimension_tables, queries, spans,
    batch_size, aggregation_mode, max_concurrent,
    fact_table=None,
) -> list[list]:
    """Fan out over a spawn pool with the fact table in shared memory.

    The fact table is encoded into typed shared-memory columns once
    per table (see :data:`_SHM_CACHE`); each worker's task carries
    only the layout descriptor and its span, so per-worker pipe
    traffic is independent of fact-table size and repeat drains skip
    the encode entirely.  Unpicklable workloads (e.g. ad-hoc
    predicate objects defined in a REPL) and pool failures fall back
    to the in-process protocol — correctness first, parallelism
    best-effort.
    """
    if not _spawn_is_safe():
        _warn_fallback(
            "shm", len(spans), "__main__ is not a file spawn can re-import"
        )
        return _run_inprocess(
            star, fact_rows, dimension_tables, queries, spans,
            batch_size, aggregation_mode, max_concurrent,
        )
    dimension_rows = tuple(
        (name, tuple(table.all_rows()))
        for name, table in dimension_tables.items()
    )
    segment = None  # owned by this drain only when there is no cache key
    try:
        # preflight only the workload: rows and schemas always pickle,
        # queries may close over ad-hoc predicate objects that do not
        pickle.dumps(queries)
        if fact_table is not None:
            layout = _published_layout(
                fact_table, fact_rows, star.fact.arity
            )
        else:
            # no table identity to cache under: publish for this drain
            # only and unlink when it ends
            segment, layout = publish_fact_rows(fact_rows, star.fact.arity)
        tasks = [
            ShmShardTask(
                shard_index=index,
                star=star,
                layout=layout,
                span=(start, end),
                dimension_rows=dimension_rows,
                queries=queries,
                batch_size=batch_size,
                aggregation_mode=aggregation_mode,
                max_concurrent=max_concurrent,
            )
            for index, (start, end) in enumerate(spans)
        ]
        context = multiprocessing.get_context("spawn")
        with context.Pool(processes=len(tasks)) as pool:
            return pool.map(_run_shm_task, tasks)
    except Exception as error:
        _warn_fallback("shm", len(spans), repr(error))
        return _run_inprocess(
            star, fact_rows, dimension_tables, queries, spans,
            batch_size, aggregation_mode, max_concurrent,
        )
    finally:
        if segment is not None:
            segment.close()
            segment.unlink()
