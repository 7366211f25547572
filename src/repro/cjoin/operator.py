"""The public CJOIN operator facade.

Wires scan, Preprocessor, Filters, Distributor, Pipeline Manager and
an executor into one object with the paper's usage model: submit star
queries at any time; each completes after one wrap of the continuous
scan.

Usage (deterministic, on the calling thread):

    operator = CJoinOperator(catalog, star)
    handles = [operator.submit(q) for q in queries]
    operator.run_until_drained()
    rows = handles[0].results()

For the always-on mode — a background driver cycling the scan while
queries attach mid-cycle — wrap the operator in
:class:`~repro.engine.service.WarehouseService` (DESIGN.md section 9).
"""

from __future__ import annotations

from repro.catalog.catalog import Catalog
from repro.catalog.schema import StarSchema
from repro.cjoin.distributor import Distributor
from repro.cjoin.executor import ExecutorConfig, SynchronousExecutor
from repro.cjoin.manager import PipelineManager
from repro.cjoin.optimizer import OrderingPolicy
from repro.cjoin.pipeline import CJoinPipeline
from repro.cjoin.preprocessor import Preprocessor
from repro.cjoin.registry import QueryHandle
from repro.cjoin.stats import PipelineStats
from repro.errors import PipelineError
from repro.query.star import StarQuery
from repro.storage.buffer import BufferPool
from repro.storage.mvcc import VersionedTable
from repro.storage.scan import ContinuousScan

#: Default buffer pool size when the caller does not supply one.
DEFAULT_BUFFER_POOL_PAGES = 1024


class CJoinOperator:
    """An always-on shared star-join operator over one fact table."""

    def __init__(
        self,
        catalog: Catalog,
        star: StarSchema | None = None,
        buffer_pool: BufferPool | None = None,
        max_concurrent: int = 256,
        ordering_policy: OrderingPolicy | None = None,
        executor_config: ExecutorConfig | None = None,
        versioned_fact: VersionedTable | None = None,
        probe_skip: bool = True,
        aggregation_mode: str = "hash",
    ) -> None:
        self.catalog = catalog
        self.star = star if star is not None else self._single_star(catalog)
        self.buffer_pool = (
            buffer_pool
            if buffer_pool is not None
            else BufferPool(DEFAULT_BUFFER_POOL_PAGES)
        )
        self.stats = PipelineStats()
        self.scan = self._make_scan()
        self.preprocessor = Preprocessor(
            self.scan, self.star, self.stats, versioned_fact
        )
        config = executor_config if executor_config is not None else ExecutorConfig()
        self.distributor = Distributor(
            self.star, self.stats, aggregation_mode=aggregation_mode
        )
        self.pipeline = CJoinPipeline(
            self.preprocessor, self.distributor, self.stats
        )
        self.manager = PipelineManager(
            catalog,
            self.star,
            self.pipeline,
            self.buffer_pool,
            self.stats,
            max_concurrent=max_concurrent,
            ordering_policy=ordering_policy,
            probe_skip=probe_skip,
        )
        self.distributor.on_query_finished = self.manager.on_query_finished
        self._rate_anchor: tuple[float, int] | None = None
        self.executor = SynchronousExecutor(self.pipeline, self.manager, config)

    def _make_scan(self):
        """Build the scan source the Preprocessor reads.

        The one seam the section-5 extensions override (DESIGN.md
        section 6): anything with ``next_position``, ``row_count``,
        ``next_run(max_rows)`` and ``tuples_returned``.
        """
        return ContinuousScan(
            self.catalog.table(self.star.fact.name), self.buffer_pool
        )

    @staticmethod
    def _single_star(catalog: Catalog) -> StarSchema:
        names = catalog.star_names()
        if len(names) != 1:
            raise PipelineError(
                "catalog defines multiple stars; pass the star schema explicitly"
            )
        return catalog.star(names[0])

    # ------------------------------------------------------------------
    # Query lifecycle
    # ------------------------------------------------------------------
    def submit(
        self, query: StarQuery, handle: QueryHandle | None = None
    ) -> QueryHandle:
        """Register a star query with the always-on pipeline.

        ``handle`` keeps a pre-created handle (a queued submission's)
        attached to the query, preserving its submission timestamp for
        admission-wait telemetry.
        """
        return self.manager.admit(query, handle)

    def run_until_drained(self, max_batches: int | None = None) -> None:
        """Drive the pipeline until all submitted queries complete."""
        self.executor.run_until_drained(max_batches)

    def execute(self, query: StarQuery) -> list[tuple]:
        """Convenience: submit one query and run it to completion."""
        handle = self.submit(query)
        self.run_until_drained()
        return handle.results()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def active_query_count(self) -> int:
        """Queries admitted and not yet completed/cleaned."""
        return self.manager.active_query_count

    def filter_order(self) -> tuple[str, ...]:
        """Current dimension order of the filter chain."""
        return self.pipeline.filter_order()

    def status_report(self) -> str:
        """Operator status for ops tooling and dashboards.

        Summarizes the live pipeline: registered queries with their
        progress, the current filter order with observed drop rates,
        hash-table sizes, and cumulative sharing statistics.
        """
        lines = [
            f"CJOIN operator on fact {self.star.fact.name!r}: "
            f"{self.active_query_count} quer"
            f"{'y' if self.active_query_count == 1 else 'ies'} in flight"
        ]
        for query_id, registration in sorted(
            self.manager._registrations.items()
        ):
            handle = registration.handle
            label = registration.query.label or f"query-{query_id}"
            state = "done" if handle.done else f"{handle.progress:.0%}"
            lines.append(f"  Q{query_id} [{label}] {state}")
        if self.pipeline.filters:
            chain = " -> ".join(
                f"{f.name}(drop {f.stats.drop_rate:.0%}, "
                f"{f.hash_table.tuple_count} tuples)"
                for f in self.pipeline.filters
            )
            lines.append(f"filters: {chain}")
        else:
            lines.append("filters: (none installed)")
        stats = self.stats
        lines.append(
            f"lifetime: {stats.tuples_scanned} tuples scanned, "
            f"{stats.probes_per_tuple:.2f} probes/tuple, "
            f"{stats.queries_completed}/{stats.queries_admitted} queries "
            f"completed, {stats.reoptimizations} reoptimizations"
        )
        return "\n".join(lines)

    def tuples_per_second(self) -> float:
        """Live scan throughput since the first call (ETA feedback).

        Returns 0.0 on the first call, which anchors the measurement
        window; callers poll it periodically while the pipeline runs.
        """
        import time

        now = time.perf_counter()
        if self._rate_anchor is None:
            self._rate_anchor = (now, self.stats.tuples_scanned)
            return 0.0
        anchor_time, anchor_tuples = self._rate_anchor
        elapsed = now - anchor_time
        if elapsed <= 0:
            return 0.0
        return (self.stats.tuples_scanned - anchor_tuples) / elapsed
