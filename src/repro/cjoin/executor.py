"""Execution of the CJOIN pipeline (paper section 4).

One driver, :class:`SynchronousExecutor`: single-threaded and
deterministic, it answers queries both for ``run_until_drained()`` and,
one ``step()`` at a time under the service's driver, for the always-on
continuous scan.

One pipeline (DESIGN.md section 5): the Preprocessor hands the scan's
runs on as :class:`~repro.cjoin.batch.FactBatch` objects, each Filter
handles a whole batch per call (batch-level probe skip, mapped probe
and AND passes over the page-resident key column), and the
Distributor routes survivors grouped by identical bit-vectors.
``batch_size`` only sets the granularity; results are the same at every
size, and equal to ``query/reference.py``.

Note on fidelity: the paper maps the Preprocessor, Filter Stages and
Distributor onto cores (horizontal / vertical / hybrid layouts).  Under
CPython's GIL stage threads cannot speed up a pure-Python pipeline, so
those mappings are *modelled* — the calibrated model in
:mod:`repro.sim` reproduces their performance consequences (Figure 4,
DESIGN.md section 4) — and real cores are used by the data-parallel
sharded drain, the library call
:func:`repro.cjoin.parallel.execute_process_parallel` (DESIGN.md
section 8): data parallelism across fact shards sidesteps the GIL
where thread-per-stage cannot.
"""

from __future__ import annotations

import dataclasses
from dataclasses import InitVar, dataclass

from repro.cjoin.batch import FactBatch
from repro.cjoin.manager import PipelineManager
from repro.cjoin.pipeline import CJoinPipeline
from repro.errors import PipelineError
from repro.tuning import (
    DEFAULT_BATCH_SIZE,
    MAX_BATCH_SIZE,
    TuningConfig,
    _require_int,
)


@dataclass(frozen=True)
class ExecutorConfig:
    """Tuning for pipeline execution.

    Attributes:
        batch_size: items per preprocessor batch.
        reoptimize_interval: scanned tuples between reoptimization
            attempts (0 disables on-line reordering).
        profile_sample_rate: profile every k-th tuple for the ordering
            policy (0 disables profiling).
        tuning: init-only; a :class:`~repro.tuning.TuningConfig` whose
            ``batch_size`` overrides the keyword above — the bridge
            from the unified runtime-tuning surface (DESIGN.md section
            13) into this low-level config.
    """

    batch_size: int = DEFAULT_BATCH_SIZE
    reoptimize_interval: int = 4096
    profile_sample_rate: int = 64
    tuning: InitVar[TuningConfig | None] = None

    def __post_init__(self, tuning: TuningConfig | None = None) -> None:
        if tuning is not None:
            object.__setattr__(self, "batch_size", tuning.batch_size)
        _require_int("batch_size", self.batch_size, 1, MAX_BATCH_SIZE)


class _ProfilingDriver:
    """The executor's profiling/reoptimization cadence."""

    def __init__(self, pipeline: CJoinPipeline, manager: PipelineManager,
                 config: ExecutorConfig) -> None:
        self.pipeline = pipeline
        self.manager = manager
        self.config = config
        self._since_reopt = 0
        self._since_profile = 0

    def observe(self, item) -> None:
        """Advance the profiling cadence by one preprocessor item.

        Must run *before* a batch enters the filter chain: the profiler
        wants preprocessor-fresh bit-vectors, and any reoptimization
        installs a pure permutation that is safe for batches not yet
        filtered.  Control tuples pass through untouched.
        """
        if not isinstance(item, FactBatch):
            return
        row_count = len(item)
        policy = self.manager.ordering_policy
        rate = self.config.profile_sample_rate
        if policy.wants_profiles and rate > 0:
            self._since_profile += row_count
            due, self._since_profile = divmod(self._since_profile, rate)
            live = item.live
            if due and live:
                # one profile per `rate` rows, spread across the batch
                # instead of always profiling the first row of a run
                filters = list(self.pipeline.filters)
                stride = max(1, len(live) // due)
                for sample_index in range(due):
                    row = live[min(sample_index * stride, len(live) - 1)]
                    policy.record_profile(
                        filters, item.bitvectors[row], item.rows[row]
                    )
        interval = self.config.reoptimize_interval
        if interval > 0:
            self._since_reopt += row_count
            if self._since_reopt >= interval:
                self._since_reopt = 0
                self.manager.reoptimize()


class SynchronousExecutor:
    """Drives the pipeline on the calling thread, one batch per step.

    :meth:`step` is the unit every driver is built from: the service's
    continuous drive (DESIGN.md section 9, on its thread or a server's
    event loop) calls it forever, :meth:`run_until_drained` until every
    admitted query completes (the historical ``Warehouse.run()``
    contract).  Mid-scan admission needs no extra machinery here: the
    manager's stall protocol serializes ``admit()`` against
    :meth:`step`'s item production on the preprocessor lock, so any
    thread may admit at any moment between batches.
    """

    def __init__(
        self,
        pipeline: CJoinPipeline,
        manager: PipelineManager,
        config: ExecutorConfig | None = None,
    ) -> None:
        self.pipeline = pipeline
        self.manager = manager
        self.config = config if config is not None else ExecutorConfig()
        self._profiler = _ProfilingDriver(pipeline, manager, self.config)

    def reconfigure(self, tuning: TuningConfig) -> None:
        """Apply runtime-tunable knobs at the next batch boundary.

        :meth:`step` reads ``self.config`` once per batch, so swapping
        the (immutable) config between batches is safe from any thread
        — the in-flight batch finishes under the old size and the next
        one picks up the new.  Only ``batch_size`` applies here.
        """
        self.config = dataclasses.replace(
            self.config, batch_size=tuning.batch_size
        )

    def step(self) -> int:
        """Process one batch; returns the number of items handled.

        The count is logical: every fact row inside a FactBatch counts
        as one item, like a control tuple.
        """
        items = self.pipeline.preprocessor.next_batched_items(
            self.config.batch_size
        )
        handled = 0
        for item in items:
            handled += len(item) if isinstance(item, FactBatch) else 1
            self._profiler.observe(item)
            self.pipeline.process_item(item)
        self.manager.process_finished()
        return handled

    def run_until_drained(self, max_batches: int | None = None) -> None:
        """Run until every admitted query has completed.

        Raises:
            PipelineError: if ``max_batches`` elapses first (guards
                against non-terminating loops in tests).
        """
        batches = 0
        while self.manager.active_query_count > 0:
            handled = self.step()
            if handled == 0 and self.manager.active_query_count > 0:
                # nothing produced yet queries remain: only possible if
                # cleanup is pending, which step() already flushed.
                raise PipelineError("pipeline stalled with active queries")
            batches += 1
            if max_batches is not None and batches > max_batches:
                raise PipelineError(
                    f"pipeline did not drain within {max_batches} batches"
                )
