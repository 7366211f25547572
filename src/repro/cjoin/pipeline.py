"""Pipeline assembly: the ordered Filter chain between Preprocessor

and Distributor.  Pure wiring — execution strategies live in
:mod:`repro.cjoin.executor`, lifecycle logic in
:mod:`repro.cjoin.manager`.
"""

from __future__ import annotations

from repro.cjoin.batch import FactBatch
from repro.cjoin.distributor import Distributor
from repro.cjoin.filter import Filter
from repro.cjoin.preprocessor import Preprocessor
from repro.cjoin.stats import PipelineStats
from repro.cjoin.tuples import ControlTuple
from repro.errors import PipelineError


class CJoinPipeline:
    """The always-on operator pipeline of Figure 1."""

    def __init__(
        self,
        preprocessor: Preprocessor,
        distributor: Distributor,
        stats: PipelineStats,
    ) -> None:
        self.preprocessor = preprocessor
        self.distributor = distributor
        self.stats = stats
        self.filters: list[Filter] = []

    # ------------------------------------------------------------------
    # Filter chain maintenance (manager-only, pipeline stalled)
    # ------------------------------------------------------------------
    # The stall stops the Preprocessor, not a batch already walking the
    # chain on the driver thread while another thread admits or cleans
    # up.  Every change therefore installs a new list: the batch in
    # flight finishes on the chain it started with (it carries no bit
    # of a query admitted since, and a Filter removed since passes
    # every bit it can still carry), where popping in place would make
    # its iteration skip the next Filter.
    def add_filter(self, new_filter: Filter) -> None:
        """Append a Filter (Algorithm 1 line 18)."""
        if any(f.name == new_filter.name for f in self.filters):
            raise PipelineError(f"filter {new_filter.name!r} already present")
        self.filters = [*self.filters, new_filter]
        self.stats.record_order(self.filter_order())

    def remove_filter(self, name: str) -> Filter:
        """Remove the Filter for dimension ``name`` (Algorithm 2 line 12)."""
        for existing in self.filters:
            if existing.name == name:
                self.filters = [f for f in self.filters if f is not existing]
                self.stats.record_order(self.filter_order())
                return existing
        raise PipelineError(f"no filter for dimension {name!r}")

    def reorder(self, new_order: list[Filter]) -> None:
        """Install a new filter order (run-time optimization)."""
        if sorted(f.name for f in new_order) != sorted(
            f.name for f in self.filters
        ):
            raise PipelineError("reorder must permute the existing filters")
        self.filters = list(new_order)
        self.stats.record_order(self.filter_order())

    def filter_order(self) -> tuple[str, ...]:
        """Current dimension order of the filter chain."""
        return tuple(f.name for f in self.filters)

    def filter_for(self, name: str) -> Filter:
        """Return the Filter for dimension ``name``."""
        for existing in self.filters:
            if existing.name == name:
                return existing
        raise PipelineError(f"no filter for dimension {name!r}")

    def has_filter(self, name: str) -> bool:
        """True iff a Filter for dimension ``name`` is installed."""
        return any(f.name == name for f in self.filters)

    # ------------------------------------------------------------------
    # Item processing (used by executors)
    # ------------------------------------------------------------------
    def run_filters_batch(self, batch: FactBatch) -> None:
        """Run a whole batch through the chain.

        Stops early once no row survives; the Distributor treats a
        fully-dead batch as a no-op.
        """
        for stage_filter in self.filters:
            stage_filter.process_batch(batch)
            if not batch.live:
                return

    def process_item(self, item) -> None:
        """Process one item end-to-end (synchronous execution)."""
        if not isinstance(item, ControlTuple):
            self.run_filters_batch(item)
        self.distributor.process(item)
