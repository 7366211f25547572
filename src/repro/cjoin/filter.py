"""The Filter component (paper sections 3.1-3.2).

One Filter per dimension table in the pipeline.  For each fact tuple
it probes the shared dimension hash table once — thereby joining the
tuple against *all* concurrent queries — ANDs the filtering bit-vector
into ``b_tau``, and drops the tuple when no query remains interested.

Implements both optimizations from section 3.2.2:

* **probe skip**: when ``b_tau AND NOT b_Dj == 0`` the tuple is
  relevant only to queries that do not reference this dimension, so
  the probe is skipped entirely;
* **pointer attachment**: the joining dimension row is attached to the
  fact tuple so aggregation operators never re-probe.

:meth:`Filter.process_batch` handles a whole
:class:`~repro.cjoin.batch.FactBatch` in one call — probe skip is
tested once against the batch's bit-vector union, then
:func:`repro.cjoin.kernels.filter_batch` runs the probe/AND/compact
passes over whole columns: the page-resident key column probed by one
mapped lookup, the bit-vector column ANDed in bulk, survivors
compacted without per-row appends, and the joining dimension rows
attached once per batch
(:meth:`~repro.cjoin.batch.FactBatch.attach_dim_lookup`) instead of
once per surviving row (DESIGN.md section 5).
"""

from __future__ import annotations

from repro.catalog.schema import StarSchema
from repro.cjoin.batch import FactBatch
from repro.cjoin.dimtable import DimensionHashTable
from repro.cjoin.kernels import filter_batch
from repro.cjoin.stats import FilterStats


class Filter:
    """Probes one dimension hash table for every passing fact tuple."""

    def __init__(
        self,
        hash_table: DimensionHashTable,
        star: StarSchema,
        pipeline_stats=None,
        probe_skip: bool = True,
    ) -> None:
        self.hash_table = hash_table
        self.name = hash_table.name
        self.fk_index = star.fact_fk_index(hash_table.name)
        self.stats = FilterStats()
        self.pipeline_stats = pipeline_stats
        #: section 3.2.2 optimization toggle (off only for ablation)
        self.probe_skip = probe_skip

    def process_batch(self, batch: FactBatch) -> None:
        """Filter every live row of ``batch`` in one call.

        Per live row: AND the probed filtering bit-vector into
        ``b_tau`` and drop the row when no bit remains.  The batch form
        amortizes the per-tuple costs: one probe-skip test on the
        batch's bit-vector union instead of one per tuple, then one
        :func:`~repro.cjoin.kernels.filter_batch` call for the probe,
        the AND and the drop test.
        """
        live = batch.live
        if not live:
            return
        count = len(live)
        stats = self.stats
        pipeline_stats = self.pipeline_stats
        stats.tuples_in += count
        table = self.hash_table
        probe_skip = self.probe_skip
        complement = table.complement_bitmap
        # a live row's bits are never 0, so with an empty b_Dj the test
        # cannot fire: skip the union reduce as well
        if probe_skip and complement and batch.union_bits() & ~complement == 0:
            # every live row is relevant only to queries that do not
            # reference this dimension: probing could only AND-in ones
            stats.probe_skips += count
            if pipeline_stats is not None:
                pipeline_stats.probe_skips_total += count
            return
        probes, skips = filter_batch(
            batch, self.fk_index, table, probe_skip, self.name
        )
        stats.probes += probes
        stats.probe_skips += skips
        stats.tuples_dropped += count - len(batch.live)
        if pipeline_stats is not None:
            pipeline_stats.probes_total += probes
            pipeline_stats.probe_skips_total += skips

    def would_drop(self, bits: int, row: tuple) -> bool:
        """Side-effect-free drop test used for optimizer profiling.

        Evaluates what this Filter *in isolation* would decide for a
        fact ``row`` carrying bit-vector ``bits`` (without mutating
        anything or touching the stats).
        """
        table = self.hash_table
        complement = table.complement_bitmap
        if bits & ~complement == 0:
            return False
        # the filtering bits alone: the joined row is not needed
        bits_by_key = table.columnar_view()[0]
        return bits & bits_by_key.get(row[self.fk_index], complement) == 0

    def __repr__(self) -> str:
        return f"Filter({self.name!r}, tuples={self.hash_table.tuple_count})"
