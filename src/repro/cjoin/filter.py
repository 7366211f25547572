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

Two entry points over the same logic: :meth:`Filter.process` handles
one tuple (the reference path), :meth:`Filter.process_batch` handles a
whole :class:`~repro.cjoin.batch.FactBatch` in one call — probe skip is
tested once against the batch's bit-vector union, then
:func:`repro.cjoin.kernels.filter_batch` runs the probe/AND/compact
passes over whole columns: each *distinct* key probed once per batch
against a small dimension, the bit-vector column ANDed in bulk,
survivors compacted without per-row appends, and the joining dimension
rows attached once per batch
(:meth:`~repro.cjoin.batch.FactBatch.attach_dim_lookup`) instead of
once per surviving row (DESIGN.md section 5).
"""

from __future__ import annotations

from repro.catalog.schema import StarSchema
from repro.cjoin.batch import FactBatch
from repro.cjoin.dimtable import DimensionHashTable
from repro.cjoin.kernels import filter_batch
from repro.cjoin.stats import FilterStats
from repro.cjoin.tuples import FactTuple


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

    def process(self, fact_tuple: FactTuple) -> bool:
        """Filter one tuple in place; return True iff it survives.

        The caller (Stage) forwards surviving tuples to the next
        Filter and discards the rest.
        """
        self.stats.tuples_in += 1
        bits = fact_tuple.bitvector
        table = self.hash_table
        # Probe-skip: every query still interested in this tuple has its
        # bit set in b_Dj (does not reference this dimension) -> the
        # probe could only AND-in ones.
        if self.probe_skip and bits & ~table.complement_bitmap == 0:
            self.stats.probe_skips += 1
            if self.pipeline_stats is not None:
                self.pipeline_stats.probe_skips_total += 1
            return True
        self.stats.probes += 1
        if self.pipeline_stats is not None:
            self.pipeline_stats.probes_total += 1
        filtering_bits, dim_row = table.probe(fact_tuple.row[self.fk_index])
        bits &= filtering_bits
        fact_tuple.bitvector = bits
        if bits == 0:
            self.stats.tuples_dropped += 1
            return False
        if dim_row is not None:
            if fact_tuple.dim_rows is None:
                fact_tuple.dim_rows = {}
            fact_tuple.dim_rows[self.name] = dim_row
        return True

    def process_batch(self, batch: FactBatch) -> None:
        """Filter every live row of ``batch`` in one call.

        Semantically identical to calling :meth:`process` on each live
        row in order; the batch form amortizes the per-tuple costs:
        one probe-skip test on the batch's bit-vector union instead of
        one per tuple, then one :func:`~repro.cjoin.kernels.filter_batch`
        call for the probe, the AND and the drop test.
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
        if probe_skip and batch.union_bits() & ~table.complement_bitmap == 0:
            # every live row is relevant only to queries that do not
            # reference this dimension: probing could only AND-in ones
            stats.probe_skips += count
            if pipeline_stats is not None:
                pipeline_stats.probe_skips_total += count
            return
        probes, skips, distinct = filter_batch(
            batch, self.fk_index, table, probe_skip, self.name
        )
        stats.probes += probes
        stats.probe_skips += skips
        stats.distinct_probes += distinct
        stats.tuples_dropped += count - len(batch.live)
        if pipeline_stats is not None:
            pipeline_stats.probes_total += probes
            pipeline_stats.probe_skips_total += skips

    def would_drop(self, fact_tuple: FactTuple) -> bool:
        """Side-effect-free drop test used for optimizer profiling.

        Evaluates what :meth:`process` would decide for ``fact_tuple``
        *in isolation* (without mutating it or the stats).
        """
        bits = fact_tuple.bitvector
        if bits & ~self.hash_table.complement_bitmap == 0:
            return False
        filtering_bits, _ = self.hash_table.probe(
            fact_tuple.row[self.fk_index]
        )
        return bits & filtering_bits == 0

    def __repr__(self) -> str:
        return f"Filter({self.name!r}, tuples={self.hash_table.tuple_count})"
