"""Whole-batch passes of the pipeline's hot path (DESIGN.md section 5).

Batching amortizes per-tuple *dispatch* — one Python call per Filter
per batch; this module makes the probe/AND/route work inside that call
C-level passes over whole columns instead of one bytecode iteration
per fact row:

* **adaptive probe** — against a dimension smaller than a quarter of
  the batch's live rows, each *distinct* foreign-key value hits the
  hash table once and the per-row filtering bit-vector column is
  rebuilt with C-level ``map`` passes over the cached probe results
  (the dedup strategy); against larger dimensions — where a batch's
  keys are mostly distinct and dedup would only add a second per-row
  lookup pass — mapped ``dict.get`` lookups with the complement
  bitmap as the miss default probe every live row and one
  element-wise ``map(and_, ...)`` produces the AND column, all at C
  level (the direct strategy);
* **bulk AND** — the surviving bit-vector column is produced by one
  element-wise AND pass instead of per-row read/AND/store bytecode;
* **survivor compaction** — the live list shrinks via comprehension
  instead of per-row ``list.append`` calls, with a C-level
  ``0 not in column`` fast path for the common nothing-dropped batch;
* **group-by-bit-vector routing** — the Distributor groups surviving
  rows by identical ``b_tau`` so each output operator receives
  columnar row slices (see ``OutputOperator.consume_rows``) instead of
  one object per row.

These passes are the one way a batch is executed — pure Python by
measurement (EXPERIMENTS.md section 11).  Their semantics are the
paper's per-tuple ones (probe ``HD_j``, AND, drop at zero), which is
what tests/test_kernels.py checks them against; stats keep the
*logical* per-row probe/skip counts while also reporting the
deduplicated hash-table traffic (``FilterStats.distinct_probes``).
"""

from __future__ import annotations

from collections import deque
from itertools import compress, repeat
from operator import and_ as _and, itemgetter, not_ as _not

from repro import bitvec

#: Run a C-level iterator to exhaustion without building a list —
#: drives ``map(list.__setitem__, ...)`` scatter passes.
_drain = deque(maxlen=0).extend

#: Dedup pays only when distinct keys are well under the live row
#: count (it trades the per-row probe map for a dict build plus a
#: second per-row lookup pass); the dimension hash table's
#: cardinality is the free proxy for that: dedup when
#: ``tuple_count * DEDUP_FANOUT <= live rows``.
DEDUP_FANOUT = 4

#: Partial batches that are still mostly live run the probe/AND
#: over the *full* columns (dead rows carry bit-vector 0, and
#: ``0 & x == 0`` keeps them dead), trading a few dead-row lookups
#: for slice-level reads and write-backs with no gather/scatter;
#: sparse batches gather the live rows instead.  The dense pass
#: wins while ``live * DENSE_CUTOFF >= total``.
DENSE_CUTOFF = 2


def group_rows_by_bits(bitvectors, live) -> dict[int, list[int]]:
    """Group live row indices by identical bit-vector.

    Returns ``{b_tau: [row_index, ...]}`` in first-occurrence order
    with rows in scan order inside each group, so every operator
    consumes its rows in scan order at every batch size.
    """
    groups: dict[int, list[int]] = {}
    for row_index in live:
        bits = bitvectors[row_index]
        group = groups.get(bits)
        if group is None:
            groups[bits] = [row_index]
        else:
            group.append(row_index)
    return groups


def filter_batch(
    batch,
    fk_index: int,
    table,
    probe_skip: bool,
    name: str,
) -> tuple[int, int, int]:
    """Probe/AND/compact one batch against one dimension table.

    For every live row: AND ``table.probe(key)``'s filtering bits
    into its bit-vector, clear it from the alive mask when none remain;
    the joining dimension rows are attached once.  Returns
    ``(probes, skips, distinct_probes)`` with *logical* counting:
    every live row is either a probe or a section 3.2.2 skip, while
    ``distinct_probes`` reports the hash-table lookups actually paid.

    Every pass is C-level: column layout by liveness (dense
    slice-in/slice-out vs gathered, see :data:`DENSE_CUTOFF`), probe
    strategy by dimension cardinality (direct mapped lookups vs
    distinct-key dedup, see :data:`DEDUP_FANOUT`), and compaction
    from whichever side of the survivor/dropped split is smaller.
    """
    live = batch.live
    bitvectors = batch.bitvectors
    complement = table.complement_bitmap
    count = len(live)
    total = len(bitvectors)
    fully_live = count == total
    dense = fully_live or count * DENSE_CUTOFF >= total
    if dense:
        # cached whole-column extraction (doubles as the fact value
        # column for the Distributor's columnar consumers)
        keys = batch.key_column(fk_index)
        in_bits = bitvectors
    else:
        # gather only the live rows — full-column passes would
        # cost O(batch) on a batch with a handful of survivors
        keys = list(
            map(itemgetter(fk_index), map(batch.rows.__getitem__, live))
        )
        in_bits = list(map(bitvectors.__getitem__, live))
    # per-row skips are only observable when some active query does
    # not reference this dimension; by convention they are counted on
    # partially-live batches only (the layered benchmark pins the
    # exact probe/skip counts), and ANDing a skippable row is a no-op
    # by the table invariants, so counting is all that's left — three
    # C-level passes (AND, zero-test, popcount-style sum) over the
    # live bit-vectors
    skips = 0
    if probe_skip and complement != 0 and not fully_live:
        not_and = (~complement).__and__
        live_bits = (
            map(bitvectors.__getitem__, live) if dense else in_bits
        )
        skips = sum(map(_not, map(not_and, live_bits)))
    bits_by_key, rows_by_key = table.columnar_view()
    if rows_by_key:
        batch.attach_dim_lookup(name, fk_index, rows_by_key)
    new_bits, distinct = _and_pass(
        in_bits, keys, bits_by_key, complement,
        table.tuple_count * DEDUP_FANOUT <= count,
    )
    _install(batch, live, new_bits, dense, fully_live)
    return count - skips, skips, distinct


def _and_pass(in_bits, keys, bits_by_key, complement, dedup):
    """Produce the post-probe AND column; return (column, probes).

    * **direct** (``dedup`` False): mapped ``dict.get`` lookups with
      the complement bitmap as the miss default, then one
      element-wise AND — two C-level passes, no per-row bytecode;
    * **dedup** (``dedup`` True — the dimension is much smaller than
      the batch): ``dict.fromkeys`` deduplicates the key column at C
      speed, each *distinct* key is probed once (the per-batch
      analogue of the paper's one-probe-serves-all-queries sharing,
      applied across rows), and the column is rebuilt through the
      probe map.
    """
    if dedup:
        bits_get = bits_by_key.get
        bits_of = {
            key: bits_get(key, complement)
            for key in dict.fromkeys(keys)
        }
        return bitvec.bulk_and_lookup(in_bits, keys, bits_of), len(
            bits_of
        )
    return list(map(
        _and,
        in_bits,
        map(bits_by_key.get, keys, repeat(complement)),
    )), len(keys)


def _install(batch, live, new_bits, dense, fully_live) -> None:
    """Write the AND column back and compact the live list.

    Write-back is a slice assignment on the dense path and a C-level
    ``map(list.__setitem__, ...)`` scatter on the gathered path.
    Compaction rebuilds the alive mask from whichever side of the
    survivor/dropped split is smaller.
    """
    bitvectors = batch.bitvectors
    if dense:
        bitvectors[:] = new_bits
        if fully_live:
            if 0 not in new_bits:  # C scan; common nothing-dropped
                return
            flags = new_bits
        else:
            # dead rows are 0 in the full column, so the zero scan
            # must look only at the live rows
            flags = list(map(new_bits.__getitem__, live))
            if 0 not in flags:
                return
    else:
        _drain(map(bitvectors.__setitem__, live, new_bits))
        if 0 not in new_bits:
            return
        flags = new_bits
    survivors = list(compress(live, flags))
    if 2 * len(survivors) <= len(live):
        batch.replace_live(survivors)
    else:
        dropped = list(compress(live, map(_not, flags)))
        batch.drop_rows(bitvec.pack_positions(dropped), survivors)
