"""Whole-batch passes of the pipeline's hot path (DESIGN.md section 5).

Batching amortizes per-tuple *dispatch* — one Python call per Filter
per batch; this module makes the probe/AND/route work inside that call
C-level passes over whole columns instead of one bytecode iteration
per fact row:

* **probe** — mapped ``dict.get`` lookups over the batch's key
  column, with the complement bitmap as the miss default, probe every
  row of the pass; the key column is a slice of the page's resident
  column (:meth:`FactBatch.key_column`), so the row tuples are not
  opened to find the key;
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
*logical* per-row probe/skip counts.
"""

from __future__ import annotations

from collections import deque
from itertools import compress, repeat
from operator import and_ as _and, itemgetter, not_ as _not

#: Run a C-level iterator to exhaustion without building a list —
#: drives ``map(list.__setitem__, ...)`` scatter passes.
_drain = deque(maxlen=0).extend

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
) -> tuple[int, int]:
    """Probe/AND/compact one batch against one dimension table.

    For every live row: AND ``table.probe(key)``'s filtering bits
    into its bit-vector and drop it from ``live`` when none remain;
    the joining dimension rows are attached once.  Returns
    ``(probes, skips)`` with *logical* counting: every live row is
    either a probe or a section 3.2.2 skip.

    Every pass is C-level, over a column layout chosen by liveness:
    dense slice-in/slice-out vs gathered, see :data:`DENSE_CUTOFF`.
    """
    live = batch.live
    bitvectors = batch.bitvectors
    complement = table.complement_bitmap
    count = len(live)
    total = len(bitvectors)
    fully_live = count == total
    dense = fully_live or count * DENSE_CUTOFF >= total
    if dense:
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
    # the probe and the AND: two C-level passes, no per-row bytecode
    new_bits = list(map(
        _and,
        in_bits,
        map(bits_by_key.get, keys, repeat(complement)),
    ))
    # install the AND column (as the batch's own on the dense layout,
    # by a C-level scatter on the gathered one) and compact the live
    # list
    if dense:
        batch.bitvectors = new_bits
        # dead rows are 0 in the full column, so on a partial batch
        # the zero scan must look only at the live rows
        flags = (
            new_bits if fully_live
            else list(map(new_bits.__getitem__, live))
        )
    else:
        _drain(map(bitvectors.__setitem__, live, new_bits))
        flags = new_bits
    if 0 in flags:  # C scan; nothing dropped is the common case
        batch.live = list(compress(live, flags))
    return count - skips, skips
