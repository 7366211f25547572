"""The Preprocessor (paper sections 3.1-3.3).

Feeds the pipeline from the continuous scan:

* attaches the initial bit-vector ``b_tau`` to each fact tuple —
  bit i set iff ``Q_i`` is active, the tuple satisfies ``c_i0`` (the
  query's fact predicate) and, under snapshot isolation, the tuple's
  version is visible in the query's snapshot (the section-3.5
  "virtual predicate");
* marks each new query's starting position and, when the scan wraps
  around it, emits the end-of-query control tuple *before* re-emitting
  the starting tuple (section 3.3.2);
* assigns every emitted item a monotonically increasing sequence
  number (the total order the Distributor enforces).

The scan is any *scan source* — ``next_position``, ``row_count``,
``next_run(max_rows)``, ``tuples_returned``, what
:class:`~repro.storage.scan.ContinuousScan` is — so the section-5
extensions (column-store merge, partition pruning, compressed pages)
feed this same Preprocessor (DESIGN.md section 6).

The virtual predicate is evaluated once per scan run per distinct
snapshot id, not per row per query (DESIGN.md section 3).  The
``xmin``/``xmax`` bounds of the heap pages a run touches settle it in
O(1): a snapshot newer than every insert and older than every delete
there sees the whole run — the steady state, which then costs what a
warehouse without MVCC pays — and one older than every insert sees none
of it.  Only a run that a commit boundary or a delete cuts through gets
a per-row mask, one per snapshot id, shared by every query stamped with
it.

Thread-safety: the manager stalls the Preprocessor around pipeline
mutations by holding its lock (see :meth:`stall` / :meth:`resume`);
item production holds the same lock.  A fact-table writer must stall it
too: item production reads version columns for rows the scan returns.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right, insort
from collections import deque

from repro import bitvec
from repro.catalog.schema import StarSchema
from repro.cjoin.batch import FactBatch
from repro.cjoin.registry import RegisteredQuery
from repro.cjoin.stats import PipelineStats
from repro.cjoin.tuples import ControlTuple, QueryEnd, QueryStart
from repro.errors import PipelineError
from repro.storage.mvcc import Snapshot, VersionedTable
from repro.storage.scan import ContinuousScan


class _ActiveQuery:
    """Preprocessor-side state for one active query."""

    __slots__ = ("registration", "bit", "fact_matcher", "snapshot")

    def __init__(
        self,
        registration: RegisteredQuery,
        fact_matcher,
        snapshot: Snapshot | None,
    ) -> None:
        self.registration = registration
        self.bit = bitvec.bit_for_query(registration.query_id)
        self.fact_matcher = fact_matcher
        self.snapshot = snapshot


class Preprocessor:
    """Turns the fact table into a tagged, control-annotated stream."""

    def __init__(
        self,
        scan: ContinuousScan,
        star: StarSchema,
        stats: PipelineStats,
        versioned_fact: VersionedTable | None = None,
    ) -> None:
        self.scan = scan
        self.star = star
        self.stats = stats
        self.versioned_fact = versioned_fact
        self._lock = threading.RLock()
        self._stalled = False
        self._sequence = 0
        self._active: dict[int, _ActiveQuery] = {}
        #: queries with no fact predicate / snapshot: their bits OR-ed
        self._unconditional_mask = 0
        #: the rest: those with no snapshot as ``(bit, fact matcher,
        #: None)`` per-row checks, the others grouped by the snapshot
        #: id they were stamped with
        self._row_checks: list[tuple] = []
        self._snapshot_groups: dict[int, list[_ActiveQuery]] = {}
        #: scan position -> registrations that started there
        self._starts: dict[int, list[RegisteredQuery]] = {}
        #: the keys of ``_starts``, sorted: a run looks up the next one
        self._start_positions: list[int] = []
        self._pending_control: deque[ControlTuple] = deque()

    # ------------------------------------------------------------------
    # Stall / resume (Algorithm 1 lines 17 and 22)
    # ------------------------------------------------------------------
    def stall(self) -> None:
        """Stop item production; blocks until the current batch ends."""
        self._lock.acquire()
        self._stalled = True

    def resume(self) -> None:
        """Resume item production after a stall."""
        if not self._stalled:
            raise PipelineError("resume() without a matching stall()")
        self._stalled = False
        self._lock.release()

    @property
    def is_stalled(self) -> bool:
        """True while the manager holds the pipeline stalled."""
        return self._stalled

    # ------------------------------------------------------------------
    # Query activation (called by the manager, pipeline stalled)
    # ------------------------------------------------------------------
    def activate(self, registration: RegisteredQuery) -> None:
        """The one-element :meth:`activate_group`."""
        self.activate_group((registration,))

    def activate_group(self, registrations) -> None:
        """Install queries into ``Q`` and emit their start control tuples.

        Must be called while stalled.  Sets every registration's start
        position to the next unprocessed scan tuple, appends the
        QueryStart control tuples in the order given, and begins
        setting the queries' bits on subsequent fact tuples.  All or
        nothing: whatever can raise (binding a fact predicate) runs for
        the whole group before the first query is installed.
        """
        if not self._stalled:
            raise PipelineError("activate() requires a stalled preprocessor")
        group = []
        for registration in registrations:
            query = registration.query
            fact_matcher = None
            if query.fact_predicate is not None:
                fact_matcher = query.fact_predicate.bind(self.star.fact)
            snapshot = None
            if query.snapshot_id is not None and self.versioned_fact is not None:
                snapshot = Snapshot(query.snapshot_id)
            group.append(_ActiveQuery(registration, fact_matcher, snapshot))
        if not group:
            return
        position = self.scan.next_position
        if position not in self._starts:
            insort(self._start_positions, position)
        started_here = self._starts.setdefault(position, [])
        for active in group:
            registration = active.registration
            self._active[registration.query_id] = active
            if active.fact_matcher is None and active.snapshot is None:
                self._unconditional_mask |= active.bit
            elif active.snapshot is None:
                self._row_checks.append((active.bit, active.fact_matcher, None))
            else:
                self._snapshot_groups.setdefault(
                    active.snapshot.snapshot_id, []
                ).append(active)
            registration.start_position = position
            started_here.append(registration)
            self._pending_control.append(
                QueryStart(self._next_sequence(), registration)
            )
        self.stats.control_tuples += len(group)

    def cancel(self, registration: RegisteredQuery) -> bool:
        """Deregister an active query early (DESIGN.md section 10).

        Must be called while stalled.  Removes the query from ``Q`` (no
        further fact tuples carry its bit), forgets its wrap-around
        start position, and appends its QueryEnd control tuple — which
        flows through the pipeline *behind* any in-flight tuples still
        carrying the bit, so the Distributor tears the query down in
        order, exactly like a natural wrap.  Returns False when the
        query is not active here (already wrapped, or admitted with an
        empty fact table); its normal completion is then imminent.
        """
        if not self._stalled:
            raise PipelineError("cancel() requires a stalled preprocessor")
        query_id = registration.query_id
        if query_id not in self._active:
            return False
        self._deactivate(query_id)
        position = registration.start_position
        started_here = self._starts.get(position)
        if started_here is not None:
            remaining = [
                entry for entry in started_here if entry is not registration
            ]
            if remaining:
                self._starts[position] = remaining
            else:
                self._forget_start(position)
        self._pending_control.append(
            QueryEnd(self._next_sequence(), query_id)
        )
        self.stats.control_tuples += 1
        return True

    def finish_immediately(self, registration: RegisteredQuery) -> None:
        """Emit start+end back to back (empty fact table admission)."""
        if not self._stalled:
            raise PipelineError("finish_immediately() requires a stall")
        self._pending_control.append(QueryStart(self._next_sequence(), registration))
        self._pending_control.append(
            QueryEnd(self._next_sequence(), registration.query_id)
        )
        self.stats.control_tuples += 2

    @property
    def active_query_ids(self) -> list[int]:
        """Ids of queries currently in ``Q``."""
        return list(self._active)

    @property
    def active_count(self) -> int:
        """Number of queries currently in ``Q``."""
        return len(self._active)

    # ------------------------------------------------------------------
    # Item production
    # ------------------------------------------------------------------
    def next_batched_items(self, max_rows: int) -> list:
        """Produce up to ``max_rows`` pipeline items.

        Control tuples come out as themselves, fact rows as
        :class:`FactBatch` objects holding the scan's runs as the scan
        returned them (every row counts as one item and owns one
        sequence number).  A batch never spans a control tuple — the
        open batch is flushed before any QueryEnd is appended — so the
        section 3.3.3 ordering property holds at every batch size.
        Returns an empty list when there is nothing to do (no active
        queries and no pending control tuples).
        """
        with self._lock:
            items: list = []
            while self._pending_control and len(items) < max_rows:
                items.append(self._pending_control.popleft())
            # controls spend item budget: a pending QueryStart must
            # never be overtaken by a fact row carrying that query's bit
            if self._pending_control or not self._active:
                return items
            budget = max_rows - len(items)
            stats = self.stats
            scan = self.scan
            # the open batch: its runs as ``(first sequence, first
            # position, rows)`` and one bit-vector per row of them
            runs: list[tuple] = []
            bitvectors: list[int] = []
            # hoisted bit sources; refreshed whenever a wraparound can
            # mutate the active set (the only mutator under this lock)
            unconditional = self._unconditional_mask
            row_checks = self._row_checks
            # empty unless the fact table is versioned
            snapshot_groups = self._snapshot_groups
            versioned = self.versioned_fact
            start_positions = self._start_positions

            produced_rows = 0
            while produced_rows < budget:
                if scan.row_count == 0:
                    break  # empty or fully unpinned source: idle
                # arrival at the next position may wrap queries around
                position = scan.next_position
                ended = self._handle_wraparound(position)
                if ended:
                    if runs:
                        items.append(FactBatch(runs, bitvectors))
                        runs, bitvectors = [], []
                    items.extend(ended)
                    # ends spend item budget too
                    budget -= len(ended)
                    if not self._active:
                        break
                    unconditional = self._unconditional_mask
                    row_checks = self._row_checks
                # a run must stop before the next registered start
                # position so every wrap-around is observed on arrival.
                # It is never empty, even when the ends above used up
                # the budget: a query that starts at this position has
                # just been told its first row is on the way
                remaining = budget - produced_rows
                limit = max(remaining, 1)
                upcoming = bisect_right(start_positions, position)
                if upcoming < len(start_positions):
                    limit = min(limit, start_positions[upcoming] - position)
                produced = scan.next_run(limit)
                if produced is None:
                    break
                run_start, run_rows = produced
                run_length = len(run_rows)
                stats.tuples_scanned += run_length
                run_bits = unconditional
                checks = row_checks
                if snapshot_groups:
                    # the section-3.5 virtual predicate, per run and
                    # per distinct snapshot id: the page bounds decide
                    # all-visible and none-visible runs outright
                    run_stop = run_start + run_length
                    oldest, newest, first_delete = versioned.page_bounds(
                        run_start, run_stop
                    )
                    snapshot_checks = []
                    for snapshot_id, group in snapshot_groups.items():
                        if newest <= snapshot_id < first_delete:
                            visible = None
                            stats.visibility_runs_uniform += 1
                        elif snapshot_id < oldest:
                            stats.visibility_runs_uniform += 1
                            continue
                        else:
                            visible = versioned.visibility_mask(
                                snapshot_id, run_start, run_stop
                            )
                            stats.visibility_runs_masked += 1
                        for active in group:
                            if visible is None and active.fact_matcher is None:
                                run_bits |= active.bit
                            else:
                                snapshot_checks.append(
                                    (active.bit, active.fact_matcher, visible)
                                )
                    if snapshot_checks:
                        checks = row_checks + snapshot_checks
                if not checks:
                    # no active query needs a per-row look: the run
                    # travels as the scan returned it, under one
                    # initial bit-vector
                    if run_bits == 0:
                        stats.tuples_preprocessor_dropped += run_length
                        continue
                    runs.append((self._sequence + 1, run_start, run_rows))
                    self._sequence += run_length
                    bitvectors += [run_bits] * run_length
                    produced_rows += run_length
                else:
                    produced_rows += self._tag_rows(
                        run_start, run_rows, run_bits, checks, runs, bitvectors
                    )
                # the run came back short — a page boundary, the table
                # end or a start position — and the next would have to
                # be cut to fit what is left: end the batch here, so
                # the batches after it start on the boundary instead of
                # straddling it for good
                if run_length < remaining and budget - produced_rows < run_length:
                    break
            if runs:
                items.append(FactBatch(runs, bitvectors))
            return items

    def _tag_rows(
        self, run_start, run_rows, run_bits, checks, runs, bitvectors
    ) -> int:
        """The per-row path: one scan run under per-row ``checks``.

        A query's bit is set iff the row is visible to it (the run's
        mask) and matches its fact predicate.  Rows no query wants are
        dropped here; each stretch of consecutive kept rows goes on
        ``runs`` as a run of its own, its bit-vectors on
        ``bitvectors``.  Returns the number of rows kept.
        """
        tagged_before = len(bitvectors)
        # offset the open stretch of kept rows began at; None if closed
        kept_from = None
        for offset, row in enumerate(run_rows):
            bits = run_bits
            for bit, fact_matcher, visible in checks:
                if visible is not None and not visible[offset]:
                    continue
                if fact_matcher is not None and not fact_matcher(row):
                    continue
                bits |= bit
            if bits:
                bitvectors.append(bits)
                if kept_from is None:
                    kept_from = offset
            elif kept_from is not None:
                self._close_stretch(
                    runs, run_start, run_rows, kept_from, offset
                )
                kept_from = None
        if kept_from is not None:
            self._close_stretch(
                runs, run_start, run_rows, kept_from, len(run_rows)
            )
        kept = len(bitvectors) - tagged_before
        self.stats.tuples_preprocessor_dropped += len(run_rows) - kept
        return kept

    def _close_stretch(self, runs, run_start, run_rows, start, stop) -> None:
        # a run kept whole stays the scan's own object (and so keeps
        # its page's key columns); a part of it is a plain slice
        kept = stop - start
        rows = run_rows if kept == len(run_rows) else run_rows[start:stop]
        runs.append((self._sequence + 1, run_start + start, rows))
        self._sequence += kept

    def _handle_wraparound(self, position: int) -> list[QueryEnd]:
        """Emit QueryEnd for queries whose scan wrapped to ``position``."""
        registrations = self._starts.get(position)
        if not registrations:
            return []
        ends: list[QueryEnd] = []
        remaining: list[RegisteredQuery] = []
        for registration in registrations:
            if registration.awaiting_first_tuple:
                registration.awaiting_first_tuple = False
                remaining.append(registration)
            else:
                self._deactivate(registration.query_id)
                ends.append(
                    QueryEnd(self._next_sequence(), registration.query_id)
                )
                self.stats.control_tuples += 1
        if remaining:
            self._starts[position] = remaining
        else:
            self._forget_start(position)
        return ends

    def _forget_start(self, position: int) -> None:
        del self._starts[position]
        positions = self._start_positions
        del positions[bisect_left(positions, position)]

    def _deactivate(self, query_id: int) -> None:
        active = self._active.pop(query_id, None)
        if active is None:
            raise PipelineError(f"query {query_id} is not active")
        if active.snapshot is None and active.fact_matcher is None:
            self._unconditional_mask &= ~active.bit
            return
        if active.snapshot is None:
            self._row_checks = [
                check for check in self._row_checks if check[0] != active.bit
            ]
            return
        snapshot_id = active.snapshot.snapshot_id
        group = [
            entry
            for entry in self._snapshot_groups[snapshot_id]
            if entry is not active
        ]
        if group:
            self._snapshot_groups[snapshot_id] = group
        else:
            del self._snapshot_groups[snapshot_id]

    def _next_sequence(self) -> int:
        self._sequence += 1
        return self._sequence
