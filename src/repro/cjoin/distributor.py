"""The Distributor (paper sections 3.1-3.3).

Routes each surviving fact tuple to the output operators of every
query whose bit survives in ``b_tau``, and reacts to control tuples:
QueryStart installs the query's output operator *before* any of its
potential results arrive; QueryEnd finalizes the operator, fulfills
the caller's handle, and notifies the manager so Algorithm 2 cleanup
can run.
"""

from __future__ import annotations

from collections.abc import Callable

from repro import bitvec
from repro.catalog.schema import StarSchema
from repro.cjoin.aggregation import OutputOperator, make_output_operator
from repro.cjoin.batch import FactBatch
from repro.cjoin.kernels import group_rows_by_bits
from repro.cjoin.registry import RegisteredQuery
from repro.cjoin.stats import PipelineStats
from repro.cjoin.tuples import QueryEnd, QueryStart
from repro.errors import PipelineError


#: Tuples routed to a query before its first partial-result snapshot;
#: the interval then doubles after every refresh (exponential backoff,
#: see Distributor._feed_partial) so snapshot cost stays amortized O(1)
#: per routed tuple even for operators whose results() rescan state.
DEFAULT_STREAM_INTERVAL = 256

#: Bound on the decoded bit-vector -> query-id tuple cache.  Distinct
#: surviving bit-vectors are usually few (rows that passed the same
#: predicates share b_tau), but a pathological churn of query sets
#: could grow the cache without bound; past this it is simply reset.
DECODE_CACHE_LIMIT = 4096


class Distributor:
    """Terminal pipeline component: routing plus query lifecycle."""

    def __init__(
        self,
        star: StarSchema,
        stats: PipelineStats,
        on_query_finished: Callable[[int], None] | None = None,
        aggregation_mode: str = "hash",
        stream_interval: int = DEFAULT_STREAM_INTERVAL,
    ) -> None:
        self.star = star
        self.stats = stats
        self.on_query_finished = on_query_finished
        self.aggregation_mode = aggregation_mode
        #: routed tuples between handle partial-snapshot refreshes for
        #: handles that asked to stream (DESIGN.md section 10)
        self.stream_interval = max(stream_interval, 1)
        self._operators: dict[int, OutputOperator] = {}
        self._registrations: dict[int, RegisteredQuery] = {}
        #: bit-vector -> decoded query-id tuple; the same surviving
        #: b_tau values recur batch after batch, so decoding is paid
        #: once per distinct bit-vector per query-set epoch, not once
        #: per batch group
        self._decoded_ids: dict[int, tuple[int, ...]] = {}
        #: per query: (tuples routed since the last partial snapshot,
        #: current refresh threshold — doubles after every snapshot)
        self._since_snapshot: dict[int, tuple[int, int]] = {}
        #: when set (shard workers, DESIGN.md section 8), every
        #: finalized query also exports its operator's un-finalized
        #: partial state here, keyed by query id
        self.partial_sink: dict[int, object] | None = None

    def process(self, item) -> None:
        """Handle one pipeline item (fact batch or control tuple)."""
        if isinstance(item, FactBatch):
            self._route_batch(item)
        elif isinstance(item, QueryStart):
            self._start_query(item.registration)
        elif isinstance(item, QueryEnd):
            self._end_query(item.query_id)
        else:
            raise PipelineError(f"unexpected pipeline item {item!r}")

    def _route_batch(self, batch: FactBatch) -> None:
        """Route a batch's surviving rows, grouped by bit-vector.

        Surviving rows of one batch often share the exact same
        ``b_tau`` (they passed the same predicates), so the query-id
        enumeration is paid per distinct bit-vector, not per tuple:
        decode each one once — cached across batches, since the same
        surviving bit-vectors recur for the life of a query set — and
        hand every operator its rows in one columnar
        :meth:`~OutputOperator.consume_rows` call (row indices against
        the batch's columns, nothing allocated per row).
        """
        live = batch.live
        if not live:
            return
        self.stats.tuples_distributed += len(live)
        operators = self._operators
        registrations = self._registrations
        groups = group_rows_by_bits(batch.bitvectors, live)
        for bits, row_indices in groups.items():
            routed = len(row_indices)
            for query_id in self._decode_query_ids(bits):
                operator = operators.get(query_id)
                if operator is None:
                    raise PipelineError(
                        f"fact tuple routed to unregistered query {query_id}"
                    )
                operator.consume_rows(batch, row_indices)
                registration = registrations[query_id]
                registration.tuples_streamed += routed
                if registration.handle._stream_partials:
                    self._feed_partial(query_id, operator, routed)

    def _decode_query_ids(self, bits: int) -> tuple[int, ...]:
        """Decoded query ids of ``bits``, cached across batches."""
        decoded = self._decoded_ids
        ids = decoded.get(bits)
        if ids is None:
            if len(decoded) >= DECODE_CACHE_LIMIT:
                decoded.clear()
            ids = decoded[bits] = tuple(bitvec.iter_query_ids(bits))
        return ids

    def _feed_partial(
        self, query_id: int, operator: OutputOperator, routed: int
    ) -> None:
        """Refresh the handle's partial snapshot periodically.

        Only called for handles whose owner asked to stream (the
        ``_stream_partials`` flag is checked on the routing fast path,
        so idle handles cost one attribute test and nothing else).
        The refresh threshold doubles after every snapshot, so even a
        sort/listing operator whose ``results()`` rescans its whole
        buffer costs O(n) amortized per routed tuple across the cycle
        (a constant number of refreshes per doubling of n), never
        quadratic — streaming one query cannot stall the shared scan.
        """
        since, threshold = self._since_snapshot.get(
            query_id, (0, self.stream_interval)
        )
        since += routed
        if since < threshold:
            self._since_snapshot[query_id] = (since, threshold)
            return
        self._since_snapshot[query_id] = (0, threshold * 2)
        self._registrations[query_id].handle.update_partial(
            operator.results()
        )

    def _start_query(self, registration: RegisteredQuery) -> None:
        query_id = registration.query_id
        if query_id in self._operators:
            raise PipelineError(f"query {query_id} already started")
        self._operators[query_id] = make_output_operator(
            registration.query, self.star, self.aggregation_mode
        )
        self._registrations[query_id] = registration

    def _end_query(self, query_id: int) -> None:
        operator = self._operators.pop(query_id, None)
        registration = self._registrations.pop(query_id, None)
        self._since_snapshot.pop(query_id, None)
        if operator is None or registration is None:
            raise PipelineError(f"end-of-query for unknown query {query_id}")
        # counted before the handle completes: completion wakes the
        # client, whose next stats() must already include this query
        self.stats.queries_completed += 1
        if registration.handle.cancelled:
            # a cancelled query's QueryEnd arrived through the normal
            # stream; its accumulated state is discarded and the handle
            # completes empty (results() raises CancelledError)
            registration.handle.complete([])
            if self.on_query_finished is not None:
                self.on_query_finished(query_id)
            return
        if self.partial_sink is not None:
            if query_id in self.partial_sink:
                raise PipelineError(
                    f"query id {query_id} finalized twice in one shard drain"
                )
            self.partial_sink[query_id] = operator.partial_state()
            # shard-local finalized rows are never read (the coordinator
            # merges partials and finalizes once); complete empty
            registration.handle.complete([])
        else:
            registration.handle.complete(operator.results())
        if self.on_query_finished is not None:
            self.on_query_finished(query_id)

    @property
    def open_query_ids(self) -> list[int]:
        """Queries whose operators are installed but not yet finalized."""
        return list(self._operators)
