"""Per-query output operators fed by the Distributor.

Each registered query owns one operator: a hash-based group-by
aggregator for the common case, or a plain listing collector when the
query has no aggregates (``k = 0``) — the shape used by galaxy
fact-to-fact sub-plans (section 5).

Operators read fact attributes directly from the fact row and
dimension attributes through the per-batch ``key -> row`` lookups the
Filters attached (section 3.2.2), so no probing happens here.

For the data-parallel sharded drain (DESIGN.md section 8) every
operator is also *mergeable*: :meth:`OutputOperator.partial_state`
exports the un-finalized state accumulated over one fact shard, and
:meth:`OutputOperator.merge_partial` folds such a state into a fresh
coordinator-side operator.  Merging shard states in shard order
reconstructs exactly the state the serial scan would have built,
because shards are contiguous spans of the same scan order.
"""

from __future__ import annotations

from operator import itemgetter

from repro.catalog.schema import StarSchema
from repro.errors import PipelineError
from repro.query.aggregates import AggregateSpec, make_accumulator
from repro.query.star import ColumnRef, StarQuery


def _make_row_getter_factory(
    ref: ColumnRef, query: StarQuery, star: StarSchema, dim_names: list[str]
):
    """Compile a ColumnRef into a lookup-state -> (row -> value) factory.

    Getters read the fact *row tuple* directly — fact attributes
    via a C-level ``itemgetter``, dimension attributes through the
    batch-level ``(fk index, key -> row)`` join lookup — so they
    depend only on the dimension tables' ``key -> row`` dicts, not on
    the batch: those dicts are the tables themselves, so one compile
    serves every batch the operator ever sees
    (see ``OutputOperator._compiled_row_getters``).
    Dimension tables read this way are appended to ``dim_names``.
    """
    if ref.table == query.fact_table:
        getter = itemgetter(star.fact.column_index(ref.column))
        return lambda lookup_of: getter
    dimension = star.dimension(ref.table)
    index = dimension.column_index(ref.column)
    name = ref.table
    if name not in dim_names:
        dim_names.append(name)

    def dim_factory(lookup_of):
        fk_index, rows_of = lookup_of[name]
        return lambda row: rows_of[row[fk_index]][index]

    return dim_factory


def _count_star_getter(_row: tuple):
    return 0  # any non-None marker


def _make_aggregate_row_input_factory(
    spec: AggregateSpec, query: StarQuery, star: StarSchema,
    dim_names: list[str],
):
    """Compile an aggregate's input expression into a getter factory."""
    if spec.is_count_star:
        return lambda lookup_of: _count_star_getter
    first = _make_row_getter_factory(
        ColumnRef(spec.table, spec.column), query, star, dim_names
    )
    if spec.column2 is None:
        return first
    second = _make_row_getter_factory(
        ColumnRef(spec.table, spec.column2), query, star, dim_names
    )
    combine = spec.combine_values

    def factory(lookup_of):
        get_first = first(lookup_of)
        get_second = second(lookup_of)
        return lambda row: combine(get_first(row), get_second(row))

    return factory


def _compile_row_getter_factories(query: StarQuery, star: StarSchema):
    """(dim names, (key, select, aggregate-input) factory lists)."""
    dim_names: list[str] = []
    factories = (
        [
            _make_row_getter_factory(ref, query, star, dim_names)
            for ref in query.group_by
        ],
        [
            _make_row_getter_factory(ref, query, star, dim_names)
            for ref in query.select
        ],
        [
            _make_aggregate_row_input_factory(spec, query, star, dim_names)
            for spec in query.aggregates
        ],
    )
    return tuple(dim_names), factories


class OutputOperator:
    """Base class: consumes routed fact rows, produces result rows."""

    #: single-slot (dim lookup state, compiled getters) memo.  Row
    #: getters read the fact row tuple, so they depend only on the
    #: ``key -> row`` dicts attached to batches — and each of those is
    #: one object for the life of its dimension table, mutated in
    #: place by registration changes, so the state comparison is a
    #: handful of pointer checks and an operator compiles once
    _getter_cache: tuple = (None, None)

    def _compiled_row_getters(self, batch):
        """The (key, select, input) row getters for ``batch``.

        Every dimension this operator reads is attached: a routed row
        passed that dimension's Filter with a hit, and the Filter
        attaches its lookup to every batch it probes.
        """
        state = batch.dim_lookup_state(self._dim_names)
        if state is None:
            raise PipelineError(
                f"rows routed without a join lookup for one of "
                f"{self._dim_names}"
            )
        cached_state, getters = self._getter_cache
        if cached_state != state:
            lookup_of = dict(zip(self._dim_names, state))
            key_factories, select_factories, input_factories = (
                self._row_getter_factories
            )
            getters = (
                [factory(lookup_of) for factory in key_factories],
                [factory(lookup_of) for factory in select_factories],
                [factory(lookup_of) for factory in input_factories],
            )
            self._getter_cache = (state, getters)
        return getters

    def consume_rows(self, batch, row_indices: list[int]) -> None:
        """Fold the routed rows of ``batch`` into the operator state.

        The routing entry point (DESIGN.md section 5): ``row_indices``
        are the batch rows routed to this query, in scan order, read
        through getters compiled against the batch's join lookups.
        """
        raise NotImplementedError

    def partial_state(self):
        """Export the un-finalized state for cross-process merging.

        The returned value must be picklable and must not be mutated by
        this operator afterwards (workers export once, at query end).
        """
        raise NotImplementedError

    def merge_partial(self, state) -> None:
        """Fold a :meth:`partial_state` export into this operator.

        The coordinator calls this once per shard, in shard order; the
        state may be adopted wholesale (ownership transfers).
        """
        raise NotImplementedError

    def results(self) -> list[tuple]:
        """Canonical result rows (sorted by the select prefix)."""
        raise NotImplementedError


class AggregationOperator(OutputOperator):
    """Hash-based GROUP BY with streaming aggregate accumulators."""

    def __init__(self, query: StarQuery, star: StarSchema) -> None:
        if not query.is_aggregation:
            raise PipelineError("query has no aggregates; use ListingOperator")
        self.query = query
        self._dim_names, self._row_getter_factories = (
            _compile_row_getter_factories(query, star)
        )
        self._groups: dict[tuple, list] = {}

    def consume_rows(self, batch, row_indices: list[int]) -> None:
        key_getters, select_getters, input_getters = (
            self._compiled_row_getters(batch)
        )
        groups = self._groups
        groups_get = groups.get
        specs = self.query.aggregates
        for row in map(batch.rows.__getitem__, row_indices):
            key = tuple(get(row) for get in key_getters)
            state = groups_get(key)
            if state is None:
                state = groups[key] = [
                    tuple(get(row) for get in select_getters),
                    [make_accumulator(spec) for spec in specs],
                ]
            for get_input, accumulator in zip(input_getters, state[1]):
                accumulator.add(get_input(row))

    def partial_state(self) -> dict[tuple, tuple]:
        """Compact group table: key -> (select values, state tuples).

        Accumulators are flattened to their plain-value
        :meth:`~repro.query.aggregates.Accumulator.state` exports, so a
        shard ships minimal bytes back to the coordinator.
        """
        return {
            key: (
                select_values,
                tuple(acc.state() for acc in accumulators),
            )
            for key, (select_values, accumulators) in self._groups.items()
        }

    def merge_partial(self, state: dict[tuple, tuple]) -> None:
        groups = self._groups
        specs = self.query.aggregates
        for key, (select_values, states) in state.items():
            mine = groups.get(key)
            if mine is None:
                mine = groups[key] = [
                    select_values,
                    [make_accumulator(spec) for spec in specs],
                ]
            for accumulator, partial in zip(mine[1], states):
                accumulator.merge_state(partial)

    def results(self) -> list[tuple]:
        rows = [
            select_values + tuple(acc.result() for acc in accumulators)
            for select_values, accumulators in self._groups.values()
        ]
        rows.sort(key=lambda row: row[: len(self.query.select)])
        return rows

    @property
    def group_count(self) -> int:
        """Number of groups accumulated so far."""
        return len(self._groups)


class SortAggregationOperator(OutputOperator):
    """Sort-based GROUP BY: buffer (key, inputs), sort once at the end.

    The paper's alternative to hash aggregation (section 3.1).  Same
    results as :class:`AggregationOperator`; trades memory for bounded
    per-tuple work (an append), with the sort paid at finalization.
    Preferable when group counts are huge relative to memory locality,
    or when output must stream in key order anyway.
    """

    def __init__(self, query: StarQuery, star: StarSchema) -> None:
        if not query.is_aggregation:
            raise PipelineError("query has no aggregates; use ListingOperator")
        self.query = query
        self._dim_names, self._row_getter_factories = (
            _compile_row_getter_factories(query, star)
        )
        #: buffered (group key, select values, aggregate inputs) rows
        self._buffer: list[tuple] = []

    def consume_rows(self, batch, row_indices: list[int]) -> None:
        key_getters, select_getters, input_getters = (
            self._compiled_row_getters(batch)
        )
        self._buffer.extend(
            (
                tuple(get(row) for get in key_getters),
                tuple(get(row) for get in select_getters),
                tuple(get(row) for get in input_getters),
            )
            for row in map(batch.rows.__getitem__, row_indices)
        )

    def partial_state(self) -> list[tuple]:
        """The unsorted (key, select values, inputs) buffer."""
        return self._buffer

    def merge_partial(self, state: list[tuple]) -> None:
        # shard buffers concatenated in shard order reproduce the
        # serial scan-order buffer; results() sorts either way
        self._buffer.extend(state)

    def results(self) -> list[tuple]:
        # sort by key (repr-keyed to tolerate mixed None/typed keys),
        # then fold each run of equal keys through fresh accumulators
        self._buffer.sort(key=lambda entry: tuple(map(repr, entry[0])))
        rows: list[tuple] = []
        index = 0
        total = len(self._buffer)
        while index < total:
            key, select_values, _ = self._buffer[index]
            accumulators = [
                make_accumulator(spec) for spec in self.query.aggregates
            ]
            while index < total and self._buffer[index][0] == key:
                for accumulator, value in zip(
                    accumulators, self._buffer[index][2]
                ):
                    accumulator.add(value)
                index += 1
            rows.append(
                select_values + tuple(acc.result() for acc in accumulators)
            )
        rows.sort(key=lambda row: row[: len(self.query.select)])
        return rows

    @property
    def buffered_tuples(self) -> int:
        """Number of tuples buffered so far."""
        return len(self._buffer)


class ListingOperator(OutputOperator):
    """Collects projected rows for aggregate-free queries."""

    def __init__(self, query: StarQuery, star: StarSchema) -> None:
        self.query = query
        # the shared getter memo's triple shape, with only selects used
        dim_names: list[str] = []
        self._row_getter_factories = (
            [],
            [_make_row_getter_factory(ref, query, star, dim_names)
             for ref in query.select],
            [],
        )
        self._dim_names = tuple(dim_names)
        self._rows: list[tuple] = []

    def consume_rows(self, batch, row_indices: list[int]) -> None:
        select_getters = self._compiled_row_getters(batch)[1]
        self._rows.extend(
            tuple(get(row) for get in select_getters)
            for row in map(batch.rows.__getitem__, row_indices)
        )

    def partial_state(self) -> list[tuple]:
        """The projected rows collected so far."""
        return self._rows

    def merge_partial(self, state: list[tuple]) -> None:
        self._rows.extend(state)

    def results(self) -> list[tuple]:
        return sorted(self._rows)


def make_output_operator(
    query: StarQuery, star: StarSchema, mode: str = "hash"
) -> OutputOperator:
    """Create the appropriate operator for ``query``.

    Args:
        mode: 'hash' (default) or 'sort' aggregation strategy.

    Raises:
        PipelineError: on an unknown mode.
    """
    if mode not in ("hash", "sort"):
        raise PipelineError(f"unknown aggregation mode {mode!r}")
    if query.is_aggregation:
        if mode == "sort":
            return SortAggregationOperator(query, star)
        return AggregationOperator(query, star)
    return ListingOperator(query, star)
