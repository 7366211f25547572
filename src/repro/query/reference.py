"""Reference (ground-truth) star-query evaluator.

A deliberately naive evaluator: index-nested-loop join of each fact
row against the dimension primary keys, with no sharing or batching.
Both the CJOIN operator and the query-at-a-time baseline are tested
for result equivalence against this module, so it is kept as simple
and obviously-correct as possible.
"""

from __future__ import annotations

from repro.catalog.catalog import Catalog
from repro.errors import QueryError
from repro.query.aggregates import make_accumulator
from repro.query.star import ColumnRef, StarQuery
from repro.storage.mvcc import Snapshot, VersionedTable


def evaluate_star_query(
    query: StarQuery,
    catalog: Catalog,
    versioned_fact: VersionedTable | None = None,
) -> list[tuple]:
    """Evaluate ``query`` and return canonical result rows.

    Result rows are ``select values + aggregate values`` sorted by the
    select values (all systems under test normalize results the same
    way, so lists compare directly).

    Args:
        query: a validated star query.
        catalog: resolves table names to stored tables.
        versioned_fact: when given, rows invisible in the query's
            snapshot are skipped (snapshot isolation, section 3.5).
    """
    star = catalog.star(query.fact_table)
    query.validate(star)
    fact = catalog.table(query.fact_table)

    fact_matcher = None
    if query.fact_predicate is not None:
        fact_matcher = query.fact_predicate.bind(star.fact)
    dim_matchers = {
        name: query.predicate_on(name).bind(star.dimension(name))
        for name in query.referenced_dimensions()
    }
    fk_indexes = {
        name: star.fact_fk_index(name) for name in query.referenced_dimensions()
    }
    dim_tables = {
        name: catalog.table(name) for name in query.referenced_dimensions()
    }
    snapshot = None
    if versioned_fact is not None:
        snapshot_id = query.snapshot_id
        if snapshot_id is None:
            snapshot_id = versioned_fact.last_commit_id  # "latest"
        snapshot = Snapshot(snapshot_id)

    groups: dict[tuple, list] = {}
    listing: list[tuple] = []
    for position, fact_row in enumerate(fact.heap.iter_rows()):
        if snapshot is not None and not snapshot.can_see(
            versioned_fact.version_at(position)
        ):
            continue
        if fact_matcher is not None and not fact_matcher(fact_row):
            continue
        joined_dims = {}
        survived = True
        for name, matcher in dim_matchers.items():
            dim_row = dim_tables[name].lookup_pk(fact_row[fk_indexes[name]])
            if dim_row is None or not matcher(dim_row):
                survived = False
                break
            joined_dims[name] = dim_row
        if not survived:
            continue
        select_values = tuple(
            _resolve(ref, query, star, fact_row, joined_dims)
            for ref in query.select
        )
        if not query.is_aggregation:
            listing.append(select_values)
            continue
        key = tuple(
            _resolve(ref, query, star, fact_row, joined_dims)
            for ref in query.group_by
        )
        state = groups.get(key)
        if state is None:
            state = [
                select_values,
                [make_accumulator(spec) for spec in query.aggregates],
            ]
            groups[key] = state
        for spec, accumulator in zip(query.aggregates, state[1]):
            if spec.is_count_star:
                accumulator.add(0)  # any non-None marker; COUNT(*) counts rows
                continue
            value = _resolve(
                ColumnRef(spec.table, spec.column),
                query,
                star,
                fact_row,
                joined_dims,
            )
            if spec.column2 is not None:
                value2 = _resolve(
                    ColumnRef(spec.table, spec.column2),
                    query,
                    star,
                    fact_row,
                    joined_dims,
                )
                value = spec.combine_values(value, value2)
            accumulator.add(value)

    if not query.is_aggregation:
        return sorted(listing)
    rows = [
        select_values + tuple(acc.result() for acc in accumulators)
        for select_values, accumulators in groups.values()
    ]
    rows.sort(key=lambda row: row[: len(query.select)])
    return rows


def _resolve(ref, query: StarQuery, star, fact_row: tuple, joined_dims: dict):
    """Extract the value of ``ref`` from a joined fact/dimension row set."""
    if ref.table == query.fact_table:
        return fact_row[star.fact.column_index(ref.column)]
    dim_row = joined_dims.get(ref.table)
    if dim_row is None:
        raise QueryError(f"column {ref} references an unjoined table")
    return dim_row[star.dimension(ref.table).column_index(ref.column)]
