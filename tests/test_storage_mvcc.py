"""Unit tests for snapshot-isolation visibility."""

import pytest

from repro.catalog.catalog import Catalog
from repro.catalog.schema import Column, DataType, StarSchema, TableSchema
from repro.errors import SnapshotError
from repro.query.aggregates import AggregateSpec
from repro.query.reference import evaluate_star_query
from repro.query.star import StarQuery
from repro.storage.mvcc import (
    LIVE,
    Snapshot,
    TransactionManager,
    TupleVersion,
    VersionedTable,
)
from repro.storage.table import Table


def _versioned(rows=3):
    schema = TableSchema("t", [Column("k", DataType.INT)])
    table = Table.from_rows(schema, [(i,) for i in range(rows)])
    return VersionedTable(table)


class TestSnapshotVisibility:
    def test_bulk_loaded_rows_visible_everywhere(self):
        version = TupleVersion(xmin=0, xmax=None)
        assert Snapshot(0).can_see(version)
        assert Snapshot(100).can_see(version)

    def test_insert_invisible_to_older_snapshot(self):
        version = TupleVersion(xmin=5, xmax=None)
        assert not Snapshot(4).can_see(version)
        assert Snapshot(5).can_see(version)

    def test_delete_invisible_after_xmax(self):
        version = TupleVersion(xmin=1, xmax=3)
        assert Snapshot(2).can_see(version)
        assert not Snapshot(3).can_see(version)


class TestVersionedTable:
    def test_insert_appends_version(self):
        table = _versioned(2)
        position = table.insert((9,), xmin=4)
        assert position == 2
        assert table.version_at(2) == TupleVersion(4, None)

    def test_double_delete_rejected(self):
        table = _versioned(2)
        table.delete(0, xmax=2)
        with pytest.raises(SnapshotError):
            table.delete(0, xmax=3)

    def test_bad_position_rejected(self):
        table = _versioned(1)
        with pytest.raises(SnapshotError):
            table.version_at(5)
        with pytest.raises(SnapshotError):
            table.delete(5, xmax=1)

    def test_version_at_round_trips_through_the_columns(self):
        table = _versioned(2)
        table.insert((7,), xmin=3)
        table.delete(1, xmax=5)
        assert [table.version_at(p) for p in range(3)] == [
            TupleVersion(0, None),
            TupleVersion(0, 5),
            TupleVersion(3, None),
        ]
        assert table.version_at(1).xmax < LIVE  # any real id sorts below it
        assert table.last_commit_id == 5

    def test_page_bounds_follow_inserts_and_deletes(self):
        schema = TableSchema("t", [Column("k", DataType.INT)])
        rows = [(i,) for i in range(6)]
        table = VersionedTable(Table.from_rows(schema, rows, rows_per_page=4))
        assert table.page_bounds(0) == table.page_bounds(5) == (0, 0, LIVE)
        table.insert((6,), xmin=2)  # joins the second page
        table.insert((7,), xmin=3)
        table.insert((8,), xmin=4)  # opens a third page
        table.delete(1, xmax=9)
        table.delete(2, xmax=6)
        assert table.page_bounds(3) == (0, 0, 6)
        assert table.page_bounds(4) == (0, 3, LIVE)
        assert table.page_bounds(8) == (4, 4, LIVE)
        with pytest.raises(SnapshotError):
            table.page_bounds(12)

    def test_visibility_mask_is_can_see_per_row(self):
        table = _versioned(3)
        table.insert((3,), xmin=2)
        table.delete(0, xmax=2)
        table.delete(1, xmax=4)
        for snapshot_id in range(6):
            snapshot = Snapshot(snapshot_id)
            assert table.visibility_mask(snapshot_id, 0, 4) == [
                snapshot.can_see(table.version_at(p)) for p in range(4)
            ]
        assert table.visibility_mask(1, 1, 3) == [True, True]
        with pytest.raises(SnapshotError):  # a row without its version
            table.visibility_mask(1, 2, 5)

    def test_visible_rows_reflect_snapshot(self):
        table = _versioned(2)  # rows (0,), (1,) at xmin=0
        table.delete(0, xmax=1)
        table.insert((2,), xmin=1)
        assert table.visible_rows(Snapshot(0)) == [(0,), (1,)]
        assert table.visible_rows(Snapshot(1)) == [(1,), (2,)]


class TestTransactionManager:
    def test_commit_advances_snapshot(self):
        manager = TransactionManager()
        table = _versioned(1)
        assert manager.current_snapshot().snapshot_id == 0
        snapshot = manager.commit(table, inserts=[(5,)])
        assert snapshot.snapshot_id == 1
        assert manager.current_snapshot().snapshot_id == 1

    def test_update_as_delete_plus_insert(self):
        manager = TransactionManager()
        table = _versioned(1)  # row (0,)
        before = manager.current_snapshot()
        manager.commit(table, inserts=[(10,)], deletes=[0])
        after = manager.current_snapshot()
        assert table.visible_rows(before) == [(0,)]
        assert table.visible_rows(after) == [(10,)]

    def test_rows_never_physically_removed(self):
        manager = TransactionManager()
        table = _versioned(3)
        manager.commit(table, deletes=[1])
        assert table.row_count == 3  # stable positions for the scan


def test_reference_latest_is_the_last_commit_not_the_row_count():
    """An unstamped reference query sees every committed change.

    Three rows, four empty commits, then a delete at transaction 5:
    "latest" used to be the row count, 3, which is older than the
    delete, so the reference still saw the deleted row.
    """
    schema = TableSchema("f", [Column("k", DataType.INT)])
    catalog = Catalog()
    catalog.register_table(Table.from_rows(schema, [(1,), (2,), (3,)]))
    catalog.register_star(StarSchema(fact=schema, dimensions={}))
    versioned = VersionedTable(catalog.table("f"))
    manager = TransactionManager()
    for _ in range(4):
        manager.commit(versioned)
    assert manager.commit(versioned, deletes=[0]).snapshot_id == 5
    assert versioned.last_commit_id == 5
    count = StarQuery.build("f", aggregates=[AggregateSpec("count")])
    assert evaluate_star_query(count, catalog, versioned_fact=versioned) == [(2,)]
