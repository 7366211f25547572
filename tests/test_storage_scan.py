"""Unit tests for one-shot and continuous scans."""

import pytest

from repro.catalog.schema import Column, DataType, TableSchema
from repro.storage.buffer import BufferPool
from repro.storage.iostats import IOStats
from repro.storage.scan import ContinuousScan, TableScan
from repro.storage.table import Table
from tests.conftest import take_rows


def _table(row_count=10, rows_per_page=3):
    schema = TableSchema("t", [Column("k", DataType.INT)])
    return Table.from_rows(
        schema, [(i,) for i in range(row_count)], rows_per_page
    )


class TestTableScan:
    def test_yields_all_rows_in_order(self):
        table = _table(7)
        scan = TableScan(table, BufferPool(16))
        assert list(scan) == [(i,) for i in range(7)]

    def test_positions_are_row_ordinals(self):
        table = _table(5)
        scan = TableScan(table, BufferPool(16))
        assert list(scan.iter_with_positions()) == [
            (i, (i,)) for i in range(5)
        ]

    def test_charges_one_read_per_page(self):
        stats = IOStats()
        table = _table(9, rows_per_page=3)
        list(TableScan(table, BufferPool(16, stats)))
        assert stats.disk_reads == 3
        assert stats.sequential_fraction == pytest.approx(2 / 3)  # first is random


class TestContinuousScan:
    def test_wraps_in_identical_order(self):
        table = _table(5)
        scan = ContinuousScan(table, BufferPool(16))
        first_cycle = take_rows(scan, 5)
        second_cycle = take_rows(scan, 5, max_rows=2)
        assert first_cycle == second_cycle
        assert [pos for pos, _ in first_cycle] == list(range(5))

    def test_next_position_tracks_cursor(self):
        table = _table(3)
        scan = ContinuousScan(table, BufferPool(16))
        assert scan.next_position == 0
        scan.next_run(1)
        assert scan.next_position == 1
        scan.next_run(2)
        assert scan.next_position == 0  # wrapped

    def test_empty_table_returns_none(self):
        table = _table(0)
        scan = ContinuousScan(table, BufferPool(16))
        assert scan.next_run(4) is None
        assert scan.row_count == 0

    def test_rows_appended_mid_cycle_are_reached(self):
        table = _table(3)
        scan = ContinuousScan(table, BufferPool(16))
        scan.next_run(1)
        table.insert((99,))
        positions = [position for position, _ in take_rows(scan, 3, 3)]
        assert positions == [1, 2, 3]  # the appended row extends the cycle

    def test_cycles_completed(self):
        table = _table(4)
        scan = ContinuousScan(table, BufferPool(16))
        take_rows(scan, 10, max_rows=3)
        assert scan.cycles_completed == pytest.approx(2.5)

    def test_io_stays_sequential_across_cycles(self):
        stats = IOStats()
        table = _table(12, rows_per_page=3)
        scan = ContinuousScan(table, BufferPool(2, stats))
        take_rows(scan, 24)  # two full cycles, pool smaller than table
        # wrap-around reads (page 0 after page 3) are the only randoms
        assert stats.random_reads <= 2
        assert stats.sequential_reads >= 6
