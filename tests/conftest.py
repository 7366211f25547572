"""Shared fixtures: a hand-written tiny star and a milli-scale SSB."""

from __future__ import annotations

import threading
import time

import pytest

from repro.catalog.catalog import Catalog
from repro.catalog.schema import (
    Column,
    DataType,
    ForeignKey,
    StarSchema,
    TableSchema,
)
from repro.ssb.generator import load_ssb
from repro.ssb.queries import ssb_workload_generator
from repro.storage.table import Table

INT = DataType.INT
STRING = DataType.STRING
FLOAT = DataType.FLOAT


def take_rows(scan, count: int, max_rows: int = 1) -> list[tuple[int, tuple]]:
    """``count`` ``(position, row)`` pairs off a scan source.

    Pulled through ``next_run`` in runs of at most ``max_rows`` — the
    only way a scan source produces rows.
    """
    pairs: list[tuple[int, tuple]] = []
    while len(pairs) < count:
        start, rows = scan.next_run(min(max_rows, count - len(pairs)))
        pairs.extend(enumerate(rows, start))
    return pairs


def count_overlapping_steps(warehouse) -> dict[str, int]:
    """Wrap the warehouse executor's ``step()`` to count its calls.

    Returns the live counts: ``steps`` taken, and ``overlaps``, the
    steps that began while another thread was still inside one — two
    steppers on one pipeline.  ``overlaps`` must stay 0.  Each step
    sleeps briefly on entry, handing the interpreter lock over, so a
    second stepper, if there is one, gets in while the first is inside.
    """
    executor = warehouse.cjoin.executor
    real_step = executor.step
    lock = threading.Lock()
    counts = {"steps": 0, "overlaps": 0}
    inside = 0

    def step() -> int:
        nonlocal inside
        with lock:
            counts["steps"] += 1
            counts["overlaps"] += inside > 0
            inside += 1
        try:
            time.sleep(0.0001)
            return real_step()
        finally:
            with lock:
                inside -= 1

    executor.step = step
    return counts


def make_tiny_star() -> tuple[Catalog, StarSchema]:
    """A small retail star with hand-checkable data.

    sales(fact): 12 rows over store (3 rows) and product (4 rows);
    rows_per_page=4 so the fact spans multiple pages.
    """
    store = TableSchema(
        "store",
        [
            Column("s_id", INT),
            Column("s_city", STRING),
            Column("s_size", INT),
        ],
        primary_key="s_id",
    )
    product = TableSchema(
        "product",
        [
            Column("p_id", INT),
            Column("p_category", STRING),
            Column("p_price", INT),
        ],
        primary_key="p_id",
    )
    sales = TableSchema(
        "sales",
        [
            Column("f_store", INT),
            Column("f_product", INT),
            Column("f_qty", INT),
            Column("f_total", INT),
        ],
        foreign_keys=[
            ForeignKey("f_store", "store", "s_id"),
            ForeignKey("f_product", "product", "p_id"),
        ],
    )
    star = StarSchema(
        fact=sales, dimensions={"store": store, "product": product}
    )
    catalog = Catalog()
    catalog.register_table(
        Table.from_rows(
            store,
            [
                (1, "lyon", 100),
                (2, "paris", 250),
                (3, "nice", 50),
            ],
            rows_per_page=4,
        )
    )
    catalog.register_table(
        Table.from_rows(
            product,
            [
                (10, "food", 5),
                (20, "toys", 30),
                (30, "food", 8),
                (40, "books", 12),
            ],
            rows_per_page=4,
        )
    )
    catalog.register_table(
        Table.from_rows(
            sales,
            [
                (1, 10, 2, 10),
                (1, 20, 1, 30),
                (2, 10, 5, 25),
                (2, 30, 3, 24),
                (3, 40, 1, 12),
                (1, 30, 2, 16),
                (2, 20, 2, 60),
                (3, 10, 4, 20),
                (1, 40, 3, 36),
                (2, 40, 1, 12),
                (3, 30, 2, 16),
                (1, 10, 1, 5),
            ],
            rows_per_page=4,
        )
    )
    catalog.register_star(star)
    return catalog, star


@pytest.fixture
def tiny_star() -> tuple[Catalog, StarSchema]:
    """Fresh tiny retail star per test."""
    return make_tiny_star()


@pytest.fixture(scope="session")
def ssb_small() -> tuple[Catalog, StarSchema]:
    """A shared milli-scale SSB instance (~3000 fact rows).

    Session-scoped and treated as read-only by tests.
    """
    return load_ssb(scale_factor=0.0005, seed=11)


@pytest.fixture(scope="session")
def ssb_workload(ssb_small):
    """A deterministic 12-query workload over the shared instance."""
    catalog, _ = ssb_small
    generator = ssb_workload_generator(seed=2, catalog=catalog)
    return generator.generate(12, selectivity=0.1)
