"""repro — a reproduction of "A Scalable, Predictable Join Operator for

Highly Concurrent Data Warehouses" (Candea, Polyzotis, Vingralek;
VLDB 2009): the CJOIN shared star-join operator, a query-at-a-time
baseline engine, the Star Schema Benchmark substrate, and the
calibrated performance models that regenerate the paper's evaluation.

Quick start::

    import repro

    with repro.connect(scale_factor=0.001) as connection:
        cursor = connection.execute(
            "SELECT d_year, SUM(lo_revenue) AS revenue "
            "FROM lineorder, date "
            "WHERE lo_orderdate = d_datekey AND d_year >= ? "
            "GROUP BY d_year",
            (1994,),
        )
        for year, revenue in cursor:
            print(year, revenue)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from repro.catalog import (
    Catalog,
    Column,
    DataType,
    ForeignKey,
    GalaxySchema,
    StarSchema,
    TableSchema,
)
from repro.cjoin import CJoinOperator, ExecutorConfig, QueryHandle
from repro.client import Connection, Cursor, connect, connect_async
from repro.engine import (
    Submission,
    SwapReport,
    Warehouse,
    WarehouseService,
    blue_green_swap,
)
from repro.server import AsyncWarehouseServer, WarehouseServer
from repro.errors import IngestBackpressureError, IngestError, ReproError
from repro.ingest import IngestWriter
from repro.tuning import TuningConfig
from repro.query import (
    AggregateSpec,
    And,
    Between,
    ColumnRef,
    Comparison,
    InList,
    Not,
    Or,
    StarQuery,
    TruePredicate,
)
from repro.storage import Table

__version__ = "1.0.0"

__all__ = [
    "AggregateSpec",
    "And",
    "AsyncWarehouseServer",
    "Between",
    "CJoinOperator",
    "Catalog",
    "Column",
    "ColumnRef",
    "Comparison",
    "Connection",
    "Cursor",
    "DataType",
    "ExecutorConfig",
    "ForeignKey",
    "GalaxySchema",
    "InList",
    "IngestBackpressureError",
    "IngestError",
    "IngestWriter",
    "Not",
    "Or",
    "QueryHandle",
    "ReproError",
    "StarQuery",
    "StarSchema",
    "Submission",
    "SwapReport",
    "Table",
    "TableSchema",
    "TruePredicate",
    "TuningConfig",
    "Warehouse",
    "WarehouseServer",
    "WarehouseService",
    "__version__",
    "blue_green_swap",
    "connect",
    "connect_async",
]
