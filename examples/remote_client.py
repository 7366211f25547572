#!/usr/bin/env python3
"""Remote sessions: the TCP service boundary (DESIGN.md section 11).

Runs a `WarehouseServer` in this process (standing in for
``python -m repro.server`` on another machine) and talks to it purely
over the docs/PROTOCOL.md wire protocol:

1. ``repro.connect("tcp://host:port")`` — the same PEP-249 surface as
   the in-process session, backed by a socket transport;
2. parameterized SQL and ``executemany`` shipped as EXECUTE frames,
   bound server-side, never interpolated into statement text;
3. two concurrent client sessions sharing one continuous scan;
4. watching a running query's partials over the wire, then cancelling
   it — the server frees its in-flight slot within one scan cycle.

Run:  python examples/remote_client.py
"""

import repro
from repro.engine import Warehouse
from repro.server import WarehouseServer


def main() -> None:
    print("Starting a warehouse server on a loopback port...")
    warehouse = Warehouse.from_ssb(scale_factor=0.002, seed=7)
    with WarehouseServer(warehouse, owns_warehouse=True) as server:
        print(f"serving on {server.url} "
              f"({server.warehouse.star.fact.name} and friends)")

        with repro.connect(server.url) as connection:
            # -- parameterized SQL over the wire ----------------------
            cursor = connection.execute(
                "SELECT d_year, SUM(lo_revenue) AS revenue "
                "FROM lineorder, date "
                "WHERE lo_orderdate = d_datekey AND d_year >= ? "
                "GROUP BY d_year ORDER BY d_year",
                (1992,),
            )
            print("\n-- revenue by year (bound parameter: 1992) --")
            print("columns:", [column[0] for column in cursor.description])
            for year, revenue in cursor:
                print(f"  {year}: {revenue:,}")

            # -- executemany: one EXECUTE frame, many bindings --------
            counts = connection.executemany(
                "SELECT s_region, COUNT(*) FROM lineorder, supplier "
                "WHERE lo_suppkey = s_suppkey AND s_region = :region "
                "GROUP BY s_region",
                [{"region": region} for region in ("AMERICA", "ASIA")],
            ).fetchall()
            print("\n-- per-region fact counts via executemany --")
            for region, count in counts:
                print(f"  {region}: {count} rows")

            # -- a second session shares the same scan ----------------
            with repro.connect(server.url) as second:
                row = second.execute(
                    "SELECT COUNT(*) FROM lineorder, date "
                    "WHERE lo_orderdate = d_datekey"
                ).fetchone()
                print(f"\nsecond concurrent session counts {row[0]} rows")

            # -- streaming partials and cancellation ------------------
            running = connection.execute(
                "SELECT COUNT(*) FROM lineorder, date "
                "WHERE lo_orderdate = d_datekey"
            )
            partial = running.rows_so_far()  # partial-mode FETCH
            print(f"partial snapshot over the wire: {partial}")
            cancelled = running.cancel()  # CANCEL frame
            print(
                f"cancelled {cancelled} in-flight quer"
                f"{'y' if cancelled == 1 else 'ies'}; "
                f"slot frees within one scan cycle"
            )
    print("server stopped; no threads or sockets left behind")


if __name__ == "__main__":
    main()
