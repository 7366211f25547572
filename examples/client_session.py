#!/usr/bin/env python3
"""Client sessions: the PEP-249-shaped front door (DESIGN.md section 10).

Demonstrates the full client surface over the always-on service:

1. ``repro.connect()`` opening a context-managed session (the
   background continuous scan starts with it and stops with it);
2. parameterized SQL — qmark and named placeholders bound safely into
   the parse tree, never into the statement text;
3. cursor fetch semantics, iteration, and ``description`` metadata;
4. ``executemany`` fanning one statement's bindings out over the
   admission queue so they share one scan;
5. watching a running query's partial results, then cancelling it.

Run:  python examples/client_session.py
"""

import repro


def main() -> None:
    print("Connecting to a milli-scale SSB warehouse...")
    with repro.connect(scale_factor=0.002, seed=7) as connection:
        # -- parameterized SQL (qmark style) --------------------------
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

        # -- executemany: one statement, many bindings, one scan ------
        regions = ("AMERICA", "ASIA", "EUROPE")
        counts = connection.executemany(
            "SELECT s_region, COUNT(*) FROM lineorder, supplier "
            "WHERE lo_suppkey = s_suppkey AND s_region = :region "
            "GROUP BY s_region",
            [{"region": region} for region in regions],
        ).fetchall()
        print("\n-- per-region fact counts via executemany --")
        for region, count in counts:
            print(f"  {region}: {count} rows")

        # -- a malicious-looking string is just data ------------------
        cursor = connection.execute(
            "SELECT COUNT(*) FROM lineorder, supplier "
            "WHERE lo_suppkey = s_suppkey AND s_region = ?",
            ("'; DROP TABLE lineorder; --",),
        )
        print(
            "\ninjection attempt bound as plain data ->",
            cursor.fetchone(), "(no supplier has that 'region')",
        )

        # -- streaming partials and cancellation ----------------------
        running = connection.execute(
            "SELECT COUNT(*) FROM lineorder, date "
            "WHERE lo_orderdate = d_datekey"
        )
        partial = running.rows_so_far()  # never blocks
        print(f"\npartial snapshot while mid-scan: {partial}")
        cancelled = running.cancel()
        print(
            f"cancelled {cancelled} in-flight quer"
            f"{'y' if cancelled == 1 else 'ies'}; "
            f"slot frees within one scan cycle"
        )

        summary = connection.warehouse.latency_summary()
        print(
            f"\nsession telemetry: {summary['count']:.0f} completions, "
            f"p95 latency {summary['p95'] * 1e3:.1f} ms"
        )
    print("connection closed; service stopped, no threads left behind")


if __name__ == "__main__":
    main()
