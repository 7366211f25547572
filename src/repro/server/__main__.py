"""Run a warehouse server from the command line.

Loads a Star Schema Benchmark instance, starts the always-on service,
and listens for clients speaking the docs/PROTOCOL.md wire protocol::

    PYTHONPATH=src python -m repro.server --scale-factor 0.001 --port 5477

then, from any other process::

    import repro
    with repro.connect("tcp://127.0.0.1:5477") as connection:
        print(connection.execute(
            "SELECT COUNT(*) FROM lineorder, date "
            "WHERE lo_orderdate = d_datekey"
        ).fetchall())

Stops cleanly on Ctrl-C / SIGTERM.
"""

from __future__ import annotations

import argparse
import signal
import threading

from repro.engine.warehouse import Warehouse
from repro.server.tcp import DEFAULT_PORT, WarehouseServer
from repro.storage.persist import has_snapshot
from repro.tuning import DEFAULT_MAX_IN_FLIGHT_PER_CONNECTION, TuningConfig


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server", description=__doc__
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT)
    parser.add_argument(
        "--scale-factor",
        type=float,
        default=0.001,
        help="SSB scale factor to load (default 0.001)",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--max-in-flight",
        type=int,
        default=None,
        help="service bound on concurrently registered queries",
    )
    parser.add_argument(
        "--max-per-connection",
        type=int,
        default=DEFAULT_MAX_IN_FLIGHT_PER_CONNECTION,
        help="per-connection admission bound (fairness across clients)",
    )
    parser.add_argument(
        "--data-dir",
        default=None,
        help="durable storage directory (DESIGN.md section 16): when "
        "it holds a snapshot the server cold-starts from disk with "
        "zero regeneration (replaying any WAL tail) and --scale-factor"
        "/--seed are ignored; otherwise SSB is generated once and "
        "persisted there",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    tuning = TuningConfig()
    if args.max_in_flight is not None:
        tuning = tuning.replace(max_in_flight=args.max_in_flight)
    if args.data_dir is not None and has_snapshot(args.data_dir):
        print(f"cold-starting from {args.data_dir} (zero regeneration)...")
        warehouse = Warehouse.open(args.data_dir, tuning=tuning)
        replay = warehouse.last_replay
        print(
            f"loaded snapshot generation {replay.snapshot_generation}, "
            f"replayed {replay.wal_records} WAL record(s) "
            f"({replay.wal_rows} rows)"
        )
    else:
        print(
            f"loading SSB at scale factor {args.scale_factor} "
            f"(seed {args.seed})..."
        )
        warehouse = Warehouse.from_ssb(
            scale_factor=args.scale_factor,
            seed=args.seed,
            tuning=tuning,
            data_dir=args.data_dir,
        )
        if args.data_dir is not None:
            print(f"dataset persisted to {args.data_dir}")
    server = WarehouseServer(
        warehouse,
        host=args.host,
        port=args.port,
        owns_warehouse=True,
        max_in_flight_per_connection=args.max_per_connection,
    )
    stop = threading.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: stop.set())
    server.start()
    try:
        print(f"serving on {server.url} — connect with "
              f"repro.connect({server.url!r}); Ctrl-C to stop")
        stop.wait()
    finally:
        print("stopping...")
        server.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
