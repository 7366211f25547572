"""Child process hosting a warehouse server for the remote workloads.

Started by ``engines.RemoteEngine`` so the load generator and the
server do not share a GIL.  Speaks one JSON object per line on stdout,
answering one-word commands read from stdin:

* (start-up)  -> ``{"event": "ready", "url": ...}``
* ``status``  -> driver liveness, scanned tuples, CPU seconds, peak RSS
* ``restart`` -> restarts a dead service driver in place
* ``stop`` or end of input -> stops the server and exits
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE))

import engines  # noqa: E402

from repro import AsyncWarehouseServer, Warehouse, WarehouseServer  # noqa: E402
from repro.errors import PipelineError  # noqa: E402

SERVERS = {"threaded": WarehouseServer, "async": AsyncWarehouseServer}


def say(**fields) -> None:
    print(json.dumps(fields), flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--transport", choices=sorted(SERVERS), required=True)
    parser.add_argument("--scale-factor", type=float, required=True)
    args = parser.parse_args(argv)

    catalog, star, _ = engines.load_world(args.scale_factor)
    warehouse = Warehouse(catalog, star, execution="batched")
    # handler threads must not admit (README.md, finding c)
    server = SERVERS[args.transport](
        engines.DriverThreadAdmission(warehouse)
    ).start()
    say(event="ready", url=server.url)
    try:
        for line in sys.stdin:
            word = line.strip()
            if word == "status":
                say(
                    running=warehouse.service.running,
                    tuples_scanned=warehouse.stats()["pipeline"]["tuples_scanned"],
                    cpu_s=time.process_time(),
                    peak_rss_mb=engines.peak_rss_mb(),
                )
            elif word == "restart":
                engines.restart_service(warehouse)
                say(event="restarted")
            elif word == "stop":
                break
    finally:
        try:
            server.stop()
        except PipelineError:
            server.stop()  # the first call reported a driver crash
        warehouse.close()
    leaked = [
        thread.name
        for thread in threading.enumerate()
        if thread is not threading.main_thread()
    ]
    say(event="stopped", leaked_threads=leaked)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
