"""The storm side of the frame-storm test (tests/test_server_driver.py).

Runs in a process of its own, so the pollers load the server's event
loop without also taking its GIL::

    python tests/frame_storm_client.py tcp://127.0.0.1:PORT SESSIONS

Opens SESSIONS connections, gives each one a finished COUNT statement
and prints ``ready``; on a line on stdin it starts polling
partial-mode FETCH on all of them in a tight loop, prints ``storming``,
and keeps polling until its stdin closes; ``{"answered": polls}`` is
the last line it prints.
"""

from __future__ import annotations

import asyncio
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro import connect_async  # noqa: E402

#: selects no date, so the 256 statements cost the scan next to nothing
COUNT_SQL = (
    "SELECT COUNT(*) FROM lineorder, date "
    "WHERE lo_orderdate = d_datekey AND d_year = 1"
)


async def main(url: str, sessions: int) -> None:
    pools = await asyncio.gather(
        *(connect_async(url, pool_size=1) for _ in range(sessions))
    )
    cursors = await asyncio.gather(*(pool.execute(COUNT_SQL) for pool in pools))
    await asyncio.gather(*(cursor.fetchall() for cursor in cursors))
    loop = asyncio.get_running_loop()
    print("ready", flush=True)
    await loop.run_in_executor(None, sys.stdin.readline)
    answered = 0
    stop = asyncio.Event()

    async def poll(cursor) -> None:
        nonlocal answered
        while not stop.is_set():
            await cursor.rows_so_far()
            answered += 1

    tasks = [asyncio.create_task(poll(cursor)) for cursor in cursors]
    print("storming", flush=True)
    await loop.run_in_executor(None, sys.stdin.read)
    stop.set()
    await asyncio.gather(*tasks)
    for pool in pools:
        await pool.close()
    print(json.dumps({"answered": answered}), flush=True)


if __name__ == "__main__":
    asyncio.run(main(sys.argv[1], int(sys.argv[2])))
