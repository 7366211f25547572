"""The systems under test, as the closed loops see them.

``LocalEngine`` wraps an in-process ``Warehouse`` with its always-on
service; ``RemoteEngine`` owns a ``serve.py`` child process and the
client pools that talk to it.  Both expose the little the loops need:
submit, is-the-driver-alive, restart, and counters read from outside.

``DriverThreadAdmission`` runs every ``Warehouse.submit`` on the service
driver thread.  The service documents ``submit()`` as safe from any
thread, but admitting from another thread races the batched Filters and
kills the driver (README.md, finding c), and a closed loop whose driver
dies a few times per run has a run-to-run spread no bound can hold.  The
measured passes therefore admit on the driver thread; ``run.py``'s
caller-thread probe submits as documented and reports the damage.
"""

from __future__ import annotations

import asyncio
import json
import random
import resource
import shutil
import sys
import time
from collections import deque
from pathlib import Path

import spec

from repro import Warehouse, connect_async
from repro.cjoin.registry import QueryHandle
from repro.errors import PipelineError, ReproError
from repro.ssb.generator import load_ssb
from repro.ssb.queries import ssb_workload_generator

HERE = Path(__file__).resolve().parent
SERVE = HERE / "serve.py"
#: sockets a remote workload multiplexes its sessions over
REMOTE_SOCKETS = 2
CHILD_REPLY_TIMEOUT_S = 120.0


def peak_rss_mb() -> float:
    """High-water resident set of this process.

    ``VmHWM`` rather than ``ru_maxrss``: Linux carries ``ru_maxrss``
    across fork and exec, so a ``serve.py`` child would report the
    harness's peak, not its own.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reset_peak_rss() -> None:
    """Start the high-water mark afresh, so that one invocation running
    several workloads reports each one's own peak (best effort)."""
    try:
        with open("/proc/self/clear_refs", "w") as clear_refs:
            clear_refs.write("5")
    except OSError:
        pass


def load_world(scale_factor: float):
    """Load the fixed SSB instance; returns (catalog, star, seconds)."""
    started = time.perf_counter()
    catalog, star = load_ssb(scale_factor=scale_factor, seed=spec.DATA_SEED)
    return catalog, star, time.perf_counter() - started


def make_queries(seed: int, catalog, count: int) -> list:
    """``count`` workload queries: the ten templates in rotation.

    The generator's own ``generate`` draws the template at random, so
    the mix in flight (and in any one window of ``solo_n1``) would
    differ from seed to seed; admission and Filter cost depend on
    which dimensions a template touches, and the benchmark would then
    measure the draw.  Rotating keeps the mix fixed and leaves the
    seed the predicate windows, which is what it should vary.
    """
    generator = ssb_workload_generator(seed=seed, catalog=catalog)
    names = [template.name for template in generator.templates]
    return [
        generator.generate_from(names[index % len(names)], spec.SELECTIVITY)
        for index in range(count)
    ]


def make_ingest_batches(seed: int, catalog, star):
    """Endless batches of cloned fact rows, so every foreign key joins."""
    rng = random.Random(seed)
    rows = catalog.table(star.fact.name).all_rows()
    while True:
        yield [
            rows[rng.randrange(len(rows))]
            for _ in range(spec.INGEST_BATCH_ROWS)
        ]


def refuse(handle: QueryHandle) -> None:
    """Report a refused submission the way every layer of the repo does:
    a handle completed as cancelled."""
    handle.mark_cancelled()
    handle.complete([])


class DriverThreadAdmission:
    """A warehouse whose ``submit`` runs on the service driver thread.

    Submissions queue here and the service's public ``cycle_hook`` (the
    hook the warehouse itself uses for ingest applies) admits them at
    the driver's next batch boundary, inline, through the real
    ``Warehouse.submit``.  The servers get one of these in place of the
    warehouse: their sessions call ``server.warehouse.submit(query,
    handle=handle)`` from handler threads; every other attribute
    reaches the real warehouse untouched.
    """

    def __init__(self, warehouse: Warehouse, submit_log: list | None = None) -> None:
        self._warehouse = warehouse
        #: (finished at, seconds) of every Warehouse.submit call
        self.submit_log = submit_log if submit_log is not None else []
        self._pending: deque = deque()
        service = warehouse.service
        scan_boundary = service.cycle_hook

        def hook() -> None:
            # staged writes land first, as without the marshal, so a
            # query stamped at this boundary sees them
            if scan_boundary is not None:
                scan_boundary()
            while self._pending:
                self._admit(*self._pending.popleft())

        service.cycle_hook = hook

    def submit(self, query, handle: QueryHandle) -> QueryHandle:
        self._pending.append((query, handle))
        return handle

    def drop_pending(self) -> None:
        self._pending.clear()

    def _admit(self, query, handle: QueryHandle) -> None:
        started = time.perf_counter()
        try:
            self._warehouse.submit(query, handle=handle)
        except ReproError:
            refuse(handle)  # raised here it would kill the driver
            return
        ended = time.perf_counter()
        self.submit_log.append((ended, ended - started))

    def __getattr__(self, name: str):
        return getattr(self._warehouse, name)


def build_warehouse(workload, catalog, star, data_dir: Path | None) -> Warehouse:
    """The system config of README.md: batched, all else default."""
    kwargs = {"execution": "batched"}
    if workload.ingest:
        kwargs["enable_updates"] = True
        if data_dir is not None:
            kwargs["data_dir"] = str(data_dir)
    return Warehouse(catalog, star, **kwargs)


def restart_service(warehouse: Warehouse) -> None:
    """Bring a dead driver back over the same pipeline state."""
    try:
        warehouse.service.stop()
    except PipelineError:
        pass  # stop() reports the crash it found; the watchdog counted it
    warehouse.service.start()


class LocalEngine:
    """An in-process warehouse with its service driver running."""

    def __init__(self, workload, catalog, star, scratch: Path,
                 on_driver_thread: bool = True) -> None:
        self.workload = workload
        self.catalog = catalog
        self.star = star
        self.data_dir = scratch / "data" if workload.ingest else None
        #: False only for the caller-thread probe (README.md, finding c)
        self.on_driver_thread = on_driver_thread
        self.warehouse: Warehouse | None = None
        #: what ``submit`` hands queries to: the marshal or the warehouse
        self.admission = None
        #: (finished at, seconds) per Warehouse.submit; survives a rebuild
        self.submit_log: list[tuple[float, float]] = []

    def start(self) -> None:
        if self.data_dir is not None and self.data_dir.exists():
            shutil.rmtree(self.data_dir)  # a set-up repeat or a rebuild
        self.warehouse = build_warehouse(
            self.workload, self.catalog, self.star, self.data_dir
        )
        self.admission = (
            DriverThreadAdmission(self.warehouse, self.submit_log)
            if self.on_driver_thread else self.warehouse
        )
        self.warehouse.start_service()

    def submit(self, query, on_complete) -> QueryHandle:
        handle = QueryHandle(query)
        handle.on_complete(on_complete)
        try:
            self.admission.submit(query, handle=handle)
        except ReproError:
            refuse(handle)
        return handle

    def ingest(self, rows, on_done):
        ticket = self.warehouse.ingest(fact_rows=rows)
        ticket.on_done(on_done)
        return ticket

    def alive(self) -> bool:
        return self.warehouse.service.running

    def restart(self) -> None:
        """Restart in place; rebuild the warehouse if that raises."""
        if self.on_driver_thread:
            self.admission.drop_pending()  # their handles were failed
        try:
            restart_service(self.warehouse)
        except ReproError:
            self.start()

    def snapshot(self) -> dict:
        stats = self.warehouse.stats()
        return {
            "tuples_scanned": stats["pipeline"]["tuples_scanned"],
            "cpu_s": time.process_time(),
            "harness_cpu_s": time.thread_time(),
        }

    def close(self) -> None:
        try:
            # a crash nobody restarted from surfaces here, once; raised
            # inside close() it would skip the final checkpoint
            self.warehouse.service.stop()
        except PipelineError:
            pass
        self.warehouse.close()


class RemoteEngine:
    """A ``serve.py`` child process and the sockets into it."""

    def __init__(self, workload, scale_factor: float) -> None:
        self.workload = workload
        self.scale_factor = scale_factor
        self.process = None
        self.pools: list = []

    async def start(self) -> None:
        self.process = await asyncio.create_subprocess_exec(
            sys.executable,
            str(SERVE),
            "--transport", self.workload.transport,
            "--scale-factor", repr(self.scale_factor),
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
        )
        ready = await self._reply()
        for _ in range(REMOTE_SOCKETS):
            self.pools.append(await connect_async(ready["url"], pool_size=1))

    async def _reply(self) -> dict:
        line = await asyncio.wait_for(
            self.process.stdout.readline(), CHILD_REPLY_TIMEOUT_S
        )
        if not line:
            raise RuntimeError("serve.py exited without answering")
        return json.loads(line)

    async def _command(self, word: str) -> dict:
        self.process.stdin.write(word.encode() + b"\n")
        await self.process.stdin.drain()
        return await self._reply()

    async def snapshot(self) -> dict:
        """The child's counters plus this (harness) process's CPU time."""
        status = await self._command("status")
        status["harness_cpu_s"] = time.process_time()
        return status

    async def restart(self) -> None:
        await self._command("restart")

    async def stop(self) -> dict:
        """Close the sockets, stop the child, wait until it has ended."""
        for pool in self.pools:
            await pool.close()
        self.pools = []
        if self.process is None or self.process.returncode is not None:
            return {}
        try:
            return await self._command("stop")
        finally:
            try:
                await asyncio.wait_for(self.process.wait(), 30.0)
            except asyncio.TimeoutError:
                self.process.kill()
                await self.process.wait()
