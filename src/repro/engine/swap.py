"""Blue-green dataset swaps: replace a live warehouse without dropping
a session (DESIGN.md section 16).

The always-on serving layers (the TCP server, or any object holding a
``warehouse`` attribute) resolve ``warehouse`` at
*call* time, never caching it per session — which makes a zero-downtime
dataset swap a pointer flip with careful sequencing:

1. load the new dataset version into a *shadow* :class:`Warehouse`
   (typically ``Warehouse.open`` on a freshly prepared data_dir, or a
   regenerated in-memory instance) — the expensive part happens
   entirely off the serving path;
2. start the shadow's service driver so its continuous scan is already
   warm when traffic arrives — behind a server, as a second scan task
   on the server's event loop (a served warehouse is always driven
   from its server's loop; the two tasks alternate while the old one
   drains), else on its own thread;
3. under the **old** pipeline's write barrier, flip
   ``holder.warehouse`` to the shadow — the barrier serializes the
   flip against in-progress admissions, so the cutover lands at a
   scan-cycle boundary: every query is admitted wholly to one
   warehouse or the other, never split;
4. drain the old warehouse — queries admitted before the flip finish
   on the scan (and the dataset version) they were admitted under, so
   in-flight cursors stream exactly the results their admission
   promised;
5. retire the old warehouse (stop its driver, close it) once empty —
   behind a server its scan task leaves the loop first.

Sessions never notice: their next statement routes to the shadow, the
handles they already hold complete against the old version first.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.errors import ConfigError, QueryError


@dataclass
class WarehouseHolder:
    """A minimal swap target for in-process (serverless) use."""

    warehouse: object


@dataclass(frozen=True)
class SwapReport:
    """What one :func:`blue_green_swap` observed."""

    #: queries still on the old scan at the instant of the flip
    old_in_flight: int
    #: queries waiting in the old admission queue at the flip
    old_queued: int
    #: True when the swap started the shadow's service driver itself
    shadow_started: bool
    #: seconds spent draining the old warehouse after the flip
    drain_seconds: float
    #: True when the old warehouse was closed by the swap
    retired: bool


def blue_green_swap(
    holder,
    shadow,
    *,
    drain_timeout: float | None = None,
    retire: bool = True,
) -> SwapReport:
    """Cut ``holder`` (a server or :class:`WarehouseHolder`) over to
    ``shadow``; returns a :class:`SwapReport`.

    ``holder`` is anything exposing a settable ``warehouse``
    attribute that its sessions re-read per call — both TCP servers
    and :class:`WarehouseHolder` qualify.  The shadow must be open and
    schema-compatible with the live warehouse (statements parsed
    against one star must validate against the other); dataset
    *contents* may differ arbitrarily — that is the point.

    With ``retire=False`` the old warehouse is drained but left open
    (e.g. to roll back by swapping again); otherwise it is closed,
    which also checkpoints it when it is durable.  An old warehouse
    that was driven from a server's event loop leaves it stopped.

    Call it from any thread but that event loop's own: it waits for
    the old scan to drain.

    Raises:
        ConfigError: when ``holder`` has no warehouse, or the shadow
            *is* the live warehouse.
        QueryError: when the live or shadow warehouse is closed.
        PipelineError: when the old service misses ``drain_timeout``.
    """
    old = getattr(holder, "warehouse", None)
    if old is None:
        raise ConfigError(
            "swap holder has no 'warehouse' attribute to cut over"
        )
    if shadow is old:
        raise ConfigError("shadow warehouse is already the live one")
    if shadow.closed:
        raise QueryError("shadow warehouse is closed; open the new version first")
    if old.closed:
        raise QueryError("live warehouse is closed; nothing to swap from")
    shadow_started = False
    # the event loop a server hands its warehouse's driver, if any
    loop = old.service._loop
    if loop is not None:
        # warm the shadow's scan on the same loop before any traffic
        # can reach it (a thread driver it runs is taken over)
        shadow_started = not shadow.service.running
        shadow.service._host(loop)
    elif old.service.running and not shadow.service.running:
        # warm the shadow's scan before any traffic can reach it
        shadow.start_service()
        shadow_started = True
    with old.cjoin.manager.write_barrier():
        holder.warehouse = shadow
        old_in_flight = old.service.in_flight
        old_queued = old.service.queued
    started = time.monotonic()
    # queries admitted before the flip complete against the version
    # they were admitted under
    if old.service.running:
        old.service.drain(timeout=drain_timeout)
    if loop is not None:
        old.service._unhost()
    old.run()
    drain_seconds = time.monotonic() - started
    if retire:
        old.close()
    return SwapReport(
        old_in_flight=old_in_flight,
        old_queued=old_queued,
        shadow_started=shadow_started,
        drain_seconds=drain_seconds,
        retired=retire,
    )
