"""Shard-transport data path: warm shared memory vs pickling.

Not a paper artifact — the gate for the shared-memory shard transport
(DESIGN.md section 14), tracking one ratio:

* ``shm_vs_pickle_transport`` — per-drain data-path seconds of the
  'pickle' process transport (serialize every shard's rows, push them
  through a pipe, deserialize) over the 'shm' transport with a warm
  published segment (attach + decode each worker's slice;
  EXPERIMENTS.md section 11).  Above 1.0 shared memory hands workers
  their shards faster than pickling — on top of shrinking per-drain
  pipe traffic from megabytes of rows to a fixed few hundred bytes
  of layout descriptor, which this bench also reports.

The ratio feeds scripts/check_bench_regression.py via
BENCH_baseline.json.  ``--smoke`` runs a milli-scale correctness-only
pass (transport row equality) for the CI smoke gate, where
shared-runner timing is not trustworthy.

Usage::

    python benchmarks/bench_kernel_cost.py [--smoke]
"""

from __future__ import annotations

import argparse
import pickle
import time

from repro.ssb.generator import load_ssb
from repro.storage.partition import contiguous_spans
from repro.storage.shm import attach_fact_slice, publish_fact_rows

TIMING_ROUNDS = 3

#: transport bench shape: the scale-up gate's instance, sharded the
#: way a 4-worker drain shards it
TRANSPORT_SCALE_FACTOR = 0.02
TRANSPORT_WORKERS = 4


def measure_shard_transport(
    rounds: int = TIMING_ROUNDS,
    scale_factor: float = TRANSPORT_SCALE_FACTOR,
    workers: int = TRANSPORT_WORKERS,
) -> dict:
    """Per-drain shard-transport data path: warm shm vs pickle.

    Times exactly what each process transport does to hand ``workers``
    workers their fact shards.  Pickle: serialize each shard's rows
    and deserialize them (what crosses the pool's pipe every drain).
    Shm: attach the published segment and decode each worker's slice —
    the publish itself happens once per fact table (cached across
    drains by :mod:`repro.cjoin.parallel`), so it is reported
    separately as ``publish_seconds``, not charged to the warm path.
    Returns the ``speedup`` ratio (pickle over shm; higher = shm
    faster) plus per-drain pipe-byte counts for both transports.
    """
    catalog, star = load_ssb(scale_factor=scale_factor, seed=31)
    rows = catalog.table(star.fact.name).all_rows()
    spans = contiguous_spans(len(rows), workers)
    started = time.perf_counter()
    segment, layout = publish_fact_rows(rows, star.fact.arity)
    publish_seconds = time.perf_counter() - started
    try:
        shm_best = pickle_best = float("inf")
        shm_rows = pickle_rows = None
        for _ in range(rounds):
            started = time.perf_counter()
            shm_rows = [
                attach_fact_slice(layout, start, end) for start, end in spans
            ]
            shm_best = min(shm_best, time.perf_counter() - started)
            started = time.perf_counter()
            blobs = [
                pickle.dumps(
                    tuple(rows[start:end]), pickle.HIGHEST_PROTOCOL
                )
                for start, end in spans
            ]
            pickle_rows = [pickle.loads(blob) for blob in blobs]
            pickle_best = min(pickle_best, time.perf_counter() - started)
        identical = all(
            list(map(tuple, decoded)) == list(shard)
            for decoded, shard in zip(shm_rows, pickle_rows)
        )
        pickle_bytes = sum(len(blob) for blob in blobs)
        shm_bytes = len(
            pickle.dumps(layout, pickle.HIGHEST_PROTOCOL)
        ) * workers
    finally:
        segment.close()
        segment.unlink()
    return {
        "workers": workers,
        "rows": len(rows),
        "publish_seconds": publish_seconds,
        "shm_seconds": shm_best,
        "pickle_seconds": pickle_best,
        "speedup": pickle_best / shm_best,
        "pickle_pipe_bytes": pickle_bytes,
        "shm_pipe_bytes": shm_bytes,
        "identical": identical,
    }


def test_shm_transport_beats_pickle():
    """Warm shm hands workers their shards faster than pickling."""
    measured = measure_shard_transport()
    print(
        f"\n{measured['rows']} fact rows over {measured['workers']} "
        f"workers: pickle {measured['pickle_seconds'] * 1e3:.1f} ms "
        f"({measured['pickle_pipe_bytes']} pipe bytes), shm "
        f"{measured['shm_seconds'] * 1e3:.1f} ms "
        f"({measured['shm_pipe_bytes']} pipe bytes, publish "
        f"{measured['publish_seconds'] * 1e3:.1f} ms once) -> "
        f"{measured['speedup']:.2f}x"
    )
    assert measured["identical"]
    assert measured["speedup"] >= 1.0, (
        f"shm transport slower than pickle "
        f"({measured['shm_seconds']:.3f}s vs "
        f"{measured['pickle_seconds']:.3f}s)"
    )
    assert measured["shm_pipe_bytes"] < measured["pickle_pipe_bytes"] / 100


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.smoke:
        # milli-scale, correctness-only: shared-runner timing is noise
        transport = measure_shard_transport(
            rounds=1, scale_factor=0.002, workers=2
        )
        ok = transport["identical"]
        print(
            f"transport smoke: shm vs pickle shard rows "
            f"({transport['rows']} rows, {transport['workers']} workers) "
            f"-> {'ok' if ok else 'MISMATCH'}"
        )
        return 0 if ok else 1
    transport = measure_shard_transport()
    print(
        f"shard transport: pickle {transport['pickle_seconds'] * 1e3:.1f} "
        f"ms vs warm shm {transport['shm_seconds'] * 1e3:.1f} ms -> "
        f"{transport['speedup']:.2f}x; pipe bytes "
        f"{transport['pickle_pipe_bytes']} -> {transport['shm_pipe_bytes']} "
        f"(identical={transport['identical']})"
    )
    return 0 if transport["identical"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
