"""Compare two result files written by ``run.py --out``.

    python benchmarks/layered/compare.py A.json B.json

For every (workload, metric) present in both files prints A's and B's
medians, the change relative to A (the base), the metric's bound, and a
verdict: ``improved`` / ``regressed`` when B is better / worse than A by
more than the bound, ``unchanged`` otherwise, and ``unresolved`` when
the spread recorded in the files exceeds the bound, so the files cannot
tell.  The spread is the distance between the first and third quartile
over a file's runs of that workload as a share of their median; a file
with a single run falls back to that run's per-window values.  Per-layer
metrics have no bound and are listed without a verdict.  Exits 1 when
anything regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spec  # noqa: E402


def load(path: str) -> dict[str, list[dict]]:
    """Runs of a result file, grouped by workload."""
    grouped: dict[str, list[dict]] = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        grouped.setdefault(run["workload"], []).append(run)
    return grouped


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    middle = statistics.median(values)
    if middle == 0:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / abs(middle)


def observed(runs: list[dict], name: str) -> tuple[float, float] | None:
    """(median, spread) of one metric over a workload's runs."""
    values = [
        run["metrics"][name]["value"] for run in runs if name in run["metrics"]
    ]
    if not values:
        return None
    if len(values) == 1:
        return values[0], spread(runs[0].get("windows", {}).get(name, []))
    return statistics.median(values), spread(values)


def verdict(metric: spec.Metric, base: float, new: float, noise: float) -> tuple[float, str]:
    """(change relative to the base, verdict) for a gated metric."""
    if metric.absolute or base == 0:
        change = new - base
    else:
        change = (new - base) / abs(base)
    if metric.bound is None:
        return change, "-"
    worse = change if metric.better == spec.LOWER else -change
    if noise > metric.bound:
        return change, "unresolved"
    if worse > metric.bound:
        return change, "regressed"
    if worse < -metric.bound:
        return change, "improved"
    return change, "unchanged"


def compare(a_path: str, b_path: str) -> int:
    a_runs, b_runs = load(a_path), load(b_path)
    regressed = 0
    for workload in spec.WORKLOADS:
        if workload.name not in a_runs or workload.name not in b_runs:
            continue
        print(f"== {workload.name}  (A: {len(a_runs[workload.name])} run(s), "
              f"B: {len(b_runs[workload.name])} run(s)) ==")
        print(f"  {'metric':<44} {'A (base)':>12} {'B':>12} {'change':>9} "
              f"{'bound':>7} {'spread':>7}  verdict")
        for metric in spec.ALL_METRICS:
            a = observed(a_runs[workload.name], metric.name)
            b = observed(b_runs[workload.name], metric.name)
            if a is None or b is None:
                continue
            noise = max(a[1], b[1])
            change, word = verdict(metric, a[0], b[0], noise)
            regressed += word == "regressed"
            unit = "" if metric.absolute or a[0] == 0 else "%"
            shown = change * 100 if unit else change
            bound = (
                "" if metric.bound is None
                else f"{metric.bound:g}" + (" abs" if metric.absolute else "")
            )
            print(f"  {metric.name:<44} {a[0]:>12.6g} {b[0]:>12.6g} "
                  f"{shown:>+8.2f}{unit:<1} {bound:>7} {noise:>7.3f}  {word}")
    return 1 if regressed else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    raise SystemExit(compare(sys.argv[1], sys.argv[2]))
