"""Command-line experiment runner.

Usage::

    python -m repro.bench                    # run all experiments
    python -m repro.bench fig5 tab2          # run selected ones
    python -m repro.bench --chart fig5 fig6  # add ASCII charts
    python -m repro.bench --chart --log fig6 # log-scale y axis
    python -m repro.bench --smoke            # fast CI gate
    python -m repro.bench --profile          # cProfile a real drain

Prints each experiment's paper-vs-measured series plus its shape
checks; exits non-zero if any check fails.

``--smoke`` is the fast mode wired into the test suite (see
EXPERIMENTS.md): it runs every model-backed experiment's shape checks
without charts *plus* a real-pipeline sanity pass — a milli-scale SSB
workload through the CJOIN pipeline, asserting the reference
evaluator's results — in a couple of seconds.

``--profile`` is the hot-path measurement hook: it drains the
headline workload shape (32 concurrent queries, 1% selectivity) under
cProfile — profiling only ``run_until_drained``, so admission and
data generation stay out of the numbers — and prints drain time
grouped by pipeline stage plus the top functions by cumulative time.
Start here before touching the hot path (DESIGN.md section 5).
"""

from __future__ import annotations

import sys

from repro.bench.charts import render_chart
from repro.bench.experiments import EXPERIMENTS, run_experiment
from repro.bench.reporting import format_comparison


def run_smoke_pipeline() -> bool:
    """Real-execution sanity pass: the pipeline agrees with the reference.

    Returns True on success.  Deliberately tiny (milli-scale SSB,
    eight queries) so the smoke gate stays fast.
    """
    from repro.cjoin import CJoinOperator
    from repro.query.reference import evaluate_star_query
    from repro.ssb.generator import load_ssb
    from repro.ssb.queries import ssb_workload_generator

    catalog, star = load_ssb(scale_factor=0.0005, seed=7)
    queries = ssb_workload_generator(seed=3, catalog=catalog).generate(
        8, selectivity=0.1
    )
    operator = CJoinOperator(catalog, star)
    handles = [operator.submit(query) for query in queries]
    operator.run_until_drained()
    results = [handle.results() for handle in handles]
    matched = results == [
        evaluate_star_query(query, catalog) for query in queries
    ]
    rows = sum(len(result) for result in results)
    status = "ok" if matched else "MISMATCH"
    print(
        f"pipeline smoke: 8 queries, shared pipeline vs reference "
        f"evaluator -> {status} ({rows} result rows)"
    )
    return matched


#: pipeline-stage buckets for the --profile breakdown: module basename
#: of each stage of the shared scan, in pipeline order
PROFILE_STAGES = (
    ("preprocessor", "Preprocessor (scan + batch build)"),
    ("filter", "Filter chain (probe + bit AND)"),
    ("kernels", "Whole-batch passes (probe + AND + compact)"),
    ("distributor", "Distributor (route + decode)"),
    ("aggregation", "Output operators (aggregate rows)"),
    ("batch", "FactBatch bookkeeping"),
    ("dimtable", "Dimension hash tables"),
)


def run_profile(top: int = 20) -> int:
    """Profile one drain of the headline workload shape.

    Only ``run_until_drained`` runs under the profiler — submissions
    (dimension scans, query registration) happen first, unprofiled, so
    the report shows exactly the steady-state scan cost.
    """
    import cProfile
    import pstats

    from repro.cjoin import CJoinOperator
    from repro.cjoin.executor import ExecutorConfig
    from repro.ssb.generator import load_ssb
    from repro.ssb.queries import ssb_workload_generator

    catalog, star = load_ssb(scale_factor=0.005, seed=23)
    queries = ssb_workload_generator(seed=4, catalog=catalog).generate(
        32, selectivity=0.01
    )
    operator = CJoinOperator(
        catalog,
        star,
        executor_config=ExecutorConfig(batch_size=512),
    )
    handles = [operator.submit(query) for query in queries]
    profiler = cProfile.Profile()
    profiler.enable()
    operator.run_until_drained()
    profiler.disable()
    for handle in handles:
        handle.results()

    stats = pstats.Stats(profiler)
    total = stats.total_tt
    tuples = operator.stats.tuples_scanned
    print(
        f"profiled drain: 32 queries, s=1%, sf=0.005, batch_size=512 -> "
        f"{total * 1e3:.1f} ms, {tuples} tuples scanned "
        f"({total / tuples * 1e9:.0f} ns/tuple)"
    )
    print("\nper-stage breakdown (own time, summed over stage module):")
    accounted = 0.0
    by_module: dict[str, float] = {}
    for (filename, _line, _name), stat in stats.stats.items():
        module = filename.rsplit("/", 1)[-1].removesuffix(".py")
        by_module[module] = by_module.get(module, 0.0) + stat[2]
    for module, label in PROFILE_STAGES:
        seconds = by_module.get(module, 0.0)
        accounted += seconds
        share = seconds / total * 100 if total else 0.0
        print(f"  {label:<42} {seconds * 1e3:8.1f} ms  {share:5.1f}%")
    other = total - accounted
    print(
        f"  {'everything else (builtins, executor, ...)':<42} "
        f"{other * 1e3:8.1f} ms  "
        f"{other / total * 100 if total else 0.0:5.1f}%"
    )
    print(f"\ntop {top} functions by cumulative time:")
    stats.sort_stats("cumulative").print_stats(top)
    return 0


def main(argv: list[str]) -> int:
    show_chart = "--chart" in argv
    log_y = "--log" in argv
    smoke = "--smoke" in argv
    if "--profile" in argv:
        return run_profile()
    requested = [arg for arg in argv if not arg.startswith("--")]
    requested = requested or sorted(EXPERIMENTS)
    unknown = [eid for eid in requested if eid not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment ids: {unknown}; known: {sorted(EXPERIMENTS)}")
        return 2
    all_passed = True
    for experiment_id in requested:
        result = run_experiment(experiment_id)
        if smoke:
            failed = [d for d, passed in result.checks if not passed]
            status = "ok" if not failed else f"FAILED {failed}"
            print(f"{experiment_id}: {status}")
            all_passed = all_passed and not failed
            continue
        print(format_comparison(result))
        if show_chart:
            print()
            print(render_chart(result, log_y=log_y))
        print()
        all_passed = all_passed and result.all_checks_pass
    if smoke:
        all_passed = run_smoke_pipeline() and all_passed
    if not all_passed:
        print("SOME SHAPE CHECKS FAILED")
        return 1
    print(f"all shape checks passed across {len(requested)} experiment(s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
