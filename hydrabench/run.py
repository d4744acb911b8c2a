#!/usr/bin/env python3
"""HYDRA benchmark: run one workload, check its outputs, print its metrics.

    python3 hydrabench/run.py --workload {wls,wlc,gen} --seed N \
        --seconds S --trace {0,1} [--db-seed N] [--wl-seed N]

Run from the repository root. The run is closed-loop with a single client:
rounds of the same operations follow one another until ``--seconds`` have
passed (at least one round; two in a traced run). The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``. A traced run alternates untraced and traced rounds, so
it can report the tracing overhead, and writes its spans to
``.hydrabench/trace-<workload>-seed<N>.json``.

``--seed`` draws the client database of ``wls`` and ``gen``; their query
workloads are fixed by ``--wl-seed`` (default: the generator's own). ``wlc``
runs on fixed inputs unless ``--db-seed``/``--wl-seed`` override them,
because the CCs that its named LP/align fault breaks differ from one client
database to the next.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".hydrabench"

END_TO_END_UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "summary_rows": "count",
}

PER_LAYER_UNITS = {
    "derive_s": "s",
    "summary_s": "s",
    "gen_rows_per_s": "rows/s",
    "materialize_rows_per_s": "rows/s",
    "verify_s": "s",
    "workload.ccs": "count",
    "workload.spark_jobs": "count",
    "workload.ms_per_cc": "ms",
    "preprocess.plan_s": "s",
    "preprocess.subviews": "count",
    "preprocess.max_subview_attrs": "count",
    "lp.formulate_s": "s",
    "lp.vars": "count",
    "lp.max_view_vars": "count",
    "lp.rows": "count",
    "lp.nnz": "count",
    "solver.solve_s": "s",
    "solver.residual_rows": "count",
    "summary.align_s": "s",
    "summary.repair_s": "s",
    "summary.extract_s": "s",
    "summary.view_cc_misses": "count",
    "summary.extra_tuples": "count",
    "hydra.self_s": "s",
    "tuplegen.scan_s": "s",
    "tuplegen.rows": "count",
    "tuplegen.spark_jobs": "count",
    "materialize.write_s": "s",
    "materialize.bytes": "bytes",
    "materialize.parquet_scan_rows_per_s": "rows/s",
    "metrics.spark_jobs": "count",
    "metrics.ms_per_cc": "ms",
    "metrics.max_abs_rel_error": "ratio",
    "metrics.negative_errors": "count",
    "trace.overhead_pct": "%",
    "spark.start_s": "s",
}

#: The timed stages of a round; the sum of their medians is ``pipeline_s``.
STAGES = ("derive_s", "summary_s", "gen_s", "materialize_s", "verify_s")


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("wls", "wlc", "gen"))
    p.add_argument("--seed", type=int, default=0, help="client-DB seed (wls, gen)")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--db-seed", type=int, default=None, help="overrides --seed")
    p.add_argument("--wl-seed", type=int, default=None, help="query-workload seed")
    return p.parse_args()


def _median(xs) -> float:
    return float(statistics.median(xs))


def stage_medians(rounds) -> dict[str, float]:
    """Median call time of each stage the rounds ran, pooled over them."""
    return {
        k: _median([t for r in rounds for t in r.stage_s[k]])
        for k in STAGES
        if k in rounds[0].stage_s
    }


def end_to_end(setup_times, rounds) -> dict[str, float]:
    from workloads import peak_rss_mb

    last = rounds[-1].counters
    return {
        "setup_s": _median(setup_times),
        "pipeline_s": sum(stage_medians(rounds).values()),
        "peak_rss_mb": peak_rss_mb(),
        "summary_rows": last["summary_rows"],
    }


def per_layer(tracer, plain_rounds, traced_rounds, spark_start_s) -> dict[str, float]:
    c = traced_rounds[-1].counters

    def med(xs):
        return _median(xs) if xs else 0.0

    def in_build(name):
        return med(tracer.within(name, "hydra.regenerate"))

    derive_s = med(tracer.durations("core.workload"))
    verify_s = med(tracer.durations("core.metrics"))
    parquet_s = med(tracer.durations("materialize.parquet_scan"))
    plain = stage_medians(plain_rounds)
    traced = stage_medians(traced_rounds)
    return {
        "derive_s": plain["derive_s"],
        "summary_s": plain["summary_s"],
        "gen_rows_per_s": c["gen_rows"] / plain["gen_s"],
        "materialize_rows_per_s": c["gen_rows"] / plain["materialize_s"]
        if "materialize_s" in plain
        else 0.0,
        "verify_s": plain["verify_s"],
        "workload.ccs": c["workload.ccs"],
        "workload.spark_jobs": med(tracer.jobs("core.workload")),
        "workload.ms_per_cc": 1000.0 * derive_s / max(1, c["workload.ccs"]),
        "preprocess.plan_s": in_build("core.preprocess"),
        "preprocess.subviews": c["preprocess.subviews"],
        "preprocess.max_subview_attrs": c["preprocess.max_subview_attrs"],
        "lp.formulate_s": in_build("core.lp"),
        "lp.vars": c["lp.vars"],
        "lp.max_view_vars": c["lp.max_view_vars"],
        "lp.rows": c["lp.rows"],
        "lp.nnz": c["lp.nnz"],
        "solver.solve_s": in_build("core.solver"),
        "solver.residual_rows": c["solver.residual_rows"],
        "summary.align_s": in_build("core.align"),
        "summary.repair_s": in_build("summary.repair"),
        "summary.extract_s": in_build("summary.extract"),
        "summary.view_cc_misses": c["summary.view_cc_misses"],
        "summary.extra_tuples": c["extra_tuples"],
        "hydra.self_s": in_build("hydra.regenerate"),
        "tuplegen.scan_s": med(tracer.durations("core.tuplegen")),
        "tuplegen.rows": c["gen_rows"],
        "tuplegen.spark_jobs": med(tracer.jobs("core.tuplegen")),
        "materialize.write_s": med(tracer.durations("core.materialize")),
        "materialize.bytes": c["materialize.bytes"],
        "materialize.parquet_scan_rows_per_s": c["gen_rows"] / parquet_s if parquet_s else 0.0,
        "metrics.spark_jobs": med(tracer.jobs("core.metrics")),
        "metrics.ms_per_cc": 1000.0 * verify_s / max(1, c["verify_ccs"]),
        "metrics.max_abs_rel_error": c["metrics.max_abs_rel_error"],
        "metrics.negative_errors": c["metrics.negative_errors"],
        "trace.overhead_pct": 100.0 * (sum(traced.values()) / sum(plain.values()) - 1.0),
        "spark.start_s": spark_start_s,
    }


def main() -> int:
    args = parse_args()
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Set iteration order inside the program follows the hash seed; fix
        # it so every run does the same work. exec replaces this process, so
        # no child is left behind.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]])
    if not (SRC / "repro" / "core" / "hydra.py").is_file():
        print(f"hydrabench: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    (WORK / "tmp").mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(WORK / "tmp")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    os.environ.setdefault("PYSPARK_PYTHON", sys.executable)

    from spans import Tracer
    from workloads import WORKLOADS, Bench, clean_work

    wl = WORKLOADS[args.workload]
    if args.db_seed is not None:
        db_seed = args.db_seed
    elif wl.fixed_db_seed is not None:
        db_seed = wl.fixed_db_seed
    else:
        db_seed = args.seed
    wl_seed = wl.wl_seed if args.wl_seed is None else args.wl_seed
    tracer = Tracer(enabled=False)
    bench = Bench(wl, db_seed, wl_seed, WORK, tracer)
    try:
        spark_start_s = bench.start_spark() if wl.uses_spark else 0.0
        setup_times = bench.setup()
        bench.warm_up()
        plain, traced = [], []
        t_start = time.perf_counter()
        while True:
            trace_this = bool(args.trace) and len(plain) > len(traced)
            tracer.enabled = trace_this
            tracer.round = len(plain) + len(traced)
            if trace_this:
                tracer.patch()
            try:
                rnd = bench.run_round()
            finally:
                tracer.unpatch()
            (traced if trace_this else plain).append(rnd)
            print(
                f"round {tracer.round} traced={int(trace_this)} "
                + " ".join(f"{k}={_median(v):.4f}" for k, v in rnd.stage_s.items()),
                file=sys.stderr,
            )
            done = time.perf_counter() - t_start >= args.seconds
            if done and (not args.trace or traced):
                break
    finally:
        bench.close()
        clean_work(WORK)

    rounds = plain + traced
    problems = [p for r in rounds for p in r.problems]
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    if args.trace:
        tracer.write(WORK / f"trace-{wl.name}-seed{args.seed}.json")
        values = per_layer(tracer, plain, traced, spark_start_s)
        units = PER_LAYER_UNITS
    else:
        values = end_to_end(setup_times, rounds)
        units = END_TO_END_UNITS
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    print(
        f"workload={wl.name} db_seed={db_seed} wl_seed={wl_seed} "
        f"rounds={len(rounds)} attempted={attempted} failed={failed}"
    )
    for name, v in values.items():
        print(f"  {name:40s} {v:>16.6g} {units[name]}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
