"""The three HYDRA workloads and the round every one of them runs.

A round is the paper's three steps, each timed, then the independent checks:

1. derive   — client site: execute the workload's AQPs, emit raw CCs;
2. summary  — vendor site: ``hydra.regenerate`` builds the database summary;
3. generate — scan the generated relations through ``generate_relation``
   (``relation_to_pandas`` on a workload that runs no Spark);
4. materialize — write them with ``materialize_relation`` and re-scan the
   files (Spark workloads only);
5. verify   — re-count every CC on the regenerated database with the
   program's own evaluation path.

Only the program's public functions are called. Stages cheaper than
``MIN_STAGE_S`` are repeated within the round until they have run that long,
and every metric is the median over calls, so short stages still give steady
figures. Every round runs the same operations, so the failed share of
``attempted`` is the same in every run.
"""
from __future__ import annotations

import os
import resource
import shutil
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle
from spans import Tracer

#: Client-DB scale factor (SF=1 ≈ 1 GB); 0.01 gives 28,800 store_sales rows.
SF = 0.01
#: Cheap stages repeat within a round until they have run this long.
MIN_STAGE_S = 1.0
#: Spark runs in local[k]. Two cores leave the other two of a 4-vCPU machine
#: to the Python process, the JIT and the Arrow workers, which gave steadier
#: times than four, at the same generation throughput.
SPARK_CORES = 2
#: Queries in the untimed warm-up round, which runs at scale 1.
WARM_QUERIES = 2
#: Relations each round generates, writes and checks: the largest fact table.
GEN_RELATIONS = ("store_sales",)


@dataclass(frozen=True)
class Workload:
    name: str
    queries: str  # "wls" or "wlc": which TPC-DS-lite query generator
    n_queries: int  # prefix length of that generator's workload
    wl_seed: int
    #: Client-DB seed the workload always uses, or None to take ``--seed``.
    fixed_db_seed: int | None
    derive: str  # "spark" or "pandas" CC derivation
    verify: str  # "spark" (dynamic), "pandas" or "parquet" (materialized) recount
    scale: int  # CC scale factor (the paper's §7.4 CODD step)

    @property
    def uses_spark(self) -> bool:
        """False when derivation and verification both take pandas paths.

        Such a workload generates with the pandas decoder and has no
        materialize stage, since the program writes parquet only through Spark.
        """
        return self.derive == "spark" or self.verify != "pandas"


#: Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="wls",
            queries="wls",
            n_queries=4,
            wl_seed=202,
            fixed_db_seed=None,
            derive="spark",
            verify="spark",
            scale=1,
        ),
        Workload(
            name="wlc",
            queries="wlc",
            n_queries=80,
            wl_seed=101,
            fixed_db_seed=0,
            derive="pandas",
            verify="pandas",
            scale=1,
        ),
        Workload(
            name="gen",
            queries="wls",
            n_queries=40,
            wl_seed=202,
            fixed_db_seed=None,
            derive="pandas",
            verify="parquet",
            scale=1000,
        ),
    )
}


def _repeat(fn, min_s: float) -> tuple[object, list[float]]:
    """Call ``fn`` until the calls have taken ``min_s``; return (last, times)."""
    times: list[float] = []
    while True:
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
        if sum(times) >= min_s:
            return out, times


def _spark_aggregates(df, columns: list[str]) -> dict:
    import pyspark.sql.functions as F

    exprs = [F.count(F.lit(1))]
    for c in columns:
        exprs += [F.sum(c), F.min(c), F.max(c)]
    row = df.agg(*exprs).collect()[0]
    return oracle.agg_dict(columns, [int(v) for v in row])


def _frame_aggregates(df, columns: list[str]) -> dict:
    flat = [len(df)]
    for c in columns:
        col = df[c].to_numpy()
        flat += [int(col.sum()), int(col.min()), int(col.max())]
    return oracle.agg_dict(columns, flat)


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


@dataclass
class RoundResult:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    stage_s: dict[str, list[float]] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)


class Bench:
    """One workload in one process: a Spark session, inputs, rounds, checks."""

    def __init__(self, wl: Workload, db_seed: int, wl_seed: int, work: Path, tracer: Tracer):
        from repro.tpcds.schema import tpcds_schema

        self.wl = wl
        self.db_seed = db_seed
        self.wl_seed = wl_seed
        self.work = work
        self.tracer = tracer
        self.schema = tpcds_schema()
        self.spark = None
        self.client_pdb = None
        self.client_sdb = None
        self.queries = None
        self.client_oracle = oracle.DuckOracle()
        self.regen_oracle = oracle.DuckOracle()
        self._derived_truth: dict[tuple, int] = {}

    # -- lifetime ---------------------------------------------------------

    def start_spark(self) -> float:
        from pyspark.sql import SparkSession

        t0 = time.perf_counter()
        local = self.work / "spark"
        local.mkdir(parents=True, exist_ok=True)
        cores = max(1, min(SPARK_CORES, os.cpu_count() or 1))
        self.spark = (
            SparkSession.builder.master(f"local[{cores}]")
            .appName(f"hydrabench-{self.wl.name}")
            .config("spark.driver.memory", "2g")
            .config("spark.driver.host", "127.0.0.1")
            .config("spark.ui.enabled", "false")
            .config("spark.ui.showConsoleProgress", "false")
            .config("spark.sql.shuffle.partitions", str(cores))
            .config("spark.sql.adaptive.enabled", "false")
            .config("spark.sql.execution.arrow.pyspark.enabled", "true")
            .config("spark.local.dir", str(local))
            .config("spark.sql.warehouse.dir", str(self.work / "warehouse"))
            .config(
                "spark.driver.extraJavaOptions",
                f"-Djava.io.tmpdir={local} -XX:+UseSerialGC",
            )
            .getOrCreate()
        )
        self.spark.sparkContext.setLogLevel("ERROR")
        self.tracer.spark_context = self.spark.sparkContext
        # Start the Python workers that Arrow UDFs run in, one per core, so
        # that no timed stage pays for their start.
        self.spark.range(0, 4 * cores, 1, cores).mapInPandas(
            lambda batches: batches, schema="id long"
        ).collect()
        return time.perf_counter() - t0

    def close(self) -> None:
        self.client_oracle.close()
        self.regen_oracle.close()
        if self.spark is None:
            return
        from pyspark import SparkContext

        gateway = SparkContext._gateway
        self.spark.stop()
        self.spark = None
        if gateway is None:
            return
        proc = getattr(gateway, "proc", None)
        gateway.shutdown()
        if proc is not None:
            # The JVM exits when its stdin closes; wait until it has.
            if proc.stdin is not None:
                proc.stdin.close()
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=30)
        SparkContext._gateway = None
        SparkContext._jvm = None

    # -- set-up -----------------------------------------------------------

    def _build_inputs(self) -> None:
        from repro.tpcds.generator import generate_client_db
        from repro.tpcds.workload import make_wlc, make_wls

        make = make_wls if self.wl.queries == "wls" else make_wlc
        pdb = generate_client_db(SF, self.db_seed)
        queries = make(self.wl.n_queries, self.wl_seed)
        sdb = None
        if self.wl.derive == "spark":
            sdb = {k: self.spark.createDataFrame(v).cache() for k, v in pdb.items()}
            for df in sdb.values():
                df.count()
        if self.client_sdb is not None:
            for df in self.client_sdb.values():
                df.unpersist()
        self.client_pdb, self.queries, self.client_sdb = pdb, queries, sdb

    def setup(self) -> list[float]:
        """Build the inputs at least three times; the median is ``setup_s``."""
        times: list[float] = []
        while len(times) < 3 or sum(times) < MIN_STAGE_S:
            t0 = time.perf_counter()
            self._build_inputs()
            times.append(time.perf_counter() - t0)
        self.client_oracle.register_frames(self.client_pdb)
        return times

    # -- one round --------------------------------------------------------

    def warm_up(self) -> None:
        """One untimed, unchecked round on a short query prefix at scale 1.

        It runs every stage's code path once, so the JVM's JIT and Spark's
        code generation are warm before the first timed round.
        """
        self.run_round(self.queries[:WARM_QUERIES], scale=1, warm=True)

    def run_round(self, queries=None, scale=None, warm=False) -> RoundResult | None:
        from repro.core import hydra
        from repro.core.materialize import materialize_relation, scan_parquet
        from repro.core.metrics import (
            achieved_counts_pandas,
            achieved_counts_spark,
            max_abs_error,
            signed_error_split,
        )
        from repro.core.preprocess import rewrite_ccs
        from repro.core.tuplegen import (
            database_to_pandas,
            generate_database,
            generate_relation,
            relation_to_pandas,
        )
        from repro.core.workload import base_size_ccs, derive_ccs_pandas, derive_ccs_spark

        wl, sch, tr = self.wl, self.schema, self.tracer
        queries = self.queries if queries is None else queries
        scale = wl.scale if scale is None else scale
        min_s = 0.0 if warm else MIN_STAGE_S
        out = RoundResult()

        # 1. derive
        def derive():
            with tr.span("core.workload", spark=wl.derive == "spark"):
                if wl.derive == "spark":
                    return derive_ccs_spark(sch, self.client_sdb, queries)
                return derive_ccs_pandas(sch, self.client_pdb, queries)

        raw, out.stage_s["derive_s"] = _repeat(derive, min_s)
        sizes = {k: len(v) for k, v in self.client_pdb.items()}
        ccs = rewrite_ccs(sch, base_size_ccs(sch, sizes, raw))
        if scale != 1:
            ccs = hydra.scale_ccs(ccs, scale)

        # 2. summary
        def build():
            with tr.span("hydra.regenerate"):
                return hydra.regenerate(sch, ccs)

        res, out.stage_s["summary_s"] = _repeat(build, min_s)
        summary = res.summary

        # 3. generate: one aggregate scan per generated relation
        rel_cols = {
            r: oracle.expected_relation(sch, summary, r).columns for r in GEN_RELATIONS
        }

        def scan():
            with tr.span("core.tuplegen", spark=wl.uses_spark):
                if wl.uses_spark:
                    return {
                        r: _spark_aggregates(generate_relation(self.spark, sch, summary, r), cols)
                        for r, cols in rel_cols.items()
                    }
                return {
                    r: _frame_aggregates(relation_to_pandas(sch, summary, r), cols)
                    for r, cols in rel_cols.items()
                }

        gen_aggs, out.stage_s["gen_s"] = _repeat(scan, min_s)
        gen_rows = sum(a["rows"] for a in gen_aggs.values())

        # 4. materialize, then re-scan the files (Fig 15's disk side)
        paths, pq_aggs = {}, {}
        if wl.uses_spark:
            pq_root = self.work / "parquet" / wl.name

            def write():
                with tr.span("core.materialize", spark=True):
                    return {
                        r: materialize_relation(self.spark, sch, summary, r, pq_root)
                        for r in GEN_RELATIONS
                    }

            paths, out.stage_s["materialize_s"] = _repeat(write, min_s)
            t0 = time.perf_counter()
            with tr.span("materialize.parquet_scan", spark=True):
                pq_aggs = {
                    r: _spark_aggregates(scan_parquet(self.spark, p), rel_cols[r])
                    for r, p in paths.items()
                }
            out.stage_s["parquet_scan_s"] = [time.perf_counter() - t0]

        # 5. verify: re-count CCs with the program's own evaluation path
        if wl.verify == "parquet":
            check_ccs = [cc for cc in ccs if cc.tables <= set(GEN_RELATIONS)]
        else:
            check_ccs = ccs

        def verify():
            with tr.span("core.metrics", spark=wl.verify != "pandas"):
                if wl.verify == "spark":
                    gdb = generate_database(self.spark, sch, summary)
                    return achieved_counts_spark(sch, gdb, check_ccs)
                if wl.verify == "pandas":
                    return achieved_counts_pandas(sch, database_to_pandas(sch, summary), check_ccs)
                tables = {r: scan_parquet(self.spark, p) for r, p in paths.items()}
                return achieved_counts_spark(sch, tables, check_ccs)

        errs, out.stage_s["verify_s"] = _repeat(verify, min_s)

        if warm:
            return None

        # -- independent checks (untimed) ----------------------------------
        self._check_derived(raw, out)
        self._check_generation(summary, gen_aggs, pq_aggs, paths, out)
        self._check_ccs(res, errs, paths, out)

        c = out.counters
        c["workload.ccs"] = len(raw)
        c["extra_tuples"] = sum(summary.extra_tuples.values())
        c["summary_rows"] = summary.size_rows()
        c["gen_rows"] = gen_rows
        c["materialize.bytes"] = sum(_dir_bytes(p) for p in paths.values())
        c["verify_ccs"] = len(check_ccs)
        c["metrics.max_abs_rel_error"] = max_abs_error(errs)
        c["metrics.negative_errors"] = signed_error_split(errs)[0]
        c.update(_formulation_counters(res))
        return out

    # -- checks -----------------------------------------------------------

    def _check_derived(self, raw, out: RoundResult) -> None:
        """Every derived CC count equals DuckDB's count on the client DB."""
        for rc in raw:
            key = (rc.tables, rc.predicate)
            if key not in self._derived_truth:
                self._derived_truth[key] = self.client_oracle.count(
                    self.schema, rc.tables, rc.predicate
                )
            if rc.count != self._derived_truth[key]:
                out.problems.append(
                    f"derived CC on {sorted(rc.tables)}: program {rc.count}, "
                    f"DuckDB {self._derived_truth[key]}"
                )

    def _check_generation(self, summary, gen_aggs, pq_aggs, paths, out: RoundResult) -> None:
        """Generated and parquet aggregates equal numpy's, per relation."""
        for r in GEN_RELATIONS:
            exp = oracle.expected_relation(self.schema, summary, r)
            readings = [("generated", gen_aggs[r])]
            if r in paths:
                self.regen_oracle.register_parquet(f"pq_{r}", str(paths[r]))
                duck = self.regen_oracle.aggregates(f"pq_{r}", exp.columns)
                readings += [("parquet", pq_aggs[r]), ("duckdb", duck)]
            problems = []
            for label, got in readings:
                problems += [f"{r} {label}: {p}" for p in oracle.generation_problems(exp, got)]
            if self.wl.verify == "parquet":
                # In gen, each generated relation is an operation of its own.
                out.attempted += 1
                out.failed += bool(problems)
            out.problems += problems

    def _check_ccs(self, res, errs, paths, out: RoundResult) -> None:
        """Program counts equal DuckDB's; each CC within [k, k + extras]."""
        from repro.core import summary as summary_mod

        sch, summary = self.schema, res.summary
        if self.wl.verify == "parquet":
            for r, p in paths.items():
                self.regen_oracle.register_parquet(r, str(p))
        else:
            self.regen_oracle.register_frames(
                {r: oracle.decode_relation(sch, summary, r) for r in summary.relations}
            )
        view_fn = getattr(
            summary_mod.view_summaries_from_formulations,
            "__wrapped__",
            summary_mod.view_summaries_from_formulations,
        )
        pre_repair = view_fn(res.formulations)
        for e in errs:
            cc = e.cc
            got = self.regen_oracle.count(sch, cc.tables, cc.predicate)
            if got != e.achieved:
                out.problems.append(
                    f"CC on {sorted(cc.tables)}: program counted {e.achieved}, DuckDB {got}"
                )
            out.attempted += 1
            if cc.count <= got <= cc.count + summary.extra_tuples.get(cc.view, 0):
                continue
            out.failed += 1
            # A failure is the named LP/align fault only if the view solution
            # already misses the CC before referential repair.
            before = oracle.view_solution_counts(pre_repair[cc.view], [cc])[0]
            if before == cc.count:
                out.problems.append(
                    f"CC on {sorted(cc.tables)} (view {cc.view}) k={cc.count} got {got}: "
                    "outside the bound but right before repair"
                )
        misses = 0
        for view, form in res.formulations.items():
            counts = oracle.view_solution_counts(pre_repair[view], form.plan.ccs)
            misses += sum(got != cc.count for got, cc in zip(counts, form.plan.ccs))
        out.counters["summary.view_cc_misses"] = misses


def _formulation_counters(res) -> dict[str, float]:
    """LP sizes, sub-views and rounded residuals read from the formulations."""
    subviews = max_attrs = rows = nnz = residual = 0
    for form in res.formulations.values():
        subviews += len(form.plan.subviews)
        max_attrs = max([max_attrs] + [len(sv) for sv in form.plan.subviews])
        rows += len(form.system.rows)
        x = form.solution
        for terms, rhs in form.system.rows:
            nnz += len(terms)
            if terms:
                idx = np.fromiter((i for i, _ in terms), dtype=np.int64, count=len(terms))
                coef = np.fromiter((c for _, c in terms), dtype=np.float64, count=len(terms))
                lhs = float(coef @ x[idx])
            else:
                lhs = 0.0
            residual += abs(lhs - rhs) > 0.5
    return {
        "preprocess.subviews": subviews,
        "preprocess.max_subview_attrs": max_attrs,
        "lp.vars": res.n_vars_total(),
        "lp.max_view_vars": max(f.n_vars for f in res.formulations.values()),
        "lp.rows": rows,
        "lp.nnz": nnz,
        "solver.residual_rows": residual,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports ru_maxrss in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def clean_work(work: Path) -> None:
    for sub in ("parquet", "spark", "warehouse", "tmp"):
        shutil.rmtree(work / sub, ignore_errors=True)
