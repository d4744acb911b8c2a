"""Volumetric-similarity measurement (paper §7.1, Figs 10/11).

The quality metric is per-CC relative error between the client cardinality
``k`` and the cardinality the regenerated database *actually* produces for
the same operator. Achieved cardinalities are measured by re-executing each
CC's join + filter:

- on Spark over regenerated relations (the end-to-end engine path used in
  tests and the Fig 10 harness), or
- on pandas frames (fast path for large CC batches; pinned equal to the
  Spark path by tests).

Signed relative error is reported because the paper highlights that
DataSynth errs in both directions while HYDRA only errs positively
(referential-integrity insertions add tuples, never remove them).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from .constraints import CC
from .schema import Schema
from .workload import _count_pandas, _count_spark


@dataclass
class CCError:
    cc: CC
    achieved: int

    @property
    def rel_error(self) -> float:
        """Signed relative error; errors on a zero target count as ±1."""
        if self.cc.count == 0:
            return 0.0 if self.achieved == 0 else 1.0
        return (self.achieved - self.cc.count) / self.cc.count


def _join_order(schema: Schema, cc: CC) -> tuple[str, ...]:
    """Root-first FK-path order over the CC's join set."""
    tables = set(cc.tables)
    root = schema.join_root(tables)
    order = [root]
    remaining = tables - {root}
    while remaining:
        progress = False
        for t in sorted(remaining):
            if any(t in schema.dependencies(r) for r in order):
                order.append(t)
                remaining.discard(t)
                progress = True
                break
        if not progress:
            raise ValueError(f"join set {sorted(tables)} not FK-path-closed")
    return tuple(order)


def achieved_counts_pandas(
    schema: Schema, tables: dict[str, pd.DataFrame], ccs: list[CC]
) -> list[CCError]:
    return [
        CCError(cc, _count_pandas(schema, tables, _join_order(schema, cc), cc.predicate))
        for cc in ccs
    ]


def achieved_counts_spark(
    schema: Schema, tables: dict[str, DataFrame], ccs: list[CC]
) -> list[CCError]:
    return [
        CCError(cc, _count_spark(schema, tables, _join_order(schema, cc), cc.predicate))
        for cc in ccs
    ]


def error_cdf(
    errors: list[CCError], thresholds: tuple[float, ...] = (0.0, 0.01, 0.05, 0.10, 0.25, 0.60)
) -> list[tuple[float, float]]:
    """Fig 10's curve: fraction of CCs within each |relative error| bound."""
    abs_errs = np.array([abs(e.rel_error) for e in errors]) if errors else np.array([])
    out = []
    for t in thresholds:
        frac = float((abs_errs <= t + 1e-12).mean()) if len(abs_errs) else 1.0
        out.append((t, frac))
    return out


def max_abs_error(errors: list[CCError]) -> float:
    return max((abs(e.rel_error) for e in errors), default=0.0)


def signed_error_split(errors: list[CCError]) -> tuple[int, int, int]:
    """(#negative, #zero, #positive) signed errors — §7.1's last observation."""
    neg = sum(1 for e in errors if e.rel_error < 0)
    pos = sum(1 for e in errors if e.rel_error > 0)
    zero = len(errors) - neg - pos
    return neg, zero, pos


def cardinality_log_histogram(
    ccs: list[CC], n_buckets: int = 10
) -> list[tuple[str, int]]:
    """Figs 9/16: distribution of CC cardinalities on a log10 scale."""
    out = []
    counts = [cc.count for cc in ccs]
    for b in range(n_buckets):
        lo, hi = 10**b, 10 ** (b + 1)
        label = f"[1e{b},1e{b + 1})"
        if b == 0:
            n = sum(1 for c in counts if c < hi)
            label = f"[0,1e{b + 1})"
        else:
            n = sum(1 for c in counts if lo <= c < hi)
        out.append((label, n))
    return out
