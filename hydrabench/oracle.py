"""Independent checks for the HYDRA benchmark.

Nothing here calls the program's own SQL rendering (``Predicate.to_sql``),
join ordering (``metrics._join_order``) or tuple generator. CCs are rendered
as DuckDB SQL from three facts only: the CC's join set, the schema's FK edges
and the half-open ``[lo, hi)`` bounds of each DNF conjunct. Regenerated
relations are decoded with ``np.repeat`` straight from the summary frame, and
the expected aggregates of a generated relation are computed in numpy from
the same frame.
"""
from __future__ import annotations

import os
import tempfile
from collections import deque
from dataclasses import dataclass

import duckdb
import numpy as np
import pandas as pd


def _q(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


def join_root(schema, tables: frozenset[str]) -> str:
    """The table in ``tables`` from which every other one is FK-reachable."""
    for t in sorted(tables):
        seen, todo = {t}, [t]
        while todo:
            r = todo.pop()
            for target in schema[r].fks.values():
                if target in tables and target not in seen:
                    seen.add(target)
                    todo.append(target)
        if seen == set(tables):
            return t
    raise ValueError(f"join set {sorted(tables)} has no FK root")


def cc_sql(schema, tables: frozenset[str], predicate) -> str:
    """``SELECT count(*)`` for one CC, joins walked breadth-first from the root."""
    root = join_root(schema, tables)
    sql = [f"SELECT count(*) FROM {_q(root)}"]
    joined, todo = {root}, deque([root])
    while todo:
        r = todo.popleft()
        for fk, target in sorted(schema[r].fks.items()):
            if target in tables and target not in joined:
                joined.add(target)
                todo.append(target)
                sql.append(
                    f"JOIN {_q(target)} ON {_q(r)}.{_q(fk)} = "
                    f"{_q(target)}.{_q(schema[target].pk)}"
                )
    disjuncts = []
    for conj in predicate.conjuncts:
        terms = [
            f"({_q(a)} >= {iv.lo} AND {_q(a)} < {iv.hi})" for a, iv in conj.restrictions
        ]
        if not terms:
            disjuncts = []  # an empty conjunct makes the predicate TRUE
            break
        disjuncts.append("(" + " AND ".join(terms) + ")")
    if disjuncts:
        sql.append("WHERE " + " OR ".join(disjuncts))
    return " ".join(sql)


class DuckOracle:
    """One in-memory DuckDB connection over a named set of tables."""

    def __init__(self, threads: int = 2):
        self.con = duckdb.connect(":memory:")
        self.con.execute(f"SET threads = {int(threads)}")
        # Spill, if ever, under $TMPDIR rather than into the working directory.
        spill = os.path.join(tempfile.gettempdir(), "duckdb")
        self.con.execute(f"SET temp_directory = '{spill}'")

    def close(self) -> None:
        self.con.close()

    def register_frames(self, frames: dict[str, pd.DataFrame]) -> None:
        for name, df in frames.items():
            self.con.unregister(name)
            self.con.register(name, df)

    def register_parquet(self, name: str, directory: str) -> None:
        self.con.unregister(name)
        self.con.execute(
            f"CREATE OR REPLACE VIEW {_q(name)} AS "
            f"SELECT * FROM read_parquet('{directory}/*.parquet')"
        )

    def count(self, schema, tables: frozenset[str], predicate) -> int:
        return int(self.con.execute(cc_sql(schema, tables, predicate)).fetchone()[0])

    def aggregates(self, table: str, columns: list[str]) -> dict:
        """Row count, then (sum, min, max) per column, as exact integers."""
        exprs = ["count(*)"]
        for c in columns:
            exprs += [f"sum({_q(c)})", f"min({_q(c)})", f"max({_q(c)})"]
        row = self.con.execute(f"SELECT {', '.join(exprs)} FROM {_q(table)}").fetchone()
        return agg_dict(columns, [int(v) for v in row])


def agg_dict(columns: list[str], flat: list[int]) -> dict:
    out = {"rows": flat[0]}
    for i, c in enumerate(columns):
        out[c] = tuple(flat[1 + 3 * i : 4 + 3 * i])
    return out


def decode_relation(schema, summary, rel_name: str) -> pd.DataFrame:
    """A regenerated relation decoded from its summary frame by ``np.repeat``.

    Row r takes the values of the summary row whose cumulative NumTuples first
    reaches r, and PK = r: exactly the paper's §6 contract.
    """
    frame = summary.relations[rel_name].frame
    counts = frame["numtuples"].to_numpy()
    n = int(counts.sum())
    cols = {schema[rel_name].pk: np.arange(1, n + 1, dtype=np.int64)}
    for c in frame.columns:
        if c != "numtuples":
            cols[c] = np.repeat(frame[c].to_numpy(), counts)
    return pd.DataFrame(cols)


@dataclass
class ExpectedRelation:
    """What a correct generator must produce for one relation."""

    columns: list[str]  # pk first, then every other column
    aggregates: dict  # {"rows": N, col: (sum, min, max)}
    fk_targets: dict[str, int]  # FK column -> row count of referenced relation


def expected_relation(schema, summary, rel_name: str) -> ExpectedRelation:
    """Row count, PK sum N(N+1)/2 and per-column Σ value·numtuples, min, max."""
    rel = schema[rel_name]
    frame = summary.relations[rel_name].frame
    counts = frame["numtuples"].to_numpy().astype(np.int64)
    live = counts > 0
    n = int(counts.sum())
    pk_min, pk_max = (1, n) if n else (0, 0)
    aggs: dict = {"rows": n, rel.pk: (n * (n + 1) // 2, pk_min, pk_max)}
    columns = [rel.pk]
    for c in frame.columns:
        if c == "numtuples":
            continue
        vals = frame[c].to_numpy().astype(np.int64)
        total = sum(int(v) * int(k) for v, k in zip(vals[live], counts[live]))
        aggs[c] = (total, int(vals[live].min()), int(vals[live].max()))
        columns.append(c)
    fk_targets = {
        fk: summary.relations[target].total_rows for fk, target in rel.fks.items()
    }
    return ExpectedRelation(columns=columns, aggregates=aggs, fk_targets=fk_targets)


def generation_problems(exp: ExpectedRelation, got: dict) -> list[str]:
    """Differences between measured aggregates and the expected ones."""
    problems = []
    if got.get("rows") != exp.aggregates["rows"]:
        problems.append(f"rows {got.get('rows')} != {exp.aggregates['rows']}")
    for c in exp.columns:
        if got.get(c) != exp.aggregates[c]:
            problems.append(f"{c}: {got.get(c)} != {exp.aggregates[c]}")
    # Measured aggregates must equal the expected ones exactly, so checking
    # the FK range on the summary covers every reading.
    for fk, n_target in exp.fk_targets.items():
        _, lo, hi = exp.aggregates[fk]
        if not (1 <= lo and hi <= n_target):
            problems.append(f"{fk} outside [1, {n_target}]")
    return problems


def view_solution_counts(view_summary, ccs) -> list[int]:
    """Each CC's count on one instantiated, pre-repair view solution."""
    attrs = view_summary.attrs
    if view_summary.rows:
        vals = np.array([v for v, _ in view_summary.rows], dtype=np.int64)
        counts = np.array([c for _, c in view_summary.rows], dtype=np.int64)
    else:
        vals = np.zeros((0, len(attrs)), dtype=np.int64)
        counts = np.zeros(0, dtype=np.int64)
    col = {a: vals[:, i] for i, a in enumerate(attrs)}
    out = []
    for cc in ccs:
        mask = np.zeros(len(counts), dtype=bool)
        conjuncts = cc.predicate.conjuncts
        if not conjuncts or any(not c.restrictions for c in conjuncts):
            mask[:] = True
        for conj in conjuncts:
            m = np.ones(len(counts), dtype=bool)
            for a, iv in conj.restrictions:
                m &= (col[a] >= iv.lo) & (col[a] < iv.hi)
            mask |= m
        out.append(int(counts[mask].sum()))
    return out
