"""Query workload → Annotated Query Plans → cardinality constraints (§2).

A :class:`QuerySpec` is the paper's restricted query class: PK–FK joins
plus non-key filter predicates (possibly DNF). The AQP of such a query on
a left-deep plan ``root ⋈ t₁ ⋈ t₂ …`` annotates every operator edge with
its output cardinality; parsing it yields one CC per annotated edge
(Figure 1d):

- ``|T|``        for every base relation in the plan,
- ``|σ(T)|``     for every filtered relation,
- ``|σ(root ⋈ t₁ … ⋈ tᵢ)|`` for every join prefix, with the predicate
  being the conjunction of the filters on the relations joined so far.

Cardinalities are obtained by *executing* the plan on the client database —
on Spark (the engine path, exercising real shuffle joins) or on pandas
(a fast exact path for large workloads); a test pins their agreement.
"""
from __future__ import annotations

from dataclasses import dataclass

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
import pyspark.sql.functions as F

from .constraints import Predicate
from .preprocess import RawCC
from .schema import Schema


@dataclass(frozen=True)
class QuerySpec:
    """A query: ordered join tables (root first) + per-table predicates.

    ``filters`` maps table name → DNF predicate over that table's own
    non-key attributes. ``tables`` must be path-closed along FK edges from
    the root (every joined relation is reachable through joined relations).
    """

    tables: tuple[str, ...]
    filters: tuple[tuple[str, Predicate], ...] = ()

    @property
    def root(self) -> str:
        return self.tables[0]

    def filter_of(self, table: str) -> Predicate:
        for t, p in self.filters:
            if t == table:
                return p
        return Predicate.true()

    def validate(self, schema: Schema) -> None:
        reached = {self.root}
        for t in self.tables[1:]:
            if not any(
                t in schema.dependencies(r) for r in reached
            ):
                raise ValueError(
                    f"{t} not FK-reachable from already-joined {sorted(reached)}"
                )
            reached.add(t)
        for t, p in self.filters:
            own = {a.name for a in schema[t].attrs}
            if not p.attrs <= own:
                raise ValueError(f"filter on {t} uses foreign attrs {p.attrs - own}")


def _join_path(schema: Schema, tables: dict, names: tuple[str, ...], join):
    """Join ``names`` root-first, each along the FK edge from an
    already-joined relation; ``join(left, right, fk, pk)`` is the backend's
    inner equi-join."""
    out = tables[names[0]]
    for i, t in enumerate(names[1:], 1):
        src_fk = next(
            (
                fk
                for r in names[:i]
                for fk, target in schema[r].fks.items()
                if target == t and fk in out.columns
            ),
            None,
        )
        assert src_fk is not None, f"no FK edge into {t}"
        out = join(out, tables[t], src_fk, schema[t].pk)
    return out


def _join_pandas(
    schema: Schema, tables: dict[str, pd.DataFrame], names: tuple[str, ...]
) -> pd.DataFrame:
    return _join_path(
        schema,
        tables,
        names,
        lambda left, right, fk, pk: left.merge(
            right, left_on=fk, right_on=pk, how="inner"
        ),
    )


def _join_spark(
    schema: Schema, tables: dict[str, DataFrame], names: tuple[str, ...]
) -> DataFrame:
    return _join_path(
        schema,
        tables,
        names,
        lambda left, right, fk, pk: left.join(
            right, on=F.col(fk) == F.col(pk), how="inner"
        ),
    )


def _count_pandas(
    schema: Schema, tables: dict[str, pd.DataFrame], names: tuple[str, ...], pred: Predicate
) -> int:
    """Rows of ``σ_pred(names[0] ⋈ names[1] ⋈ …)`` on pandas frames."""
    joined = _join_pandas(schema, tables, names)
    return len(joined) if pred.is_true else int(pred.mask(joined).sum())


def _count_spark(
    schema: Schema, tables: dict[str, DataFrame], names: tuple[str, ...], pred: Predicate
) -> int:
    """The same count as one Spark job."""
    joined = _join_spark(schema, tables, names)
    if not pred.is_true:
        joined = joined.filter(F.expr(pred.to_sql()))
    return joined.count()


def _prefix_predicate(q: QuerySpec, prefix: tuple[str, ...]) -> Predicate:
    pred = Predicate.true()
    for t in prefix:
        pred = pred.conjoin(q.filter_of(t))
    return pred


def _aqp_ccs(
    schema: Schema, queries: list[QuerySpec]
) -> list[tuple[tuple[str, ...], Predicate]]:
    """The distinct annotated edges of the queries' AQPs, in emit order.

    Each is ``(join order, predicate)``; an edge shared by several queries
    is kept at its first occurrence, so it is counted once. The order fixes
    the CC order and hence the order of the LP rows.
    """
    out: list[tuple[tuple[str, ...], Predicate]] = []
    seen: set[tuple] = set()

    def emit(names: tuple[str, ...], pred: Predicate) -> None:
        key = (frozenset(names), pred)
        if key not in seen:
            seen.add(key)
            out.append((names, pred))

    for q in queries:
        q.validate(schema)
        for t in q.tables:
            emit((t,), Predicate.true())
            p = q.filter_of(t)
            if not p.is_true:
                emit((t,), p)
        for i in range(2, len(q.tables) + 1):
            prefix = q.tables[:i]
            emit(prefix, _prefix_predicate(q, prefix))
    return out


def derive_ccs_pandas(
    schema: Schema, tables: dict[str, pd.DataFrame], queries: list[QuerySpec]
) -> list[RawCC]:
    """Execute every query's plan on pandas frames and emit its CCs."""
    return [
        RawCC(frozenset(names), pred, _count_pandas(schema, tables, names, pred))
        for names, pred in _aqp_ccs(schema, queries)
    ]


def derive_ccs_spark(
    schema: Schema, tables: dict[str, DataFrame], queries: list[QuerySpec]
) -> list[RawCC]:
    """Same AQP derivation, executed on Spark (real shuffle-join plans)."""
    return [
        RawCC(frozenset(names), pred, _count_spark(schema, tables, names, pred))
        for names, pred in _aqp_ccs(schema, queries)
    ]


def base_size_ccs(
    schema: Schema, sizes: dict[str, int], existing: list[RawCC]
) -> list[RawCC]:
    """Top up ``|R| = k`` CCs for relations the workload never touched.

    Every view needs a total-size CC (Figure 6 eq. 2); relations outside
    the workload take their size from the client catalog (here: the
    generator's row counts).
    """
    have = {
        next(iter(rc.tables))
        for rc in existing
        if len(rc.tables) == 1 and rc.predicate.is_true
    }
    out = list(existing)
    for rel, n in sizes.items():
        if rel not in have:
            out.append(
                RawCC(tables=frozenset({rel}), predicate=Predicate.true(), count=n)
            )
    return out
