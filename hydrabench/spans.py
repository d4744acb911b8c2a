"""Spans and Spark job counts recorded around calls into the program's layers.

The program has no tracing of its own. A :class:`Tracer` records spans from
the benchmark's side: the benchmark wraps its own calls into each layer, and
:meth:`Tracer.patch` swaps the layer functions that ``hydra.regenerate`` and
``summary.build_database_summary`` look up at call time for wrappers that
open a span around the original. Spans are kept in memory and written out
when the run ends. A layer's self time is its span minus the time its child
spans cover.

A disabled tracer (the timed runs) records nothing and patches nothing.
"""
from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: (module, attribute, span name): the layer entry points that the program's
#: own pipeline functions call, which the benchmark therefore cannot wrap at
#: its call sites.
PATCH_POINTS = (
    ("repro.core.hydra", "plan_views", "core.preprocess"),
    ("repro.core.hydra", "formulate_view", "core.lp"),
    ("repro.core.hydra", "solve_view", "core.solver"),
    ("repro.core.hydra", "build_database_summary", "core.summary"),
    ("repro.core.summary", "view_summaries_from_formulations", "core.align"),
    ("repro.core.summary", "make_consistent", "summary.repair"),
    ("repro.core.summary", "extract_relation_summaries", "summary.extract"),
)


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    round: int
    start: float
    end: float = 0.0
    spark_jobs: int = 0


@dataclass
class Tracer:
    enabled: bool
    spark_context: object | None = None
    spans: list[Span] = field(default_factory=list)
    round: int = 0
    _stack: list[int] = field(default_factory=list)
    _undo: list[tuple[object, str, object]] = field(default_factory=list)

    @contextmanager
    def span(self, name: str, *, spark: bool = False):
        """Record one span; with ``spark`` also count the Spark jobs it ran."""
        if not self.enabled:
            yield
            return
        sp = Span(
            id=len(self.spans),
            parent=self._stack[-1] if self._stack else None,
            name=name,
            round=self.round,
            start=time.perf_counter(),
        )
        self.spans.append(sp)
        self._stack.append(sp.id)
        group = f"hydrabench-{sp.id}"
        sc = self.spark_context if spark else None
        if sc is not None:
            sc.setJobGroup(group, name)
        try:
            yield
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            if sc is not None:
                sp.spark_jobs = len(sc.statusTracker().getJobIdsForGroup(group))
                sc.setLocalProperty("spark.jobGroup.id", None)

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def patch(self) -> None:
        if not self.enabled:
            return
        for mod_name, attr, name in PATCH_POINTS:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            self._undo.append((mod, attr, orig))
            setattr(mod, attr, self.wrap(orig, name))

    def unpatch(self) -> None:
        while self._undo:
            mod, attr, orig = self._undo.pop()
            setattr(mod, attr, orig)

    # -- reading the spans back ------------------------------------------

    def _self_times(self) -> list[float]:
        """Each span's duration minus the durations of its child spans."""
        out = [sp.end - sp.start for sp in self.spans]
        for sp in self.spans:
            if sp.parent is not None:
                out[sp.parent] -= sp.end - sp.start
        return out

    def durations(self, name: str) -> list[float]:
        return [sp.end - sp.start for sp in self.spans if sp.name == name]

    def jobs(self, name: str) -> list[int]:
        return [sp.spark_jobs for sp in self.spans if sp.name == name]

    def within(self, name: str, outer: str) -> list[float]:
        """Per span called ``outer``, the self time of its ``name`` spans.

        ``name == outer`` gives the outer spans' own self times.
        """
        totals = {sp.id: 0.0 for sp in self.spans if sp.name == outer}
        self_s = self._self_times()
        for sp in self.spans:
            if sp.name != name:
                continue
            anc = sp.id if name == outer else sp.parent
            while anc is not None and self.spans[anc].name != outer:
                anc = self.spans[anc].parent
            if anc is not None:
                totals[anc] += self_s[sp.id]
        return list(totals.values())

    def write(self, path) -> None:
        self_s = self._self_times()
        rows = [
            {
                "id": sp.id,
                "parent": sp.parent,
                "name": sp.name,
                "round": sp.round,
                "start_s": sp.start,
                "duration_s": sp.end - sp.start,
                "self_s": self_s[sp.id],
                "spark_jobs": sp.spark_jobs,
            }
            for sp in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(rows, fh, indent=1)
