"""DataSynth's grid-partitioning (the paper's comparative baseline, §3.2).

Grid-partitioning intervalizes each attribute's domain at the constants
appearing in the CCs and crosses the per-attribute intervals into a grid of
``∏ ℓᵢ`` cells, one LP variable per cell. The variable count therefore grows
multiplicatively with predicate complexity — the paper reports 5.5M variables
for catalog_sales and ~10¹¹ for item on WLc, where the Z3 solver crashed.

Two entry points mirror how the paper uses the construction:

- :func:`grid_variable_count` computes ``∏ ℓᵢ`` analytically, so the blowup
  can be *reported* without materializing cells (Fig 12 / Fig 13 "crash");
- :func:`grid_partition` materializes the cells, also cut at the
  shared-attribute boundaries, as labelled single-box regions for LPs small
  enough to solve (the WLs path), raising :class:`GridTooLarge` above a cap
  to emulate the solver crash.
"""
from __future__ import annotations

import itertools
from typing import Iterable, Mapping, Sequence

from .constraints import CC, Interval, sub_constraints
from .regions import Region

#: Above this many cells the LP is declared unsolvable, standing in for the
#: paper's observed Z3 crash on multi-billion-variable formulations.
DEFAULT_CELL_CAP = 2_000_000


class GridTooLarge(RuntimeError):
    """Raised when the grid formulation exceeds the solvable-cell cap."""

    def __init__(self, n_cells: int, cap: int):
        super().__init__(f"grid has {n_cells} cells (cap {cap}): LP solver would fail")
        self.n_cells = n_cells
        self.cap = cap


def _intervals(domain: Interval, points: Iterable[int]) -> list[Interval]:
    """Cut ``domain`` at every point strictly inside it."""
    cuts = sorted({domain.lo, domain.hi} | {p for p in points if domain.lo < p < domain.hi})
    return [Interval(a, b) for a, b in zip(cuts, cuts[1:])]


def attribute_intervals(
    attr: str, domain: Interval, ccs: Sequence[CC]
) -> list[Interval]:
    """Intervalize one attribute's domain at all CC constants mentioning it."""
    points = []
    for c in sub_constraints(ccs):
        r = c.restriction(attr)
        if r is not None:
            points += (r.lo, r.hi)
    return _intervals(domain, points)


def grid_variable_count(
    attrs: Sequence[str], domain: Mapping[str, Interval], ccs: Sequence[CC]
) -> int:
    """Analytic ``∏ ℓᵢ`` — the number of LP variables DataSynth would create."""
    n = 1
    for a in attrs:
        n *= len(attribute_intervals(a, domain[a], ccs))
    return n


def grid_partition(
    attrs: Sequence[str],
    domain: Mapping[str, Interval],
    ccs: Sequence[CC],
    boundaries: Mapping[str, Sequence[int]],
    *,
    cell_cap: int = DEFAULT_CELL_CAP,
) -> list[Region]:
    """Materialize the grid as single-box labelled regions.

    Each attribute is cut at its own CC constants plus its ``boundaries``
    (the cuts of attributes shared with other sub-views, §4.2), so every
    cell lies in one shared-attribute cell. The cap applies to the
    analytic ``∏ ℓᵢ``. Returned regions are interchangeable with HYDRA's
    in the LP builder — the formulation differs only in how many variables
    it takes to express the same CCs.
    """
    n_cells = grid_variable_count(attrs, domain, ccs)
    if n_cells > cell_cap:
        raise GridTooLarge(n_cells, cell_cap)
    per_attr = [
        _intervals(
            domain[a],
            [iv.lo for iv in attribute_intervals(a, domain[a], ccs)]
            + list(boundaries.get(a, ())),
        )
        for a in attrs
    ]
    regions = []
    for combo in itertools.product(*per_attr):
        box = dict(zip(attrs, combo))
        label = frozenset(
            i for i, cc in enumerate(ccs) if cc.predicate.matches_box(box)
        )
        regions.append(Region(box, label))
    return regions
