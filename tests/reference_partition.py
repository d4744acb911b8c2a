"""Scalar reference implementation of Algorithms 1+2 (paper §4.2).

A direct, box-by-box transcription of the optimal partition that the
vectorized engine in :mod:`repro.core.regions` must reproduce. Tests compare
the engine against it; no production code imports it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.constraints import CC, Interval, sub_constraints
from repro.core.regions import Box, box_key


def split_interval(iv: Interval, cut: Interval) -> list[Interval]:
    """Split ``iv`` at the boundaries of ``cut`` (up to three pieces).

    This realizes Definition 4.6's refinement ``b+ / b-`` while keeping
    every block an axis-aligned box (``b-`` may be two pieces).
    """
    points = sorted({p for p in (cut.lo, cut.hi) if iv.lo < p < iv.hi})
    out, lo = [], iv.lo
    for p in points:
        out.append(Interval(lo, p))
        lo = p
    out.append(Interval(lo, iv.hi))
    return out


@dataclass(frozen=True)
class Region:
    """A block of the optimal partition: equal-label boxes merged (Alg 1).

    ``label`` is the frozenset of CC indices (into the formulation's CC
    list) that every point of the region satisfies.
    """

    boxes: tuple[tuple[tuple[str, Interval], ...], ...]
    label: frozenset[int]

    def box_dicts(self) -> list[Box]:
        return [dict(b) for b in self.boxes]

    def first_box(self) -> Box:
        """Deterministic representative box (carries the region's count)."""
        return dict(self.boxes[0])


def _freeze(box: Box, attrs: Sequence[str]) -> tuple[tuple[str, Interval], ...]:
    return tuple((a, box[a]) for a in attrs)


def optimal_partition(
    attrs: Sequence[str], domain: Mapping[str, Interval], ccs: Sequence[CC]
) -> list[Region]:
    """Algorithms 1+2 fused: the optimal partition w.r.t. ``ccs``.

    Instead of materializing every block and labelling it afterwards, the
    partition is evolved as groups of boxes keyed by their *alive
    signature* — the set of sub-constraints the group still fully
    satisfies on all processed dimensions. A sub-constraint only ever
    splits groups still alive for it (dead groups are uniformly false
    regardless of later dimensions), and groups with equal signatures are
    re-merged after every step, so the working-set size tracks the final
    region count rather than the refined block count. Final labels follow
    from signatures: a DNF CC is satisfied iff any of its sub-constraints
    stays alive (Lemma 4.4's label construction).
    """
    subs = sub_constraints(ccs)
    # Map each sub-constraint index to the CCs whose DNF contains it.
    cc_of_sub: list[list[int]] = [[] for _ in subs]
    si = 0
    for j, cc in enumerate(ccs):
        for c in cc.predicate.conjuncts:
            if c.restrictions:
                cc_of_sub[si].append(j)
                si += 1
    # TRUE CCs are satisfied everywhere.
    true_ccs = frozenset(j for j, cc in enumerate(ccs) if cc.predicate.is_true)

    state: dict[frozenset[int], list[Box]] = {
        frozenset(range(len(subs))): [dict(domain)]
    }
    for a in attrs:
        for ci, c in enumerate(subs):
            proj = c.restriction(a)
            if proj is None:
                continue
            new_state: dict[frozenset[int], list[Box]] = {}
            for sig, boxes in state.items():
                if ci not in sig:
                    new_state.setdefault(sig, []).extend(boxes)
                    continue
                ins: list[Box] = []
                outs: list[Box] = []
                for b in boxes:
                    for piece in split_interval(b[a], proj):
                        nb = dict(b)
                        nb[a] = piece
                        (ins if proj.contains_interval(piece) else outs).append(nb)
                if ins:
                    new_state.setdefault(sig, []).extend(ins)
                if outs:
                    new_state.setdefault(sig - {ci}, []).extend(outs)
            state = new_state

    by_label: dict[frozenset[int], list[Box]] = {}
    for sig, boxes in state.items():
        label = true_ccs | frozenset(
            j for ci in sig for j in cc_of_sub[ci]
        )
        by_label.setdefault(label, []).extend(boxes)
    regions = []
    for label, boxes in by_label.items():
        boxes.sort(key=lambda b: box_key(b, attrs))
        regions.append(Region(tuple(_freeze(b, attrs) for b in boxes), label))
    regions.sort(key=lambda r: box_key(r.first_box(), attrs))
    return regions
