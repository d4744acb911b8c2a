"""HYDRA's region-partitioning (paper §4.2, Algorithms 1 and 2).

A *box* is an axis-aligned product of integer intervals, represented as a
``dict`` attribute → :class:`~repro.core.constraints.Interval`. Algorithm 2
("Valid-Partition") refines the domain box one dimension at a time, splitting
a block only when some sub-constraint's projection actually splits it.
Algorithm 1 ("Optimal Partition") then labels each block with the set of CCs
it satisfies and merges equal-label blocks into *regions* — the equivalence
classes of :math:`R_\\mathcal{C}` (Lemma 4.3), i.e. the minimum number of LP
variables that can encode the CCs exactly. §4.2's consistency constraints
further split each region at the boundaries of attributes shared with other
sub-views, so that every region lies in one shared-attribute cell.

The LP assigns one variable per region; the summary generator places the
region's NumTuples on its lexicographically first box (§5.2's deterministic
choice), which is therefore the only box a :class:`Region` keeps.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .constraints import CC, Interval, sub_constraints

Box = dict[str, Interval]


def box_key(box: Box, attrs: Sequence[str]) -> tuple[int, ...]:
    """Deterministic sort key: interval lows in sub-view attribute order."""
    return tuple(box[a].lo for a in attrs)


@dataclass(frozen=True)
class Region:
    """One LP variable: a labelled region of the optimal partition.

    ``box`` is the region's lexicographically first box, where its
    NumTuples are placed; ``label`` is the frozenset of CC indices (into
    the formulation's CC list) that every point of the region satisfies.
    """

    box: Box
    label: frozenset[int]


def _split_at(los, his, sig_ids, di, p, alive=None):
    """Cut every box straddling ``p`` on dimension ``di`` (only the
    ``alive`` ones, if given): the left piece stays in place, the right
    piece is appended with the same signature."""
    strad = (los[:, di] < p) & (his[:, di] > p)
    if alive is not None:
        strad &= alive
    if not strad.any():
        return los, his, sig_ids
    right_los = los[strad].copy()
    right_los[:, di] = p
    right_his = his[strad].copy()
    his[strad, di] = p
    return (
        np.vstack([los, right_los]),
        np.vstack([his, right_his]),
        np.concatenate([sig_ids, sig_ids[strad]]),
    )


def _partition_arrays(
    attrs: Sequence[str],
    domain: Mapping[str, Interval],
    ccs: Sequence[CC],
):
    """Algorithms 1+2 on boxes held as numpy arrays.

    Returns ``(los, his, sig_ids, labels)``: row *i* of ``los``/``his`` is
    a block, ``sig_ids[i]`` its *alive signature* — the set of
    sub-constraints the block still fully satisfies — and
    ``labels[sig_ids[i]]`` the frozenset of CC indices it satisfies.

    A sub-constraint only ever splits blocks still alive for it: a block
    already outside it on an earlier dimension is uniformly false there
    regardless of later dimensions. Adjacent blocks whose signatures
    re-converge are coalesced after every dimension pass, so the working
    set tracks the final region count rather than the ℓⁿ grid. A DNF CC
    is satisfied iff any of its sub-constraints stays alive (Lemma 4.4's
    label construction).
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

    n = len(attrs)
    los = np.array([[domain[a].lo for a in attrs]], dtype=np.int64)
    his = np.array([[domain[a].hi for a in attrs]], dtype=np.int64)
    sig_table: list[frozenset[int]] = [frozenset(range(len(subs)))]
    sig_index: dict[frozenset[int], int] = {sig_table[0]: 0}
    sig_ids = np.zeros(1, dtype=np.int64)

    def merge_adjacent(los, his, sig_ids, dim):
        """Coalesce boxes identical except for contiguity along ``dim``.

        Constraints that die on a late dimension leave adjacent fragments
        with re-converged signatures; re-merging them after every
        dimension pass is what keeps the intermediate working set near
        the final region count instead of exploding combinatorially.
        """
        if len(los) < 2:
            return los, his, sig_ids
        other = [d for d in range(n) if d != dim]
        keys = (
            [los[:, dim]]
            + [his[:, d] for d in reversed(other)]
            + [los[:, d] for d in reversed(other)]
            + [sig_ids]
        )
        order = np.lexsort(keys)
        lo_s, hi_s, sg_s = los[order], his[order], sig_ids[order]
        same = (sg_s[1:] == sg_s[:-1])
        for d in other:
            same &= (lo_s[1:, d] == lo_s[:-1, d]) & (hi_s[1:, d] == hi_s[:-1, d])
        contiguous = same & (lo_s[1:, dim] == hi_s[:-1, dim])
        if not contiguous.any():
            return los, his, sig_ids
        new_group = np.concatenate([[True], ~contiguous])
        starts = np.flatnonzero(new_group)
        out_lo = lo_s[starts]
        out_hi = hi_s[starts].copy()
        # Chain end index per group: position before the next start.
        ends = np.concatenate([starts[1:], [len(lo_s)]]) - 1
        out_hi[:, dim] = hi_s[ends, dim]
        return out_lo, out_hi, sg_s[starts]

    for di, a in enumerate(attrs):
        for ci, c in enumerate(subs):
            proj = c.restriction(a)
            if proj is None:
                continue
            alive_tab = np.fromiter(
                (ci in s for s in sig_table), dtype=bool, count=len(sig_table)
            )
            for p in (proj.lo, proj.hi):
                los, his, sig_ids = _split_at(
                    los, his, sig_ids, di, p, alive_tab[sig_ids]
                )
            inside = (los[:, di] >= proj.lo) & (his[:, di] <= proj.hi)
            out_mask = alive_tab[sig_ids] & ~inside
            if out_mask.any():
                lut = np.arange(len(sig_table), dtype=np.int64)
                for s in np.unique(sig_ids[out_mask]):
                    ns = sig_table[s] - {ci}
                    if ns not in sig_index:
                        sig_index[ns] = len(sig_table)
                        sig_table.append(ns)
                        lut = np.concatenate([lut, [0]])  # placeholder, grown
                    lut[s] = sig_index[ns]
                sig_ids = sig_ids.copy()
                sig_ids[out_mask] = lut[sig_ids[out_mask]]
        # Re-coalesce fragments along every processed dimension.
        for d in range(di + 1):
            los, his, sig_ids = merge_adjacent(los, his, sig_ids, d)
    labels = [
        true_ccs | frozenset(j for ci in sig for j in cc_of_sub[ci])
        for sig in sig_table
    ]
    return los, his, sig_ids, labels


def partition_lp_regions(
    attrs: Sequence[str],
    domain: Mapping[str, Interval],
    ccs: Sequence[CC],
    boundaries: Mapping[str, Sequence[int]],
) -> list[Region]:
    """The sub-view's LP regions: optimal partition + consistency refinement.

    ``boundaries`` maps each attribute shared with another sub-view to the
    points its cells are cut at. Produces one region per (CC label ×
    shared-attribute cell), in lexicographic order of their boxes.
    """
    los, his, sig_ids, labels = _partition_arrays(attrs, domain, ccs)
    shared = [di for di, a in enumerate(attrs) if a in boundaries]
    for di in shared:
        for p in sorted(boundaries[attrs[di]]):
            los, his, sig_ids = _split_at(los, his, sig_ids, di, p)

    label_ids: dict[frozenset[int], int] = {}
    label_list: list[frozenset[int]] = []
    lab_of_sig = np.empty(len(labels), dtype=np.int64)
    for i, lab in enumerate(labels):
        if lab not in label_ids:
            label_ids[lab] = len(label_list)
            label_list.append(lab)
        lab_of_sig[i] = label_ids[lab]
    # Group key: label, then the cell index on each shared attribute.
    key_mat = np.stack(
        [lab_of_sig[sig_ids]]
        + [
            np.searchsorted(sorted(boundaries[attrs[di]]), los[:, di], side="right")
            for di in shared
        ],
        axis=1,
    )
    # Blocks in lexicographic order of their (distinct) lower corners, so
    # each group's first block is its minimum.
    order = np.lexsort(los.T[::-1])
    _, first = np.unique(key_mat[order], axis=0, return_index=True)
    reps = order[np.sort(first)]
    # Build each distinct interval once; regions share them.
    columns = []
    for di in range(len(attrs)):
        ivs: dict[tuple[int, int], Interval] = {}
        columns.append([
            ivs.get(k) or ivs.setdefault(k, Interval(*k))
            for k in zip(los[reps, di].tolist(), his[reps, di].tolist())
        ])
    return [
        Region(dict(zip(attrs, box)), label_list[k])
        for box, k in zip(zip(*columns), key_mat[reps, 0].tolist())
    ]


def shared_cell(region: Region, shared: Sequence[str]) -> tuple:
    """The shared-attribute cell a region lies in.

    The LP builder's boundaries include every CC constant on a shared
    attribute, so after refinement at them a region's interval on that
    attribute is exactly one cell, in region and grid mode alike.
    """
    return tuple((region.box[a].lo, region.box[a].hi) for a in shared)
