"""Region-partitioning tests, anchored on the paper's own examples.

The §3.2 "Person" view (Figure 3) must produce exactly 4 regions where
grid-partitioning produces 16 cells, and the LP constraints must take the
Figure 4b shape. The production engine is checked against the scalar
reference transcription of Algorithms 1+2 in ``reference_partition``.
"""
from hypothesis import given, settings, strategies as st

from repro.core.constraints import CC, Conjunct, Interval, Predicate, total_cc
from repro.core.regions import (
    _partition_arrays,
    box_key,
    partition_lp_regions,
    shared_cell,
)

from .reference_partition import optimal_partition, split_interval


def person_ccs():
    """|age<40 ∧ salary<40K| = 1000; |20<=age<60 ∧ 20K<=salary<60K| = 2000;
    |Person| = 8000 — §3.2's running example."""
    return [
        CC("person", Predicate.of(age=(0, 40), salary=(0, 40)), 1000),
        CC("person", Predicate.of(age=(20, 60), salary=(20, 60)), 2000),
        total_cc("person", 8000),
    ]


PERSON_DOMAIN = {"age": Interval(0, 100), "salary": Interval(0, 100)}


def regions_of(attrs, domain, ccs):
    """The production entry point on a sub-view sharing no attribute."""
    return partition_lp_regions(attrs, domain, ccs, {})


def blocks_of(attrs, domain, ccs):
    """The engine's final blocks as ``(box, label)`` pairs."""
    los, his, sig_ids, labels = _partition_arrays(attrs, domain, ccs)
    return [
        ({a: Interval(int(lo[d]), int(hi[d])) for d, a in enumerate(attrs)}, labels[s])
        for lo, hi, s in zip(los, his, sig_ids)
    ]


def area_by_label(attrs, blocks):
    out = {}
    for box, label in blocks:
        area = 1
        for a in attrs:
            area *= box[a].width()
        out[label] = out.get(label, 0) + area
    return out


class TestSplitInterval:
    def test_no_overlap_no_split(self):
        assert split_interval(Interval(0, 10), Interval(20, 30)) == [Interval(0, 10)]

    def test_interior_cut_both_sides(self):
        assert split_interval(Interval(0, 10), Interval(3, 7)) == [
            Interval(0, 3),
            Interval(3, 7),
            Interval(7, 10),
        ]

    def test_one_sided_cut(self):
        assert split_interval(Interval(0, 10), Interval(5, 20)) == [
            Interval(0, 5),
            Interval(5, 10),
        ]

    def test_covering_cut_no_split(self):
        assert split_interval(Interval(3, 7), Interval(0, 10)) == [Interval(3, 7)]


class TestValidPartition:
    def test_no_constraints_single_block(self):
        blocks = blocks_of(("a",), {"a": Interval(0, 10)}, [])
        assert blocks == [({"a": Interval(0, 10)}, frozenset())]

    def test_blocks_partition_domain(self):
        blocks = blocks_of(("age", "salary"), PERSON_DOMAIN, person_ccs())
        assert sum(area_by_label(("age", "salary"), blocks).values()) == 100 * 100

    def test_blocks_uniform_per_subconstraint(self):
        """Every block is fully inside or fully outside each conjunct (as a
        whole conjunction) — the validity Algorithm 1's labelling needs.
        Blocks already outside on one dimension MAY straddle boundaries on
        another (the pruning that keeps the partition small)."""
        subs = [Conjunct.of(age=(0, 40), salary=(0, 40)), Conjunct.of(age=(20, 60), salary=(20, 60))]
        for b, _ in blocks_of(("age", "salary"), PERSON_DOMAIN, person_ccs()):
            for c in subs:
                corner_vals = set()
                for age in (b["age"].lo, b["age"].hi - 1):
                    for sal in (b["salary"].lo, b["salary"].hi - 1):
                        corner_vals.add(c.matches_point({"age": age, "salary": sal}))
                assert len(corner_vals) == 1

    def test_pruning_beats_grid(self):
        blocks = blocks_of(("age", "salary"), PERSON_DOMAIN, person_ccs())
        assert len(blocks) < 16  # strictly fewer than the 4×4 grid


class TestOptimalPartitionPaperExamples:
    def test_person_has_four_regions(self):
        regions = regions_of(("age", "salary"), PERSON_DOMAIN, person_ccs())
        assert len(regions) == 4  # Figure 3b

    def test_person_labels_match_figure_4b(self):
        regions = regions_of(("age", "salary"), PERSON_DOMAIN, person_ccs())
        # y1: only CC0 (+total); y2: CC0 and CC1; y3: only CC1; y4: only total.
        labels = sorted(tuple(sorted(r.label)) for r in regions)
        assert labels == [(0, 1, 2), (0, 2), (1, 2), (2,)]

    def test_person_region_areas(self):
        blocks = blocks_of(("age", "salary"), PERSON_DOMAIN, person_ccs())
        area = {
            tuple(sorted(label)): a
            for label, a in area_by_label(("age", "salary"), blocks).items()
        }
        assert area[(0, 2)] + area[(0, 1, 2)] == 40 * 40  # CC0 area
        assert area[(1, 2)] + area[(0, 1, 2)] == 40 * 40  # CC1 area
        assert area[(0, 1, 2)] == 20 * 20  # overlap
        assert sum(area.values()) == 100 * 100

    def test_dnf_constraint_regions(self):
        # ((a<=20) ∧ (b>30)) ∨ (a>50): 1 CC → 2 regions (in/out).
        p = Predicate((Conjunct.of(a=(0, 21), b=(31, 100)), Conjunct.of(a=(51, 100))))
        domain = {"a": Interval(0, 100), "b": Interval(0, 100)}
        ccs = [CC("v", p, 10), total_cc("v", 100)]
        regions = regions_of(("a", "b"), domain, ccs)
        assert len(regions) == 2
        area = area_by_label(("a", "b"), blocks_of(("a", "b"), domain, ccs))
        # |a∈[0,21)|·|b∈[31,100)| + |a∈[51,100)|·100
        assert area[frozenset({0, 1})] == 21 * 69 + 49 * 100

    def test_disjoint_ccs(self):
        ccs = [
            CC("v", Predicate.of(a=(0, 10)), 5),
            CC("v", Predicate.of(a=(20, 30)), 7),
            total_cc("v", 100),
        ]
        regions = regions_of(("a",), {"a": Interval(0, 100)}, ccs)
        # [0,10) / [10,20)∪[30,100) / [20,30): outside blocks merge into one
        # region, represented by its first box.
        assert len(regions) == 3
        outside = next(r for r in regions if r.label == frozenset({2}))
        assert outside.box == {"a": Interval(10, 20)}
        blocks = blocks_of(("a",), {"a": Interval(0, 100)}, ccs)
        assert sum(1 for _, label in blocks if label == frozenset({2})) == 2

    def test_nested_ccs(self):
        ccs = [
            CC("v", Predicate.of(a=(0, 50)), 5),
            CC("v", Predicate.of(a=(10, 20)), 2),
            total_cc("v", 10),
        ]
        regions = regions_of(("a",), {"a": Interval(0, 100)}, ccs)
        assert len(regions) == 3

    def test_deterministic_output(self):
        r1 = regions_of(("age", "salary"), PERSON_DOMAIN, person_ccs())
        r2 = regions_of(("age", "salary"), PERSON_DOMAIN, person_ccs())
        assert r1 == r2


@settings(max_examples=50, deadline=None)
@given(
    bounds=st.lists(
        st.tuples(st.integers(0, 99), st.integers(1, 100)).map(
            lambda t: (min(t[0], t[1] - 1), max(t[0] + 1, t[1]))
        ),
        min_size=1,
        max_size=4,
    )
)
def test_optimal_partition_is_valid_and_covers(bounds):
    """Property: the engine's blocks partition the domain, every block is
    label-pure (checked point-wise on a 1-D domain), and regions have
    distinct labels."""
    ccs = [CC("v", Predicate.of(a=b), 1) for b in bounds] + [total_cc("v", 10)]
    covered = 0
    for box, label in blocks_of(("a",), {"a": Interval(0, 100)}, ccs):
        covered += box["a"].width()
        for v in (box["a"].lo, box["a"].hi - 1):
            sat = frozenset(
                i for i, cc in enumerate(ccs) if cc.predicate.matches_point({"a": v})
            )
            assert sat == label
    assert covered == 100
    # Distinct labels ⇒ minimality (Lemma 4.3: quotient set is optimal).
    labels = [r.label for r in regions_of(("a",), {"a": Interval(0, 100)}, ccs)]
    assert len(labels) == len(set(labels))


def reference_lp_regions(attrs, domain, ccs, boundaries):
    """Scalar reference for the engine's output: the optimal partition with
    every box cut at ``boundaries``, one region per (label, cell), each
    represented by its lexicographically first box."""
    groups = {}
    for region in optimal_partition(attrs, domain, ccs):
        pieces = region.box_dicts()
        for a, points in boundaries.items():
            cut = []
            for box in pieces:
                edges = sorted({box[a].lo, box[a].hi} | {p for p in points if box[a].lo < p < box[a].hi})
                cut += [{**box, a: Interval(lo, hi)} for lo, hi in zip(edges, edges[1:])]
            pieces = cut
        for box in pieces:
            cell = tuple(sum(p <= box[a].lo for p in points) for a, points in boundaries.items())
            corners = groups.setdefault((region.label, cell), [])
            corners.append(box_key(box, attrs))
    return sorted((min(corners), label) for (label, _), corners in groups.items())


@st.composite
def subviews(draw):
    """A 1–3-attribute domain, DNF CCs over it and shared-attribute cuts."""
    attrs = tuple(f"a{i}" for i in range(draw(st.integers(1, 3))))
    domain = {a: Interval(0, draw(st.integers(1, 12))) for a in attrs}

    def conjunct():
        restricted = draw(st.lists(st.sampled_from(attrs), min_size=1, unique=True))
        bounds = {}
        for a in restricted:
            lo = draw(st.integers(0, domain[a].hi - 1))
            bounds[a] = (lo, draw(st.integers(lo + 1, domain[a].hi)))
        return Conjunct.of(**bounds)

    ccs = [
        CC("v", Predicate(tuple(conjunct() for _ in range(draw(st.integers(1, 3))))), 1)
        for _ in range(draw(st.integers(0, 4)))
    ] + [total_cc("v", 10)]
    shared = draw(st.lists(st.sampled_from(attrs), unique=True))
    boundaries = {}
    for a in shared:
        # The LP builder passes every CC constant on a shared attribute,
        # plus those of other sub-views.
        own = [p for c in ccs for conj in c.predicate.conjuncts
               for b, iv in conj.restrictions if b == a for p in (iv.lo, iv.hi)]
        extra = draw(st.lists(st.integers(1, max(1, domain[a].hi - 1)), max_size=3))
        boundaries[a] = sorted({p for p in own + extra if 0 < p < domain[a].hi})
    return attrs, domain, ccs, boundaries


@settings(max_examples=200, deadline=None)
@given(subviews())
def test_engine_matches_scalar_reference(case):
    """Differential: same labels, representative lower corners and order as
    the scalar reference, with and without shared-attribute cuts."""
    attrs, domain, ccs, boundaries = case
    got = partition_lp_regions(attrs, domain, ccs, {})
    assert [(box_key(r.box, attrs), r.label) for r in got] == [
        (box_key(r.first_box(), attrs), r.label)
        for r in optimal_partition(attrs, domain, ccs)
    ]
    got = partition_lp_regions(attrs, domain, ccs, boundaries)
    assert [(box_key(r.box, attrs), r.label) for r in got] == reference_lp_regions(
        attrs, domain, ccs, boundaries
    )
    # Each region's shared interval is exactly one cell, which is what
    # ``shared_cell`` reports.
    for r in got:
        for a, points in boundaries.items():
            edges = [domain[a].lo, *points, domain[a].hi]
            lo, hi = shared_cell(r, (a,))[0]
            assert lo in edges and edges[edges.index(lo) + 1] == hi


class TestConsistencyRefinement:
    def test_regions_grouped_by_shared_cell(self):
        ccs = [CC("v", Predicate.of(a=(0, 50)), 5), total_cc("v", 10)]
        regions = partition_lp_regions(
            ("a", "b"),
            {"a": Interval(0, 100), "b": Interval(0, 10)},
            ccs,
            {"a": [25, 50]},
        )
        assert [(shared_cell(r, ("a",)), sorted(r.label)) for r in regions] == [
            (((0, 25),), [0, 1]),
            (((25, 50),), [0, 1]),
            (((50, 100),), [1]),
        ]
