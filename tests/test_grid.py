"""Grid-partitioning (DataSynth baseline) tests — Figure 3a's 16 cells."""
import pytest

from repro.core.constraints import CC, Interval, Predicate, total_cc
from repro.core.grid import (
    GridTooLarge,
    attribute_intervals,
    grid_partition,
    grid_variable_count,
)
from repro.core.regions import partition_lp_regions

from .reference_partition import optimal_partition

PERSON_DOMAIN = {"age": Interval(0, 100), "salary": Interval(0, 100)}


def person_ccs():
    return [
        CC("person", Predicate.of(age=(0, 40), salary=(0, 40)), 1000),
        CC("person", Predicate.of(age=(20, 60), salary=(20, 60)), 2000),
        total_cc("person", 8000),
    ]


class TestAttributeIntervals:
    def test_person_age_intervalization(self):
        ivs = attribute_intervals("age", Interval(0, 100), person_ccs())
        assert ivs == [
            Interval(0, 20),
            Interval(20, 40),
            Interval(40, 60),
            Interval(60, 100),
        ]

    def test_unconstrained_attr_single_interval(self):
        ivs = attribute_intervals("other", Interval(0, 50), person_ccs())
        assert ivs == [Interval(0, 50)]

    def test_boundary_at_domain_edge_not_duplicated(self):
        ccs = [CC("v", Predicate.of(a=(0, 100)), 1), total_cc("v", 5)]
        ivs = attribute_intervals("a", Interval(0, 100), ccs)
        assert ivs == [Interval(0, 100)]


class TestGridCounts:
    def test_person_grid_is_16_cells(self):
        # Figure 3a: 4 age intervals × 4 salary intervals.
        assert grid_variable_count(("age", "salary"), PERSON_DOMAIN, person_ccs()) == 16

    def test_region_vs_grid_gap(self):
        regions = partition_lp_regions(("age", "salary"), PERSON_DOMAIN, person_ccs(), {})
        assert len(regions) == 4
        assert grid_variable_count(("age", "salary"), PERSON_DOMAIN, person_ccs()) == 16

    def test_multiplicative_blowup(self):
        # n attrs with one constraint each: grid = 2^n cells, regions far fewer.
        attrs = tuple(f"a{i}" for i in range(10))
        domain = {a: Interval(0, 100) for a in attrs}
        ccs = [
            CC("v", Predicate.of(**{a: (0, 50)}), 1) for a in attrs
        ] + [total_cc("v", 100)]
        assert grid_variable_count(attrs, domain, ccs) == 2**10


class TestGridPartition:
    def test_cells_are_single_boxes(self):
        cells = grid_partition(("age", "salary"), PERSON_DOMAIN, person_ccs(), {})
        assert len(cells) == 16
        assert [(c.box["age"].lo, c.box["salary"].lo) for c in cells] == [
            (age, sal) for age in (0, 20, 40, 60) for sal in (0, 20, 40, 60)
        ]

    def test_labels_consistent_with_region_partition(self):
        ccs = person_ccs()
        cells = grid_partition(("age", "salary"), PERSON_DOMAIN, ccs, {})
        # Total area per label must agree with the scalar optimal partition.
        def area_by_label(parts):
            out = {}
            for label, boxes in parts:
                a = sum(b["age"].width() * b["salary"].width() for b in boxes)
                out[label] = out.get(label, 0) + a
            return out

        regions = optimal_partition(("age", "salary"), PERSON_DOMAIN, ccs)
        assert area_by_label((c.label, [c.box]) for c in cells) == area_by_label(
            (r.label, r.box_dicts()) for r in regions
        )

    def test_cells_cut_at_shared_boundaries(self):
        ccs = [CC("v", Predicate.of(a=(0, 50)), 5), total_cc("v", 10)]
        cells = grid_partition(
            ("a", "b"), {"a": Interval(0, 100), "b": Interval(0, 10)}, ccs, {"a": [25, 50]}
        )
        assert [(c.box["a"], sorted(c.label)) for c in cells] == [
            (Interval(0, 25), [0, 1]),
            (Interval(25, 50), [0, 1]),
            (Interval(50, 100), [1]),
        ]

    def test_cells_tile_domain_with_boundaries(self):
        """Boundaries only subdivide cells, and the cap still applies to the
        analytic ∏ℓᵢ, not to the subdivided cell count."""
        ccs = [CC("v", Predicate.of(a=(0, 50)), 5), total_cc("v", 10)]
        cells = grid_partition(
            ("a",), {"a": Interval(0, 100)}, ccs, {"a": [10, 20, 99]}, cell_cap=2
        )
        assert [c.box["a"].lo for c in cells] == [0, 10, 20, 50, 99]
        assert sum(c.box["a"].width() for c in cells) == 100

    def test_cap_raises_grid_too_large(self):
        attrs = tuple(f"a{i}" for i in range(10))
        domain = {a: Interval(0, 100) for a in attrs}
        ccs = [CC("v", Predicate.of(**{a: (0, 50)}), 1) for a in attrs] + [
            total_cc("v", 100)
        ]
        with pytest.raises(GridTooLarge) as exc:
            grid_partition(attrs, domain, ccs, {}, cell_cap=100)
        assert exc.value.n_cells == 1024
