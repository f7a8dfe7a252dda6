import numpy as np
import pytest

from sfp.graph import BoxSpec, VertexOutOfBox, generate_box
from sfp.hierarchy import (Hierarchy, check_gap_paths_condition, decompose_paths,
                           validate_hierarchy)
from sfp.params import validate_params
from sfp.verify import forced_realization, toy_hierarchy


class TestValidate:
    def test_toy_example_is_valid(self):
        h = toy_hierarchy()
        assert validate_hierarchy(h, forced_realization(h.required_edges())) is None

    def test_missing_site_is_condition_1(self):
        h = toy_hierarchy()
        sites = dict(h.sites)
        del sites["0110"]
        v = validate_hierarchy(Hierarchy(depth=4, sites=sites),
                               forced_realization(h.required_edges()))
        assert v is not None and v.condition == 1

    def test_coincident_endpoints_is_condition_1(self):
        h = Hierarchy(depth=1, sites={"0": (0, 0), "1": (0, 0)})
        v = validate_hierarchy(h, forced_realization([]))
        assert v is not None and v.condition == 1

    def test_endpoint_chain_mutation_is_condition_2(self):
        h = toy_hierarchy()
        sites = dict(h.sites)
        sites["0011"] = (0, -6)
        v = validate_hierarchy(Hierarchy(depth=4, sites=sites),
                               forced_realization(h.required_edges()))
        assert v is not None and v.condition == 2
        assert "0011" in v.witness

    def test_start_chain_mutation_is_condition_2(self):
        h = toy_hierarchy()
        sites = dict(h.sites)
        sites["1100"] = (0, -6)
        v = validate_hierarchy(Hierarchy(depth=4, sites=sites),
                               forced_realization(h.required_edges()))
        assert str(v) == "condition 2 violated: z_1100 != z_110"

    def test_closed_edge_is_condition_3(self):
        h = toy_hierarchy()
        # Drop the top split edge {z_01, z_10} from the realization.
        edges = [e for e in h.required_edges() if e != ((-4, 3), (5, 5))]
        v = validate_hierarchy(h, forced_realization(edges))
        assert v is not None and v.condition == 3
        assert "z_01" in v.witness

    def test_first_closed_edge_in_key_order_is_reported(self):
        h = toy_hierarchy()
        v = validate_hierarchy(h, forced_realization([]))
        assert v.witness == "edge {z_01, z_10} = ((-4, 3), (5, 5)) is closed"
        # With the level-0 edge open, the next closed one is z_001 - z_010.
        v = validate_hierarchy(h, forced_realization([((-4, 3), (5, 5))]))
        assert str(v) == "condition 3 violated: edge {z_001, z_010} = ((-5, -3), (-2, 1)) is closed"

    def test_duplicate_edge_is_condition_4(self):
        h = toy_hierarchy()
        sites = dict(h.sites)
        sites["1001"] = (-5, -3)
        sites["1010"] = (-2, 1)  # now duplicates the {z_001, z_010} edge
        v = validate_hierarchy(Hierarchy(depth=4, sites=sites),
                               forced_realization(h.required_edges()))
        assert v is not None and v.condition == 4

    def test_nonsibling_coincidence_is_condition_5(self):
        h = toy_hierarchy()
        sites = dict(h.sites)
        sites["0110"] = (3, -3)  # collides with z_1101 across branches
        v = validate_hierarchy(Hierarchy(depth=4, sites=sites),
                               forced_realization(h.required_edges()))
        assert v is not None and v.condition == 5

    def test_site_outside_box_raises(self):
        h = toy_hierarchy()
        # An edge-free box {0..3}^2, which leaves out sites of the toy hierarchy.
        empty = generate_box(validate_params(2, 3.0, 1e-300, 2.5), 0, BoxSpec(d=2, side=4))
        with pytest.raises(VertexOutOfBox, match=r"^site z_0 = \(-5, -5\): coordinates "
                                                r"\[-5, -5\] outside box$"):
            validate_hierarchy(h, empty)


class TestDecompose:
    def test_toy_decomposes_into_the_five_listed_paths(self):
        paths = decompose_paths(toy_hierarchy())
        assert len(paths) == 5

        def eset(p):
            return frozenset(frozenset((a, b)) for a, b in zip(p[:-1], p[1:]))

        got = {eset(p) for p in paths}
        want = {
            eset([(-5, 2), (-2, 1), (-5, -3), (-3, -5)]),
            eset([(-4, 3), (5, 5)]),
            eset([(2, 3), (4, 1)]),
            eset([(6, 1), (2, -2)]),
            eset([(3, -3), (6, -4)]),
        }
        assert got == want

    def test_every_required_edge_covered_once_max_degree_two(self):
        h = toy_hierarchy()
        paths = decompose_paths(h)
        seen = []
        for p in paths:
            assert len(set(p)) == len(p)  # simple
            seen.extend(frozenset((a, b)) for a, b in zip(p[:-1], p[1:]))
        assert len(seen) == len(set(seen)) == len(h.required_edges())
        degree = {}
        for e in seen:
            for v in e:
                degree[v] = degree.get(v, 0) + 1
        assert max(degree.values()) == 2

    def test_depth_two_all_distinct_is_single_edge_path(self):
        h = Hierarchy(depth=2, sites={
            "0": (0, 0), "1": (30, 0),
            "00": (0, 0), "01": (10, 1), "10": (20, -1), "11": (30, 0)})
        paths = decompose_paths(h)
        assert paths == [[(10, 1), (20, -1)]]

    def test_no_degeneracies_gives_isolated_edges(self):
        h = Hierarchy(depth=3, sites={
            "0": (0, 0), "1": (40, 0),
            "00": (0, 0), "01": (15, 3), "10": (25, -3), "11": (40, 0),
            "000": (0, 0), "001": (5, 1), "010": (11, 2), "011": (15, 3),
            "100": (25, -3), "101": (30, 2), "110": (35, 1), "111": (40, 0)})
        paths = decompose_paths(h)
        assert len(paths) == len(h.required_edges()) == 3
        assert all(len(p) == 2 for p in paths)

    def test_duplicate_edges_rejected(self):
        h = toy_hierarchy()
        sites = dict(h.sites)
        sites["1001"] = (-5, -3)
        sites["1010"] = (-2, 1)
        with pytest.raises(ValueError, match="^required edges are not distinct \\(condition 4\\)$"):
            decompose_paths(Hierarchy(depth=4, sites=sites))


class TestGapPaths:
    def test_total_length_7_below_8_fails(self):
        h = Hierarchy(depth=3, sites={
            "0": (0, 0), "1": (20, 0),
            "00": (0, 0), "01": (8, 4), "10": (14, -2), "11": (20, 0),
            "000": (0, 0), "001": (3, -3), "010": (6, 5), "011": (8, 4),
            "100": (14, -2), "101": (16, 1), "110": (18, 2), "111": (20, 0)})
        gap_paths = {
            "00": [(0, 0), (3, -3)],
            "01": [(6, 5), (7, 7), (7, 6), (8, 4)],
            "10": [(14, -2), (16, 1)],
            "11": [(18, 2), (19, 3), (20, 0)],
        }
        assert check_gap_paths_condition(h, gap_paths) is False

    def test_total_length_8_passes(self):
        h = Hierarchy(depth=3, sites={
            "0": (0, 0), "1": (20, 0),
            "00": (0, 0), "01": (8, 4), "10": (14, -2), "11": (20, 0),
            "000": (0, 0), "001": (3, -3), "010": (6, 5), "011": (8, 4),
            "100": (14, -2), "101": (16, 1), "110": (18, 2), "111": (20, 0)})
        gap_paths = {
            "00": [(0, 0), (1, 7), (3, -3)],
            "01": [(6, 5), (7, 7), (8, 4)],
            "10": [(14, -2), (15, 7), (16, 1)],
            "11": [(18, 2), (19, 3), (20, 0)],
        }
        assert check_gap_paths_condition(h, gap_paths) is True

    def test_path_through_hierarchy_site_fails(self):
        h = Hierarchy(depth=2, sites={
            "0": (0, 0), "1": (10, 0),
            "00": (0, 0), "01": (4, 2), "10": (6, -2), "11": (10, 0)})
        gap_paths = {
            "0": [(0, 0), (6, -2), (4, 2)],   # passes through z_10 internally
            "1": [(6, -2), (7, 0), (8, 0), (9, 0), (10, 0)],
        }
        assert check_gap_paths_condition(h, gap_paths) is False

    def test_overlapping_paths_fail(self):
        h = Hierarchy(depth=2, sites={
            "0": (0, 0), "1": (10, 0),
            "00": (0, 0), "01": (4, 2), "10": (6, -2), "11": (10, 0)})
        shared = (5, 5)
        gap_paths = {
            "0": [(0, 0), shared, (1, 1), (4, 2)],
            "1": [(6, -2), shared, (9, 9), (10, 0)],
        }
        assert check_gap_paths_condition(h, gap_paths) is False

    def test_wrong_endpoint_raises(self):
        h = Hierarchy(depth=2, sites={
            "0": (0, 0), "1": (10, 0),
            "00": (0, 0), "01": (4, 2), "10": (6, -2), "11": (10, 0)})
        with pytest.raises(ValueError, match=r"^gap path for sigma = 0 must run from z_00 = "
                                             r"\(0, 0\) to z_01 = \(4, 2\)$"):
            check_gap_paths_condition(h, {"0": [(0, 0), (3, 3)],
                                          "1": [(6, -2), (10, 0)]})


def test_sites_are_integers_and_a_float_coordinate_is_refused():
    h = Hierarchy(depth=1, sites={"0": np.array([1, 2]), "1": (np.int64(3), 2 ** 70)})
    assert h.sites == {"0": (1, 2), "1": (3, 2 ** 70)}
    assert all(type(c) is int for z in h.sites.values() for c in z)
    with pytest.raises(ValueError, match=r"^site key '0': coordinates \(0\.7, 0\) "
                                         r"are not integers$"):
        Hierarchy(depth=1, sites={"0": (0.7, 0), "1": (1.9, 0)})
    h = Hierarchy(depth=2, sites={"0": (0, 0), "1": (2, 0), "00": (0, 0), "01": (1, 0),
                                  "10": (1, 0), "11": (2, 0)})
    with pytest.raises(ValueError, match=r"^gap path for sigma = 1: coordinates "
                                         r"\(1\.5, 0\) are not integers$"):
        check_gap_paths_condition(h, {"0": [(0, 0), (1, 0)], "1": [(1, 0), (1.5, 0), (2, 0)]})
