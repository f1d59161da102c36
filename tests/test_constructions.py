"""Extremal drawings and convex-order crossing counting.

The combinatorial counter (chord interleaving) and the geometric counter
(orientation tests on actual coordinates) are implemented independently;
their agreement is checked exhaustively for n <= 6 and on samples above.
"""

from itertools import permutations
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxcross.constructions import (
    ConstructionParams,
    ConvexOrder,
    construction_params,
    convex_points,
    crossings_convex,
    drawing_from_order,
    generalized_star,
    star_like_deletion,
    star_like_even,
)
from maxcross.formulas import exact_odd, lower_bound_even, removal_count
from maxcross.geometry import count_crossings_geometric, point, validate_general_position
from maxcross.graph import (
    RegularGraph,
    connected_components,
    enumerate_labeled_regular,
    make_circulant,
    make_cycle,
)


class TestConvexOrder:
    def test_identity(self):
        assert ConvexOrder.identity(4).order == (0, 1, 2, 3)

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            ConvexOrder((0, 1, 1, 3))

    def test_slots_inverse(self):
        order = ConvexOrder((2, 0, 3, 1))
        slots = order.slots()
        for position, vertex in enumerate(order.order):
            assert slots[vertex] == position


class TestParams:
    def test_odd_pair(self):
        assert construction_params(10, 7) == ConstructionParams(10, 7, 2, 2)

    def test_even_pair(self):
        assert construction_params(10, 2) == ConstructionParams(10, 2, 4, 2)
        assert construction_params(8, 4) == ConstructionParams(8, 4, 2, 2)

    def test_both_odd_rejected(self):
        # n + d even but n, d odd fits neither construction family
        with pytest.raises(ValueError):
            construction_params(9, 3)

    def test_degree_range_rejected(self):
        with pytest.raises(ValueError, match=r"^need 2 <= d <= n-1, got d=8 for n=6$"):
            construction_params(6, 8)

    def test_gcd_field(self):
        params = construction_params(12, 4)
        assert params.k == 4 and params.g == gcd(12, 4)


class TestGeneralizedStar:
    @pytest.mark.parametrize("n,d", [(5, 2), (8, 3), (9, 4), (10, 7), (13, 6)])
    def test_regular_and_general_position(self, n, d):
        drawing = generalized_star(n, d)
        assert drawing.graph.d == d
        assert validate_general_position(drawing) is None

    def test_attains_closed_form(self):
        for n in range(4, 15):
            for d in range(2, n):
                if (n + d) % 2 == 0 or n * d % 2:
                    continue
                got = count_crossings_geometric(generalized_star(n, d)).total
                assert got == exact_odd(n, d), (n, d)

    def test_keeps_long_diagonals_only(self):
        k = construction_params(9, 4).k
        graph = generalized_star(9, 4).graph
        lengths = {min(v - u, 9 - (v - u)) for u, v in graph.edges}
        assert lengths == set(range(k, 5))

    def test_rejects_even_pair(self):
        with pytest.raises(ValueError):
            generalized_star(8, 4)


class TestStarLikeEven:
    def test_attains_closed_form_both_cases(self):
        for n in range(4, 15, 2):
            for d in range(2, n, 2):
                got = count_crossings_geometric(star_like_even(n, d)).total
                assert got == lower_bound_even(n, d), (n, d)

    @pytest.mark.parametrize("n,d", [(8, 2), (10, 2), (8, 4), (12, 4), (14, 6)])
    def test_regular(self, n, d):
        assert star_like_even(n, d).graph.d == d

    def test_deletion_removes_one_edge_per_vertex(self):
        for n, d in [(8, 2), (10, 2), (8, 4), (12, 6), (6, 2)]:
            base, removed = star_like_deletion(n, d)
            assert base.graph.d == d + 1
            assert len(removed) == n // 2
            degree_drop = [0] * n
            for u, v in removed:
                assert (u, v) in base.graph.edges
                degree_drop[u] += 1
                degree_drop[v] += 1
            assert degree_drop == [1] * n

    def test_degree_two_witness_structure(self):
        # the d = 2 instance realizes the extremal cycle mix: C_4 blocks
        # when 4 | n, one C_6 plus C_4 blocks when n = 2 mod 4
        sizes = sorted(len(c) for c in connected_components(star_like_even(8, 2).graph))
        assert sizes == [4, 4]
        sizes = sorted(len(c) for c in connected_components(star_like_even(6, 2).graph))
        assert sizes == [6]
        sizes = sorted(len(c) for c in connected_components(star_like_even(10, 2).graph))
        assert sizes == [4, 6]

    def test_rejects_mixed_parity(self):
        with pytest.raises(ValueError):
            star_like_even(9, 4)
        with pytest.raises(ValueError):
            star_like_even(8, 3)


class TestStepwiseDeletion:
    """Removing the length-k diagonals from the partial star drawing.

    The crossing-count drop equals n(k-1)(n-2k) for every k strictly below
    n/2.  At k = n/2 (even n only) the n/2 deleted diameters pairwise cross,
    so the drop is C(n/2, 2), which removal_count gives for that class.
    """

    @staticmethod
    def partial_star_total(n: int, j: int) -> int:
        # convex drawing keeping diagonals of cyclic lengths j..floor(n/2)
        if j > n // 2:
            return 0
        graph = make_circulant(n, range(j, n // 2 + 1))
        return count_crossings_geometric(
            drawing_from_order(graph, ConvexOrder.identity(n))
        ).total

    def test_identity_below_boundary(self):
        for n in range(4, 13):
            for k in range(2, (n + 1) // 2):
                drop = self.partial_star_total(n, k) - self.partial_star_total(n, k + 1)
                assert drop == removal_count(n, k), (n, k)

    def test_boundary_drop_is_diameter_crossings(self):
        for n in range(4, 13, 2):
            k = n // 2
            drop = self.partial_star_total(n, k) - self.partial_star_total(n, k + 1)
            assert drop == comb(n // 2, 2), n
            assert removal_count(n, k) == drop, n


class TestDualRouteAgreement:
    def test_exhaustive_small(self):
        # every labeled graph, both counters, identity order
        for n, d in [(4, 2), (4, 3), (5, 2), (5, 4), (6, 2), (6, 3)]:
            order = ConvexOrder.identity(n)
            for graph in enumerate_labeled_regular(n, d):
                combinatorial = crossings_convex(graph, order)
                geometric = count_crossings_geometric(drawing_from_order(graph, order))
                assert combinatorial.total == geometric.total
                assert combinatorial.noncrossing == geometric.noncrossing
                assert combinatorial.per_edge == geometric.per_edge

    @given(st.permutations(list(range(7))))
    @settings(max_examples=30, deadline=None)
    def test_random_orders_on_star(self, perm):
        graph = make_circulant(7, [2, 3])
        order = ConvexOrder(tuple(perm))
        combinatorial = crossings_convex(graph, order)
        geometric = count_crossings_geometric(drawing_from_order(graph, order))
        assert combinatorial.total == geometric.total
        assert combinatorial.per_edge == geometric.per_edge

    @given(st.integers(0, 2**30))
    @settings(max_examples=15, deadline=None)
    def test_random_graphs_n8(self, seed):
        import random

        from maxcross.search import sample_regular_graph

        rng = random.Random(seed)
        graph = sample_regular_graph(8, rng.choice([3, 4, 5]), rng)
        order = ConvexOrder(tuple(rng.sample(range(8), 8)))
        combinatorial = crossings_convex(graph, order)
        geometric = count_crossings_geometric(drawing_from_order(graph, order))
        assert combinatorial.total == geometric.total


class TestConvexPoints:
    def test_int_parabola_points(self):
        pts = convex_points(9)
        assert pts == tuple(point(i, i * i) for i in range(9))
        assert all(type(c) is int for p in pts for c in p)

    def test_strictly_convex_position(self):
        pts = convex_points(12)
        drawing_graph = make_cycle(12)
        assert len(set(pts)) == 12
        assert validate_general_position(
            drawing_from_order(drawing_graph, ConvexOrder.identity(12))
        ) is None

    def test_crossings_convex_matches_thrackled_cycle(self):
        graph = make_circulant(5, [2])
        report = crossings_convex(graph, ConvexOrder.identity(5))
        assert report.total == 5
        assert report.noncrossing == 0
