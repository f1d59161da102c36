"""Endvertex-type accounting used by the pair-counting upper bound.

The frozen profiles below were derived by hand from the drawings' cross
products before the module was written.
"""

import pickle
import random

import pytest
from hypothesis import given, settings

from maxcross.analysis import (
    endvertex_type,
    lemma_coverage_check,
    noncrossing_accounting,
    type_profile,
)
from maxcross.constructions import generalized_star
from maxcross.errors import DegeneracyError
from maxcross.formulas import min_noncrossing_pairs, upper_bound
from maxcross.geometry import GeometricDrawing, count_crossings_geometric, point
from maxcross.graph import make_circulant, make_complete, make_cycle
from maxcross.search import sample_drawing, sample_regular_graph
from reference import general_drawings


def parabola_drawing(graph):
    return GeometricDrawing(
        graph, tuple(point(i, i * i) for i in range(graph.n))
    )


class TestEndvertexType:
    def test_convex_k4_side_edge(self):
        # at vertex 0 of convex K_4, the hull edge (0,1) leaves both other
        # incident edges on one side
        drawing = parabola_drawing(make_complete(4))
        assert endvertex_type(drawing, (0, 1), 0) == 0

    def test_convex_k4_diagonal(self):
        # the diagonal (0,2) splits the remaining edges at vertex 0
        drawing = parabola_drawing(make_complete(4))
        assert endvertex_type(drawing, (0, 2), 0) == 1

    def test_bounded_by_max_type(self):
        drawing = generalized_star(10, 7)
        for edge in drawing.graph.edges:
            for endpoint in edge:
                assert 0 <= endvertex_type(drawing, edge, endpoint) <= 3

    def test_collinear_neighbors_raise(self):
        # vertices 0, 1, 2 are collinear and 1 is adjacent to both, so the
        # halfplane split at endpoint 1 of edge (1, 2) is undefined
        pts = (point(0, 0), point(4, 0), point(2, 0), point(0, 5))
        drawing = GeometricDrawing(make_cycle(4), pts)
        with pytest.raises(DegeneracyError):
            endvertex_type(drawing, (1, 2), 1)

    def test_endpoint_must_belong_to_edge(self):
        drawing = parabola_drawing(make_complete(4))
        with pytest.raises(ValueError):
            endvertex_type(drawing, (0, 1), 3)

    @pytest.mark.parametrize("edge", [(0, 2), (0, 9)])
    def test_edge_must_be_an_edge(self, edge):
        # a chord of C5, and a pair naming a vertex the drawing lacks
        drawing = parabola_drawing(make_cycle(5))
        with pytest.raises(ValueError) as caught:
            endvertex_type(drawing, edge, 0)
        assert str(caught.value) == f"{edge} is not an edge of the drawing"


class TestTypeProfile:
    def test_convex_k4(self):
        profile = type_profile(parabola_drawing(make_complete(4)))
        assert profile.max_type == 1
        assert profile.endpoint_counts == (8, 4)
        assert profile.edge_counts == {(0, 0): 4, (0, 1): 0, (1, 1): 2}
        assert profile.accounting == 4

    def test_pentagram(self):
        profile = type_profile(parabola_drawing(make_circulant(5, [2])))
        assert profile.max_type == 0
        assert profile.endpoint_counts == (10,)
        assert profile.accounting == 0

    def test_star_10_7(self):
        profile = type_profile(generalized_star(10, 7))
        assert profile.endpoint_counts == (20, 20, 20, 10)
        assert profile.accounting == 350

    def test_group_identities(self):
        # one sorted signature of d = 4 types per vertex, each type in 0..D
        profile = type_profile(generalized_star(9, 4))
        assert len(profile.vertex_profiles) == 9
        for signature in profile.vertex_profiles:
            assert len(signature) == 4
            assert signature == tuple(sorted(signature))
            assert 0 <= signature[0] <= signature[-1] <= profile.max_type

    def test_endpoint_sum_is_nd(self):
        profile = type_profile(generalized_star(8, 3))
        assert sum(profile.endpoint_counts) == 24
        assert sum(profile.edge_counts.values()) == 12


class TestCoverage:
    def test_star_drawings_satisfy_coverage(self):
        for n, d in [(5, 2), (9, 4), (10, 7), (8, 3)]:
            assert lemma_coverage_check(generalized_star(n, d)) is None

    def test_odd_degree_top_type_needs_one(self):
        # with d odd the top type D must occur once, not twice; d = 1 is
        # the extreme case: a single incident edge of type 0 suffices
        drawing = parabola_drawing(make_circulant(8, [4]))
        assert lemma_coverage_check(drawing) is None


class TestAccounting:
    def test_convex_k4(self):
        report = noncrossing_accounting(parabola_drawing(make_complete(4)))
        assert report.pair_count == 3
        assert report.noncrossing == 2
        assert report.accounting == 4
        assert report.crossings == 1
        assert report.crossings == report.pair_count - report.noncrossing
        assert report.accounting_bound_holds

    def test_star_10_7(self):
        report = noncrossing_accounting(generalized_star(10, 7))
        assert report.pair_count == 385
        assert report.noncrossing == 175
        assert report.accounting == 350
        assert report.crossings == 210

    def test_pentagram_thrackle(self):
        report = noncrossing_accounting(parabola_drawing(make_circulant(5, [2])))
        assert report.noncrossing == 0
        assert report.accounting == 0
        assert report.crossings == 5


class TestTypeProfileRoutes:
    @given(general_drawings())
    @settings(max_examples=120, deadline=None)
    def test_profile_matches_endvertex_types(self, drawing):
        # type_profile reads the side table; endvertex_type decides each
        # endpoint by its own orientation tests
        d = drawing.graph.d
        profile = type_profile(drawing)
        endpoint_counts = [0] * (profile.max_type + 1)
        edge_counts = dict.fromkeys(profile.edge_counts, 0)
        per_vertex = [[] for _ in range(drawing.graph.n)]
        accounting = 0
        for edge in drawing.graph.edges:
            tu, tv = (endvertex_type(drawing, edge, end) for end in edge)
            for end, t in zip(edge, (tu, tv)):
                endpoint_counts[t] += 1
                per_vertex[end].append(t)
            i, j = sorted((tu, tv))
            edge_counts[(i, j)] += 1
            accounting += i * (d - j - 1) + j * (d - i - 1)
        assert profile.endpoint_counts == tuple(endpoint_counts)
        assert profile.edge_counts == edge_counts
        assert profile.accounting == accounting
        assert profile.vertex_profiles == tuple(tuple(sorted(t)) for t in per_vertex)
        assert profile.coverage_gap() == lemma_coverage_check(drawing)

    def test_degenerate_profile_names_first_violation(self):
        pts = (point(0, 0), point(1, 1), point(2, 2), point(0, 5))
        drawing = GeometricDrawing(make_cycle(4), pts)
        with pytest.raises(DegeneracyError, match=r"vertices \(0, 1, 2\) violate"):
            type_profile(drawing)


class TestHeldProfile:
    """A drawing's profile is computed once and shared, read-only."""

    def test_same_profile_on_every_call(self):
        drawing = generalized_star(9, 4)
        profile = type_profile(drawing)
        assert type_profile(drawing) is profile
        fresh = GeometricDrawing(drawing.graph, drawing.positions)
        assert type_profile(fresh) == profile and type_profile(fresh) is not profile

    def test_accounting_and_coverage_read_the_held_profile(self, monkeypatch):
        import maxcross.analysis as analysis

        computed = []
        compute = analysis._compute_profile
        monkeypatch.setattr(analysis, "_compute_profile",
                            lambda drawing: computed.append(drawing) or compute(drawing))
        drawing = sample_drawing(sample_regular_graph(8, 3, random.Random(3)), random.Random(4))
        report = noncrossing_accounting(drawing)
        assert lemma_coverage_check(drawing) == type_profile(drawing).coverage_gap()
        assert report.accounting == type_profile(drawing).accounting
        assert computed == [drawing]

    def test_edge_counts_refuse_assignment(self):
        profile = type_profile(generalized_star(8, 3))
        with pytest.raises(TypeError):
            profile.edge_counts[(0, 0)] = 99
        assert profile.edge_counts[(0, 0)] != 99

    def test_pickles_with_its_drawing(self):
        drawing = generalized_star(9, 4)
        profile = type_profile(drawing)
        copy = pickle.loads(pickle.dumps(drawing))
        assert copy == drawing and type_profile(copy) == profile
        assert pickle.loads(pickle.dumps(profile)) == profile

    def test_degenerate_drawing_raises_on_every_call(self):
        pts = (point(0, 0), point(1, 1), point(2, 2), point(0, 5))
        drawing = GeometricDrawing(make_cycle(4), pts)
        for _ in range(3):
            with pytest.raises(DegeneracyError):
                type_profile(drawing)
        with pytest.raises(DegeneracyError):
            noncrossing_accounting(drawing)
        with pytest.raises(DegeneracyError):
            lemma_coverage_check(drawing)


class TestRandomCorpus:
    """Accounting invariants on random drawings of random regular graphs."""

    CORPUS = 60

    def test_invariants(self):
        rng = random.Random(20240811)
        pairs = [(5, 2), (6, 3), (7, 4), (8, 4), (9, 4), (10, 3)]
        for trial in range(self.CORPUS):
            n, d = pairs[trial % len(pairs)]
            drawing = sample_drawing(sample_regular_graph(n, d, rng), rng)
            report = noncrossing_accounting(drawing)
            profile = type_profile(drawing)
            assert report.crossings == report.pair_count - report.noncrossing
            assert report.accounting_bound_holds
            assert sum(profile.endpoint_counts) == n * d
            assert len(profile.vertex_profiles) == n
            assert report.accounting >= min_noncrossing_pairs(n, d)
            assert report.crossings <= upper_bound(n, d)
            assert lemma_coverage_check(drawing) is None
