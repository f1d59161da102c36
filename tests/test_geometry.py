"""Exact geometric predicates and crossing counting.

Everything runs on rational coordinates, so every assertion here is exact;
there are no tolerances anywhere in this file.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from maxcross.errors import DegeneracyError
from maxcross.geometry import (
    COLLINEAR,
    LEFT,
    RIGHT,
    CrossingReport,
    GeometricDrawing,
    Point,
    count_crossings_geometric,
    crossing_total,
    degeneracy,
    drawing_from_text,
    drawing_to_text,
    orientation,
    point,
    segments_cross,
    validate_general_position,
)
from maxcross.graph import make_complete, make_cycle, make_graph
from maxcross.search import sample_regular_graph
from reference import general_drawings, halves, reference_report, reference_violation

coords = st.integers(min_value=-50, max_value=50)
points = st.builds(point, coords, coords)
rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))


@st.composite
def grid_points(draw):
    """3 to 30 int points on a grid of half-width 1 to 6 centred on the
    origin: dense collinearity, axis-parallel lines and negative
    coordinates; half the lists allow coincident points."""
    k = draw(st.integers(1, 6))
    n = draw(st.integers(3, 30))
    unique = draw(st.booleans())
    if unique:
        n = min(n, (2 * k + 1) ** 2 // 2)
    coordinate = st.integers(-k, k)
    return draw(st.lists(st.tuples(coordinate, coordinate),
                         min_size=n, max_size=n, unique=unique))


# As in the benchmark's rational drawing: |numerator| up to 10^6 over a
# denominator of 2..999, drawn for x and y separately.
large = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(2, 999))


@st.composite
def large_drawings(draw):
    """A random regular graph on 4..12 vertices at large rational points;
    half the drawings repeat a point or put one on the line through two
    others, at a rational parameter, so they break general position."""
    n = draw(st.integers(4, 12))
    d = draw(st.sampled_from([d for d in range(2, n) if n * d % 2 == 0]))
    graph = sample_regular_graph(n, d, random.Random(draw(st.integers(0, 2**32))))
    pts = [Point(draw(large), draw(large)) for _ in range(n)]
    if draw(st.booleans()):
        i, j, k = draw(st.permutations(range(n)))[:3]
        t = draw(st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(-5, 2)]))
        pts[k] = Point(pts[i].x + t * (pts[j].x - pts[i].x),
                       pts[i].y + t * (pts[j].y - pts[i].y))
    return GeometricDrawing(graph, tuple(pts))


def parabola(n: int) -> tuple[Point, ...]:
    return tuple(point(i, i * i) for i in range(n))


class TestOrientation:
    def test_left(self):
        assert orientation(point(0, 0), point(1, 0), point(0, 1)) == LEFT

    def test_right(self):
        assert orientation(point(0, 0), point(0, 1), point(1, 0)) == RIGHT

    def test_collinear(self):
        assert orientation(point(0, 0), point(1, 1), point(3, 3)) == COLLINEAR

    def test_rational_inputs(self):
        p = point(Fraction(1, 3), Fraction(1, 7))
        q = point(Fraction(2, 3), Fraction(2, 7))
        r = point(1, Fraction(3, 7))
        assert orientation(p, q, r) == COLLINEAR

    @given(points, points, points)
    def test_antisymmetry(self, p, q, r):
        assert orientation(p, q, r) == -orientation(p, r, q)


class TestSegmentsCross:
    def test_proper_crossing(self):
        assert segments_cross(point(0, 0), point(2, 2), point(0, 2), point(2, 0))

    def test_disjoint(self):
        assert not segments_cross(point(0, 0), point(1, 0), point(0, 1), point(1, 1))

    def test_shared_endpoint(self):
        assert not segments_cross(point(0, 0), point(1, 1), point(0, 0), point(1, 0))

    def test_collinear_raises(self):
        with pytest.raises(DegeneracyError):
            segments_cross(point(0, 0), point(2, 0), point(1, 0), point(1, 2))

    def test_endpoint_on_interior_raises(self):
        with pytest.raises(DegeneracyError):
            segments_cross(point(0, 0), point(2, 2), point(1, 1), point(5, 0))

    @given(points, points, points, points)
    @settings(max_examples=200)
    def test_symmetry(self, a1, a2, b1, b2):
        assume(len({a1, a2, b1, b2}) == 4)
        try:
            forward = segments_cross(a1, a2, b1, b2)
        except DegeneracyError:
            assume(False)
        assert segments_cross(b1, b2, a1, a2) == forward
        assert segments_cross(a2, a1, b1, b2) == forward
        assert segments_cross(a1, a2, b2, b1) == forward


class TestGeneralPosition:
    def test_parabola_is_general(self):
        d = GeometricDrawing(make_cycle(5), parabola(5))
        assert validate_general_position(d) is None

    def test_duplicate_detected(self):
        pts = (point(0, 0), point(1, 1), point(1, 2), point(0, 0))
        d = GeometricDrawing(make_cycle(4), pts)
        assert validate_general_position(d) == (0, 3)

    def test_collinear_detected(self):
        pts = (point(0, 0), point(1, 1), point(2, 2), point(0, 5))
        d = GeometricDrawing(make_cycle(4), pts)
        assert validate_general_position(d) == (0, 1, 2)
        # (0, 2, 3) is the first repeated direction from 0, but (0, 1, 4) comes first.
        pts = (point(0, 0), point(1, 0), point(0, 1), point(0, 2), point(2, 0))
        d = GeometricDrawing(make_cycle(5), pts)
        assert validate_general_position(d) == (0, 1, 4)

    @given(grid_points())
    @settings(max_examples=200, deadline=None)
    def test_first_violation_matches_orientation_scan(self, coords):
        # Non-integral Points, so the drawing's grid clears denominators: the
        # same on both axes, then a different one on each.
        for qx, qy in ((2, 2), (2, 3)):
            pts = [Point(Fraction(x, qx), Fraction(y, qy)) for x, y in coords]
            drawing = GeometricDrawing(make_cycle(len(pts)), tuple(pts))
            expected = reference_violation(pts)
            assert degeneracy(coords) == expected
            assert validate_general_position(drawing) == expected
            if expected is not None:
                with pytest.raises(DegeneracyError) as info:
                    count_crossings_geometric(drawing)
                assert str(info.value) == f"vertices {expected} violate general position"

    def test_non_rational_coordinate_rejected(self):
        pts = tuple(Point(float(i), float(i * i)) for i in range(4))
        d = GeometricDrawing(make_cycle(4), pts)
        for check in (validate_general_position, count_crossings_geometric):
            with pytest.raises(ValueError, match="not rational") as info:
                check(d)
            assert "\n" not in str(info.value)


class TestGrid:
    def test_int_positions_are_their_own_grid(self):
        drawing = GeometricDrawing(make_cycle(4), parabola(4))
        assert drawing.grid is drawing.positions
        parsed = drawing_from_text(drawing_to_text(drawing))
        assert parsed.grid is parsed.positions

    def test_each_axis_has_its_own_scale(self):
        pts = (point(Fraction(1, 3), Fraction(2, 7)),
               point(Fraction(-4, 3), Fraction(-1, 7)),
               point(Fraction(5, 3), Fraction(3, 7)))
        grid = GeometricDrawing(make_cycle(3), pts).grid
        assert grid == ((1, 2), (-4, -1), (5, 3))
        assert all(type(c) is int for p in grid for c in p)

    @given(general_drawings())
    @settings(max_examples=120, deadline=None)
    def test_sides_match_fraction_orientation(self, drawing):
        # Decided on the rational positions, so a grid that loses a sign fails here.
        pos = drawing.positions
        edges = drawing.graph.edges
        sides = drawing.sides
        assert sides.left == tuple(
            sum(1 << w for w in range(len(pos)) if orientation(pos[u], pos[v], pos[w]) == LEFT)
            for u, v in edges
        )
        assert sides.crossings == tuple(reference_report(drawing).per_edge.values())

    @given(large_drawings())
    @settings(max_examples=60, deadline=None)
    def test_large_rationals_match_references(self, drawing):
        expected = reference_violation(drawing.positions)
        assert validate_general_position(drawing) == expected
        if expected is None:
            assert count_crossings_geometric(drawing) == reference_report(drawing)
        else:
            with pytest.raises(DegeneracyError):
                count_crossings_geometric(drawing)


class TestCountCrossings:
    def test_convex_k4(self):
        report = count_crossings_geometric(
            GeometricDrawing(make_complete(4), parabola(4))
        )
        assert report.total == 1
        assert report.noncrossing == 2
        assert report.pair_count == 3
        assert report.per_edge[(0, 2)] == 1
        assert report.per_edge[(1, 3)] == 1
        assert report.per_edge[(0, 1)] == 0

    def test_pentagram(self):
        g = make_graph(5, 2, [(0, 2), (2, 4), (1, 4), (1, 3), (0, 3)])
        report = count_crossings_geometric(GeometricDrawing(g, parabola(5)))
        assert report.total == 5
        assert report.noncrossing == 0

    def test_degenerate_drawing_raises(self):
        pts = (point(0, 0), point(4, 0), point(2, 0), point(0, 5))
        with pytest.raises(DegeneracyError):
            count_crossings_geometric(GeometricDrawing(make_cycle(4), pts))

    def test_affine_invariance(self):
        # crossings depend only on orientation signs, preserved by any
        # orientation-preserving affine map
        g = make_complete(5)
        base = parabola(5)
        mapped = tuple(
            point(2 * p.x + 3 * p.y + 7, p.x + 2 * p.y - 4) for p in base
        )
        a = count_crossings_geometric(GeometricDrawing(g, base))
        b = count_crossings_geometric(GeometricDrawing(g, mapped))
        assert a.total == b.total
        assert a.per_edge == b.per_edge

    @given(general_drawings(), rationals, rationals, rationals, rationals, halves, halves)
    @settings(max_examples=60, deadline=None)
    def test_rational_affine_invariance(self, drawing, a, b, c, d, tx, ty):
        # a negative determinant mirrors every orientation, so each crossing
        # test flips both sides and keeps its verdict; the reflection
        # x -> -x is always checked besides the random map
        assume(a * d - b * c != 0)
        expected = count_crossings_geometric(drawing)
        pts = drawing.positions
        for mapped in (
            tuple(Point(a * p.x + b * p.y + tx, c * p.x + d * p.y + ty) for p in pts),
            tuple(Point(-p.x, p.y) for p in pts),
        ):
            assert count_crossings_geometric(GeometricDrawing(drawing.graph, mapped)) == expected

    @given(general_drawings())
    @settings(max_examples=120, deadline=None)
    def test_matches_pairwise_segments_cross(self, drawing):
        report = count_crossings_geometric(drawing)
        assert report == reference_report(drawing)
        assert crossing_total(drawing.grid, drawing.graph.edges) == report.total

    def test_report_consistency(self):
        report = count_crossings_geometric(
            GeometricDrawing(make_complete(6), parabola(6))
        )
        # K_6 has 45 non-adjacent edge pairs: 3 per 4-vertex subset
        assert report.pair_count == 45
        assert sum(report.per_edge.values()) == 2 * report.total


class TestFastTotal:
    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_matches_reference_counter(self, n):
        g = make_complete(n)
        pts = tuple((i, i * i) for i in range(n))
        drawing = GeometricDrawing(g, tuple(point(x, y) for x, y in pts))
        assert crossing_total(pts, g.edges) == count_crossings_geometric(drawing).total


class TestSerialization:
    def test_round_trip(self):
        d = GeometricDrawing(make_cycle(4), parabola(4))
        assert drawing_from_text(drawing_to_text(d)) == d

    def test_round_trip_rationals(self):
        pts = (
            point(Fraction(1, 3), 0),
            point(1, Fraction(-2, 7)),
            point(2, 5),
            point(Fraction(9, 2), Fraction(1, 2)),
        )
        d = GeometricDrawing(make_cycle(4), pts)
        text = drawing_to_text(d)
        assert "1 3" in text.splitlines()[2]
        assert drawing_from_text(text) == d

    @pytest.mark.parametrize(
        "fields, x",
        [("4 2", 2), ("3 -1", -3), ("-6 3", -2), ("3 2", Fraction(3, 2)), ("2 -4", Fraction(-1, 2))],
    )
    def test_integral_coordinates_parse_as_int(self, fields, x):
        text = drawing_to_text(GeometricDrawing(make_cycle(4), parabola(4)))
        text = text.replace("\n1 1 1 1\n", f"\n{fields} 1 1\n")
        parsed = drawing_from_text(text).positions[1].x
        assert parsed == x and type(parsed) is type(x)

    def test_round_trip_is_byte_identical(self):
        integer = GeometricDrawing(make_cycle(4), parabola(4))
        rational = GeometricDrawing(make_cycle(4), (
            point(Fraction(1, 3), 0), point(1, Fraction(-2, 7)),
            point(2, 5), point(Fraction(9, 2), Fraction(1, 2)),
        ))
        for drawing in (integer, rational):
            text = drawing_to_text(drawing, trailer="t")
            assert drawing_to_text(drawing_from_text(text), trailer="t") == text

    def test_trailer_ignored(self):
        d = GeometricDrawing(make_cycle(4), parabola(4))
        text = drawing_to_text(d, trailer="construction star 4 2")
        assert text.rstrip().endswith("# construction star 4 2")
        assert drawing_from_text(text) == d

    @pytest.mark.parametrize("edge", ["2 7"])
    def test_vertex_out_of_range(self, edge):
        text = drawing_to_text(GeometricDrawing(make_cycle(4), parabola(4)))
        text = text.replace("\n1 2\n", f"\n{edge}\n")
        with pytest.raises(ValueError, match=r"^bad edge \(2, 7\)$"):
            drawing_from_text(text)

    def test_zero_denominator(self):
        text = drawing_to_text(GeometricDrawing(make_cycle(4), parabola(4)))
        text = text.replace("\n1 1 1 1\n", "\n1 0 1 1\n")
        with pytest.raises(ValueError, match="^zero denominator in point line '1 0 1 1'$"):
            drawing_from_text(text)


class TestCrossingReport:
    def test_pair_count(self):
        report = CrossingReport(total=3, per_edge={e: 0 for e in make_cycle(6).edges},
                                noncrossing=6)
        assert report.pair_count == 9
