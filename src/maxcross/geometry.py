"""Exact rational plane geometry for straight-line graph drawings.

Every decision is the sign of an exact cross product; no floating point
enters.  `orientation` and `segments_cross` decide on rational coordinates.
The kernel clears a drawing's denominators once, each axis by its own lcm
(its `grid`; a drawing whose coordinates are all ints is its own grid),
checks general position once on those ints and reads crossings and types
off one side table.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import NamedTuple, Optional, Sequence

from .errors import DegeneracyError
from .graph import Edge, RegularGraph, edge_lines, load_text, sized_body, write_utf8

DRAWING_FORMAT_HEADER = "drawing v1"

LEFT = 1
RIGHT = -1
COLLINEAR = 0


class Point(NamedTuple):
    """A point with exact rational coordinates: each an int or a Fraction.
    Parsed and constructed points keep an integral coordinate as an int."""

    x: int | Fraction
    y: int | Fraction


def _exact(value: Fraction) -> int | Fraction:
    """value itself, or its numerator when it is integral."""
    return value.numerator if value.denominator == 1 else value


def point(x, y) -> Point:
    """Build a Point of exact coordinates: each is coerced to a Fraction in
    lowest terms and kept as an int when it is integral."""
    return Point(_exact(Fraction(x)), _exact(Fraction(y)))


def orientation(p: Point, q: Point, r: Point) -> int:
    """Turn direction of the path p -> q -> r.

    Returns LEFT (+1) for a counterclockwise turn, RIGHT (-1) for clockwise,
    COLLINEAR (0) when the three points lie on one line.  The value is the
    sign of the cross product (q - p) x (r - p).
    """
    cross = (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)
    if cross > 0:
        return LEFT
    if cross < 0:
        return RIGHT
    return COLLINEAR


def segments_cross(a1: Point, a2: Point, b1: Point, b2: Point) -> bool:
    """True when the open segments a1-a2 and b1-b2 share an interior point.

    Segments that share an endpoint never count as crossing.  When all four
    endpoints are distinct, any collinear triple among them makes the
    proper-crossing question degenerate and raises DegeneracyError.
    """
    if a1 in (b1, b2) or a2 in (b1, b2):
        return False
    o1 = orientation(a1, a2, b1)
    o2 = orientation(a1, a2, b2)
    o3 = orientation(b1, b2, a1)
    o4 = orientation(b1, b2, a2)
    if 0 in (o1, o2, o3, o4):
        raise DegeneracyError(
            f"collinear endpoints among {a1}, {a2}, {b1}, {b2}"
        )
    return o1 != o2 and o3 != o4


@dataclass(frozen=True)
class GeometricDrawing:
    """A straight-line drawing: one position per vertex of a graph."""

    graph: RegularGraph
    positions: tuple[Point, ...]

    def __post_init__(self) -> None:
        if len(self.positions) != self.graph.n:
            raise ValueError(
                f"{self.graph.n} vertices but {len(self.positions)} positions"
            )

    @cached_property
    def grid(self) -> tuple[Point, ...]:
        """Int Points: x times the lcm a of the x denominators, y times the
        lcm b of the y denominators.  (x, y) -> (a x, b y) multiplies every
        cross product by a b > 0, so each orientation sign, collinear triple
        and coincident pair is kept, on smaller ints than one common scale.
        When every coordinate is an int, a = b = 1 and the grid is positions
        itself.  Non-rational coordinates raise ValueError."""
        if all(type(x) is int and type(y) is int for x, y in self.positions):
            return self.positions
        for c in (c for p in self.positions for c in p):
            if not isinstance(c, numbers.Rational):
                raise ValueError(f"coordinate {c!r} is not rational")
        a = math.lcm(*(p.x.denominator for p in self.positions))
        b = math.lcm(*(p.y.denominator for p in self.positions))
        return tuple(Point(p.x.numerator * (a // p.x.denominator),
                           p.y.numerator * (b // p.y.denominator))
                     for p in self.positions)

    @cached_property
    def sides(self) -> SideTable:
        """The edges' side table on the grid; needs general position."""
        violation = validate_general_position(self)
        if violation is not None:
            raise DegeneracyError(f"vertices {violation} violate general position")
        return side_table(self.grid, self.graph.edges)


def degeneracy(pts: Sequence[tuple[int, int]]) -> Optional[tuple[int, ...]]:
    """None for int points in general position, else the first violation:
    the lexicographically first coincident pair (i, j) or, failing that, the
    lexicographically first collinear triple (i, j, k).

    O(n^2) gcds and dict lookups: for each i in order, the later points
    sharing a reduced direction from i are collinear with it, and the least
    (j, k) over those classes completes the first triple through i.
    """
    n = len(pts)
    if len(set(pts)) != n:
        return next((i, j) for i, j in combinations(range(n), 2) if pts[i] == pts[j])
    for i in range(n):
        ax, ay = pts[i]
        first: dict[tuple[int, int], int] = {}
        best = None
        for k in range(i + 1, n):
            dx, dy = pts[k][0] - ax, pts[k][1] - ay
            g = math.gcd(dx, dy)
            if dx < 0 or (dx == 0 and dy < 0):
                g = -g
            j = first.setdefault((dx // g, dy // g), k)
            # A class's second member is the first repeat seen; keep the least j.
            if j != k and (best is None or j < best[0]):
                best = (j, k)
        if best is not None:
            return (i, *best)
    return None


def validate_general_position(drawing: GeometricDrawing) -> Optional[tuple[int, ...]]:
    """None when vertex positions are in general position, else the first
    violation: coincident vertices (i, j) or a collinear triple (i, j, k)."""
    return degeneracy(drawing.grid)


class SideTable(NamedTuple):
    left: tuple[int, ...]  # bitmask of the vertices left of edges[i] = (u, v), u -> v
    crossings: tuple[int, ...]  # number of edges crossing edges[i]


def side_table(pts: Sequence[tuple[int, int]], edges: Sequence[Edge]) -> SideTable:
    """Side table of edges over int points in general position (not checked).

    Non-adjacent edges cross iff each has its endpoints on opposite sides of
    the other's line; in O(n m) steps, straddle[i] marks the edges with one
    endpoint left of line i, left_of[u] ^ left_of[v] those separating u, v.
    With (dx, dy) = v - u, w is left of u -> v iff dx (y_w - y_u) exceeds
    dy (x_w - x_u), that is iff dx y_w - dy x_w exceeds the edge's constant
    dx y_u - dy x_u: an exact rearrangement, one comparison per vertex.
    """
    n = len(pts)
    xs, ys = zip(*pts)
    incident = [0] * n
    for j, (u, v) in enumerate(edges):
        bit = 1 << j
        incident[u] |= bit
        incident[v] |= bit
    left_of = [0] * n
    left, straddle = [], []
    for i, (u, v) in enumerate(edges):
        ux, uy = xs[u], ys[u]
        dx, dy = xs[v] - ux, ys[v] - uy
        c = dx * uy - dy * ux
        bit = 1 << i
        vertices = crossed = 0
        for w in range(n):
            if dx * ys[w] - dy * xs[w] > c:
                vertices |= 1 << w
                crossed ^= incident[w]
                left_of[w] |= bit
        left.append(vertices)
        straddle.append(crossed & ~(incident[u] | incident[v]))
    crossings = tuple([(s & (left_of[u] ^ left_of[v])).bit_count()
                       for s, (u, v) in zip(straddle, edges)])
    return SideTable(tuple(left), crossings)


@dataclass(frozen=True, eq=True)
class CrossingReport:
    """Exact crossing statistics of one drawing.

    total counts unordered crossing pairs of edges; per_edge maps each edge
    to the number of crossings on it; noncrossing counts the non-adjacent
    edge pairs that do not cross.  total + noncrossing always equals the
    number of non-adjacent edge pairs.
    """

    total: int
    per_edge: dict[Edge, int]
    noncrossing: int

    @property
    def pair_count(self) -> int:
        """Number of unordered pairs of non-adjacent edges."""
        return self.total + self.noncrossing


def count_crossings_geometric(drawing: GeometricDrawing) -> CrossingReport:
    """Count pairwise edge crossings of a general-position drawing.

    Reads the drawing's side table: O(n m) int cross products for n
    vertices and m edges.  Raises DegeneracyError, naming the first
    violation, unless the drawing is in general position.
    """
    graph = drawing.graph
    crossings = drawing.sides.crossings
    total = sum(crossings) // 2
    pairs = math.comb(len(graph.edges), 2) - graph.n * math.comb(graph.d, 2)
    return CrossingReport(total, dict(zip(graph.edges, crossings)), pairs - total)


def drawing_to_text(drawing: GeometricDrawing, trailer: str | None = None) -> str:
    """Serialize in the drawing v1 format.

    Coordinates are written as numerator/denominator pairs of the reduced
    fraction.  An optional trailer comment records construction parameters;
    parsers ignore comment lines.
    """
    lines = [DRAWING_FORMAT_HEADER]
    lines.append(f"{drawing.graph.n} {len(drawing.graph.edges)}")
    for p in drawing.positions:
        x, y = Fraction(p.x), Fraction(p.y)
        lines.append(f"{x.numerator} {x.denominator} {y.numerator} {y.denominator}")
    lines.extend(f"{u} {v}" for u, v in drawing.graph.edges)
    if trailer is not None:
        lines.append(f"# {trailer}")
    return "\n".join(lines) + "\n"


def drawing_from_text(text: str) -> GeometricDrawing:
    """Parse the drawing v1 format; comment lines are skipped.  A coordinate
    is an int when it is integral (4/2, 3/-1), else a Fraction in lowest
    terms."""
    n, m, body = sized_body(text, DRAWING_FORMAT_HEADER, "drawing")
    if len(body) != n + m:
        raise ValueError(f"expected {n} point and {m} edge lines, got {len(body)}")
    positions = []
    for line in body[:n]:
        try:
            xn, xd, yn, yd = map(int, line.split())
        except ValueError as exc:
            raise ValueError(f"bad point line {line!r}") from exc
        if xd == 0 or yd == 0:
            raise ValueError(f"zero denominator in point line {line!r}")
        positions.append(Point(_exact(Fraction(xn, xd)), _exact(Fraction(yn, yd))))
    edges = edge_lines(body[n:])
    if n and 2 * m % n:
        raise ValueError(f"edge list is not regular: {m} edges on {n} vertices")
    graph = RegularGraph(n, 2 * m // n if n else 0, edges)  # it refuses n < 3
    return GeometricDrawing(graph, tuple(positions))


def save_drawing(drawing: GeometricDrawing, path, trailer: str | None = None) -> None:
    write_utf8(path, drawing_to_text(drawing, trailer))


def load_drawing(path) -> GeometricDrawing:
    """Read a drawing v1 file; every ValueError names the file."""
    return load_text(path, "drawing", drawing_from_text)


def crossing_total(positions: Sequence[tuple[int, int]], edges: Sequence[Edge]) -> int:
    """Crossing total of int positions in general position (not checked):
    the side-table kernel for hot loops, without Points or a report."""
    return sum(side_table(positions, edges).crossings) // 2
