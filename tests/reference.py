"""Independent references and drawing strategies for the tests.

The geometric references decide everything with `orientation` and
`segments_cross` on the rational coordinates, pair by pair, so they share no
code with the integer side-table kernel they are compared against.  The
pairing sampler is the exactly uniform model the switch-chain sampler is
compared against.  The prune decision rebuilds the search's cut at one node
from the plain definitions: the stack-based residual capacity, the pairs of
future edges counted vertex by vertex, and the 2n rotations and reflections
applied to a saturated vertex's neighbourhood.  The dihedral predicate
relabels the whole graph under each of them, where the search reads
bit-packed neighbourhood patterns.  The complement search's decision counts
the chords of K_n that each edge of H = K_n - G crosses and reads G's
neighbourhoods off H's.
The recursive walk is the plain form of the iterative `lex_fill`.
"""

import random
from fractions import Fraction
from itertools import accumulate, combinations
from math import comb

from hypothesis import assume
from hypothesis import strategies as st

from maxcross.geometry import (
    COLLINEAR,
    CrossingReport,
    GeometricDrawing,
    Point,
    orientation,
    segments_cross,
)
from maxcross.graph import RegularGraph
from maxcross.search import sample_regular_graph

# Negative and positive, never integral: an odd numerator over an even denominator.
halves = st.builds(
    lambda a, b: Fraction(2 * a + 1, 2 * b), st.integers(-300, 300), st.integers(1, 6)
)


def reference_violation(pts):
    """First coincident pair, else first collinear triple, by Fraction orientation."""
    for i, j in combinations(range(len(pts)), 2):
        if pts[i] == pts[j]:
            return (i, j)
    for i, j, k in combinations(range(len(pts)), 3):
        if orientation(pts[i], pts[j], pts[k]) == COLLINEAR:
            return (i, j, k)
    return None


def reference_report(drawing):
    """CrossingReport decided pair by pair with the Fraction segments_cross."""
    pos = drawing.positions
    per_edge = dict.fromkeys(drawing.graph.edges, 0)
    total = noncrossing = 0
    for (a, b), (c, d) in combinations(drawing.graph.edges, 2):
        if len({a, b, c, d}) < 4:
            continue
        if segments_cross(pos[a], pos[b], pos[c], pos[d]):
            total += 1
            per_edge[(a, b)] += 1
            per_edge[(c, d)] += 1
        else:
            noncrossing += 1
    return CrossingReport(total=total, per_edge=per_edge, noncrossing=noncrossing)


def sample_by_pairing(n, d, rng):
    """Uniform labeled d-regular graph: shuffle n*d stubs, pair them in order,
    and start again on any loop or repeated edge.  The expected number of
    shuffles grows like exp(d^2 / 4), so keep d small."""
    stubs = [v for v in range(n) for _ in range(d)]
    while True:
        rng.shuffle(stubs)
        edges = set()
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            edge = (u, v) if u < v else (v, u)
            if u == v or edge in edges:
                break
            edges.add(edge)
        else:
            return RegularGraph(n, d, tuple(sorted(edges)))


def residual_capacity(stack, remaining):
    """Sum over the placed chords (a, b) of min(free stubs strictly inside,
    free stubs strictly outside), from prefix sums over every vertex."""
    below = list(accumulate(remaining, initial=0))
    total = below[-1]
    capacity = 0
    for a, b in stack:
        inside = below[b] - below[a + 1]
        outside = total - inside - remaining[a] - remaining[b]
        capacity += inside if inside < outside else outside
    return capacity


def interleave(chord, other):
    """True when two chords of the n-gon cross: their ends alternate."""
    (a, b), (c, e) = chord, other
    return a < c < b < e or c < a < e < b


def prune_decision(n, d, stack, remaining, best):
    """The convex search's cut at one node, rebuilt from the definitions.

    Cut when a vertex that the last edge saturated has a neighbourhood that
    some rotation or reflection sending it to 0 makes lexicographically
    smaller than vertex 0's own, or when the crossings of the placed chords,
    plus C(left, 2) less the pairs of future edges meeting at a vertex, plus
    the residual capacity stay below best.  Vertex 0 is saturated.
    """
    own = sorted(b for a, b in stack if a == 0)
    for v in stack[-1]:
        if remaining[v]:
            continue
        neighbours = [a + b - v for a, b in stack if v in (a, b)]
        for f in dihedral_maps(n):
            if f(v) == 0 and sorted(f(x) for x in neighbours) < own:
                return True
    current = sum(interleave(p, q) for p, q in combinations(stack, 2))
    left = n * d // 2 - len(stack)
    pairs = left * (left - 1) // 2 - sum(r * (r - 1) // 2 for r in remaining)
    slack = best - current - pairs
    return slack > 0 and residual_capacity(stack, remaining) < slack


def complement_prune_decision(n, d, stack, remaining, best):
    """The complement search's cut at one node, rebuilt from the definitions.

    stack and remaining are the walk's edges and free stubs in H = K_n - G,
    which has degree n - 1 - d.  A vertex the last edge saturated has its
    G-neighbourhood final, the other vertices it does not meet in H; cut when
    some rotation or reflection sending it to 0 makes that lexicographically
    smaller than vertex 0's.  A completion's G has C(n, 4) crossings, less
    the chords of K_n that cross each edge of H, plus the crossings of H.
    So the bound is that count on the placed edges, plus the future pairs
    and the residual capacity, less half the least weight each vertex's free
    stubs can take (its r cheapest edges at vertex 0), rounded up.  At a
    complete H the bound is its G's crossing count.
    """
    all_chords = list(combinations(range(n), 2))

    def weight(chord):
        return sum(interleave(chord, other) for other in all_chords)

    def g_neighbours(v):
        h = {a + b - v for a, b in stack if v in (a, b)}
        return [x for x in range(n) if x != v and x not in h]

    own = g_neighbours(0)
    for v in stack[-1]:
        if remaining[v]:
            continue
        for f in dihedral_maps(n):
            if f(v) == 0 and sorted(f(x) for x in g_neighbours(v)) < own:
                return True
    crossings = sum(interleave(p, q) for p, q in combinations(stack, 2))
    value = comb(n, 4) - sum(weight(e) for e in stack) + crossings
    left = n * (n - 1 - d) // 2 - len(stack)
    pairs = left * (left - 1) // 2 - sum(r * (r - 1) // 2 for r in remaining)
    cheapest = sorted(weight((0, y)) for y in range(1, n))
    owed = sum(sum(cheapest[:r]) for r in remaining)
    slack = best - value - pairs + (owed + 1) // 2
    return slack > 0 and residual_capacity(stack, remaining) < slack


def reference_walk(n, d, prefix=(), prune=None):
    """Sorted edge tuples of every labeled d-regular graph extending prefix,
    by plain recursion: fill the first vertex with free stubs from partners
    above its last partner, cut a node that has too few free partners left,
    and only then ask prune(stack, remaining).  A completed graph is asked
    too, and yielded unless cut."""
    remaining = [d] * n
    for u, v in prefix:
        remaining[u] -= 1
        remaining[v] -= 1
    stack = list(prefix)

    def visit():
        unsaturated = [v for v in range(n) if remaining[v]]
        if not unsaturated:
            if not (prune and prune(stack, remaining)):
                yield tuple(stack)
            return
        u = unsaturated[0]
        if stack and stack[-1][0] == u:
            start = stack[-1][1] + 1
        else:
            start = u + 1
        partners = [w for w in range(start, n) if remaining[w]]
        if len(partners) < remaining[u] or (prune and prune(stack, remaining)):
            return
        for w in partners:
            stack.append((u, w))
            remaining[u] -= 1
            remaining[w] -= 1
            yield from visit()
            remaining[w] += 1
            remaining[u] += 1
            stack.pop()

    yield from visit()


def dihedral_maps(n):
    """The 2n relabelings x -> (x + s) % n and x -> (s - x) % n, the
    rotations and reflections of the n-gon's labels."""
    rotations = [lambda x, s=s: (x + s) % n for s in range(n)]
    return rotations + [lambda x, s=s: (s - x) % n for s in range(n)]


def dihedral_relabelings(graph):
    """Sorted edge tuples of the graph under each of dihedral_maps."""
    return [
        tuple(sorted(tuple(sorted((f(a), f(b)))) for a, b in graph.edges))
        for f in dihedral_maps(graph.n)
    ]


def keeps_dihedral_representative(graph):
    """True when no rotation or reflection of the labels gives vertex 0 a
    lexicographically smaller sorted neighbourhood than it has now."""
    own = sorted(v for u, v in graph.edges if u == 0)
    for f in dihedral_maps(graph.n):
        images = [(f(a), f(b)) for a, b in graph.edges]
        # an edge at 0 has one end 0, so the sum of its ends is the other one
        if sorted(a + b for a, b in images if a == 0 or b == 0) < own:
            return False
    return True


@st.composite
def general_drawings(draw):
    """A random regular graph on 4..9 vertices, drawn in general position
    with negative and non-integral rational coordinates."""
    n = draw(st.integers(4, 9))
    d = draw(st.sampled_from([d for d in range(2, n) if n * d % 2 == 0]))
    graph = sample_regular_graph(n, d, random.Random(draw(st.integers(0, 2**32))))
    pts = tuple(Point(draw(halves), draw(halves)) for _ in range(n))
    assume(reference_violation(pts) is None)
    return GeometricDrawing(graph, pts)
