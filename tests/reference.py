"""Independent references and drawing strategies for the tests.

The geometric references decide everything with `orientation` and
`segments_cross` on the rational coordinates, pair by pair, so they share no
code with the integer side-table kernel they are compared against.  The
pairing sampler is the exactly uniform model the switch-chain sampler is
compared against, and the spelled-out switch chain the exact stream it must
draw.  The prune decision rebuilds the search's cut at one node
from the plain definitions: the stack-based residual capacity, the pairs of
future edges counted vertex by vertex, and the 2n rotations and reflections
applied to a saturated vertex's neighbourhood.  The dihedral predicate
relabels the whole graph under each of them, where the search reads
bit-packed neighbourhood patterns.  In the complement search the same
decision counts the chords of K_n that each edge of H = K_n - G crosses and
reads G's neighbourhoods off H's.
The recursive walk is the plain form of the iterative `lex_fill`.  The star
rule sorts each vertex-0 star's backward pattern and compares tuples, where
the search compares two integer keys.
"""

import random
from fractions import Fraction
from itertools import accumulate, combinations

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
from maxcross.search import SWITCHES_PER_EDGE, _circulant_edges, sample_regular_graph

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
    edges = drawing.graph.edges
    per_edge = [0] * len(edges)
    total = noncrossing = 0
    for i, j in combinations(range(len(edges)), 2):
        (a, b), (c, d) = edges[i], edges[j]
        if len({a, b, c, d}) < 4:
            continue
        if segments_cross(pos[a], pos[b], pos[c], pos[d]):
            total += 1
            per_edge[i] += 1
            per_edge[j] += 1
        else:
            noncrossing += 1
    return CrossingReport(total=total, per_edge=tuple(per_edge), noncrossing=noncrossing)


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


def reference_switch_chain(n, d, rng):
    """The switch chain with each refusal spelled out: four endpoint
    comparisons, then one membership test per new edge, the keys ordered by
    a comparison each.  The sampler must return the same edges and leave rng
    in the same state."""
    label = list(range(n))
    rng.shuffle(label)
    edges = []
    for u, v in _circulant_edges(n, d):
        u, v = label[u], label[v]
        edges.append((u, v) if u < v else (v, u))
    # the edge (u, v), u < v, is the key u * n + v
    present = {u * n + v for u, v in edges}
    m = len(edges)
    span = 2 * m
    total = span * m
    bits = total.bit_length()
    getrandbits = rng.getrandbits
    for _ in range(SWITCHES_PER_EDGE * m):
        # uniform below 2 m^2 by rejection, as randrange draws, minus its call overhead
        draw = getrandbits(bits)
        while draw >= total:
            draw = getrandbits(bits)
        i, rest = divmod(draw, span)
        j, flip = divmod(rest, 2)
        a, b = edges[i]
        c, e = edges[j]
        if flip:
            c, e = e, c
        if a == c or a == e or b == c or b == e:
            continue
        first = a * n + c if a < c else c * n + a
        second = b * n + e if b < e else e * n + b
        if first in present or second in present:
            continue
        present.remove(a * n + b)
        present.remove(c * n + e if c < e else e * n + c)
        present.add(first)
        present.add(second)
        edges[i] = divmod(first, n)
        edges[j] = divmod(second, n)
    return edges


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


def prune_decision(n, d, stack, remaining, best, complement=False):
    """The convex search's cut at one node, rebuilt from the definitions.

    stack and remaining are the walk's edges and free stubs, in G or, with
    complement, in H = K_n - G, of degree n - 1 - d.  The walk starts from
    a base graph, the empty graph in G and K_n in H: an edge of G adds its
    chord, an edge of H removes it.  A vertex the last edge saturated has its
    G-neighbourhood final; cut when some rotation or reflection sending it
    to 0 makes that lexicographically smaller than vertex 0's.  A
    completion's G has the base's crossings, less the base chords that cross
    each walked edge, plus the crossings of the walked edges.  So the bound
    is that count on the placed edges, plus C(left, 2) less the pairs of
    future edges meeting at a vertex, plus the residual capacity, less half
    the least weight each vertex's free stubs can take (its r cheapest edges
    at vertex 0), rounded up; in G every weight is 0.  Cut when it stays
    below best.  Vertex 0 is saturated.
    """
    base = list(combinations(range(n), 2)) if complement else []

    def weight(chord):
        return sum(interleave(chord, other) for other in base)

    def g_neighbours(v):
        walked = {a + b - v for a, b in stack if v in (a, b)}
        return [x for x in range(n) if x != v and (x in walked) != complement]

    own = g_neighbours(0)
    for v in stack[-1]:
        if remaining[v]:
            continue
        for f in dihedral_maps(n):
            if f(v) == 0 and sorted(f(x) for x in g_neighbours(v)) < own:
                return True
    base_crossings = sum(interleave(p, q) for p, q in combinations(base, 2))
    crossings = sum(interleave(p, q) for p, q in combinations(stack, 2))
    value = base_crossings - sum(weight(e) for e in stack) + crossings
    left = n * (n - 1 - d if complement else d) // 2 - len(stack)
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


def kept_stars_by_tuples(n, d):
    """(index, star) of each vertex-0 star, in lexicographic order, whose
    backward pattern sorted(n - w for w in N(0)) is lexicographically at
    least its forward one, N(0) itself; the star is the tuple of its edges."""
    kept = []
    for index, combo in enumerate(combinations(range(1, n), d)):
        if tuple(sorted(n - w for w in combo)) >= combo:
            kept.append((index, tuple((0, w) for w in combo)))
    return kept


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
