"""Crossing-count maximization: exhaustive convex oracle and random probes.

The convex oracle exploits one symmetry collapse: maximizing over pairs
(graph isomorphism class, convex order) equals maximizing over all labeled
d-regular graphs under the fixed identity order, because relabeling the
graph and reordering polygon slots are the same operation.  The stream of
labeled graphs is split into independent shards by the edge set at vertex
0, searched depth-first with an optimistic crossing bound, and merged
deterministically.

The same relabeling argument gives a second collapse: the 2n rotations and
reflections of the labels keep the count under the identity order, so one
labeling per dihedral orbit is enough.  A vertex v's forward pattern is
sorted((x - v) % n for x in N(v)) and its backward pattern
sorted((v - x) % n for x in N(v)); they are the neighbourhood of 0 after
relabeling by the rotation or the reflection that sends v to 0.  The search
keeps a graph only if sorted(N(0)) is lexicographically at most every
vertex's two patterns.  A saturated vertex's neighbourhood is final, so the
test cuts prefixes: _searched_stars drops the vertex-0 stars that fail it,
and the prune hook tests each vertex that a node's last edge saturated, at a
leaf both of its ends.  The witness is unchanged.  The lexicographically
least maximizer is the least member of its orbit, and the first d edges of
any relabeling join 0 to one vertex's forward or backward pattern, so it
passes.
The prune stays strict, so it is reached, and no graph before it in stream
order is a maximizer, so the strictly-greater merge still reports it, also
when some shards come from checkpoints written without this test.

At a shard's root, where vertex 0's star is just placed, the prune hook's
optimistic bound depends on the star alone.  So one pass before any search,
_searched_stars, decides each star by both rules, in the space its shard
walks (below): the dihedral one and this bound in closed form.  A star
that fails either holds no graph that reaches the floor: it gets no shard,
no pool task and no checkpoint file, and a file for it that an older run
wrote is ignored.  Every node searched and every result are the same as
when such a shard ended at its root.

Dense cells are searched through their complement H = K_n - G.  In convex
position every 4-set of points gives one crossing of K_n, so
cr(G) = C(n, 4) - (sum of c(e) over the edges e of H) + cr(H), where
c(e) counts the chords of K_n that cross the chord e (a row count of the
interleave masks).  When H's degree d' = n - 1 - d is positive and
2 d' < d, a shard walks H, which has far fewer edges: a rule on (n, d)
alone, _searches_complement.  Sorted edge lists of equal length compare by
the least edge in which they differ, which lies in exactly one of G and H,
so G1 < G2 exactly when H1 > H2, and the same holds for the neighbourhood
patterns.  So in H the dihedral test is reversed: keep H when vertex 0's H
pattern is lexicographically at least every vertex's two.  The kept H are
exactly the complements of the kept G, and the H stream runs in reverse G
order, so inside a shard a tie replaces the witness: the last H that
reaches the maximum is the lexicographically least G.  The bound on the
weight H's edges still owe misses the last edge's, so it is not exact one
edge before a leaf, and a leaf below best is cut explicitly.  Shards,
checkpoints and results stay in G terms.
"""

from __future__ import annotations

import contextlib
import os
import random
import signal
import time
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations, filterfalse
from math import comb
from operator import getitem
from typing import Any, Callable, Iterator, Optional, Sequence

from .constructions import ConvexOrder, crossings_convex, interleave_masks
from .errors import ResourceLimitError
from .formulas import best_known
from .geometry import GeometricDrawing, Point, crossing_total, degeneracy
from .graph import (
    Edge, RegularGraph, feasible, lex_fill, load_text, make_circulant,
    require_feasible, shard_prefixes, write_utf8,
)

SEARCH_CAP = 9
LONG_RUN_CAP = 12
PROBE_CAP = 100
# Switch attempts per edge in sample_regular_graph's chain.  One per edge
# leaves a visible bias in the triangle counts of cubic graphs on 8 vertices.
SWITCHES_PER_EDGE = 10
CHECKPOINT_HEADER = "ckpt v1"
# One shard record, from search to disk to merge: its run (n, d, shard index,
# prefix) and its outcome (best, witness or None, graphs examined).
ShardRun = tuple[int, int, int, tuple[Edge, ...]]
ShardOutcome = tuple[int, Optional[tuple[Edge, ...]], int]
# Seconds a convex_max call searches in-process before it may start workers.
# Starting and terminating a two-worker pool costs about 10 ms on a 2-core
# machine: a search that ends sooner than this never pays it, and a longer
# one at 2 workers ends at most about half of this later than a pool
# started at once would have.
POOL_AFTER_S = 0.025

MODE_CONVEX = "convex-exhaustive"
MODE_PERTURBATION = "perturbation"

# Previously reported maximum crossing numbers for 4 <= n <= 10.  Values the
# formulas disagree with get flagged as discrepancies instead of silently
# overwritten; currently that happens only at (10, 6).
REFERENCE_VALUES: dict[tuple[int, int], int] = {
    (5, 2): 5, (6, 2): 7, (7, 2): 14, (8, 2): 18, (9, 2): 27, (10, 2): 32,
    (4, 3): 1, (6, 3): 15, (8, 3): 38, (10, 3): 70,
    (5, 4): 5, (6, 4): 15, (7, 4): 35, (8, 4): 52, (9, 4): 81, (10, 4): 105,
    (6, 5): 15, (8, 5): 70, (10, 5): 150,
    (7, 6): 35, (8, 6): 70, (9, 6): 126, (10, 6): 133,
    (8, 7): 70, (10, 7): 210,
    (9, 8): 126, (10, 8): 210,
    (10, 9): 210,
}


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one maximization run.

    In convex mode, witness is the lexicographically least labeled graph
    attaining max_crossings under the identity convex order.  In
    perturbation mode it is the graph of the first trial whose sampled
    drawing reached max_crossings.  Everything except elapsed is
    deterministic for fixed arguments and seed.
    """

    n: int
    d: int
    max_crossings: int
    witness: RegularGraph
    graphs_examined: int
    elapsed: float
    mode: str


def _searches_complement(n: int, d: int) -> bool:
    """True when _search_shard walks the complement of cell (n, d): its
    degree n - 1 - d is positive and less than half of d."""
    spare = n - 1 - d
    return 0 < spare and 2 * spare < d


def _search_shard(n: int, d: int, prefix: tuple[Edge, ...], floor: int) -> ShardOutcome:
    """Depth-first search of one forced-prefix shard.

    Returns (best, witness edges or None, graphs examined).  The floor
    seeds pruning: branches whose optimistic completion cannot beat it are
    cut, while ties stay reachable, so the first graph attaining the final
    maximum in lexicographic stream order is always found.  Graphs examined
    counts the leaves the hook keeps: they keep the dihedral test (module
    docstring) and reach best, so a sharper bound lowers it.  The prefix is
    vertex 0's star in G.

    The walk is lex_fill over G, or over its complement H when
    _searches_complement(n, d) (module docstring), from vertex 0's star in
    that space; a complement witness is turned back into G.  Both spaces
    run the one hook below and differ only in its tables, which
    _search_cell builds once per cell and space and which start both walks
    from a base graph: the empty graph in G, K_n in H.  A shard builds only
    its prefix rows and own.  The objective starts at the base's crossings,
    each chord subtracts its weight, the base chords it crosses, and a lower
    bound on the weight still to pay is subtracted in the slack; in G all
    three are 0.  The pattern keys always describe G: they start as the
    base's and each chord XORs its bits in, or out in H, so comparing G's
    keys is the reversed test on H's.

    Every search node, the shard's root and the leaves included, is one call
    of the prune hook, which does the node's whole step itself: it places
    the node's last edge (its crossings with the placed edges, the placed
    set and the pattern keys), runs the dihedral test on the vertices that
    edge saturated, and cuts when no completion can beat best.  A leaf the
    hook keeps is yielded, and the loop below only reads its value.  The
    placed chords gain at most their residual capacity from the edges still
    to place, and the left edges still to place cross each other at most
    C(left, 2) times less the pairs of them that meet at a vertex.  The
    capacity is summed chord by chord and the pass stops once it reaches the
    slack; every term is nonnegative, so the cut is the same as with the
    whole sum.  At the shard's root this bound and the dihedral test depend
    on the star alone, and _searched_stars, the one decision on stars,
    decides both in the walked space, the bound in closed form from
    _search_cell's root bound and root terms; so convex_max never searches
    a shard that this hook cuts at its root.  A change to the bound must
    change that closed form with it; a test compares the two on every star
    the dihedral rule keeps with n <= 14.

    In G a tie keeps the first witness; in H, whose stream runs in reverse
    G order, a tie replaces it.  In G no leaf below best is reached, as the
    bound is exact one edge before a leaf; in H the hook cuts one.
    """
    complement = _searches_complement(n, d)
    (
        degree, m, full, star, owed_rows,
        masks, bits, pattern_bits, starts, _, _, weight, step, value, keys,
    ) = _search_cell(n, d, complement)
    # G's star at 0 fixes H's: the partners G leaves out
    walk_prefix = tuple(filterfalse(set(prefix).__contains__, star)) if complement else prefix
    # crossings[k] and placed[k]: the objective (G's crossing count once
    # complete) and the edge bitmask of the first k edges on the walk's
    # current path; owed[k]: twice the pairs of edges still to place that
    # meet at a vertex, plus each vertex's cheapest weight for its free
    # stubs, so the edges still to place cross each other at most
    # C(left, 2) - (owed[k] + 1) // 2 times more than they weigh;
    # patterns[k]: every vertex's two G pattern keys (_search_cell).
    # A row is written before it is read, except the prefix rows below.
    crossings = [value] * (m + 1)
    placed = [0] * (m + 1)
    owed = list(owed_rows)
    patterns = [keys] * (m + 1)

    # Star edges meet at 0 and cross nothing, chord (0, w) is at index w,
    # and the root's hook call places the last one.
    for k, (_, w) in enumerate(walk_prefix[:-1], 1):
        crossings[k] = crossings[k - 1] - weight[w]
        placed[k] = placed[k - 1] | bits[w]
        patterns[k] = patterns[k - 1] ^ pattern_bits[w]
    # Vertex 0's forward key in G, the one to beat: row 0 of the keys once
    # the whole star is placed (see _search_cell).
    own = (patterns[degree - 1] ^ pattern_bits[walk_prefix[-1][1]]) & full

    def prune(stack: list[Edge], remaining: list[int]) -> bool:
        k = len(stack)
        u, w = stack[-1]
        key = u * n + w
        current = crossings[k] = (
            crossings[k - 1] + (masks[key] & placed[k - 1]).bit_count() - weight[key]
        )
        chords = placed[k] = placed[k - 1] | bits[key]
        keys = patterns[k] = patterns[k - 1] ^ pattern_bits[key]
        at_u = remaining[u]
        at_w = remaining[w]
        if not at_u:
            row = keys >> 2 * n * u
            if row & full > own or row >> n & full > own:
                return True
        if not at_w:
            row = keys >> 2 * n * w
            if row & full > own or row >> n & full > own:
                return True
        # The new free-stub counts at_u and at_w index the steps they shed.
        lost = owed[k] = owed[k - 1] - step[at_u] - step[at_w]
        left = m - k
        slack = best - current - left * (left - 1) // 2 + (lost + 1) // 2
        if slack <= 0:
            return False
        # A leaf below best.  In G none is reached: one edge before it the
        # bound is exact (the pair term is 0 and each placed chord's
        # min(inside, outside) is 1 exactly when the last edge crosses it).
        # In H the last edge's weight is not in the bound, so it is cut here.
        if not left:
            return True
        # Residual capacity.  A future edge crosses chord (a, b) only with one
        # free stub strictly inside it and one strictly outside, so the chord
        # gains at most the smaller count.  By the lex_fill contract, with u
        # the first vertex with free stubs, every vertex below u is saturated
        # and every placed chord starts at or below u.  So a chord (a, b) with
        # b <= u has no free stub inside, one with b > u sees the stubs of
        # u..b-1 inside (u+1..b-1 when a == u) and those above b outside, and
        # a vertex b > u ends degree - remaining[b] placed chords.
        while not at_u:
            u += 1
            at_u = remaining[u]
        # bit b set: the chord (u, b) is placed
        from_u = chords >> starts[u] << u + 1
        inside = at_u
        outside = 2 * left - at_u
        capacity = 0
        for b in range(u + 1, n):
            at_b = remaining[b]
            outside -= at_b
            if not outside:
                return True
            ends = degree - at_b
            if ends:
                if from_u >> b & 1:
                    ends -= 1
                    rest = inside - at_u
                    capacity += rest if rest < outside else outside
                capacity += ends * (inside if inside < outside else outside)
                if capacity >= slack:
                    return False
            inside += at_b
        return True

    best = floor
    witness: Optional[tuple[Edge, ...]] = None
    examined = 0
    for edges in lex_fill(n, degree, walk_prefix, prune):
        current = crossings[m]
        examined += 1
        if current > best or current == best and (complement or witness is None):
            best = current
            witness = edges
    if complement and witness is not None:
        witness = RegularGraph._trusted(n, degree, witness).complement().edges
    return best, witness, examined


@lru_cache(maxsize=None)
def _search_cell(n: int, d: int, complement: bool) -> tuple[Any, ...]:
    """What _search_shard and _searched_stars derive from the cell and the
    space it walks alone, built once per (n, d, space) per process; callers
    only read it.  The space is the one _searches_complement picks at call
    time.

    Returns the walk's degree and edge count m, the n-bit row mask, the
    chords (0, 1), ..., (0, n - 1) at vertex 0, owed's rows for a shard
    (m + 1 of them; the prefix ones filled, the rest written before they are
    read), the interleave mask, bit and pattern bits of every chord (a, b)
    at index a * n + b, the index of chord (a, a + 1) at index a, the root
    bound and the root terms of _searched_stars (row j, column w: what chord
    (0, w) adds to the bound as vertex 0's j-th partner, its capacity less
    its weight), the weight of every chord, the step owed drops by when a
    vertex goes down to r free stubs at index r, and the objective and the
    pattern keys of the empty walk.  After the k-th star edge vertex 0 keeps
    degree - k stubs and the partner degree - 1, so owed drops by both
    steps, as in _search_shard's hook.

    Chord i of combinations(range(n), 2) is bit i of a chord set, so the
    chords (a, a + 1), ..., (a, n - 1) are consecutive bits.  A pattern, a
    sorted tuple of offsets in 1..n-1, is keyed by the sum of
    1 << (n - 1 - p) over its offsets p.  For patterns of equal size, a
    lexicographically smaller tuple has the larger key.  The keys of vertex
    v's forward and backward patterns sit in n-bit rows 2v and 2v + 1 of one
    integer, and a chord's pattern bits are its share of those four rows, so
    XOR-ing the bits of a graph's chords gives every vertex's two keys.

    Both spaces walk from a base graph whose crossings and keys the empty
    walk holds: the empty graph in G, K_n in H, whose walk removes H's
    chords.  A chord weighs the base chords it crosses, 0 in G and c(e) in
    H, and the objective starts at half the sum of the weights.  The edges
    at a vertex have distinct offsets y, so r of them weigh at least the r
    cheapest weights of the chords (0, y), and step r is 2r, twice the drop
    of C(r + 1, 2) to C(r, 2), plus the (r + 1)-th cheapest; each edge has
    two ends, so owed counts its weight twice.
    """
    chords = list(combinations(range(n), 2))
    # the base graph's chord set: all of K_n in H, none in G
    base = ((1 << len(chords)) - 1) * complement

    def key(v: int, row: int, offset: int) -> int:
        return 1 << (2 * v + row) * n + n - 1 - offset % n

    masks = [0] * (n * n)
    bits = [0] * (n * n)
    pattern_bits = [0] * (n * n)
    weight = [0] * (n * n)
    keys = 0
    for i, ((a, b), mask) in enumerate(zip(chords, interleave_masks(chords))):
        j = a * n + b
        masks[j] = mask
        bits[j] = 1 << i
        pattern_bits[j] = (
            key(a, 0, b - a) | key(b, 0, a - b) | key(a, 1, a - b) | key(b, 1, b - a)
        )
        weight[j] = (mask & base).bit_count()
        if base >> i & 1:
            keys ^= pattern_bits[j]
    starts = tuple(a * (2 * n - a - 1) // 2 for a in range(n))
    step = tuple(2 * r + c for r, c in enumerate(sorted(weight[1:n])))
    degree = n - 1 - d if complement else d
    m = n * degree // 2
    owed_rows = [n * sum(step[:degree])] * (m + 1)
    for k in range(1, degree):
        owed_rows[k] = owed_rows[k - 1] - step[degree - k] - step[degree - 1]
    star = tuple((0, w) for w in range(1, n))
    # The hook's bound at a shard's root (_searched_stars): the root places
    # the star's last chord, vertex 0 saturates and the partner keeps
    # degree - 1 stubs, and left = m - degree edges are still to place.
    lost = owed_rows[degree - 1] - step[0] - step[degree - 1]
    left = m - degree
    root_bound = sum(weight) // 2 + left * (left - 1) // 2 - (lost + 1) // 2
    root_terms = tuple(
        tuple(
            min(degree * (w - 1) - j, degree * (n - 2 - w) + 1 + j) - weight[w]
            for w in range(n)
        )
        for j in range(degree)
    )
    return (
        degree, m, (1 << n) - 1, star, tuple(owed_rows),
        tuple(masks), tuple(bits), tuple(pattern_bits), starts, root_bound, root_terms,
        tuple(weight), step, sum(weight) // 2, keys,
    )


def _checkpoint_path(directory: str, index: int) -> str:
    return os.path.join(directory, f"shard-{index}.ckpt")


def edges_token(edges: Optional[Sequence[Edge]]) -> str:
    """Edges as space-separated u-v tokens, "-" for none: witness lines, ckpt v1."""
    return " ".join(f"{u}-{v}" for u, v in edges) if edges else "-"


def _parse_edges_token(token: str) -> Optional[tuple[Edge, ...]]:
    """Inverse of edges_token, except that "-" reads back as None."""
    if token.strip() == "-":
        return None
    edges = []
    for item in token.split():
        u, v = item.split("-")
        edges.append((int(u), int(v)))
    return tuple(edges)


def write_shard_checkpoint(path: str, run: ShardRun, outcome: ShardOutcome) -> None:
    """Persist one finished shard in the ckpt v1 text format: run is
    (n, d, shard index, prefix) and outcome is _search_shard's
    (best, witness or None, examined)."""
    n, d, index, prefix = run
    best, witness, examined = outcome
    lines = [
        CHECKPOINT_HEADER,
        f"n {n}",
        f"d {d}",
        f"shard {index}",
        f"prefix {edges_token(prefix)}",
        f"examined {examined}",
        f"best {best}",
        f"witness {edges_token(witness)}",
    ]
    temporary = path + ".tmp"
    write_utf8(temporary, "\n".join(lines) + "\n")
    os.replace(temporary, path)


def load_shard_checkpoint(
    path: str, run: ShardRun, floor: int, upper: int
) -> ShardOutcome:
    """Read a ckpt v1 file and re-check it before it joins the merge.

    Returns the shard outcome (best, witness or None, examined) as
    _search_shard does.  The file must record this run, (n, d, shard index,
    prefix), and an examined count between 0 and C(C(n - 1, 2), m - d), the
    number of edge sets that can complete vertex 0's star.  A shard with a
    witness must have examined at least one graph, since the search counts a
    leaf before keeping it; the witness must be a valid graph extending the
    shard prefix, its convex recount must be the recorded best, and that best
    must lie within [floor, upper].  A shard without a witness can only
    record the floor; it is trusted, not re-checked: only searching it again
    could show that a better graph was dropped.  Raises ValueError naming the
    file on the first damage or mismatch, and the field when a value does not
    parse.
    """
    return load_text(path, "checkpoint", partial(_shard_from_text, run, floor, upper))


def _shard_from_text(run: ShardRun, floor: int, upper: int, text: str) -> ShardOutcome:
    lines = text.splitlines()
    if not lines or lines[0] != CHECKPOINT_HEADER:
        raise ValueError(f"missing '{CHECKPOINT_HEADER}' header")
    # key -> value of every non-blank line; a repeated key keeps its last value
    fields = dict(line.partition(" ")[::2] for line in lines[1:] if line.strip())

    def field(name: str, parse: Callable[[str], Any]) -> Any:
        if name not in fields:
            raise ValueError(f"missing field '{name}'")
        try:
            return parse(fields[name])
        except ValueError as exc:
            raise ValueError(f"bad field {name}") from exc

    n, d, index = (field(name, int) for name in ("n", "d", "shard"))
    prefix = field("prefix", _parse_edges_token)
    examined, best = field("examined", int), field("best", int)
    witness = field("witness", _parse_edges_token)
    if (n, d, index, prefix) != run:
        raise ValueError("belongs to a different run")
    if examined < 0:
        raise ValueError("negative examined count")
    most = comb(comb(n - 1, 2), n * d // 2 - d)
    if examined > most:
        raise ValueError(f"examined {examined} above the limit {most}")
    if witness is None:
        if best != floor:
            raise ValueError(f"best {best} without a witness")
        return best, witness, examined
    if not examined:
        raise ValueError("witness recorded with examined 0")
    try:
        graph = RegularGraph(n, d, witness)
    except ValueError as exc:
        raise ValueError(f"bad witness: {exc}") from exc
    if witness[: len(prefix)] != prefix:
        raise ValueError("witness does not extend the shard prefix")
    recount = crossings_convex(graph, ConvexOrder.identity(n)).total
    if recount != best:
        raise ValueError(f"best {best} but the witness has {recount} crossings")
    if not floor <= best <= upper:
        raise ValueError(f"best {best} outside the bounds [{floor}, {upper}]")
    return best, witness, examined


def _searched_stars(n: int, d: int, floor: int) -> list[tuple[int, tuple[Edge, ...]]]:
    """(index, prefix) of each shard_prefixes(n, d) star that can start a
    kept graph reaching the floor, in index order: the shards convex_max
    searches.  Every other star's shard holds no kept graph or would end at
    its root's hook call with outcome (floor, None, 0).

    Each star is decided once, in the space _searches_complement picks now:
    k is that space's degree and w_0 < ... < w_{k-1} vertex 0's partners
    there.  The dihedral rule drops a star S whose backward pattern
    sorted(n - w for w in S) is lexicographically below S: in the keys of
    _search_cell, whose backward key, the sum of 2^(w - 1) over S, is above
    its forward key, the sum of 2^(n - 1 - w).  A star's keys and its
    complement's add up to 2^(n - 1) - 1, so in H the comparison is reversed.
    The root bound keeps the star iff

        root_bound + sum over j of (capacity_j - weight[w_j]) >= floor,

    where root_bound is the start value plus C(m - k, 2) less half the
    weight owed once vertex 0 saturates, rounded up, and capacity_j =
    min(k (w_j - 1) - j, k (n - 2 - w_j) + 1 + j), the smaller of the free
    stubs strictly inside and strictly outside the chord (0, w_j).  Both
    come from _search_cell and must change together with the hook.  The
    capacity terms are nonnegative, so this is the hook's "slack <= 0 or
    capacity >= slack"; its capacity pass stops early only where every
    later term is 0.

    Keys and stars come off combinations streams in lexicographic order,
    and complementing the k-subsets of 1..n-1 reverses that order, so the
    walked star h in H is G's star C(n - 1, d) - 1 - h.
    """
    prefixes = shard_prefixes(n, d)
    complement = _searches_complement(n, d)
    cell = _search_cell(n, d, complement)
    degree, root_bound, root_terms = cell[0], cell[9], cell[10]
    offsets = range(1, n)
    backward = map(sum, combinations([1 << w - 1 for w in offsets], degree))
    forward = map(sum, combinations([1 << n - 1 - w for w in offsets], degree))
    # the dihedral rule keeps low <= high: backward <= forward in G, >= in H
    keys = (forward, backward) if complement else (backward, forward)
    need = floor - root_bound
    # row j of root_terms pairs with the j-th partner w of the star
    stars = combinations(offsets, degree)
    walked = [
        index
        for index, (star, low, high) in enumerate(zip(stars, *keys))
        if low <= high and sum(map(getitem, root_terms, star)) >= need
    ]
    if complement:
        last = len(prefixes) - 1
        walked = [last - index for index in reversed(walked)]
    return [(index, prefixes[index]) for index in walked]


def _pool_size(workers: int, tasks: int) -> int:
    """Worker processes to start: no more than asked for, cores or tasks."""
    return max(1, min(workers, os.cpu_count() or 1, tasks))


def convex_max(
    n: int,
    d: int,
    *,
    workers: int = 1,
    long_run: bool = False,
    checkpoint_dir: str | None = None,
) -> SearchResult:
    """Maximum of crossings_convex over every labeled d-regular graph.

    Work splits into one shard per edge set at vertex 0 that can hold a
    kept graph reaching the floor, the known lower bound: _searched_stars
    decides each star once, by the dihedral rule and by the prune hook's
    bound at the shard's root, which depends on the star alone.  Other
    stars get no shard, no pool task and no checkpoint file, and a file for
    one of them that an older run wrote is ignored.  Shards never share
    state, so results (witness and graphs_examined included) are identical
    for any worker count.  A shard's outcome (best, witness or None, examined) is the one record that
    is searched, written and merged.  With checkpoint_dir set, the ckpt v1
    files of those shards are read and re-checked by load_shard_checkpoint
    before any search starts, and their shards are not searched again; each
    searched shard is written as it is merged, in index order, so an
    interrupted run keeps every shard before the first unfinished one.

    Shards are searched in-process, in index order, until the call has run
    for POOL_AFTER_S seconds.  Only then, and only if _pool_size(workers,
    shards left) > 1, does it start one pool and hand it every shard still
    to search; so a run that ends sooner never pays for starting workers,
    and the in-process phase overruns POOL_AFTER_S by at most one shard.
    The rule reads elapsed time alone, never the cell.  Worst case: a
    search only a little longer than POOL_AFTER_S finishes about
    POOL_AFTER_S / 2 later at 2 workers than had it used the pool from the
    start.  Raises ValueError for workers < 1.
    """
    effective_cap = LONG_RUN_CAP if long_run else SEARCH_CAP
    if n > effective_cap:
        raise ResourceLimitError(
            f"n={n} exceeds search cap {effective_cap}"
            + ("" if long_run else f" (long-run mode raises the cap to {LONG_RUN_CAP})")
        )
    started = time.perf_counter()
    bounds = best_known(n, d)
    if workers < 1:
        raise ValueError(f"need workers >= 1, got {workers}")
    floor = bounds.lower
    shards = _searched_stars(n, d, floor)
    loaded: dict[int, ShardOutcome] = {}
    if checkpoint_dir is not None:
        os.makedirs(checkpoint_dir, exist_ok=True)
        for index, prefix in shards:
            path = _checkpoint_path(checkpoint_dir, index)
            if os.path.exists(path):
                run = (n, d, index, prefix)
                loaded[index] = load_shard_checkpoint(path, run, floor, bounds.upper)

    todo = [prefix for index, prefix in shards if index not in loaded]
    searched = 0
    computed: Optional[Iterator[ShardOutcome]] = None
    best_value = -1
    best_witness: Optional[tuple[Edge, ...]] = None
    examined_total = 0
    # Ctrl-C interrupts the parent alone; leaving the block terminates the workers.
    with contextlib.ExitStack() as open_pool:
        for index, prefix in shards:
            outcome = loaded.get(index)
            if outcome is None:
                if (
                    workers > 1 and computed is None
                    and time.perf_counter() - started >= POOL_AFTER_S
                ):
                    size = _pool_size(workers, len(todo) - searched)
                    if size > 1:
                        import multiprocessing  # loaded only by a run that starts a pool

                        pool = open_pool.enter_context(multiprocessing.Pool(
                            size, signal.signal, (signal.SIGINT, signal.SIG_IGN)
                        ))
                        search = partial(_search_shard, n, d, floor=floor)
                        computed = pool.imap(search, todo[searched:], chunksize=1)
                if computed is None:
                    outcome = _search_shard(n, d, prefix, floor)
                else:
                    outcome = next(computed)
                searched += 1
                if checkpoint_dir is not None:
                    path = _checkpoint_path(checkpoint_dir, index)
                    write_shard_checkpoint(path, (n, d, index, prefix), outcome)
            best, witness, examined = outcome
            examined_total += examined
            if witness is not None and best > best_value:
                best_value, best_witness = best, witness
    if best_witness is None:
        if loaded:
            raise ValueError(f"checkpoints in {checkpoint_dir} hold no witness")
        raise AssertionError("seeded lower bound was never attained")
    return SearchResult(
        n=n,
        d=d,
        max_crossings=best_value,
        witness=RegularGraph._trusted(n, d, best_witness),
        graphs_examined=examined_total,
        elapsed=time.perf_counter() - started,
        mode=MODE_CONVEX,
    )


def sample_regular_graph(n: int, d: int, rng: random.Random) -> RegularGraph:
    """Random labeled d-regular graph from a seeded double-edge switch chain.

    The chain starts from a circulant relabeled by a random permutation and
    runs a fixed number of switch attempts, so every call does bounded work.
    Its stationary distribution is uniform over labeled graphs, and the
    result is close to uniform, not exactly uniform.  Dense degrees are
    sampled through the complement, which keeps the chain short.
    """
    require_feasible(n, d)
    return RegularGraph(n, d, tuple(sorted(_sampled_edges(n, d, rng))))


def _sampled_edges(n: int, d: int, rng: random.Random) -> list[Edge]:
    """The edges of sample_regular_graph's draw, neither sorted nor checked:
    every pair for d = n - 1, the pairs a chain draw of degree n - 1 - d
    leaves out for a dense d, else the chain's own edges.  (n, d) must be
    feasible.  The probe scores these lists as they are."""
    if d == n - 1:
        return list(combinations(range(n), 2))
    if n - 1 - d < d:
        present = set(_sample_by_switching(n, n - 1 - d, rng))
        return [edge for edge in combinations(range(n), 2) if edge not in present]
    return _sample_by_switching(n, d, rng)


@lru_cache(maxsize=None)
def _circulant_edges(n: int, d: int) -> tuple[Edge, ...]:
    """Edges of the d-regular circulant that the switch chain starts from:
    offsets 1..d//2, and n/2 for odd d.  Built once per (n, d) per process."""
    offsets = list(range(1, d // 2 + 1)) + ([n // 2] if d % 2 else [])
    return make_circulant(n, offsets).edges


def _sample_by_switching(n: int, d: int, rng: random.Random) -> list[Edge]:
    """The edges (u, v), u < v, after SWITCHES_PER_EDGE * m attempts of the
    switch ab, ce -> ac, be, in the chain's own order.

    One draw picks an ordered pair of edge indices and an orientation of the
    second edge.  An attempt that would make a loop or a repeated edge is
    skipped, not retried.  Each switch and its reverse are proposed with the
    same probability, so the uniform distribution is stationary.
    """
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


COORDINATE_SPAN_FACTOR = 4


def sample_positions(n: int, rng: random.Random) -> tuple[tuple[int, int], ...]:
    """Integer points uniform in [0, 4n^2]^2, resampled to general position.

    Each coordinate, x before y and point by point, is drawn as
    rng.randint(0, 4n^2) draws it: getrandbits of the bit length of
    4n^2 + 1, drawn again while above 4n^2.  The stream is randint's, without
    its three calls per coordinate.
    """
    span = COORDINATE_SPAN_FACTOR * n * n
    bits = (span + 1).bit_length()
    getrandbits = rng.getrandbits
    while True:
        pts = []
        for _ in range(n):
            x = getrandbits(bits)
            while x > span:
                x = getrandbits(bits)
            y = getrandbits(bits)
            while y > span:
                y = getrandbits(bits)
            pts.append((x, y))
        if degeneracy(pts) is None:
            return tuple(pts)


def sample_drawing(graph: RegularGraph, rng: random.Random) -> GeometricDrawing:
    """Random general-position drawing of a graph with integer coordinates."""
    pts = sample_positions(graph.n, rng)
    return GeometricDrawing(graph, tuple(Point(x, y) for x, y in pts))


def perturbation_probe(n: int, d: int, trials: int, seed: int) -> SearchResult:
    """Best crossing count over random drawings of random regular graphs.

    A falsification probe, not a proof: placements are unconstrained (in
    particular non-convex), so any trial beating the convex oracle would
    refute the convex-position conjecture.  Each trial draws its graph from
    sample_regular_graph (a switch chain from a relabeled circulant, with a
    fixed number of steps, close to uniform rather than exactly uniform), so
    every trial does bounded work.  A trial scores the sampled edge list as
    the chain leaves it, unsorted and unchecked; only the witness becomes a
    validated RegularGraph, once, so it equals the graph
    sample_regular_graph returns for the same draws.  Deterministic for
    fixed seed.  Raises ResourceLimitError above PROBE_CAP vertices: a
    trial's general-position check is quadratic in n and its crossing count
    quadratic in m.
    """
    if n > PROBE_CAP:
        raise ResourceLimitError(f"n={n} exceeds probe cap {PROBE_CAP}")
    require_feasible(n, d)
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    started = time.perf_counter()
    rng = random.Random(seed)
    best = -1
    witness: list[Edge] = []
    for _ in range(trials):
        edges = _sampled_edges(n, d, rng)
        total = crossing_total(sample_positions(n, rng), edges)
        if total > best:
            best = total
            witness = edges
    return SearchResult(
        n=n,
        d=d,
        max_crossings=best,
        witness=RegularGraph(n, d, tuple(sorted(witness))),
        graphs_examined=trials,
        elapsed=time.perf_counter() - started,
        mode=MODE_PERTURBATION,
    )


@dataclass(frozen=True)
class TableEntry:
    """One cell of the reproduced value table.

    value is the best known (proven or conjectured) crossing number;
    reference the previously reported value when one exists.  status is
    proven, conjectured, or discrepancy (value and reference disagree).
    search_value is the convex oracle's confirmation when it was run.
    """

    n: int
    d: int
    value: int
    status: str
    reference: Optional[int]
    search_value: Optional[int]


TABLE_SEARCH_CAP = 8


def reproduce_table(max_n: int) -> list[TableEntry]:
    """Best-known values for every feasible (n, d) with 4 <= n <= max_n.

    Cells whose closed-form value contradicts the bundled reference value
    are flagged as discrepancies; with the current formulas that flags
    exactly (10, 6), where the construction gives 173 against the reported
    133.  Cells with n <= TABLE_SEARCH_CAP additionally run the convex
    oracle, which keeps the whole table under a second.
    """
    if not 4 <= max_n <= 10:
        raise ValueError(f"need 4 <= max_n <= 10, got {max_n}")
    entries = []
    for n in range(4, max_n + 1):
        for d in range(2, n):
            if not feasible(n, d):
                continue
            report = best_known(n, d)
            value = report.lower
            status = "proven" if report.exact else "conjectured"
            reference = REFERENCE_VALUES.get((n, d))
            if reference is not None and reference != value:
                status = "discrepancy"
            search_value = None
            if n <= TABLE_SEARCH_CAP:
                search_value = convex_max(n, d).max_crossings
            entries.append(TableEntry(n, d, value, status, reference, search_value))
    return entries
