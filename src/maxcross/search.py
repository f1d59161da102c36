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
test cuts prefixes: convex_max skips the vertex-0 stars that fail it, and
the prune hook tests each vertex that a node's last edge saturated, at a
leaf both of its ends.  The witness is unchanged.  The lexicographically
least maximizer is the least member of its orbit, and the first d edges of
any relabeling join 0 to one vertex's forward or backward pattern, so it
passes.
The prune stays strict, so it is reached, and no graph before it in stream
order is a maximizer, so the strictly-greater merge still reports it, also
when some shards come from checkpoints written without this test.

Dense cells are searched through their complement H = K_n - G.  In convex
position every 4-set of points gives one crossing of K_n, so
cr(G) = C(n, 4) - (sum of c(e) over the edges e of H) + cr(H), where
c(e) = (k - 1)(n - k - 1) counts the chords of K_n that cross a chord e
spanning k = b - a steps.  When H's degree d' = n - 1 - d is positive and
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
import multiprocessing
import os
import random
import signal
import time
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations
from math import comb
from typing import Any, Callable, Optional, Sequence

from .constructions import ConvexOrder, crossings_convex, interleave_masks
from .errors import ResourceLimitError
from .formulas import best_known
from .geometry import GeometricDrawing, Point, crossing_total, degeneracy
from .graph import (
    Edge, RegularGraph, feasible, lex_fill, make_circulant, read_utf8, shard_prefixes
)

SEARCH_CAP = 9
LONG_RUN_CAP = 12
PROBE_CAP = 100
# Switch attempts per edge in sample_regular_graph's chain.  One per edge
# leaves a visible bias in the triangle counts of cubic graphs on 8 vertices.
SWITCHES_PER_EDGE = 10
CHECKPOINT_HEADER = "ckpt v1"

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


def _search_shard(
    n: int, d: int, prefix: tuple[Edge, ...], floor: int
) -> tuple[int, Optional[tuple[Edge, ...]], int]:
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
    run the one hook below and differ only in its tables (_space_tables).
    In H the objective starts at C(n, 4) and each chord subtracts its
    weight c(e), and a lower bound on the weight still to pay is subtracted
    in the slack; in G both are 0.  The pattern keys always describe G: in
    H they start as K_n's and each chord removes its bits, so comparing G's
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
    whole sum.

    In G a tie keeps the first witness; in H, whose stream runs in reverse
    G order, a tie replaces it.  In G no leaf below best is reached, as the
    bound is exact one edge before a leaf; in H the hook cuts one.
    """
    masks, bits, pattern_bits, starts = _chord_tables(n)
    complement = _searches_complement(n, d)
    degree, weight, step, value, keys = _space_tables(n, d, complement)
    if complement:
        # G's star at 0 fixes H's: the partners G leaves out
        taken = {w for _, w in prefix}
        walk_prefix = tuple((0, w) for w in range(1, n) if w not in taken)
    else:
        walk_prefix = prefix
    m = n * degree // 2
    full = (1 << n) - 1
    # crossings[k] and placed[k]: the objective (G's crossing count once
    # complete) and the edge bitmask of the first k edges on the walk's
    # current path; owed[k]: twice the pairs of edges still to place that
    # meet at a vertex, plus each vertex's cheapest weight for its free
    # stubs, so the edges still to place cross each other at most
    # C(left, 2) - (owed[k] + 1) // 2 times more than they weigh;
    # patterns[k]: every vertex's two G pattern keys (_chord_tables).
    crossings = [value] * (m + 1)
    placed = [0] * (m + 1)
    owed = [0] * (m + 1)
    patterns = [keys] * (m + 1)

    # After the k-th star edge vertex 0 keeps degree - k stubs and the partner
    # degree - 1, so owed drops by both steps, as in prune below.  Star edges
    # meet at 0 and cross nothing, chord (0, w) is at index w, and the root's
    # hook call places the last one.
    owed[0] = n * sum(step[:degree])
    for k, (_, w) in enumerate(walk_prefix[:-1], 1):
        crossings[k] = crossings[k - 1] - weight[w]
        placed[k] = placed[k - 1] | bits[w]
        patterns[k] = patterns[k - 1] ^ pattern_bits[w]
        owed[k] = owed[k - 1] - step[degree - k] - step[degree - 1]
    # Vertex 0's forward key, the one to beat (see _chord_tables).
    own = sum(1 << n - 1 - w for _, w in prefix)

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
        dropped = set(witness)
        witness = tuple(e for e in combinations(range(n), 2) if e not in dropped)
    return best, witness, examined


@lru_cache(maxsize=None)
def _space_tables(
    n: int, d: int, complement: bool
) -> tuple[int, tuple[int, ...], tuple[int, ...], int, int]:
    """What _search_shard's hook reads for cell (n, d) beyond _chord_tables:
    (the walk's degree, the weight of each chord at index a * n + b, the step
    owed drops by when a vertex goes down to r free stubs at index r, the
    objective and the pattern keys of the empty walk), built once per cell
    and space per process.

    In G the weights are 0 and step r is 2r, twice the drop of C(r + 1, 2)
    to C(r, 2).  In H chord (a, b) weighs c(e) = (k - 1)(n - k - 1), k =
    b - a, the chords of K_n it crosses.  The edges at a vertex have distinct
    offsets y, so r of them weigh at least the r cheapest c(0, y), and step r
    adds the (r + 1)-th cheapest; each edge has two ends, so owed counts its
    weight twice.  The empty H stands for K_n: C(n, 4) crossings and every
    offset in every pattern.
    """
    if not complement:
        return d, (0,) * (n * n), tuple(range(0, 2 * n, 2)), 0, 0
    weight = [0] * (n * n)
    for a, b in combinations(range(n), 2):
        weight[a * n + b] = (b - a - 1) * (n - b + a - 1)
    step = tuple(2 * r + c for r, c in enumerate(sorted(weight[1:n])))
    # offsets 1..n-1 are key bits n-2..0, in each of the 2n rows
    rows = (1 << n - 1) - 1
    keys = sum(rows << row * n for row in range(2 * n))
    return n - 1 - d, tuple(weight), step, comb(n, 4), keys


@lru_cache(maxsize=None)
def _chord_tables(
    n: int,
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Interleave mask, bit and pattern bits of every chord (a, b) of the
    n-gon at index a * n + b, and the index of chord (a, a + 1) at index a,
    built once per n per process; callers only read them.

    Chord i of combinations(range(n), 2) is bit i of a chord set, so the
    chords (a, a + 1), ..., (a, n - 1) are consecutive bits.  A pattern, a
    sorted tuple of offsets in 1..n-1, is keyed by the sum of
    1 << (n - 1 - p) over its offsets p.  For patterns of equal size, a
    lexicographically smaller tuple has the larger key.  The keys of vertex
    v's forward and backward patterns sit in n-bit rows 2v and 2v + 1 of one
    integer, and a chord's pattern bits are its share of those four rows, so
    OR-ing the bits of a graph's chords gives every vertex's two keys.
    """
    chords = list(combinations(range(n), 2))

    def key(v: int, row: int, offset: int) -> int:
        return 1 << (2 * v + row) * n + n - 1 - offset % n

    masks = [0] * (n * n)
    bits = [0] * (n * n)
    pattern_bits = [0] * (n * n)
    for i, ((a, b), mask) in enumerate(zip(chords, interleave_masks(chords))):
        masks[a * n + b] = mask
        bits[a * n + b] = 1 << i
        pattern_bits[a * n + b] = (
            key(a, 0, b - a) | key(b, 0, a - b) | key(a, 1, a - b) | key(b, 1, b - a)
        )
    starts = tuple(a * (2 * n - a - 1) // 2 for a in range(n))
    return tuple(masks), tuple(bits), tuple(pattern_bits), starts


def _checkpoint_path(directory: str, index: int) -> str:
    return os.path.join(directory, f"shard-{index}.ckpt")


def _edges_token(edges: Optional[Sequence[Edge]]) -> str:
    return " ".join(f"{u}-{v}" for u, v in edges) if edges else "-"


def _parse_edges_token(token: str) -> Optional[tuple[Edge, ...]]:
    """Inverse of _edges_token, except that "-" reads back as None."""
    if token.strip() == "-":
        return None
    edges = []
    for item in token.split():
        u, v = item.split("-")
        edges.append((int(u), int(v)))
    return tuple(edges)


def write_shard_checkpoint(
    path: str,
    run: tuple[int, int, int, tuple[Edge, ...]],
    outcome: tuple[int, Optional[tuple[Edge, ...]], int],
) -> None:
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
        f"prefix {_edges_token(prefix)}",
        f"examined {examined}",
        f"best {best}",
        f"witness {_edges_token(witness)}",
    ]
    temporary = path + ".tmp"
    with open(temporary, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")
    os.replace(temporary, path)


def load_shard_checkpoint(
    path: str, run: tuple[int, int, int, tuple[Edge, ...]], floor: int, upper: int
) -> tuple[int, Optional[tuple[Edge, ...]], int]:
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
    lines = read_utf8(path, "checkpoint").splitlines()
    if not lines or lines[0] != CHECKPOINT_HEADER:
        raise ValueError(f"missing '{CHECKPOINT_HEADER}' header in {path}")
    # key -> value of every non-blank line; a repeated key keeps its last value
    fields = dict(line.partition(" ")[::2] for line in lines[1:] if line.strip())
    fail = f"checkpoint {path}: "

    def field(name: str, parse: Callable[[str], Any]) -> Any:
        if name not in fields:
            raise ValueError(f"checkpoint {path} is missing field '{name}'")
        try:
            return parse(fields[name])
        except ValueError as exc:
            raise ValueError(fail + f"bad field {name}") from exc

    n, d, index = (field(name, int) for name in ("n", "d", "shard"))
    prefix = field("prefix", _parse_edges_token)
    examined, best = field("examined", int), field("best", int)
    witness = field("witness", _parse_edges_token)
    if (n, d, index, prefix) != run:
        raise ValueError(fail + "belongs to a different run")
    if examined < 0:
        raise ValueError(fail + "negative examined count")
    most = comb(comb(n - 1, 2), n * d // 2 - d)
    if examined > most:
        raise ValueError(fail + f"examined {examined} above the limit {most}")
    if witness is None:
        if best != floor:
            raise ValueError(fail + f"best {best} without a witness")
        return best, witness, examined
    if not examined:
        raise ValueError(fail + "witness recorded with examined 0")
    try:
        graph = RegularGraph(n, d, witness)
    except ValueError as exc:
        raise ValueError(fail + f"bad witness: {exc}") from exc
    if witness[: len(prefix)] != prefix:
        raise ValueError(fail + "witness does not extend the shard prefix")
    recount = crossings_convex(graph, ConvexOrder.identity(n)).total
    if recount != best:
        raise ValueError(fail + f"best {best} but the witness has {recount} crossings")
    if not floor <= best <= upper:
        raise ValueError(fail + f"best {best} outside the bounds [{floor}, {upper}]")
    return best, witness, examined


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
    kept graph; shards never share state, so results (witness and
    graphs_examined included) are identical for any worker count.  A
    shard's outcome (best, witness or None, examined) is the one record that
    is searched, written and merged.  With checkpoint_dir set, the ckpt v1
    files of those shards are read and re-checked by load_shard_checkpoint
    before any search starts, and their shards are not searched again; each
    searched shard is written as it is merged, in index order, so an
    interrupted run keeps every shard before the first unfinished one.
    """
    effective_cap = LONG_RUN_CAP if long_run else SEARCH_CAP
    if n > effective_cap:
        raise ResourceLimitError(
            f"n={n} exceeds search cap {effective_cap}"
            + ("" if long_run else f" (long-run mode raises the cap to {LONG_RUN_CAP})")
        )
    if not feasible(n, d):
        raise ValueError(f"no d-regular graph exists for n={n}, d={d}")
    started = time.perf_counter()
    bounds = best_known(n, d)
    floor = bounds.lower
    # A star whose backward pattern beats its forward one holds no kept graph.
    shards = [
        (index, prefix)
        for index, prefix in enumerate(shard_prefixes(n, d))
        if tuple(sorted(n - w for _, w in prefix)) >= tuple(w for _, w in prefix)
    ]
    loaded: dict[int, tuple[int, Optional[tuple[Edge, ...]], int]] = {}
    if checkpoint_dir is not None:
        os.makedirs(checkpoint_dir, exist_ok=True)
        for index, prefix in shards:
            path = _checkpoint_path(checkpoint_dir, index)
            if os.path.exists(path):
                run = (n, d, index, prefix)
                loaded[index] = load_shard_checkpoint(path, run, floor, bounds.upper)

    todo = [prefix for index, prefix in shards if index not in loaded]
    search = partial(_search_shard, n, d, floor=floor)
    size = _pool_size(workers, len(todo))
    best_value = -1
    best_witness: Optional[tuple[Edge, ...]] = None
    examined_total = 0
    # Ctrl-C interrupts the parent alone; leaving the block terminates the workers.
    with (
        multiprocessing.Pool(size, signal.signal, (signal.SIGINT, signal.SIG_IGN))
        if size > 1
        else contextlib.nullcontext()
    ) as pool:
        computed = pool.imap(search, todo, chunksize=1) if pool else map(search, todo)
        for index, prefix in shards:
            outcome = loaded.get(index)
            if outcome is None:
                outcome = next(computed)
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
        witness=RegularGraph(n, d, best_witness),
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
    if not feasible(n, d):
        raise ValueError(f"no d-regular graph exists for n={n}, d={d}")
    if d == n - 1:
        return RegularGraph(
            n, d, tuple((u, v) for u in range(n) for v in range(u + 1, n))
        )
    if n - 1 - d < d:
        return _sample_by_switching(n, n - 1 - d, rng).complement()
    return _sample_by_switching(n, d, rng)


@lru_cache(maxsize=None)
def _circulant_edges(n: int, d: int) -> tuple[Edge, ...]:
    """Edges of the d-regular circulant that the switch chain starts from:
    offsets 1..d//2, and n/2 for odd d.  Built once per (n, d) per process."""
    offsets = list(range(1, d // 2 + 1)) + ([n // 2] if d % 2 else [])
    return make_circulant(n, offsets).edges


def _sample_by_switching(n: int, d: int, rng: random.Random) -> RegularGraph:
    """SWITCHES_PER_EDGE * m attempts of the switch ab, ce -> ac, be.

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
    return RegularGraph(n, d, tuple(sorted(edges)))


COORDINATE_SPAN_FACTOR = 4


def sample_positions(n: int, rng: random.Random) -> tuple[tuple[int, int], ...]:
    """Integer points uniform in [0, 4n^2]^2, resampled to general position."""
    span = COORDINATE_SPAN_FACTOR * n * n
    while True:
        pts = [(rng.randint(0, span), rng.randint(0, span)) for _ in range(n)]
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
    every trial does bounded work.  Deterministic for fixed seed.  Raises
    ResourceLimitError above PROBE_CAP vertices: a trial's general-position
    check is quadratic in n and its crossing count quadratic in m.
    """
    if n > PROBE_CAP:
        raise ResourceLimitError(f"n={n} exceeds probe cap {PROBE_CAP}")
    if not feasible(n, d):
        raise ValueError(f"no d-regular graph exists for n={n}, d={d}")
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    started = time.perf_counter()
    rng = random.Random(seed)
    best = -1
    witness: RegularGraph | None = None
    for _ in range(trials):
        graph = sample_regular_graph(n, d, rng)
        pts = sample_positions(n, rng)
        total = crossing_total(pts, graph.edges)
        if total > best:
            best = total
            witness = graph
    assert witness is not None
    return SearchResult(
        n=n,
        d=d,
        max_crossings=best,
        witness=witness,
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
            if n * d % 2:
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
