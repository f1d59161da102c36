"""Labeled regular graphs: construction, enumeration, serialization.

Vertices are integers 0..n-1.  Edges are pairs (u, v) with u < v, and every
edge list is kept sorted lexicographically, so two graphs are equal exactly
when their dataclass fields are equal.  Disconnected graphs are first-class
citizens; the degree-2 extremal examples are disjoint unions of cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Callable, Iterable, Iterator, Optional, TypeVar

from .errors import ResourceLimitError

Edge = tuple[int, int]
T = TypeVar("T")

ENUMERATION_CAP = 10
GRAPH_FORMAT_HEADER = "regular-graph v1"


def feasible(n: int, d: int) -> bool:
    """True when an n-vertex d-regular graph exists, i.e. n*d is even.

    The one statement of which (n, d) cells exist.  The degree range of
    interest is 2 <= d <= n-1; anything outside it is rejected as an
    argument error rather than reported as infeasible.  require_feasible is
    its raising form, for callers that need a graph to exist.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got n={n}")
    if not 2 <= d <= n - 1:
        raise ValueError(f"need 2 <= d <= n-1, got d={d} for n={n}")
    return n * d % 2 == 0


def require_feasible(n: int, d: int) -> None:
    """Raise ValueError unless feasible(n, d): out of range, or no graph."""
    if not feasible(n, d):
        raise ValueError(f"no d-regular graph exists for n={n}, d={d}")


@dataclass(frozen=True)
class RegularGraph:
    """An immutable labeled d-regular graph on vertices 0..n-1."""

    n: int
    d: int
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError(f"need n >= 3, got n={self.n}")
        # d = 1 is admitted so diagonal classes such as the long diagonals
        # of an even polygon can be represented; most operations demand d >= 2.
        if not 1 <= self.d <= self.n - 1:
            raise ValueError(f"degree {self.d} out of range for n={self.n}")
        if self.n * self.d % 2:
            raise ValueError(f"no d-regular graph exists for n={self.n}, d={self.d}")
        if len(self.edges) != self.n * self.d // 2:
            raise ValueError(
                f"expected {self.n * self.d // 2} edges, got {len(self.edges)}"
            )
        degree = [0] * self.n
        previous = None
        for u, v in self.edges:
            if not 0 <= u < v < self.n:
                raise ValueError(f"bad edge ({u}, {v})")
            if previous is not None and (u, v) <= previous:
                raise ValueError("edges must be strictly increasing")
            previous = (u, v)
            degree[u] += 1
            degree[v] += 1
        bad = [v for v in range(self.n) if degree[v] != self.d]
        if bad:
            raise ValueError(f"vertices {bad} do not have degree {self.d}")

    @classmethod
    def _trusted(cls, n: int, d: int, edges: tuple[Edge, ...]) -> "RegularGraph":
        """Build without __post_init__, for lex_fill output only: the walk
        already guarantees sorted, in-range edges and degree d everywhere.
        A convex search witness is such output, or the edges of a graph
        that was validated when it was built.  One object.__new__ and three
        stores into the instance dict: no keyword dict, no dataclass
        __init__, so enumeration pays the least per graph."""
        graph = object.__new__(cls)
        fields = graph.__dict__
        fields["n"] = n
        fields["d"] = d
        fields["edges"] = edges
        return graph

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbor tuple per vertex."""
        neighbors: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            neighbors[u].append(v)
            neighbors[v].append(u)
        return tuple(tuple(sorted(ns)) for ns in neighbors)

    def complement(self) -> "RegularGraph":
        """The complement graph, which is (n-1-d)-regular."""
        present = set(self.edges)
        edges = tuple(
            (u, v)
            for u, v in combinations(range(self.n), 2)
            if (u, v) not in present
        )
        return RegularGraph(self.n, self.n - 1 - self.d, edges)


def make_graph(n: int, d: int, edges: Iterable[Edge]) -> RegularGraph:
    """Build a RegularGraph from any edge iterable, normalizing order."""
    normalized = tuple(sorted((min(u, v), max(u, v)) for u, v in edges))
    return RegularGraph(n, d, normalized)


def make_cycle(n: int) -> RegularGraph:
    """The cycle 0-1-..-(n-1)-0."""
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    return make_graph(n, 2, edges)


def make_complete(n: int) -> RegularGraph:
    return make_graph(n, n - 1, combinations(range(n), 2))


def make_circulant(n: int, offsets: Iterable[int]) -> RegularGraph:
    """Circulant graph: i is joined to i+s (mod n) for each offset s.

    Offsets are cyclic lengths, 1 <= s <= n//2.  Each offset below n/2
    contributes 2 to the degree; the offset n/2 of an even n contributes 1
    (the long diagonals form a perfect matching, degree 1 on its own).
    """
    offset_set = sorted(set(offsets))
    if not offset_set:
        raise ValueError("need at least one offset")
    if offset_set[0] < 1 or offset_set[-1] > n // 2:
        raise ValueError(f"offsets must lie in 1..{n // 2}, got {offset_set}")
    edges = set()
    degree = 0
    for s in offset_set:
        degree += 1 if 2 * s == n else 2
        for i in range(n):
            j = (i + s) % n
            edges.add((min(i, j), max(i, j)))
    return make_graph(n, degree, edges)


def connected_components(graph: RegularGraph) -> list[list[int]]:
    """Vertex lists of the connected components, each sorted, smallest first."""
    seen = [False] * graph.n
    components = []
    for start in range(graph.n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        component = []
        while stack:
            v = stack.pop()
            component.append(v)
            for w in graph.adjacency[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        components.append(sorted(component))
    return components


def shard_prefixes(n: int, d: int) -> list[tuple[Edge, ...]]:
    """Disjoint forced-edge prefixes partitioning the enumeration stream.

    Every d-regular graph starts, in sorted edge order, with the d edges at
    vertex 0, so fixing that block yields C(n-1, d) disjoint sub-streams
    whose concatenation in prefix order reproduces the full lexicographic
    enumeration.
    """
    require_feasible(n, d)
    return list(combinations([(0, w) for w in range(1, n)], d))


def lex_fill(
    n: int,
    d: int,
    prefix: tuple[Edge, ...] = (),
    prune: Optional[Callable[[list[Edge], list[int]], bool]] = None,
) -> Iterator[tuple[Edge, ...]]:
    """Sorted edge tuples of every labeled d-regular graph extending prefix.

    The one degree-filling walk behind enumeration and the convex search:
    each node joins the first vertex u with free stubs to a later vertex,
    so the tuples come out in lexicographic order.  The walk offers every
    node, completed graphs included, to prune(stack, remaining) with its
    live edge stack and per-vertex free stubs (read, never modify); a true
    result skips the node: its subtree, or for a completed graph, its yield.

    Every node, the root included, is entered the same way.  With (u, w)
    its last edge ((0, 0) for the root of an empty prefix), it goes on
    filling u above w while u has free stubs; otherwise it fills the next
    vertex v with free stubs from v + 1 on.  A completed graph is offered to
    the hook and yielded.  Any other node with fewer free partners left than
    its vertex has free stubs is cut before its hook call.  When such a node
    goes on filling its parent's vertex, its parent's scan ends too: each
    sibling above it has fewer free partners still, so a scan pushes at
    most one dead child.

    The edge stack is the walk's whole state: each edge (u, w) placed after
    the prefix was placed by the node that fills u, and w is the partner
    that node tried last, so backtracking pops it and resumes at w + 1.

    A prefix edge (u, v) may not be placed while a vertex below u has free
    stubs: no graph's sorted edge list starts that way.  Each shard prefix,
    the d edges at vertex 0, keeps this rule.

    Contract, relied on by the convex search's capacity bound: at every
    prune call, with u the first vertex with free stubs, every vertex below
    u is saturated and no edge whose first endpoint is above u is placed.

    Without a hook the walk memoizes, in a dict local to the call.  When u
    has just been started, no edge from u is placed either, so the sorted
    completions of that node depend on remaining[u:] alone.  On each path
    the first node with at most n // 2 + 1 vertices left from u records
    its leaves' tails (the edges after its own) under that key; a later node
    with the same key yields its stack plus each stored tail and is cut, so
    each residual degree sequence is filled once.  The memo holds at most
    one tail per graph on the last n // 2 + 1 vertices.  Starting a vertex
    earlier measured slower with a memo of megabytes at n = 8, and a vertex
    later saves too little per hit.  With a hook the memo is off: a cut may
    depend on the whole stack.
    """
    remaining = [d] * n
    last = (-1, -1)
    # the first vertex with free stubs; stubs only get used, so it only grows
    first = 0
    for u, v in prefix:
        if not 0 <= u < v < n:
            raise ValueError(f"bad prefix edge ({u}, {v})")
        if (u, v) <= last:
            raise ValueError("prefix edges must be strictly increasing")
        if remaining[u] == 0 or remaining[v] == 0:
            raise ValueError(f"prefix edge ({u}, {v}) oversaturates a vertex")
        while first < u and not remaining[first]:
            first += 1
        if first < u:
            raise ValueError(
                f"prefix edge ({u}, {v}) is placed while vertex {first} "
                "has free stubs"
            )
        remaining[u] -= 1
        remaining[v] -= 1
        last = (u, v)
    stack = list(prefix)
    base = stop = len(stack)
    # Hookless, the first node on each path with u >= memo_at records the
    # tails of its leaves in tails until the scan at its depth, stop, runs
    # out; low is n meanwhile, so no node below it records or replays.
    memo: dict[tuple[int, ...], list[tuple[Edge, ...]]] = {}
    memo_at = low = n - n // 2 - 1
    tails = None
    u, w = stack[-1] if stack else (0, 0)
    while True:
        # Enter the node whose last edge is (u, w); leaves and cuts set w = n.
        if not remaining[u]:
            u += 1
            while u < n and not remaining[u]:
                u += 1
            w = u
        if u == n:
            if prune:
                if not prune(stack, remaining):
                    yield tuple(stack)
            else:
                leaf = tuple(stack)
                if tails is not None:
                    tails.append(leaf[stop:])
                yield leaf
        elif n - w - 1 - remaining[w + 1 :].count(0) < remaining[u]:
            if u < w and len(stack) > base:
                # Still filling its parent's vertex: w = n ends that scan too.
                stack.pop()
                remaining[u] += 1
                remaining[w] += 1
            w = n
        elif prune:
            if prune(stack, remaining):
                w = n
        elif u >= low:
            # u was just started, or this is the root, which no node revisits
            key = tuple(remaining[u:])
            known = memo.get(key)
            if known is None:
                tails = memo[key] = []
                stop = len(stack)
                low = n
            else:
                head = tuple(stack)
                for tail in known:
                    yield head + tail
                w = n
        # Place u's next free partner above w, popping nodes that have none.
        while True:
            w += 1
            while w < n and not remaining[w]:
                w += 1
            if w < n:
                break
            if len(stack) == stop:
                if stop == base:
                    return
                stop, low, tails = base, memo_at, None
            u, w = stack.pop()
            remaining[u] += 1
            remaining[w] += 1
        remaining[u] -= 1
        remaining[w] -= 1
        stack.append((u, w))


def enumerate_labeled_regular(n: int, d: int) -> Iterator[RegularGraph]:
    """Yield every labeled d-regular graph on n vertices, lexicographically.

    The stream order is the lexicographic order of sorted edge tuples; this
    is a contract other modules rely on (witness tie-breaking, sharding).
    The sub-stream of one shard prefix is lex_fill(n, d, prefix).
    """
    if n > ENUMERATION_CAP:
        raise ResourceLimitError(f"n={n} exceeds enumeration cap {ENUMERATION_CAP}")
    if not feasible(n, d):
        return
    wrap = RegularGraph._trusted
    for edges in lex_fill(n, d):
        yield wrap(n, d, edges)


def graph_to_text(graph: RegularGraph) -> str:
    """Serialize in the regular-graph v1 format (UTF-8 text, LF endings)."""
    lines = [GRAPH_FORMAT_HEADER, f"{graph.n} {graph.d}"]
    lines.extend(f"{u} {v}" for u, v in graph.edges)
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> RegularGraph:
    """Parse the regular-graph v1 format, validating every invariant."""
    n, d, body = sized_body(text, GRAPH_FORMAT_HEADER, "graph")
    expected = n * d // 2
    if len(body) != expected:
        raise ValueError(f"expected {expected} edge lines, got {len(body)}")
    return RegularGraph(n, d, edge_lines(body))


def edge_lines(lines: list[str]) -> tuple[Edge, ...]:
    """The (u, v) pairs of the 'u v' edge lines of a graph or drawing file,
    unchecked: the RegularGraph built from them is their one validator."""
    edges = []
    for line in lines:
        try:
            u, v = map(int, line.split())
        except ValueError as exc:
            raise ValueError(f"bad edge line {line!r}") from exc
        edges.append((u, v))
    return tuple(edges)


def sized_body(text: str, header: str, kind: str) -> tuple[int, int, list[str]]:
    """The two counts of the size line and the non-blank body lines of a text
    format that starts with header; '#' lines are comments wherever they
    stand.  A negative count is refused before a parser sizes anything by it."""
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    if not lines or lines[0] != header:
        raise ValueError(f"missing '{header}' header")
    if len(lines) < 2:
        raise ValueError(f"truncated {kind} file")
    try:
        a, b = map(int, lines[1].split())
    except ValueError as exc:
        raise ValueError(f"bad size line {lines[1]!r}") from exc
    if a < 0 or b < 0:
        raise ValueError(f"negative count in size line {lines[1]!r}")
    return a, b, [line for line in lines[2:] if line.strip()]


def save_graph(graph: RegularGraph, path) -> None:
    write_utf8(path, graph_to_text(graph))


def write_utf8(path, text: str) -> None:
    """Write text to a file as UTF-8 with LF line endings on every platform."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def load_text(path, kind: str, parse: Callable[[str], T]) -> T:
    """parse applied to the text of a UTF-8 file, the one reader of every file
    format: a decode failure or a ValueError from parse raises ValueError as
    '<kind> <path>: <reason>'; OSError from opening the file passes through."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return parse(handle.read())
        except UnicodeDecodeError as exc:
            raise ValueError(f"{kind} {path}: not UTF-8 text") from exc
        except ValueError as exc:
            raise ValueError(f"{kind} {path}: {exc}") from exc


def load_graph(path) -> RegularGraph:
    """Read a regular-graph v1 file; every ValueError names the file."""
    return load_text(path, "graph", graph_from_text)
