"""Endvertex-type statistics of general-position drawings.

At each endpoint of an edge, the edge's supporting line splits the other
d - 1 incident edges into two halfplanes; the endpoint's type is the
smaller count, between 0 and D = floor((d - 1)/2).  Types drive an exact
accounting of edge pairs that cannot cross, which is what turns crossing
maximization into counting.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .errors import DegeneracyError
from .geometry import COLLINEAR, GeometricDrawing, orientation
from .geometry import count_crossings_geometric
from .graph import Edge


@dataclass(frozen=True)
class TypeProfile:
    """Aggregated type statistics of one drawing of a d-regular graph.

    endpoint_counts[i] is the number of edge endpoints of type i (summing
    to n*d).  edge_counts, a read-only mapping, counts at (i, j), i <= j,
    the edges whose endpoint types normalize to (i, j).  accounting is the
    guaranteed non-crossing pair total: sum of
    (i*(d-j-1) + j*(d-i-1)) * edge_counts[(i, j)].
    vertex_profiles[v] is the sorted tuple of the d types at vertex v.
    """

    max_type: int
    endpoint_counts: tuple[int, ...]
    edge_counts: Mapping[tuple[int, int], int]
    accounting: int
    vertex_profiles: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        # read-only, so a profile held on a drawing and shared by its callers
        # cannot be changed by one of them under the next
        object.__setattr__(self, "edge_counts", MappingProxyType(dict(self.edge_counts)))

    def __reduce__(self):
        # a mappingproxy does not pickle; rebuild it from a plain dict
        return (TypeProfile, (self.max_type, self.endpoint_counts, dict(self.edge_counts),
                              self.accounting, self.vertex_profiles))

    def coverage_gap(self) -> tuple[int, int] | None:
        """First (vertex, missing type) of lemma_coverage_check, or None."""
        for vertex, types in enumerate(self.vertex_profiles):  # d types, sorted
            for i in range(types[0], self.max_type + 1):
                needed = 1 if (i == self.max_type and len(types) % 2 == 1) else 2
                if types.count(i) < needed:
                    return (vertex, i)
        return None


def endvertex_type(drawing: GeometricDrawing, edge: Edge, endpoint: int) -> int:
    """Type of `endpoint` on `edge`: min over the two halfplane counts.

    Decided on the drawing's int grid.  Raises ValueError unless endpoint
    ends an edge of the drawing, and DegeneracyError when another incident
    edge lies on the edge's line, which general position rules out.
    """
    u, v = edge
    if endpoint == u:
        other = v
    elif endpoint == v:
        other = u
    else:
        raise ValueError(f"vertex {endpoint} is not an endpoint of {edge}")
    adjacency = drawing.graph.adjacency
    if not (0 <= endpoint < len(adjacency) and other in adjacency[endpoint]):
        raise ValueError(f"{edge} is not an edge of the drawing")
    pos = drawing.grid
    left = 0
    for w in adjacency[endpoint]:
        side = orientation(pos[endpoint], pos[other], pos[w])
        if side == COLLINEAR and w != other:
            raise DegeneracyError(
                f"edge ({endpoint}, {w}) lies on the line of edge {edge}"
            )
        left += side > 0
    return min(left, drawing.graph.d - 1 - left)


# the instance-dict key a drawing's profile is held under, beside the
# cached_property entries of its grid and side table
_HELD_PROFILE = "type_profile"


def type_profile(drawing: GeometricDrawing) -> TypeProfile:
    """The full type statistics of a general-position drawing.

    Computed once per drawing and held on it, as its side table is: every
    later call, noncrossing_accounting's and lemma_coverage_check's
    included, returns the same TypeProfile.  A degenerate drawing raises
    DegeneracyError on every call and nothing is held.
    """
    held = vars(drawing).get(_HELD_PROFILE)
    if held is None:
        held = vars(drawing)[_HELD_PROFILE] = _compute_profile(drawing)
    return held


def _compute_profile(drawing: GeometricDrawing) -> TypeProfile:
    left = drawing.sides.left
    graph = drawing.graph
    d = graph.d
    max_type = (d - 1) // 2
    neighbors = [sum(1 << w for w in ws) for ws in graph.adjacency]
    split = [min(k, d - 1 - k) for k in range(d)]  # type with k neighbors on the left
    endpoint_counts = [0] * (max_type + 1)
    edge_counts: dict[tuple[int, int], int] = {
        (i, j): 0 for i in range(max_type + 1) for j in range(i, max_type + 1)
    }
    per_vertex: list[list[int]] = [[] for _ in range(graph.n)]
    accounting = 0
    for (u, v), side in zip(graph.edges, left):
        tu = split[(side & neighbors[u]).bit_count()]
        tv = split[(side & neighbors[v]).bit_count()]
        endpoint_counts[tu] += 1
        endpoint_counts[tv] += 1
        per_vertex[u].append(tu)
        per_vertex[v].append(tv)
        i, j = min(tu, tv), max(tu, tv)
        edge_counts[(i, j)] += 1
        accounting += i * (d - j - 1) + j * (d - i - 1)
    return TypeProfile(
        max_type=max_type,
        endpoint_counts=tuple(endpoint_counts),
        edge_counts=edge_counts,
        accounting=accounting,
        vertex_profiles=tuple(tuple(sorted(types)) for types in per_vertex),
    )


def lemma_coverage_check(drawing: GeometricDrawing) -> tuple[int, int] | None:
    """Check type coverage at every vertex; None when it holds.

    At a vertex whose minimum type is s, every type in s..D must occur at
    least twice among the vertex's d endpoint types, except that the top
    type D only needs to occur once when d is odd.  Returns the first
    (vertex, missing type) counterexample otherwise; see coverage_gap().
    """
    return type_profile(drawing).coverage_gap()


@dataclass(frozen=True)
class AccountingReport:
    """Non-crossing pair count of a drawing versus its type accounting.

    pair_count (P) counts non-adjacent edge pairs, crossings those that cross,
    and noncrossing (N) is P - crossings by definition (the tests check the
    count against a pairwise reference).
    accounting (M) is the type-derived total of guaranteed non-crossing
    incidences; N >= M/2 as each guaranteed pair is counted by <= two edges.
    """

    noncrossing: int
    accounting: int
    pair_count: int
    crossings: int

    @property
    def accounting_bound_holds(self) -> bool:
        return 2 * self.noncrossing >= self.accounting


def noncrossing_accounting(drawing: GeometricDrawing) -> AccountingReport:
    """Measure N, M and P for one drawing (see AccountingReport)."""
    report = count_crossings_geometric(drawing)
    profile = type_profile(drawing)
    return AccountingReport(
        noncrossing=report.noncrossing,
        accounting=profile.accounting,
        pair_count=report.pair_count,
        crossings=report.total,
    )
