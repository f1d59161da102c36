"""The three benchmark workloads: seeded inputs, job lists and verifiers.

Every job is checked against a reference that does not share the timed code
path: the closed forms in ``maxcross.formulas``, the other crossing model
(convex interleaving against rational geometry), the benchmark's own exact
integer crossing counter, convex recounts of search witnesses, and the known
numbers of labeled regular graphs.  A check raises ``Mismatch``.
"""

from __future__ import annotations

import hashlib
import io
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, lcm
from typing import Any, Callable, Optional

import maxcross.analysis as analysis
import maxcross.cli as cli
import maxcross.constructions as constructions
import maxcross.formulas as formulas
import maxcross.geometry as geometry
import maxcross.graph as graph
import maxcross.search as search

# Convex maxima of the searched cells.  They equal exact_odd for n + d odd
# and lower_bound_even for n, d even; the search must reproduce them.
KNOWN_CONVEX_MAX = {(8, 4): 52, (8, 6): 70, (9, 4): 81, (9, 6): 126, (10, 3): 70, (10, 8): 210}

# Numbers of labeled d-regular graphs on n vertices (OEIS A001205, A002829;
# 4-regular graphs on 8 vertices are the complements of the cubic ones).
LABELED_COUNTS = {(9, 2): 30016, (8, 3): 19355, (8, 4): 19355}

# Every feasible (n, d) with 4 <= n <= 10: the table's rows, and the cells
# the sampled drawings cycle through.
CELLS = [(n, d) for n in range(4, 11) for d in range(2, n) if n * d % 2 == 0]

# Every CHECK_EVERY-th enumerated graph is counted by both crossing models.
CHECK_EVERY = 100
ORDERS_PER_CELL = 16
SAMPLED_DRAWINGS = 200
# (12, 5) is rejection-heavy for the pairing sampler; its trial count stays
# small because the number of rejections, and so its time, varies with the seed.
PROBES = ((10, 4, 1000), (12, 5, 50))

STAR = (29, 14)  # generalized star, m = 203
STAR_LIKE = (22, 10)  # star-like even drawing, m = 110
# Non-convex drawing with non-integral rational coordinates: a relabeled
# circulant with these offsets (degree 2 + 2 + 2 + 1 = 7, m = 84).
RATIONAL_N = 24
RATIONAL_OFFSETS = (1, 3, 5, 12)


class Mismatch(Exception):
    """A job's output disagrees with its reference."""


@dataclass
class Job:
    """One unit of user work.

    run() returns (text, data): text must be byte-identical whenever the job
    repeats within a run, data feeds the check.  check() raises Mismatch or
    returns counts to record without checking them.  same_as names an
    earlier job whose text this one must reproduce exactly.  parallel marks
    a job that runs pool workers on every core.
    """

    name: str
    run: Callable[[], tuple[str, Any]]
    check: Callable[[str, Any], Optional[dict]]
    same_as: Optional[str] = None
    parallel: bool = False


@dataclass
class Workload:
    jobs: list[Job]
    # Points of the workload's own drawings, for the orientation timing.
    points: list[tuple[Fraction, Fraction]]


def derive(seed: int, *labels: object) -> int:
    """A 63-bit seed for one input, fixed by the workload seed and labels."""
    digest = hashlib.sha256(repr((seed,) + labels).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def run_cli(argv: list[str]) -> str:
    """maxcross.cli.run with stdout captured; a non-zero exit is a failure."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    if code != 0:
        raise Mismatch(f"exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


def cli_job(name: str, argv: list[str], check: Callable[[str, Any], None], same_as=None,
            parallel=False) -> Job:
    return Job(name, lambda: (run_cli(argv), None), check, same_as, parallel)


def fields(text: str) -> dict[str, str]:
    """First token of each line mapped to the rest of the line."""
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(" ")
        out[key] = value
    return out


def parse_edges(token: str) -> tuple[tuple[int, int], ...]:
    return tuple(tuple(int(x) for x in item.split("-")) for item in token.split())


def reference_crossings(points, edges) -> tuple[int, int]:
    """(crossings, non-crossing non-adjacent pairs), exact.

    Clears denominators first (scaling by a positive common denominator keeps
    every orientation sign), then decides each pair by integer cross products.
    Assumes general position, which every benchmark drawing satisfies.
    """
    scale = lcm(*(c.denominator for p in points for c in p))
    pts = [(int(x * scale), int(y * scale)) for x, y in points]

    def side(a, b, c):
        (ax, ay), (bx, by), (cx, cy) = pts[a], pts[b], pts[c]
        return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) > 0

    crossings = noncrossing = 0
    for (a, b), (c, d) in combinations(edges, 2):
        if len({a, b, c, d}) < 4:
            continue
        if side(a, b, c) != side(a, b, d) and side(c, d, a) != side(c, d, b):
            crossings += 1
        else:
            noncrossing += 1
    return crossings, noncrossing


def general_position(points) -> bool:
    scale = lcm(*(c.denominator for p in points for c in p))
    pts = [(int(x * scale), int(y * scale)) for x, y in points]
    if len(set(pts)) != len(pts):
        return False
    for (ax, ay), (bx, by), (cx, cy) in combinations(pts, 3):
        if (bx - ax) * (cy - ay) == (by - ay) * (cx - ax):
            return False
    return True


def parse_drawing(text: str):
    """(points, edges) of a drawing v1 text, parsed independently of maxcross."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    expect(lines[0] == "drawing v1", "missing drawing v1 header")
    n, m = map(int, lines[1].split())
    points = []
    for line in lines[2 : 2 + n]:
        xn, xd, yn, yd = map(int, line.split())
        points.append((Fraction(xn, xd), Fraction(yn, yd)))
    edges = [tuple(map(int, line.split())) for line in lines[2 + n :]]
    expect(len(edges) == m, f"{len(edges)} edge lines, header says {m}")
    return points, edges


def non_adjacent_pairs(n: int, d: int) -> int:
    m = n * d // 2
    return comb(m, 2) - n * comb(d, 2)


def check_convex_value(n: int, d: int, value: int) -> None:
    """value must be the known convex maximum and consistent with the bounds."""
    if (n + d) % 2:
        expect(value == formulas.exact_odd(n, d), f"({n},{d}): {value} != exact_odd")
    else:
        lower, upper = formulas.lower_bound_even(n, d), formulas.upper_bound(n, d)
        expect(lower <= value <= upper, f"({n},{d}): {value} outside [{lower}, {upper}]")
    expect(value == KNOWN_CONVEX_MAX[(n, d)], f"({n},{d}): {value} != known convex max")


def check_witness(n: int, d: int, token: str, value: Optional[int]) -> None:
    witness = graph.RegularGraph(n, d, parse_edges(token))
    if value is not None:
        recount = constructions.crossings_convex(witness, constructions.ConvexOrder.identity(n))
        expect(recount.total == value, f"witness recount {recount.total} != {value}")


# --- exhaustive ----------------------------------------------------------


def search_check(n: int, d: int):
    def check(text: str, _data) -> None:
        f = fields(text)
        expect((f["n"], f["d"], f["mode"]) == (str(n), str(d), "convex-exhaustive"), "header")
        value = int(f["max_crossings"])
        check_convex_value(n, d, value)
        check_witness(n, d, f["witness"], value)
        # A sharper search may legitimately examine fewer graphs: record only.
        return {"graphs_examined": int(f["graphs_examined"])}

    return check


def table_check(text: str, _data) -> None:
    rows = [line.split() for line in text.splitlines()[1:]]
    expect([(int(r[0]), int(r[1])) for r in rows] == CELLS, "table cells")
    for row in rows:
        n, d, value = int(row[0]), int(row[1]), int(row[2])
        status, search_value = row[3], row[5]
        if (n + d) % 2:
            expect(value == formulas.exact_odd(n, d), f"table ({n},{d}) value")
        else:
            expect(value == formulas.lower_bound_even(n, d), f"table ({n},{d}) value")
        if (n, d) == (10, 6):
            wanted = "discrepancy"
        elif (n + d) % 2 or d in (2, n - 2):
            wanted = "proven"
        else:
            wanted = "conjectured"
        expect(status == wanted, f"table ({n},{d}) status {status} != {wanted}")
        expect(search_value == (str(value) if n <= 8 else "-"), f"table ({n},{d}) search")


def build_exhaustive(seed: int, workdir: str) -> Workload:
    """Convex DFS: nearly all time is in search; geometry does no work.

    Mixes proven cells (lower = upper) with gap cells (8, 4) and (10, 8), so a
    proven-upper exit and a faster inner loop move different jobs.  The inputs
    are the cells themselves; the seed does not change them.
    """
    workers = min(2, os.cpu_count() or 1)
    jobs = []
    for n, d in ((9, 4), (9, 6), (8, 4), (8, 6)):
        argv = ["search", "--n", str(n), "--d", str(d)]
        jobs.append(cli_job(f"search-{n}-{d}", argv, search_check(n, d)))
    for n, d in ((10, 3), (10, 8)):
        argv = ["search", "--n", str(n), "--d", str(d), "--long-run"]
        jobs.append(cli_job(f"search-{n}-{d}", argv, search_check(n, d)))
    argv = ["search", "--n", "10", "--d", "3", "--long-run", "--workers", str(workers)]
    jobs.append(cli_job("search-10-3-pool", argv, search_check(10, 3), same_as="search-10-3",
                        parallel=workers > 1))
    jobs.append(cli_job("table-10", ["table", "--max-n", "10"], table_check))
    points = [(Fraction(i), Fraction(i * i)) for i in range(10)]
    return Workload(jobs, points)


# --- corpus --------------------------------------------------------------


def enumeration_job(n: int, d: int, seed: int) -> Job:
    rng = random.Random(derive(seed, "orders", n, d))
    orders = []
    for _ in range(ORDERS_PER_CELL):
        perm = list(range(n))
        rng.shuffle(perm)
        orders.append(constructions.ConvexOrder(tuple(perm)))
    offset = rng.randrange(CHECK_EVERY)

    def run():
        count = checks = mismatches = disorder = crossing_sum = 0
        previous = ()
        for g in graph.enumerate_labeled_regular(n, d):
            if g.edges <= previous:
                disorder += 1
            previous = g.edges
            if count % CHECK_EVERY == offset:
                order = orders[checks % ORDERS_PER_CELL]
                convex = constructions.crossings_convex(g, order)
                drawing = constructions.drawing_from_order(g, order)
                if geometry.count_crossings_geometric(drawing) != convex:
                    mismatches += 1
                crossing_sum += convex.total
                checks += 1
            count += 1
        text = (
            f"graphs {count}\nchecks {checks}\nmismatches {mismatches}\n"
            f"disorder {disorder}\ncrossing_sum {crossing_sum}\n"
        )
        return text, None

    def check(text: str, _data) -> None:
        f = fields(text)
        graphs = LABELED_COUNTS[(n, d)]
        expect(int(f["graphs"]) == graphs, f"({n},{d}): {f['graphs']} graphs, want {graphs}")
        expect(int(f["disorder"]) == 0, "stream not strictly increasing")
        expect(int(f["mismatches"]) == 0, "convex and geometric counts disagree")
        expect(int(f["checks"]) == len(range(offset, graphs, CHECK_EVERY)), "check count")

    return Job(f"enumerate-{n}-{d}", run, check)


def sample_job(index: int, n: int, d: int, seed: int) -> Job:
    sample_seed = derive(seed, "sample", index)

    def run():
        rng = random.Random(sample_seed)
        drawing = search.sample_drawing(search.sample_regular_graph(n, d, rng), rng)
        profile = analysis.type_profile(drawing)
        report = analysis.noncrossing_accounting(drawing)
        coverage = analysis.lemma_coverage_check(drawing)
        text = (
            f"edges {' '.join(f'{u}-{v}' for u, v in drawing.graph.edges)}\n"
            f"points {' '.join(f'{p.x},{p.y}' for p in drawing.positions)}\n"
            f"y {profile.endpoint_counts}\nM {report.accounting}\n"
            f"N {report.noncrossing}\nP {report.pair_count}\n"
            f"crossings {report.crossings}\ncoverage {coverage}\n"
        )
        return text, (drawing, profile, report, coverage)

    def check(_text: str, data) -> None:
        drawing, profile, report, coverage = data
        points = [(Fraction(p.x), Fraction(p.y)) for p in drawing.positions]
        crossings, noncrossing = reference_crossings(points, drawing.graph.edges)
        expect(report.crossings == crossings, f"crossings {report.crossings} != {crossings}")
        expect(report.noncrossing == noncrossing, "noncrossing count")
        expect(report.pair_count == non_adjacent_pairs(n, d), "pair count")
        expect(report.crossings == report.pair_count - report.noncrossing, "P - N identity")
        expect(2 * report.noncrossing >= report.accounting, "2N >= M")
        expect(report.accounting >= formulas.min_noncrossing_pairs(n, d), "M floor")
        expect(profile.accounting == report.accounting, "profile M")
        expect(sum(profile.endpoint_counts) == n * d, "endpoint count")
        expect(coverage is None, f"coverage counterexample {coverage}")

    return Job(f"sample-{index}", run, check)


def probe_check(n: int, d: int, trials: int):
    def check(text: str, _data) -> None:
        f = fields(text)
        expect((f["n"], f["d"], f["mode"]) == (str(n), str(d), "perturbation"), "header")
        value = int(f["max_crossings"])
        expect(0 < value <= formulas.upper_bound(n, d), f"probe {value} beats upper bound")
        expect(int(f["graphs_examined"]) == trials, "trial count")
        check_witness(n, d, f["witness"], None)

    return check


def build_corpus(seed: int, workdir: str) -> Workload:
    """Many small inputs: enumeration streams, sampled drawings, probes."""
    jobs = [enumeration_job(n, d, seed) for n, d in LABELED_COUNTS]
    for index in range(SAMPLED_DRAWINGS):
        n, d = CELLS[index % len(CELLS)]
        jobs.append(sample_job(index, n, d, seed))
    for n, d, trials in PROBES:
        probe_seed = derive(seed, "probe", n, d)
        argv = ["search", "--mode", "probe", "--n", str(n), "--d", str(d),
                "--trials", str(trials), "--seed", str(probe_seed)]
        jobs.append(cli_job(f"probe-{n}-{d}", argv, probe_check(n, d, trials)))
    rng = random.Random(derive(seed, "points"))
    span = 4 * 10 * 10  # sample_positions draws from [0, 4n^2] for n = 10
    points = [(Fraction(rng.randint(0, span)), Fraction(rng.randint(0, span))) for _ in range(10)]
    return Workload(jobs, points)


# --- drawings ------------------------------------------------------------


def rational_drawing(seed: int) -> tuple[str, list[tuple[Fraction, Fraction]]]:
    """A seeded non-convex drawing with non-integral rational coordinates."""
    rng = random.Random(derive(seed, "rational"))
    n = RATIONAL_N

    def coordinate() -> Fraction:
        while True:
            value = Fraction(rng.randint(-10**6, 10**6), rng.randint(2, 999))
            if value.denominator > 1:
                return value

    while True:
        points = [(coordinate(), coordinate()) for _ in range(n)]
        if general_position(points):
            break
    label = list(range(n))
    rng.shuffle(label)
    edges = set()
    for s in RATIONAL_OFFSETS:
        for i in range(n):
            u, v = label[i], label[(i + s) % n]
            edges.add((min(u, v), max(u, v)))
    lines = ["drawing v1", f"{n} {len(edges)}"]
    lines += [f"{x.numerator} {x.denominator} {y.numerator} {y.denominator}" for x, y in points]
    lines += [f"{u} {v}" for u, v in sorted(edges)]
    return "\n".join(lines) + "\n", points


def construct_job(kind: str, n: int, d: int, path: str) -> Job:
    def run():
        expect(run_cli(["construct", kind, "--n", str(n), "--d", str(d), "-o", path]) == "",
               "construct wrote to stdout")
        with open(path, encoding="utf-8") as handle:
            return handle.read(), None

    def check(text: str, _data) -> None:
        points, edges = parse_drawing(text)
        expect(points == [(Fraction(i), Fraction(i * i)) for i in range(n)], "parabola points")
        degree = [0] * n
        for u, v in edges:
            degree[u] += 1
            degree[v] += 1
        expect(set(degree) == {d}, f"degrees {sorted(set(degree))}")
        if kind == "star":
            k = (n - d + 1) // 2
            wanted = {tuple(sorted((i, (i + s) % n))) for s in range(k, n // 2 + 1) for i in range(n)}
            expect(set(edges) == wanted, "star edges are not the long diagonals")

    return Job(f"construct-{kind}", run, check)


def drawing_reference(kind: str, n: int, d: int, path: str):
    """Crossings and non-crossing pairs of a drawing file, computed once.

    Convex drawings use the interleave model and the closed form; the
    rational drawing uses the benchmark's own integer counter.
    """
    cache = {}

    def reference() -> tuple[int, int]:
        if not cache:
            with open(path, encoding="utf-8") as handle:
                points, edges = parse_drawing(handle.read())
            if kind == "rational":
                cache["value"] = reference_crossings(points, edges)
            else:
                g = graph.RegularGraph(n, d, tuple(edges))
                convex = constructions.crossings_convex(g, constructions.ConvexOrder.identity(n))
                formula = formulas.exact_odd if kind == "star" else formulas.lower_bound_even
                expect(convex.total == formula(n, d), "convex recount != closed form")
                cache["value"] = (convex.total, convex.noncrossing)
        return cache["value"]

    return reference


def count_job(kind: str, n: int, d: int, path: str, reference) -> Job:
    def check(text: str, _data) -> None:
        crossings, noncrossing = reference()
        f = fields(text)
        expect(int(f["crossings"]) == crossings, f"crossings {f['crossings']} != {crossings}")
        expect(int(f["noncrossing"]) == noncrossing, "noncrossing")
        expect(int(f["pairs"]) == non_adjacent_pairs(n, d), "pairs")

    return cli_job(f"count-{kind}", ["count", path], check)


def analyze_job(kind: str, n: int, d: int, path: str, reference, lemma: bool) -> Job:
    def check(text: str, _data) -> None:
        crossings, _ = reference()
        f = fields(text)
        big_m, big_n, big_p = int(f["M"]), int(f["N"]), int(f["P"])
        expect((int(f["n"]), int(f["d"])) == (n, d), "header")
        expect(int(f["crossings"]) == crossings, f"crossings {f['crossings']} != {crossings}")
        expect(crossings == big_p - big_n, "crossings != P - N")
        expect(2 * big_n >= big_m, "2N < M")
        expect(big_p == non_adjacent_pairs(n, d), "P")
        expect(big_m >= formulas.min_noncrossing_pairs(n, d), "M floor")
        expect(sum(map(int, f["y"].split())) == n * d, "endpoint types")
        x_total = sum(int(line.split()[3]) for line in text.splitlines() if line.startswith("x "))
        expect(x_total == n * d // 2, "edge types")
        if lemma:
            expect(f.get("coverage") == "ok", f"coverage {f.get('coverage')}")

    argv = ["analyze", path] + (["--check-lemma"] if lemma else [])
    return cli_job(f"analyze-{kind}", argv, check)


def build_drawings(seed: int, workdir: str) -> Workload:
    """One big drawing per job: geometry, validation, types and parsing."""
    text, rational_points = rational_drawing(seed)
    rational_path = os.path.join(workdir, "rational.drw")
    with open(rational_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
    jobs = []
    for kind, (n, d), lemma in (("star", STAR, True), ("starlike", STAR_LIKE, False)):
        path = os.path.join(workdir, f"{kind}.drw")
        reference = drawing_reference(kind, n, d, path)
        jobs.append(construct_job(kind, n, d, path))
        jobs.append(count_job(kind, n, d, path, reference))
        jobs.append(analyze_job(kind, n, d, path, reference, lemma))
    n = RATIONAL_N
    d = sum(1 if 2 * s == n else 2 for s in RATIONAL_OFFSETS)
    reference = drawing_reference("rational", n, d, rational_path)
    jobs.append(count_job("rational", n, d, rational_path, reference))
    jobs.append(analyze_job("rational", n, d, rational_path, reference, False))
    points = [(Fraction(i), Fraction(i * i)) for i in range(STAR[0])] + rational_points
    return Workload(jobs, points)


BUILDERS = {"exhaustive": build_exhaustive, "corpus": build_corpus, "drawings": build_drawings}
