"""Command-line surface: construct, count, analyze, formula, search, table, render.

Every subcommand writes deterministic output: identical arguments (and seed)
produce byte-identical stdout and files.  Timing data therefore never goes
to stdout.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .analysis import type_profile
from .constructions import construction_params, generalized_star, star_like_even
from .errors import ConstructionError, DegeneracyError, ResourceLimitError
from .formulas import best_known
from .geometry import (
    GeometricDrawing,
    count_crossings_geometric,
    drawing_to_text,
    load_drawing,
)
from .graph import Edge, write_utf8
from .search import (
    SearchResult, convex_max, edges_token, perturbation_probe, reproduce_table,
)


# SVG sizes: user units per drawing unit, then vertex radius and line width.
SCALE = 24.0
VERTEX_RADIUS = 5.0
STROKE_WIDTH = 1.6


def _circle_points(n: int) -> list[tuple[float, float]]:
    radius = float(n)
    return [
        (radius * math.cos(2 * math.pi * i / n), radius * math.sin(2 * math.pi * i / n))
        for i in range(n)
    ]


def render_svg(
    drawing: GeometricDrawing,
    highlight: frozenset[Edge] = frozenset(),
    *,
    circle_layout: bool = False,
) -> str:
    """Render a drawing as a standalone SVG 1.1 document.

    highlight edges are drawn dashed; they may name vertex pairs that are
    not edges of the graph (deleted-edge visualization).
    circle_layout re-embeds the vertices on a regular n-gon for display;
    it changes pixels only, never any reported count.  The viewBox is the
    bounding box of the points plus a 5 percent margin.
    """
    n = drawing.graph.n
    if circle_layout:
        pts = _circle_points(n)
    else:
        pts = [(float(Fraction(p.x)), float(Fraction(p.y))) for p in drawing.positions]
    min_x = min(x for x, _ in pts)
    max_x = max(x for x, _ in pts)
    min_y = min(y for _, y in pts)
    max_y = max(y for _, y in pts)
    pad = max(max_x - min_x, max_y - min_y, 1.0) * 0.05
    width = (max_x - min_x + 2 * pad) * SCALE
    height = (max_y - min_y + 2 * pad) * SCALE

    def tx(x: float) -> str:
        return f"{(x - min_x + pad) * SCALE:.3f}"

    def ty(y: float) -> str:
        # SVG y grows downward; flip so the drawing keeps its orientation.
        return f"{(max_y - y + pad) * SCALE:.3f}"

    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="0 0 {width:.3f} {height:.3f}">',
        f'<g stroke="black" stroke-width="{STROKE_WIDTH:.3f}" fill="none">',
    ]
    solid = [e for e in drawing.graph.edges if e not in highlight]
    dashed = sorted(highlight)
    for u, v in dashed:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"dashed edge {u}-{v} names a vertex outside 0..{n - 1}")
    for u, v in solid:
        (x1, y1), (x2, y2) = pts[u], pts[v]
        lines.append(
            f'<line x1="{tx(x1)}" y1="{ty(y1)}" x2="{tx(x2)}" y2="{ty(y2)}" />'
        )
    for u, v in dashed:
        (x1, y1), (x2, y2) = pts[u], pts[v]
        lines.append(
            f'<line x1="{tx(x1)}" y1="{ty(y1)}" x2="{tx(x2)}" y2="{ty(y2)}" '
            'stroke-dasharray="6 4" />'
        )
    lines.append("</g>")
    lines.append('<g fill="black" stroke="none">')
    for x, y in pts:
        lines.append(
            f'<circle cx="{tx(x)}" cy="{ty(y)}" r="{VERTEX_RADIUS:.3f}" />'
        )
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _write_text(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        write_utf8(path, text)


def _parse_edge_list(spec_text: str) -> frozenset[Edge]:
    edges = set()
    for item in spec_text.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            u_text, v_text = item.split("-")
            u, v = int(u_text), int(v_text)
        except ValueError as exc:
            raise ValueError(f"bad edge {item!r}, expected like 0-3") from exc
        if u == v:
            raise ValueError(f"bad edge {item!r}: endpoints must differ")
        edges.add((min(u, v), max(u, v)))
    return frozenset(edges)


def _cmd_construct(args: argparse.Namespace) -> int:
    if args.kind == "star":
        drawing = generalized_star(args.n, args.d)
        trailer = f"construction star {args.n} {args.d}"
    else:
        drawing = star_like_even(args.n, args.d)
        params = construction_params(args.n, args.d)
        case = "even" if (args.n // params.g) % 2 == 0 else "odd"
        trailer = f"construction starlike {args.n} {args.d} case {case}"
    _write_text(args.output, drawing_to_text(drawing, trailer=trailer))
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    drawing = load_drawing(args.file)
    report = count_crossings_geometric(drawing)
    print(f"crossings {report.total}")
    print(f"noncrossing {report.noncrossing}")
    print(f"pairs {report.pair_count}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    drawing = load_drawing(args.file)
    report = count_crossings_geometric(drawing)
    profile = type_profile(drawing)
    print(f"n {drawing.graph.n}")
    print(f"d {drawing.graph.d}")
    print(f"max_type {profile.max_type}")
    print("y " + " ".join(str(c) for c in profile.endpoint_counts))
    for (i, j), count in sorted(profile.edge_counts.items()):
        print(f"x {i} {j} {count}")
    print(f"M {profile.accounting}")
    print(f"N {report.noncrossing}")
    print(f"P {report.pair_count}")
    print(f"crossings {report.total}")
    if args.check_lemma:
        failure = profile.coverage_gap()
        if failure is None:
            print("coverage ok")
        else:
            vertex, missing = failure
            print(f"coverage vertex={vertex} missing={missing}")
    return 0


def _cmd_formula(args: argparse.Namespace) -> int:
    report = best_known(args.n, args.d)
    print(f"n {report.n}")
    print(f"d {report.d}")
    print(f"lower {report.lower}")
    print(f"upper {report.upper}")
    print(f"exact {'yes' if report.exact else 'no'}")
    print(f"conjectured {'yes' if report.conjectured else 'no'}")
    print("provenance " + " ".join(report.provenance))
    return 0


def _print_search_result(result: SearchResult) -> None:
    print(f"n {result.n}")
    print(f"d {result.d}")
    print(f"mode {result.mode}")
    print(f"max_crossings {result.max_crossings}")
    print(f"graphs_examined {result.graphs_examined}")
    print(f"witness {edges_token(result.witness.edges)}")


def _cmd_search(args: argparse.Namespace) -> int:
    if args.mode == "convex":
        result = convex_max(
            args.n,
            args.d,
            workers=args.workers,
            long_run=args.long_run,
            checkpoint_dir=args.checkpoint_dir,
        )
    else:
        result = perturbation_probe(args.n, args.d, args.trials, args.seed)
    _print_search_result(result)
    return 0


def _format_table_text(entries) -> str:
    header = (
        f"{'n':>3} {'d':>3} {'value':>7}  {'status':<12} "
        f"{'reference':>9} {'search':>7}"
    )
    lines = [header]
    for entry in entries:
        reference = "-" if entry.reference is None else str(entry.reference)
        search = "-" if entry.search_value is None else str(entry.search_value)
        lines.append(
            f"{entry.n:>3} {entry.d:>3} {entry.value:>7}  "
            f"{entry.status:<12} {reference:>9} {search:>7}"
        )
    return "\n".join(lines) + "\n"


def _format_table_csv(entries) -> str:
    lines = ["n,d,value,status"]
    lines.extend(f"{e.n},{e.d},{e.value},{e.status}" for e in entries)
    return "\n".join(lines) + "\n"


def _cmd_table(args: argparse.Namespace) -> int:
    entries = reproduce_table(args.max_n)
    if args.format == "csv":
        sys.stdout.write(_format_table_csv(entries))
    else:
        sys.stdout.write(_format_table_text(entries))
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    drawing = load_drawing(args.file)
    highlight = _parse_edge_list(args.dashed) if args.dashed else frozenset()
    svg = render_svg(drawing, highlight, circle_layout=args.circle_layout)
    _write_text(args.output, svg)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first `run` call and reused after it."""
    parser = argparse.ArgumentParser(
        prog="maxcross",
        description="Maximum rectilinear crossing numbers of regular graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build an extremal drawing")
    p.add_argument("kind", choices=("star", "starlike"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("-o", "--output", default=None, metavar="FILE")

    p = sub.add_parser("count", help="count crossings of a drawing file")
    p.add_argument("file")

    p = sub.add_parser("analyze", help="endvertex-type profile of a drawing file")
    p.add_argument("file")
    p.add_argument("--check-lemma", action="store_true")

    p = sub.add_parser("formula", help="best known bounds for (n, d)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)

    p = sub.add_parser(
        "search",
        help="maximize crossings over labeled graphs",
        description="Maximize crossings over labeled d-regular graphs.  In the "
        "output, graphs_examined counts the graphs the convex search reached "
        "as leaves its bound did not prune (so a sharper bound lowers it), or "
        "the trials of a probe; it is the same for every --workers value.",
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--mode", choices=("convex", "probe"), default="convex")
    p.add_argument("--trials", type=int, default=1000,
                   help="random graphs to try (probe mode only)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the random trials (probe mode only)")
    p.add_argument("--workers", type=int, default=1,
                   help="most worker processes (convex mode only)")
    p.add_argument("--long-run", action="store_true",
                   help="raise the size cap from n = 9 to n = 12 (convex mode only)")
    p.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                   help="write and resume per-shard checkpoints (convex mode only)")

    p = sub.add_parser("table", help="best-known value table")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--format", choices=("text", "csv"), default="text")

    p = sub.add_parser("render", help="render a drawing file as SVG")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True, metavar="FILE")
    p.add_argument("--circle-layout", action="store_true")
    p.add_argument("--dashed", default=None, metavar="EDGES",
                   help="comma-separated edges drawn dashed, like 0-2,1-5")

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse argv and dispatch; returns the process exit status."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        # Found by name at call time, not pinned in the cached parser.
        return globals()[f"_cmd_{args.command}"](args)
    except (DegeneracyError, ConstructionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ResourceLimitError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(run())
