"""Time the integer geometric kernel on fixed inputs, for BENCH_side_table.json.

    PYTHONPATH=src python scripts/geometry_kernel.py [--rounds R]

Prints one JSON line per input with the least, over R rounds, of the time
of one call in microseconds (the least is the reading that other load on
the machine disturbs least):

- the `drawings` benchmark inputs, star (29, 14), star-like (22, 10) and
  the seeded rational drawing (n = 24, seed 1, built by
  benchmarks/workloads.py): "sides_us" times `GeometricDrawing(...).sides`
  on a fresh drawing, that is the grid, `degeneracy` and `side_table`, as
  `count` pays them; "side_table_us" times `side_table` alone on the grid;
- the probe's kernel, `crossing_total` on 200 seeded `sample_positions`
  points and `sample_regular_graph` graphs at (6, 3), (8, 4), (10, 4) and
  (12, 5): "crossing_total_us" is the mean call over those 200.

Each line also carries a digest of the side tables or totals, so runs on
two trees can be checked to compute the same thing.  Point PYTHONPATH at
another checkout's src to measure that tree.
"""

import argparse
import json
import random
import sys
from pathlib import Path

from maxcross.constructions import generalized_star, star_like_even
from maxcross.geometry import GeometricDrawing, crossing_total, drawing_from_text, side_table
from maxcross.search import sample_positions, sample_regular_graph

from harness import digest, per_call_us

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
from workloads import rational_drawing  # noqa: E402

PROBE_CELLS = ((6, 3), (8, 4), (10, 4), (12, 5))
PROBE_INPUTS = 200


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=15)
    args = parser.parse_args()
    drawings = (
        ("star", 29, 14, generalized_star(29, 14)),
        ("starlike", 22, 10, star_like_even(22, 10)),
        ("rational", 24, 7, drawing_from_text(rational_drawing(1)[0])),
    )
    for kind, n, d, drawing in drawings:
        graph, positions = drawing.graph, drawing.positions
        grid = drawing.grid
        print(json.dumps({
            "input": kind, "n": n, "d": d,
            "sides_us": per_call_us(lambda: GeometricDrawing(graph, positions).sides, args.rounds, 2),
            "side_table_us": per_call_us(lambda: side_table(grid, graph.edges), args.rounds, 2),
            "digest": digest(drawing.sides),
        }), flush=True)
    for n, d in PROBE_CELLS:
        rng = random.Random(f"geometry_kernel {n} {d}")
        inputs = [(sample_positions(n, rng), sample_regular_graph(n, d, rng).edges)
                  for _ in range(PROBE_INPUTS)]

        def totals():
            return [crossing_total(pts, edges) for pts, edges in inputs]

        us = per_call_us(totals, args.rounds, 2) / PROBE_INPUTS
        print(json.dumps({
            "input": "probe", "n": n, "d": d, "crossing_total_us": round(us, 3),
            "digest": digest(totals()),
        }), flush=True)


if __name__ == "__main__":
    main()
