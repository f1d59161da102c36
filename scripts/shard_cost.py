"""Time the fixed work of the convex search, for BENCH_shard_setup.json.

    PYTHONPATH=src python scripts/shard_cost.py [--rounds R]

Prints one JSON line per input with the least, over R rounds, of the time
of one call in microseconds (the least is the reading that other load on
the machine disturbs least).  The inputs are the convex_max calls of one
pass of the `exhaustive` benchmark: its six searched cells, (10, 3) once,
and the 17 cells with n <= 8 that `reproduce_table(10)` searches.

- "shard_list_us" and "shards": `search._searched_stars`, the one decision
  on every vertex-0 star (the dihedral rule and the bound at its root) that
  the shard list is made by, run on every one of those calls, over the
  number of stars it decides; and the number of shards one pass searches,
  where the pass's pool job searches (10, 3) a second time;
- "convex_max_us": `convex_max` on each searched cell of the workload;
- "table_us": `reproduce_table(10)`.

Each line also carries a digest of what the timed calls return, so runs on
two trees can be checked to compute the same thing.  Point PYTHONPATH at
another checkout's src to measure that tree.  The script needs
`search._searched_stars(n, d, floor)`; the "stars" and "root-cut shards"
lines of the committed BENCH files, which time the dihedral rule alone and
shards that the root bound now drops, are measured with
`git show 69ae71a:scripts/shard_cost.py`.
"""

import argparse
import json

import maxcross.search as search
from maxcross.formulas import best_known
from maxcross.graph import feasible, shard_prefixes

from harness import digest, per_call_us

# (n, d, long_run) of the `exhaustive` workload's search jobs
SEARCHED = ((9, 4, False), (9, 6, False), (8, 4, False), (8, 6, False),
            (10, 3, True), (10, 8, True))
TABLE_CELLS = tuple(
    (n, d) for n in range(4, search.TABLE_SEARCH_CAP + 1) for d in range(2, n) if feasible(n, d)
)
PASS_CELLS = tuple((n, d) for n, d, _ in SEARCHED) + TABLE_CELLS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=15)
    args = parser.parse_args()

    count = sum(len(shard_prefixes(n, d)) for n, d in PASS_CELLS)
    floors = [best_known(n, d).lower for n, d in PASS_CELLS]

    def shard_list():
        return [search._searched_stars(n, d, floor) for (n, d), floor in zip(PASS_CELLS, floors)]

    lists = shard_list()
    print(json.dumps({
        "input": "shard list", "calls": len(PASS_CELLS), "stars": count,
        "shards": sum(map(len, lists)) + len(lists[PASS_CELLS.index((10, 3))]),
        "shard_list_us": round(per_call_us(shard_list, args.rounds, 3) / count, 4),
        "digest": digest(lists),
    }), flush=True)

    for n, d, long_run in SEARCHED:
        def run():
            return search.convex_max(n, d, long_run=long_run)

        result = run()
        print(json.dumps({
            "input": "convex_max", "n": n, "d": d,
            "convex_max_us": per_call_us(run, args.rounds, 3),
            "digest": digest((result.max_crossings, result.witness, result.graphs_examined)),
        }), flush=True)

    print(json.dumps({
        "input": "table", "max_n": 10,
        "table_us": per_call_us(lambda: search.reproduce_table(10), args.rounds, 3),
        "digest": digest(search.reproduce_table(10)),
    }), flush=True)


if __name__ == "__main__":
    main()
