"""Wall time and node count of one convex search, for BENCH_dfs_nodes.json.

    PYTHONPATH=src python scripts/dfs_nodes.py N D [--workers W] [--count]

Prints one JSON line for convex_max(N, D, long_run=True) on W workers: its
wall time, maximum, graphs examined and witness.  With --count it instead
runs on one worker, counts every call of the prune hook that the search
hands to lex_fill (a search node, shard roots and leaves included) and
prints the count; the wrapper slows the search, so that run is not timed.
Point PYTHONPATH at another checkout's src to measure that tree.
"""

import argparse
import json
import time

import maxcross.search as search


def count_nodes(n: int, d: int) -> int:
    nodes = 0
    walk = search.lex_fill

    def counting_walk(n, d, prefix, prune):
        def counted(stack, remaining):
            nonlocal nodes
            nodes += 1
            return prune(stack, remaining)

        return walk(n, d, prefix, counted)

    search.lex_fill = counting_walk
    try:
        search.convex_max(n, d, long_run=True)
    finally:
        search.lex_fill = walk
    return nodes


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("n", type=int)
    parser.add_argument("d", type=int)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--count", action="store_true")
    args = parser.parse_args()
    if args.count:
        print(json.dumps({"n": args.n, "d": args.d, "nodes": count_nodes(args.n, args.d)}))
        return
    started = time.perf_counter()
    result = search.convex_max(args.n, args.d, workers=args.workers, long_run=True)
    wall = time.perf_counter() - started
    witness = " ".join(f"{u}-{v}" for u, v in result.witness.edges)
    print(json.dumps({
        "n": args.n, "d": args.d, "workers": args.workers, "wall_s": round(wall, 4),
        "max": result.max_crossings, "examined": result.graphs_examined,
        "witness": witness,
    }))


if __name__ == "__main__":
    main()
