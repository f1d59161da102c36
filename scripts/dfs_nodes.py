"""Wall time and node count of one convex search, for the BENCH_*.json files.

    PYTHONPATH=src python scripts/dfs_nodes.py N D [--workers W] [--count]
        [--space graph|complement]

Prints one JSON line for convex_max(N, D, long_run=True) on W workers: its
wall time, maximum, graphs examined and witness.  With --count it instead
runs on one worker, counts every call of the prune hook that the search
hands to lex_fill (a search node, shard roots and leaves included) and
prints the count; the wrapper slows the search, so that run is not timed.
--space makes a --count run search every shard in that space, G itself or
its complement, instead of the one the search picks for (N, D); it is for
comparing the two, and the count line then names the space.
Point PYTHONPATH at another checkout's src to measure that tree.
"""

import argparse
import json
import time

import maxcross.search as search
from harness import hook_calls


def count_nodes(n: int, d: int) -> int:
    with hook_calls() as calls:
        search.convex_max(n, d, long_run=True)
    return sum(calls)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("n", type=int)
    parser.add_argument("d", type=int)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--count", action="store_true")
    parser.add_argument("--space", choices=("graph", "complement"))
    args = parser.parse_args()
    if args.space and not args.count:
        parser.error("--space needs --count")
    if args.count:
        line = {"n": args.n, "d": args.d}
        if args.space:
            line["space"] = args.space
            complement = args.space == "complement"
            search._searches_complement = lambda n, d: complement
        line["nodes"] = count_nodes(args.n, args.d)
        print(json.dumps(line))
        return
    started = time.perf_counter()
    result = search.convex_max(args.n, args.d, workers=args.workers, long_run=True)
    wall = time.perf_counter() - started
    print(json.dumps({
        "n": args.n, "d": args.d, "workers": args.workers, "wall_s": round(wall, 4),
        "max": result.max_crossings, "examined": result.graphs_examined,
        "witness": search.edges_token(result.witness.edges),
    }))


if __name__ == "__main__":
    main()
