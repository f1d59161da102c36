"""Time labeled enumeration on the `corpus` streams, for BENCH_enumeration.json.

    PYTHONPATH=src python scripts/enumeration_rate.py [--rounds R]

Prints one JSON line for each stream the `corpus` benchmark enumerates,
(9, 2), (8, 3) and (8, 4), with its number of graphs and, from the least
over R rounds of one whole stream's time (the least is the reading that
other load on the machine disturbs least):

- "lex_fill_per_s": graphs per second of the bare walk, `lex_fill(n, d)`;
- "enumerate_per_s": graphs per second of `enumerate_labeled_regular(n, d)`,
  which wraps each of the walk's tuples in a `RegularGraph`;
- "peak_kb": the tracemalloc peak of one bare walk, in KB, its memo of
  completions included (each tuple is dropped once hashed);
- "digest": SHA-256 of the stream, each tuple's repr in order, so runs on
  two trees can be checked to yield the same graphs in the same order.

Point PYTHONPATH at another checkout's src to measure that tree.
"""

import argparse
import hashlib
import json
import tracemalloc
from collections import deque

from maxcross.graph import enumerate_labeled_regular, lex_fill

from harness import per_call_us

STREAMS = ((9, 2), (8, 3), (8, 4))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args()
    for n, d in STREAMS:
        stream = hashlib.sha256()
        graphs = 0
        tracemalloc.start()
        for edges in lex_fill(n, d):
            stream.update(repr(edges).encode())
            graphs += 1
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()

        def walk():
            deque(lex_fill(n, d), maxlen=0)

        def enumerate_graphs():
            deque(enumerate_labeled_regular(n, d), maxlen=0)

        print(json.dumps({
            "n": n, "d": d, "graphs": graphs,
            "lex_fill_per_s": round(graphs / per_call_us(walk, args.rounds, 1) * 1e6),
            "enumerate_per_s": round(
                graphs / per_call_us(enumerate_graphs, args.rounds, 1) * 1e6
            ),
            "peak_kb": round(peak / 1024, 1),
            "digest": stream.hexdigest()[:16],
        }), flush=True)


if __name__ == "__main__":
    main()
