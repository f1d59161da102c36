"""Time the small-input paths of the `corpus` benchmark, for BENCH_small_inputs.json.

    PYTHONPATH=src python scripts/small_inputs.py [--rounds R]

Prints one JSON line per measurement, each from the least over R rounds of
one call's time (the least is the reading that other load on the machine
disturbs least) and each with a digest of what the timed call computed, so
runs on two trees can be checked to compute the same thing:

- "probe": `perturbation_probe(n, d, trials, seed 1)` on the two cells the
  `corpus` benchmark probes, (10, 4) with 1000 trials and (12, 5) with 50;
  "trials_per_s" is trials over one call's time, and the digest is that of
  (max_crossings, witness edges);
- "dual_route": the `corpus` benchmark's check of every CHECK_EVERY-th
  graph of an enumeration stream, `crossings_convex`, `drawing_from_order`
  and `count_crossings_geometric` on one seeded convex order, the two
  reports compared; "us_per_check" is the mean over the stream's checks,
  and the digest is that of the convex totals;
- "chain": `_sample_by_switching(n, d, rng)` on (10, 4) and (12, 5), the
  switch chain a probe trial runs; "attempts" is SWITCHES_PER_EDGE * m,
  the switch attempts of one call, "attempts_per_s" is attempts over one
  call's time (the timed calls share one rng and go on drawing from it),
  and the digest is that of the edges and rng state of one call on
  random.Random(1).

Point PYTHONPATH at another checkout's src to measure that tree.  The
`enumerate_labeled_regular` graphs/s of the three streams is timed by
scripts/enumeration_rate.py ("enumerate_per_s"); the "enumerate" lines of
the committed BENCH_small_inputs.json were measured with
`git show 87ee192:scripts/small_inputs.py`.
"""

import argparse
import json
import random

from maxcross.constructions import ConvexOrder, crossings_convex, drawing_from_order
from maxcross.geometry import count_crossings_geometric
from maxcross.graph import enumerate_labeled_regular
from maxcross.search import SWITCHES_PER_EDGE, _sample_by_switching, perturbation_probe

from harness import digest, per_call_us

PROBES = ((10, 4, 1000), (12, 5, 50))
STREAMS = ((9, 2), (8, 3), (8, 4))
CHECK_EVERY = 100
CHAINS = ((10, 4), (12, 5))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args()
    for n, d, trials in PROBES:
        result = perturbation_probe(n, d, trials, 1)
        print(json.dumps({
            "probe": [n, d], "trials": trials,
            "trials_per_s": round(
                trials / per_call_us(lambda: perturbation_probe(n, d, trials, 1), args.rounds, 1)
                * 1e6
            ),
            "digest": digest((result.max_crossings, result.witness.edges)),
        }), flush=True)
    for n, d in STREAMS:
        graphs = list(enumerate_labeled_regular(n, d))[::CHECK_EVERY]
        perm = list(range(n))
        random.Random(1).shuffle(perm)
        order = ConvexOrder(tuple(perm))

        def checks():
            totals = []
            for graph in graphs:
                convex = crossings_convex(graph, order)
                if count_crossings_geometric(drawing_from_order(graph, order)) != convex:
                    raise AssertionError(f"({n}, {d}): the two counts differ on {graph}")
                totals.append(convex.total)
            return totals

        print(json.dumps({
            "dual_route": [n, d], "checks": len(graphs),
            "us_per_check": round(per_call_us(checks, args.rounds, 1) / len(graphs), 2),
            "digest": digest(checks()),
        }), flush=True)
    for n, d in CHAINS:
        rng = random.Random(1)
        drawn = digest((_sample_by_switching(n, d, rng), rng.getstate()))
        attempts = SWITCHES_PER_EDGE * n * d // 2
        print(json.dumps({
            "chain": [n, d], "attempts": attempts,
            "attempts_per_s": round(
                attempts / per_call_us(lambda: _sample_by_switching(n, d, rng), args.rounds, 3)
                * 1e6
            ),
            "digest": drawn,
        }), flush=True)


if __name__ == "__main__":
    main()
