"""What the BENCH scripts share: the timing loop, the output digest and a
spy on the convex search's prune hook.  Imported by the scripts beside it,
which Python finds when a script is run as `python scripts/<name>.py`.
"""

import hashlib
import time
from contextlib import contextmanager

import maxcross.search as search

TARGET_S = 0.02  # run each timed call about this long per round


def per_call_us(call, rounds: int, digits: int) -> float:
    """Least over rounds of one call's time in microseconds, rounded to
    digits, each round about TARGET_S."""
    started = time.perf_counter()
    call()
    reps = max(1, int(TARGET_S / max(time.perf_counter() - started, 1e-7)))
    times = []
    for _ in range(rounds):
        started = time.perf_counter()
        for _ in range(reps):
            call()
        times.append((time.perf_counter() - started) / reps)
    return round(min(times) * 1e6, digits)


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


@contextmanager
def hook_calls():
    """Count the prune hook calls of each walk the search hands to lex_fill
    while the block runs: yields a list with one count per walk, in the
    order the walks start.  A hook call is a search node, shard roots and
    leaves included."""
    walk = search.lex_fill
    calls = []

    def counting_walk(n, d, prefix, prune):
        index = len(calls)
        calls.append(0)

        def counted(stack, remaining):
            calls[index] += 1
            return prune(stack, remaining)

        return walk(n, d, prefix, counted)

    search.lex_fill = counting_walk
    try:
        yield calls
    finally:
        search.lex_fill = walk
