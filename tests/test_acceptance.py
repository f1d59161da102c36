"""Acceptance suite: one test per shipped guarantee, one verdict line each.

Every test prints `ACCEPTANCE <k>: PASS|FAIL <summary>` directly to the
terminal (bypassing capture) so the suite doubles as a checklist.  All
numeric checks are exact; runtime budgets are asserted alongside.

Criterion 5 checks that removal_count(n, k) equals the measured crossing
drop when the length-k diagonals are deleted from the convex drawing over
the full range 2 <= k <= floor(n/2): n(k-1)(n-2k) below n/2, and C(n/2, 2)
for the pairwise-crossing diameters at k = n/2.
"""

import random
import time

from maxcross.analysis import lemma_coverage_check, noncrossing_accounting, type_profile
from maxcross.cli import run
from maxcross.constructions import (
    ConvexOrder,
    drawing_from_order,
    generalized_star,
    star_like_even,
)
from maxcross.formulas import (
    c_function,
    exact_odd,
    lower_bound_even,
    min_noncrossing_pairs,
    removal_count,
    upper_bound,
)
from maxcross.geometry import count_crossings_geometric
from maxcross.graph import connected_components, make_circulant
from maxcross.search import convex_max, perturbation_probe, reproduce_table

ORACLE_CELLS = {
    (5, 2): 5, (6, 2): 7, (7, 2): 14, (8, 2): 18,
    (4, 3): 1, (6, 3): 15, (8, 3): 38,
    (5, 4): 5, (6, 4): 15, (7, 4): 35, (8, 4): 52,
    (6, 5): 15, (8, 5): 70,
    (7, 6): 35, (8, 6): 70,
    (8, 7): 70,
}


def verdict(capsys, number: int, ok: bool, summary: str) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} {summary}")


def feasible_pairs(n_lo, n_hi, predicate=lambda n, d: True):
    for n in range(n_lo, n_hi + 1):
        for d in range(2, n):
            if n * d % 2 == 0 and predicate(n, d):
                yield n, d


def test_criterion_01_star_matches_exact_odd(capsys):
    started = time.perf_counter()
    failures = []
    for n, d in feasible_pairs(4, 14, lambda n, d: (n + d) % 2 == 1):
        got = count_crossings_geometric(generalized_star(n, d)).total
        if got != exact_odd(n, d):
            failures.append((n, d, got))
    spot_ok = (
        count_crossings_geometric(generalized_star(10, 7)).total == 210
        and count_crossings_geometric(generalized_star(9, 4)).total == 81
        and count_crossings_geometric(generalized_star(5, 2)).total == 5
    )
    elapsed = time.perf_counter() - started
    ok = not failures and spot_ok and elapsed < 5.0
    verdict(capsys, 1, ok,
            f"generalized star attains the odd-case closed form on 41 pairs "
            f"({elapsed:.2f}s)")
    assert not failures and spot_ok
    assert elapsed < 5.0


def test_criterion_02_star_like_matches_even_bound(capsys):
    started = time.perf_counter()
    failures = []
    for n, d in feasible_pairs(4, 14, lambda n, d: n % 2 == 0 and d % 2 == 0):
        got = count_crossings_geometric(star_like_even(n, d)).total
        if got != lower_bound_even(n, d):
            failures.append((n, d, got))
    spots = {
        (8, 2): 18,   # n/gcd even deletion pattern
        (10, 2): 32,  # n/gcd odd deletion pattern
        (8, 4): 52,
    }
    spot_ok = all(
        count_crossings_geometric(star_like_even(n, d)).total == want
        for (n, d), want in spots.items()
    )
    elapsed = time.perf_counter() - started
    ok = not failures and spot_ok and elapsed < 5.0
    verdict(capsys, 2, ok,
            f"star-like drawing attains the even-even bound on 21 pairs, "
            f"both gcd sub-cases ({elapsed:.2f}s)")
    assert not failures and spot_ok
    assert elapsed < 5.0


def test_criterion_03_table_reproduction(capsys):
    started = time.perf_counter()
    entries = {(e.n, e.d): e for e in reproduce_table(10)}
    from maxcross.search import REFERENCE_VALUES

    bad = []
    for (n, d), printed in REFERENCE_VALUES.items():
        entry = entries[(n, d)]
        if n <= 8 or (n + d) % 2 == 1 or (n, d) == (10, 4):
            if entry.value != printed or entry.status == "discrepancy":
                bad.append((n, d))
    flag = entries[(10, 6)]
    flag_ok = (flag.status == "discrepancy" and flag.value == 173
               and flag.reference == 133)
    code = run(["table", "--max-n", "8"])
    cli_out = capsys.readouterr().out
    cli_rows = [line.split() for line in cli_out.splitlines()[1:]]
    cli_ok = code == 0 and all(
        int(row[2]) == REFERENCE_VALUES[(int(row[0]), int(row[1]))]
        for row in cli_rows
        if (int(row[0]), int(row[1])) in REFERENCE_VALUES
    )
    elapsed = time.perf_counter() - started
    ok = not bad and flag_ok and cli_ok and elapsed < 1.0
    verdict(capsys, 3, ok,
            f"table matches every printed cell (16 with n <= 8, all odd "
            f"n=9,10 cells, (10,4)=105) and flags (10,6) as 173 vs 133 "
            f"({elapsed:.2f}s)")
    assert not bad and flag_ok and cli_ok
    assert elapsed < 1.0


def test_criterion_04_oracle_confirms_values(capsys):
    started = time.perf_counter()
    failures = []
    for (n, d), want in sorted(ORACLE_CELLS.items()):
        got = convex_max(n, d, workers=4).max_crossings
        if got != want:
            failures.append((n, d, got, want))
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 60.0
    verdict(capsys, 4, ok,
            f"exhaustive convex search reproduces all 16 values with "
            f"n <= 8 ({elapsed:.2f}s)")
    assert not failures
    assert elapsed < 60.0


def test_criterion_05_stepwise_deletion_identity(capsys):
    started = time.perf_counter()

    def partial_total(n, j):
        if j > n // 2:
            return 0
        graph = make_circulant(n, range(j, n // 2 + 1))
        drawing = drawing_from_order(graph, ConvexOrder.identity(n))
        return count_crossings_geometric(drawing).total

    violations = []
    for n in range(4, 13):
        for k in range(2, n // 2 + 1):
            drop = partial_total(n, k) - partial_total(n, k + 1)
            if drop != removal_count(n, k):
                violations.append((n, k, drop, removal_count(n, k)))
    elapsed = time.perf_counter() - started
    ok = not violations and elapsed < 10.0
    detail = (
        f"deletion-count identity over full range 2 <= k <= n/2 ({elapsed:.2f}s)"
        if ok
        else (
            f"deletion-count identity over 2 <= k <= n/2 ({elapsed:.2f}s, "
            "budget 10s); violations: "
            + (", ".join(f"n={n} k={k} drop={g} formula={w}"
                         for n, k, g, w in violations) or "none")
        )
    )
    verdict(capsys, 5, ok, detail)
    assert elapsed < 10.0
    assert not violations, detail


def test_criterion_06_accounting_invariants_on_corpus(capsys):
    started = time.perf_counter()
    from maxcross.search import sample_drawing, sample_regular_graph

    pairs = list(feasible_pairs(4, 10))
    rng = random.Random(20240811)
    checked = 0
    failures = []
    while checked < 200:
        n, d = pairs[checked % len(pairs)]
        drawing = sample_drawing(sample_regular_graph(n, d, rng), rng)
        profile = type_profile(drawing)
        report = noncrossing_accounting(drawing)
        holds = (
            sum(profile.endpoint_counts) == n * d
            and len(profile.vertex_profiles) == n
            and all(len(sig) == d for sig in profile.vertex_profiles)
            and lemma_coverage_check(drawing) is None
            and report.crossings == report.pair_count - report.noncrossing
            and report.accounting_bound_holds
            and report.accounting >= min_noncrossing_pairs(n, d)
            and report.crossings <= upper_bound(n, d)
        )
        if not holds:
            failures.append((n, d, checked))
        checked += 1
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 30.0
    verdict(capsys, 6, ok,
            f"type/accounting identities, coverage, N >= M/2, M floor and "
            f"crossing cap hold on 200 random drawings ({elapsed:.2f}s)")
    assert not failures
    assert elapsed < 30.0


def test_criterion_07_perturbation_never_beats_convex(capsys):
    started = time.perf_counter()
    exceeded = []
    attained = {}
    for n, d in feasible_pairs(4, 7):
        cap = convex_max(n, d).max_crossings
        probe = perturbation_probe(n, d, 10_000, seed=1)
        if probe.max_crossings > cap:
            exceeded.append((n, d, probe.max_crossings, cap))
        attained[(n, d)] = probe.max_crossings == cap
    elapsed = time.perf_counter() - started
    ok = (not exceeded and attained[(5, 2)] and attained[(4, 3)]
          and elapsed < 120.0)
    verdict(capsys, 7, ok,
            f"10k random non-convex drawings per cell never beat the convex "
            f"maximum over 11 cells; (5,2) and (4,3) attained ({elapsed:.2f}s)")
    assert not exceeded
    assert attained[(5, 2)] and attained[(4, 3)]
    assert elapsed < 120.0


def test_criterion_08_c_function_positive(capsys):
    started = time.perf_counter()
    failures = [
        (s, d)
        for d in range(3, 61)
        for s in range(1, (d - 1) // 2 + 1)
        if c_function(s, d) <= 0
    ]
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 1.0
    verdict(capsys, 8, ok,
            f"c(s, d) > 0 across 3 <= d <= 60 ({elapsed:.2f}s)")
    assert not failures
    assert elapsed < 1.0


def test_criterion_09_degree_two_witness_structure(capsys):
    started = time.perf_counter()
    eight = sorted(len(c) for c in connected_components(convex_max(8, 2).witness))
    six = sorted(len(c) for c in connected_components(convex_max(6, 2).witness))
    elapsed = time.perf_counter() - started
    ok = eight == [4, 4] and six == [6] and elapsed < 5.0
    verdict(capsys, 9, ok,
            f"extremal 2-regular witnesses decompose as C4+C4 (n=8) and "
            f"C6 (n=6) ({elapsed:.2f}s)")
    assert eight == [4, 4]
    assert six == [6]
    assert elapsed < 5.0


def test_criterion_10_discrepancy_cell_not_resolved_here(capsys):
    # the true (10, 6) value needs an hours-scale exhaustive run; shipping
    # acceptance is the discrepancy flag itself, never a guessed number
    entry = next(e for e in reproduce_table(10)
                 if (e.n, e.d) == (10, 6))
    ok = (entry.status == "discrepancy" and entry.value == 173
          and entry.reference == 133 and entry.search_value is None)
    verdict(capsys, 10, ok,
            "(10,6) ships as a flagged discrepancy (formula 173 vs printed "
            "133); resolution is an explicit long-run job")
    assert ok
