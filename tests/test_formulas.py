"""Closed-form crossing number formulas.

Frozen values below were cross-checked by hand and against the exhaustive
convex-position oracle (see test_search); the two routes are independent.
"""

from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxcross.formulas import (
    best_known,
    c_function,
    exact_complete,
    exact_cycle,
    exact_odd,
    exact_r_n_2_even,
    exact_r_n_nminus2,
    lower_bound_even,
    min_noncrossing_pairs,
    removal_count,
    thrackle_upper,
    upper_bound,
)


class TestExactOdd:
    @pytest.mark.parametrize(
        "n,d,value",
        [
            (5, 2, 5), (7, 2, 14), (9, 2, 27),
            (4, 3, 1), (6, 3, 15), (8, 3, 38), (10, 3, 70),
            (5, 4, 5), (7, 4, 35), (9, 4, 81),
            (6, 5, 15), (8, 5, 70), (10, 5, 150),
            (7, 6, 35), (9, 6, 126),
            (8, 7, 70), (10, 7, 210),
            (9, 8, 126), (10, 9, 210),
        ],
    )
    def test_table_values(self, n, d, value):
        assert exact_odd(n, d) == value

    def test_rejects_even_parity(self):
        with pytest.raises(ValueError):
            exact_odd(8, 4)

    def test_deletion_chain(self):
        # the extremal drawing is convex K_n minus short diagonals, so its
        # count is C(n,4) minus the per-length removal amounts
        for n in range(4, 15):
            for d in range(2, n):
                if (n + d) % 2 == 0 or n * d % 2:
                    continue
                k = (n - d + 1) // 2
                removed = sum(removal_count(n, j) for j in range(1, k))
                assert exact_odd(n, d) == comb(n, 4) - removed


class TestEvenEven:
    @pytest.mark.parametrize(
        "n,d,value",
        [
            (6, 2, 7), (8, 2, 18), (10, 2, 32),
            (6, 4, 15), (8, 4, 52), (10, 4, 105),
            (8, 6, 70), (10, 6, 173),
            (10, 8, 210),
        ],
    )
    def test_values(self, n, d, value):
        assert lower_bound_even(n, d) == value

    def test_degree_two_specialization(self):
        for n in range(4, 40, 2):
            assert lower_bound_even(n, 2) == exact_r_n_2_even(n)

    def test_near_complete_specialization(self):
        for n in range(4, 40, 2):
            assert lower_bound_even(n, n - 2) == comb(n, 4)

    def test_below_upper_bound(self):
        for n in range(4, 30, 2):
            for d in range(2, n, 2):
                assert lower_bound_even(n, d) < upper_bound(n, d)

    def test_gcd_penalty_cases(self):
        # (8,2): n/g even, no penalty term; (10,2): n/g odd, penalty applies
        assert gcd(8, 3) == 1 and (8 // gcd(8, 3)) % 2 == 0
        assert (10 // gcd(10, 4)) % 2 == 1
        assert lower_bound_even(8, 2) == 18
        assert lower_bound_even(10, 2) == 32

    def test_rejects_odd_arguments(self):
        with pytest.raises(ValueError):
            lower_bound_even(9, 4)
        with pytest.raises(ValueError):
            lower_bound_even(8, 3)


class TestUpperBound:
    def test_agrees_with_exact_in_odd_case(self):
        for n in range(4, 20):
            for d in range(2, n):
                if (n + d) % 2 and n * d % 2 == 0:
                    assert upper_bound(n, d) == exact_odd(n, d)

    def test_even_even_value(self):
        assert upper_bound(8, 4) == 56
        assert upper_bound(10, 6) == 185

    def test_integrality_sweep(self):
        # the closed forms divide exactly for every feasible pair; a slip
        # in any polynomial would raise ArithmeticError here
        for n in range(3, 201):
            for d in range(2, n):
                if n * d % 2:
                    continue
                assert upper_bound(n, d) >= 0
                if n % 2 == 0 and d % 2 == 0:
                    assert lower_bound_even(n, d) >= 0


class TestSmallFamilies:
    @pytest.mark.parametrize("n,value", [(5, 5), (7, 14), (9, 27), (11, 44)])
    def test_cycle_odd(self, n, value):
        assert exact_cycle(n) == value

    @pytest.mark.parametrize("n,value", [(4, 1), (6, 7), (8, 17), (10, 31)])
    def test_cycle_even(self, n, value):
        assert exact_cycle(n) == value

    @pytest.mark.parametrize("n,value", [(4, 1), (6, 7), (8, 18), (10, 32)])
    def test_class_of_two_regular(self, n, value):
        assert exact_r_n_2_even(n) == value

    def test_even_cycle_below_class_max(self):
        # a single cycle is not extremal in the even class once n >= 8
        for n in range(8, 30, 2):
            assert exact_cycle(n) < exact_r_n_2_even(n)

    def test_complete(self):
        for n in range(4, 15):
            assert exact_complete(n) == comb(n, 4)
        assert exact_r_n_nminus2(8) == comb(8, 4)

    def test_thrackle_upper(self):
        # degree 2, odd n: every non-adjacent pair crosses in the extremal
        # drawing, so the thrackle bound is attained
        for n in range(5, 16, 2):
            assert thrackle_upper(n, 2) == exact_odd(n, 2)
        assert thrackle_upper(10, 7) == 385

    def test_removal_count(self):
        assert removal_count(9, 2) == 45
        assert removal_count(10, 4) == 60
        assert removal_count(10, 1) == 0
        # the diameter class of an even polygon, and the top class of an odd one
        assert removal_count(4, 2) == 1
        assert removal_count(10, 5) == 10
        assert removal_count(9, 4) == 27

    def test_removal_count_full_chain(self):
        # deleting every length class in turn empties the convex K_n
        for n in range(3, 40):
            total = sum(removal_count(n, j) for j in range(1, n // 2 + 1))
            assert total == comb(n, 4), n


class TestCFunction:
    def test_hand_values(self):
        assert c_function(1, 4) == 4
        assert c_function(2, 5) == 6

    def test_positive_over_range(self):
        for d in range(3, 61):
            for s in range(1, (d - 1) // 2 + 1):
                assert c_function(s, d) > 0, (s, d)


class TestMinNoncrossing:
    def test_matches_star_accounting(self):
        assert min_noncrossing_pairs(10, 7) == 350

    def test_degree_two_is_zero(self):
        for n in range(4, 12):
            assert min_noncrossing_pairs(n, 2) == 0


class TestBestKnown:
    def test_odd_pair_exact(self):
        report = best_known(10, 7)
        assert report.lower == report.upper == 210
        assert report.exact and not report.conjectured
        assert "generalized-star" in report.provenance

    def test_degree_two_exact(self):
        report = best_known(8, 2)
        assert report.lower == report.upper == 18
        assert report.exact

    def test_near_complete_exact(self):
        report = best_known(10, 8)
        assert report.lower == report.upper == 210
        assert report.exact

    def test_even_even_conjectured(self):
        report = best_known(8, 4)
        assert (report.lower, report.upper) == (52, 56)
        assert report.conjectured and not report.exact
        assert "star-like" in report.provenance

    def test_infeasible_raises(self):
        with pytest.raises(ValueError):
            best_known(7, 3)

    @given(st.integers(3, 60), st.integers(2, 59))
    @settings(max_examples=80, deadline=None)
    def test_bounds_ordered(self, n, d):
        if d >= n or n * d % 2:
            return
        report = best_known(n, d)
        assert 0 <= report.lower <= report.upper
        assert report.exact == (report.lower == report.upper)


@pytest.mark.parametrize(
    "formula, args, text",
    [
        (exact_cycle, (2,), "need n >= 3, got n=2"),
        (exact_r_n_2_even, (5,), "need even n >= 4, got n=5"),
        (exact_complete, (2,), "need n >= 3, got n=2"),
        (exact_r_n_nminus2, (5,), "need even n >= 4, got n=5"),
        (removal_count, (2, 1), "need n >= 3, got n=2"),
        (removal_count, (6, 4), "need 1 <= k <= 3, got k=4"),
        (c_function, (1, 2), "need d >= 3, got d=2"),
        (c_function, (2, 4), "need 0 <= s <= 1, got s=2"),
    ],
)
def test_range_check(formula, args, text):
    # outside its range a closed form returns a wrong value, not an error:
    # exact_r_n_2_even(5) would be 3 and removal_count(6, 4) would be -36
    with pytest.raises(ValueError) as caught:
        formula(*args)
    assert str(caught.value) == text
