"""Closed forms for maximum rectilinear crossing numbers of regular graphs.

All values are computed in exact integer arithmetic.  Each closed form is a
polynomial divided by a constant; the division happens last and raises if
the numerator is not divisible, so a formula bug can never round silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, gcd

from .graph import feasible, require_feasible


def _exact_div(numerator: int, denominator: int, what: str) -> int:
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise ArithmeticError(
            f"{what}: {numerator} is not divisible by {denominator}"
        )
    return quotient


def exact_odd(n: int, d: int) -> int:
    """Maximum crossing number of n-vertex d-regular graphs, n + d odd.

    Equals n*d*(3*n*d - 2*d^2 - 6*d + 2) / 24, attained by the generalized
    star drawing and matched by the pair-accounting upper bound.
    """
    feasible(n, d)  # the range; n + d odd makes n * d even
    if (n + d) % 2 == 0:
        raise ValueError(f"need n + d odd, got n={n}, d={d}")
    return upper_bound(n, d)


def upper_bound(n: int, d: int) -> int:
    """Pair-accounting upper bound, valid for every feasible (n, d).

    Non-adjacent edge pairs minus half the guaranteed non-crossing pairs:
    thrackle_upper(n, d) - min_noncrossing_pairs(n, d) / 2.  For n + d odd
    it is tight; for n, d both even it exceeds the best known construction.
    """
    require_feasible(n, d)
    return _exact_div(n * d * (3 * n * d - 2 * d * d - 6 * d + 2), 24, "upper_bound")


def lower_bound_even(n: int, d: int) -> int:
    """Crossing count of the star-like drawing for n, d both even.

    Base value n*d*(3*n*d - 2*d^2 - 6*d - 1) / 24; when n/gcd(n, k) is odd
    for k = (n - d)/2, the cycle-pairing construction costs an extra
    gcd(n, k)*(2*d - 3) / 4, folded into one exact division.
    """
    feasible(n, d)  # the range; with n and d both even, d <= n - 2
    if n % 2 or d % 2:
        raise ValueError(f"need n and d even, got n={n}, d={d}")
    k = (n - d) // 2
    g = gcd(n, k)
    numerator = n * d * (3 * n * d - 2 * d * d - 6 * d - 1)
    if (n // g) % 2:
        numerator -= 6 * g * (2 * d - 3)
    return _exact_div(numerator, 24, "lower_bound_even")


def exact_cycle(n: int) -> int:
    """Maximum crossing number of the cycle on n vertices."""
    if n < 3:
        raise ValueError(f"need n >= 3, got n={n}")
    if n % 2:
        return _exact_div(n * (n - 3), 2, "exact_cycle")
    return _exact_div(n * (n - 4), 2, "exact_cycle") + 1


def exact_r_n_2_even(n: int) -> int:
    """Maximum over all 2-regular graphs on even n: floor(n*(2*n - 7) / 4).

    Exceeds exact_cycle(n) for n >= 8 because disjoint unions of 4-cycles
    (plus one 6-cycle when n = 2 mod 4) beat the single cycle.
    """
    if n < 4 or n % 2:
        raise ValueError(f"need even n >= 4, got n={n}")
    return n * (2 * n - 7) // 4


def exact_complete(n: int) -> int:
    """Maximum crossing number of the complete graph: every 4-set crosses once."""
    if n < 3:
        raise ValueError(f"need n >= 3, got n={n}")
    return comb(n, 4)


def exact_r_n_nminus2(n: int) -> int:
    """Maximum over (n-2)-regular graphs on even n; coincides with comb(n, 4)."""
    if n < 4 or n % 2:
        raise ValueError(f"need even n >= 4, got n={n}")
    return comb(n, 4)


def thrackle_upper(n: int, d: int) -> int:
    """Number of non-adjacent edge pairs, the trivial crossing ceiling.

    With m = n*d/2 edges, each edge has 2*(d - 1) adjacent partners, so the
    count is m * (m - 2*d + 1) / 2.
    """
    require_feasible(n, d)
    m = n * d // 2
    return _exact_div(m * (m - 2 * d + 1), 2, "thrackle_upper")


def removal_count(n: int, k: int) -> int:
    """Crossings lost when the diagonals of cyclic length k are deleted
    from the convex drawing that still has every diagonal of length >= k.

    For k < n/2 the class is n diagonals and the loss is n*(k - 1)*(n - 2*k).
    For even n and k = n/2 the class is the n/2 diameters, the only edges
    left, which pairwise cross, so the loss is C(n/2, 2).  Summed over
    k = 1..floor(n/2) the losses account for all C(n, 4) crossings of K_n.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got n={n}")
    if not 1 <= k <= n // 2:
        raise ValueError(f"need 1 <= k <= {n // 2}, got k={k}")
    if 2 * k == n:
        return comb(k, 2)
    return n * (k - 1) * (n - 2 * k)


def min_noncrossing_pairs(n: int, d: int) -> int:
    """Lower bound on non-crossing non-adjacent pairs in any drawing.

    n*d*(d - 1)*(d - 2) / 6, from summing the per-edge accounting weights
    over the worst admissible endpoint-type distribution.
    """
    require_feasible(n, d)
    return _exact_div(n * d * (d - 1) * (d - 2), 6, "min_noncrossing_pairs")


def c_function(s: int, d: int) -> int:
    """Accounting surplus of truncating endpoint types below s.

    With D = floor((d - 1)/2), the value is
    s*(d - s - 1)*(d - 2*(D - s + 1)) - 2*sum_{i=1}^{s-1} i*(d - i - 1),
    strictly positive for 1 <= s <= D, which is what makes the minimum
    accounting total attainable only by the all-types-covered profiles.
    """
    if d < 3:
        raise ValueError(f"need d >= 3, got d={d}")
    big_d = (d - 1) // 2
    if not 0 <= s <= big_d:
        raise ValueError(f"need 0 <= s <= {big_d}, got s={s}")
    tail = sum(i * (d - i - 1) for i in range(1, s))
    return s * (d - s - 1) * (d - 2 * (big_d - s + 1)) - 2 * tail


@dataclass(frozen=True)
class BoundReport:
    """Best known bounds for one (n, d) pair.

    exact means lower == upper is proven; conjectured means the lower bound
    is believed tight but unproven.  provenance names the arguments used,
    one tag per ingredient.
    """

    n: int
    d: int
    lower: int
    upper: int
    exact: bool
    conjectured: bool
    provenance: tuple[str, ...]


def best_known(n: int, d: int) -> BoundReport:
    """Dispatch to the sharpest applicable bounds for (n, d)."""
    require_feasible(n, d)
    if (n + d) % 2:
        value = exact_odd(n, d)
        return BoundReport(
            n, d, value, value, True, False, ("generalized-star", "pair-accounting")
        )
    # n + d even and n*d even force both n and d even.
    if d == 2:
        value = exact_r_n_2_even(n)
        return BoundReport(
            n, d, value, value, True, False, ("star-like", "degree-two-cycles")
        )
    if d == n - 2:
        value = exact_r_n_nminus2(n)
        return BoundReport(
            n, d, value, value, True, False, ("star-like", "near-complete")
        )
    return BoundReport(
        n,
        d,
        lower_bound_even(n, d),
        upper_bound(n, d),
        False,
        True,
        ("star-like", "pair-accounting"),
    )
