"""Elementary number theory shared by the series, necklace and torsion code."""

from __future__ import annotations

from math import isqrt


def divisors(n: int) -> list:
    """Positive divisors of a positive integer, ascending.

    >>> divisors(12)
    [1, 2, 3, 4, 6, 12]
    """
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def divisor_sieve(n: int) -> tuple:
    """Ascending divisor lists and Moebius values of 0..n, index 0 [] and 0.

    mu sums to 0 over the divisors of k > 1, so each mu(d) leaves its multiples.

    >>> divs, mu = divisor_sieve(12)
    >>> divs[12], mu[1:11]
    ([1, 2, 3, 4, 6, 12], [1, -1, -1, 0, -1, 1, -1, 0, 0, 1])
    """
    divs = [[] for _ in range(n + 1)]
    mu = [int(k == 1) for k in range(n + 1)]
    for d in range(1, n + 1):
        for m in range(d, n + 1, d):
            divs[m].append(d)
            if m > d:
                mu[m] -= mu[d]
    return divs, mu


def is_prime(n: int) -> bool:
    """Trial division.

    >>> [q for q in range(20) if is_prime(q)]
    [2, 3, 5, 7, 11, 13, 17, 19]
    """
    return n >= 2 and all(n % q for q in range(2, isqrt(n) + 1))
