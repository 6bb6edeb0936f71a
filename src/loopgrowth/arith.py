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


def moebius_invert(values: list) -> None:
    """Replace values[n] by sum_{d | n} mu(n/d) values[d] for n >= 1, in place.

    Once the proper divisors of e have subtracted theirs, values[e] holds its
    own term, which it then subtracts from each proper multiple of e.

    >>> tau = [0, 1, 2, 2, 3, 2, 4]
    >>> moebius_invert(tau)
    >>> tau
    [0, 1, 1, 1, 1, 1, 1]
    """
    n = len(values) - 1
    for e in range(1, n // 2 + 1):
        for m in range(2 * e, n + 1, e):
            values[m] -= values[e]


def is_prime(n: int) -> bool:
    """Trial division.

    >>> [q for q in range(20) if is_prime(q)]
    [2, 3, 5, 7, 11, 13, 17, 19]
    """
    return n >= 2 and all(n % q for q in range(2, isqrt(n) + 1))
