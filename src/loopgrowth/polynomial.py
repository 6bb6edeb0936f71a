"""Dense integer polynomials with exact root counting.

Coefficients are arbitrary-precision ints stored low degree first, and every
operation stays in integers: gcd by a primitive pseudo-remainder sequence over
Z, exact division, division by binomials 1 - z^a by stride sums and
multiplication by them by stride differences, Taylor shifts for
Descartes counts, and signs at a rational point p/q read off the homogeneous
value q^n f(p/q), so no floating point enters any certificate. Descartes
counts isolate a bare series' pole and recheck every certificate; Sturm
sequences, whose rows are primitive integer polynomials, count roots on
half-open intervals (a, b] exactly from scratch, and serve only as the
tests' oracle: no other module of the package names them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, starmap, zip_longest
from math import gcd as int_gcd
from operator import add, index, sub

from . import _Record, _set


def _strip(coeffs):
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


class IntPolynomial(_Record):
    """An integer polynomial; coeffs[i] is the coefficient of z^i.

    Trailing zeros are stripped on construction, so degree() is the index of
    the last nonzero coefficient (-1 for the zero polynomial). Coefficients
    must be exact integers: a float or a Fraction raises TypeError rather
    than being truncated.

    >>> p = IntPolynomial((1, 0, -2))
    >>> p.degree(), p.eval_at(Fraction(1, 2))
    (2, Fraction(1, 2))
    """

    __slots__ = __match_args__ = ("coeffs",)

    def __init__(self, coeffs: tuple):
        _set(self, "coeffs", _strip(tuple(map(index, coeffs))))

    # -- basic queries ----------------------------------------------------

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def constant_term(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def eval_at(self, x: Fraction) -> Fraction:
        x = Fraction(x)
        return Fraction(_scaled_value(self.coeffs, x.numerator, x.denominator),
                        x.denominator ** max(self.degree(), 0))

    def sign_at(self, x: Fraction) -> int:
        """Sign (-1, 0 or 1) of the value at the rational (or integer) point x."""
        return self.sign_at_ratio(x.numerator, x.denominator)

    def sign_at_ratio(self, p: int, q: int) -> int:
        """Sign of the value at p/q for integers p and q > 0, not necessarily coprime."""
        v = _scaled_value(self.coeffs, p, q)
        return (v > 0) - (v < 0)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        return IntPolynomial(starmap(add, zip_longest(self.coeffs, other.coeffs, fillvalue=0)))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return IntPolynomial(starmap(sub, zip_longest(self.coeffs, other.coeffs, fillvalue=0)))

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        """The product; each nonzero term of the sparser factor adds one scaled row of the other."""
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZERO
        if len(b) - b.count(0) < len(a) - a.count(0):
            a, b = b, a
        n = len(b)
        out = [0] * (len(a) + n - 1)
        for i, c in enumerate(a):
            if c:
                out[i:i + n] = [x + c * y for x, y in zip(out[i:i + n], b)]
        return IntPolynomial(tuple(out))

    def shift(self, k: int) -> "IntPolynomial":
        """Multiply by z^k."""
        if k < 0:
            raise ValueError("shift exponent must be nonnegative")
        if self.is_zero():
            return ZERO
        return IntPolynomial((0,) * k + self.coeffs)

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial(tuple(i * c for i, c in enumerate(self.coeffs))[1:])

    def content(self) -> int:
        return int_gcd(*self.coeffs)

    def primitive(self) -> "IntPolynomial":
        """Divide out the content; the sign of the leading coefficient is kept."""
        g = self.content()
        if g in (0, 1):
            return self
        return IntPolynomial(tuple(c // g for c in self.coeffs))

    def low_degree(self) -> int:
        """Index of the first nonzero coefficient (-1 for zero)."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return -1


ZERO = IntPolynomial(())
ONE = IntPolynomial((1,))


def _scaled_value(coeffs, p: int, q: int) -> int:
    """q^n f(p/q) for the coefficients of f (n = len - 1), by homogeneous Horner.

    With q > 0 it has the sign of f(p/q), and it is zero exactly at a root.
    A run of r zero coefficients is one step by p^r and q^r, so a sparse f
    of high degree costs a few big products, not one per degree.
    """
    acc = 0
    qk = 1
    run = 0
    for c in reversed(coeffs):
        if not c:
            run += 1
            continue
        if run:
            acc *= p**run
            qk *= q**run
            run = 0
        acc = acc * p + c * qk
        qk *= q
    return acc * p**run


def _primitive(coeffs: list) -> list:
    g = int_gcd(*coeffs)
    return coeffs if g in (0, 1) else [c // g for c in coeffs]


def _prem(a, b) -> list:
    """Pseudo-remainder of lc(b)^(deg a - deg b + 1) a by b, over Z.

    Coefficient lists are low degree first; b must be nonzero and stripped.
    When deg a < deg b no step runs and the result is a itself.
    """
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    for top in range(len(r) - 1, db - 1, -1):
        c = r.pop()
        if lb != 1:
            r = [x * lb for x in r]
        if c:
            k = top - db
            r[k:] = [x - c * y for x, y in zip(r[k:], b)]
    while r and r[-1] == 0:
        r.pop()
    return r


def poly_divexact(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Exact division a / b over Z; raises if b does not divide a in Z[z]."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a.coeffs)
    den = b.coeffs
    db = len(den) - 1
    lb = den[-1]
    q = [0] * max(len(r) - db, 0)
    for top in range(len(r) - 1, db - 1, -1):
        c, rem = divmod(r.pop(), lb)
        if rem:
            raise ValueError("polynomial division is not exact over the integers")
        if c:
            k = top - db
            q[k] = c
            r[k:] = [x - c * y for x, y in zip(r[k:], den)]
    if any(r):
        raise ValueError("polynomial division is not exact")
    return IntPolynomial(tuple(q))


def poly_gcd(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Gcd over Q[z], returned primitive over Z with positive leading coefficient.

    Computed by the primitive pseudo-remainder sequence over Z: dividing the
    content out of each pseudo-remainder keeps coefficient growth in check
    without rational arithmetic.

    >>> poly_gcd(IntPolynomial((-1, 0, 1)), IntPolynomial((1, 1))).coeffs
    (1, 1)
    """
    fa = _primitive(list(a.coeffs))
    fb = _primitive(list(b.coeffs))
    while fb:
        fa, fb = fb, _primitive(_prem(fa, fb))
    if not fa:
        return ZERO
    g = IntPolynomial(tuple(fa))
    if g.leading() < 0:
        g = -g
    return g


def squarefree_part(f: IntPolynomial) -> IntPolynomial:
    """f / gcd(f, f'): same roots, all simple."""
    if f.degree() <= 0:
        return f
    g = poly_gcd(f, f.derivative())
    if g.degree() <= 0:
        return f
    return poly_divexact(f, g)


# -- Sturm sequences -------------------------------------------------------


def sturm_chain(f: IntPolynomial):
    """Sturm chain of a squarefree polynomial, as integer coefficient lists.

    Each row after f and f' is -prem of the two rows before it made
    primitive, with the sign of lc^(delta+1) of the divisor applied, so it is
    a positive multiple of the negated Euclidean remainder over Q and every
    sign variation count is the same as for the classical chain.
    """
    chain = [list(f.coeffs)]
    if f.degree() >= 1:
        chain.append(list(f.derivative().coeffs))
        while True:
            a, b = chain[-2], chain[-1]
            r = _prem(a, b)
            if not r:
                break
            row = _primitive(r)
            if b[-1] > 0 or (len(a) - len(b)) % 2 == 1:
                row = [-c for c in row]
            chain.append(row)
    return chain


def _changes(values) -> int:
    signs = [v > 0 for v in values if v != 0]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def sign_variations(chain, x: Fraction) -> int:
    p, q = x.numerator, x.denominator
    return _changes(_scaled_value(coeffs, p, q) for coeffs in chain)


def stride_sums(c: list, a: int) -> list:
    """The running sums of c along each residue class mod a, in place.

    Read low degree first, this is c divided by 1 - z^a as a power series:
    the quotient q satisfies q_k = c_k + q_(k-a).

    >>> stride_sums([1, 0, 1, 0, 1], 2)
    [1, 0, 2, 0, 3]
    """
    for r in range(a):
        c[r::a] = accumulate(c[r::a])
    return c


def binomial_product(exponents, start=(1,)) -> IntPolynomial:
    """start * prod (1 - z^a) over the exponents, by one stride difference per exponent.

    start is a coefficient list, low degree first. The inverse of
    `stride_sums`: multiplying by 1 - z^a subtracts from each coefficient
    the one a places below it.

    >>> binomial_product((1, 2)).coeffs
    (1, -1, -1, 1)
    >>> binomial_product((2,), (1, -1)).coeffs
    (1, -1, -1, 1)
    """
    p = list(start)
    for a in exponents:
        p += [0] * a
        p[a:] = map(sub, p[a:], p[:-a])
    return IntPolynomial(p)


def taylor_shift(coeffs) -> list:
    """Coefficients of f(x + 1) from those of f, both leading coefficient first.

    Repeated synthetic division by x - 1: each pass is one running sum, so
    the n(n + 1)/2 integer additions all happen inside `accumulate`.

    >>> taylor_shift([1, 0, 0])
    [1, 2, 1]
    """
    h = list(coeffs)
    for m in range(len(h), 1, -1):
        h[:m] = accumulate(h[:m])
    return h


def descartes_count(coeffs) -> int:
    """Descartes' bound on the roots of f in (0, 1), from f's coefficients low degree first.

    It counts the sign variations of (x + 1)^n f(1/(x + 1)), whose positive
    roots are the roots of f in (0, 1). The bound has the parity of the
    number of roots, counted with multiplicity, so 0 and 1 are exact. Read
    low degree first, f's coefficients are those of x^n f(1/x) read leading
    first, so one Taylor shift gives the transform.

    >>> descartes_count([1, -3, 2]), descartes_count([2, -3, 1])
    (1, 0)
    """
    return _changes(taylor_shift(coeffs))


def count_roots_halfopen(f: IntPolynomial, a: Fraction, b: Fraction) -> int:
    """Number of distinct real roots of f in (a, b], from scratch.

    Requires a < b and f(a) != 0. f need not be squarefree; counting happens
    on its squarefree part. With the zeros-skipped variation count, a root at
    the right endpoint is included.
    """
    if a >= b:
        raise ValueError("need a < b")
    f = squarefree_part(f)
    if f.degree() <= 0:
        return 0
    if f.sign_at(a) == 0:
        raise ValueError("left endpoint must not be a root")
    chain = sturm_chain(f)
    return sign_variations(chain, a) - sign_variations(chain, b)


def cauchy_root_bound(f: IntPolynomial) -> Fraction:
    """B with every complex root strictly inside |z| < B."""
    if f.degree() < 1:
        raise ValueError("bound needs degree >= 1")
    lead = abs(f.leading())
    biggest = max(abs(c) for c in f.coeffs[:-1])
    return 1 + Fraction(biggest, lead)

