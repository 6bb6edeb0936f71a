"""Exact rational generating functions and certified growth data.

A RationalGF is a fraction num/den of integer polynomials, normalized so the
polynomial gcd is removed, the integer contents of numerator and denominator
are coprime, and the denominator has positive constant term. That form is
unique, so two generating functions are equal iff their fields are equal.

Every operation builds its unreduced fraction and the constructor reduces
it. A gcd with a constant operand is 1 and is not taken, so a loop series,
which `loop` builds as 1/D, takes no polynomial gcd.

Radii of convergence are certified, not sampled: the smallest positive root of
the reduced denominator f is found by root counting and rational bisection, so
every Radius comes with an exact rational interval that provably contains
exactly one denominator root. `smallest_positive_pole` reads the
certificate in one pass, in this order:
- no sign change in f's coefficients: no positive root;
- a carried split of f into binomials prod (1 - z^a) with cofactor 1, as
  the loop series of a product of spheres has: the pole 1, since every
  root of 1 - z^a is a root of unity;
- for a series built by the closed rules, the cell of the dyadic grid of
  (0, 1] that its guards certify, pinned exactly when the cell's
  polynomial has a rational root in the cell;
- for a bare series, one with no guards, a rational root r of f with no
  root in (0, r), or else the first cell that Descartes subdivision of
  (0, r) or (0, Cauchy bound) yields, refined; with none, r or no pole.
The guards of a series built by the closed rules are polynomials whose
signs at x decide rho > x (see `loop`): their least sign is positive
exactly on (0, rho). Halving the grid on the least sign of the top guards,
the factors of f, gives the first cell, and one check certifies a cell by
the guards' signs at its right end; when it fails, as when another guard's
root lies within the tolerance of rho, halving by the least sign of all
the guards refines the cell until its right end certifies. Every loop
radius is at most 1, so their grid is (0, 1], and the guards are the whole
certificate: that path takes no squarefree test, no squarefree part, no
Cauchy bound and no Descartes count. The Radius carries the polynomial
whose sign change its cell brackets, and refinement and comparison read
its signs.
A bare series is settled by Descartes subdivision (Collins-Akritas), which
also rechecks every certificate: a count of 0 or 1 is exact, and each grid
cell is a Taylor shift of its parent, so on a squarefree polynomial it ends
(Vincent's theorem). A bare series walks (0, r) or (0, Cauchy bound), so it
may report another cell of a pole than the loop series it equals.
Refinement returns the
interval that sign bisection reaches, without walking it: the root is
simple, so the denominator changes sign across it; a Newton estimate of
the root names the grid cell where bisection stops, and exact signs at the
cell's two ends certify it. Only a missed estimate walks the bisection,
one sign per midpoint.

Every later root question is answered by signs alone, because each interval
holds one simple root of the polynomial its Radius carries and the ends of a
non-exact one are not roots. `compare_radii` (library API; no verdict
needs it) refines both intervals until they are disjoint, or finds a
common root in the overlap from the signs of the two polynomials' gcd at
its ends. Only `Radius.certificate_holds` counts roots again, from
scratch, by the same subdivision on the squarefree part of the denominator.

The growth statistics of a dimension series read one pass of rates
log(c_n)/n over its tail (`_rates`), one negativity check and one map over
its nonzero terms: `free-loop` reads its
controlled-growth check and its empirical log index off the same pass, and
`log-index`, `hm-census` and `torsion` their empirical index.

All polynomial work (gcd, Taylor shifts, signs at the bisection points) and
the series expansion (a stride sum for each binomial factor, a recurrence
for the rest of the denominator, with no division when its constant term
is 1, as for every loop series) run in integer arithmetic. Floats enter
only the Newton estimate, which no certificate trusts. A series
coefficient is an int whenever it is integral, as every dimension series
here is; rationals appear only as interval endpoints and as the
non-integral coefficients of a denominator whose constant term is not 1.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from functools import reduce
from itertools import compress, islice
from math import gcd as int_gcd
from operator import mul, truediv
from types import SimpleNamespace

from . import _Record, _set
from .arith import divisors
from .polynomial import (
    IntPolynomial,
    ONE,
    ZERO,
    cauchy_root_bound,
    descartes_count,
    poly_divexact,
    poly_gcd,
    squarefree_part,
    stride_sums,
    taylor_shift,
)

DEFAULT_POLE_TOLERANCE = Fraction(1, 10**12)


def _normalize(num: IntPolynomial, den: IntPolynomial):
    if den.is_zero():
        raise ZeroDivisionError("denominator is the zero polynomial")
    if den.constant_term() == 0:
        raise ValueError("denominator constant term is zero; no power series at z = 0")
    if num.is_zero():
        return ZERO, ONE
    # a gcd with a constant operand is 1, so it is not taken
    if num.degree() > 0 and den.degree() > 0:
        g = poly_gcd(num, den)
        if g.degree() > 0:
            num = poly_divexact(num, g)
            den = poly_divexact(den, g)
    c = int_gcd(num.content(), den.content())
    if c > 1:
        num = IntPolynomial(tuple(x // c for x in num.coeffs))
        den = IntPolynomial(tuple(x // c for x in den.coeffs))
    if den.constant_term() < 0:
        num, den = -num, -den
    return num, den


class RationalGF(_Record):
    """num(z)/den(z) in canonical reduced form.

    The constructor divides out gcd(num, den), taken only when both have
    positive degree, then the common integer content, and makes den(0)
    positive. Each operation passes it the unreduced result (`a/b * c/d` is
    ac/bd, `a/b + c/d` is (ad + cb)/bd), so operations take no gcd of their own.

    A loop series built by the closed rules carries the split of its
    denominator (`_split`), (exponents, cofactor) with den = cofactor *
    prod (1 - z^a), as the expression tree built it; `expand` and
    `smallest_positive_pole` read it, and any other series has none. Such
    a series also carries its guards (`_guards`): the polynomials whose
    signs at x > 0 decide rho > x, which `smallest_positive_pole` reads in
    place of a Descartes search. And it
    keeps its longest expansion (`_expansion`, filled by `expand`), so of
    the two expansions a report and the Pringsheim guard take of one
    series, a second that is no longer than the first is a prefix of it.
    All three are carried like `Radius._den`: not compared, hashed or
    printed.

    >>> RationalGF.from_coeffs([1], [1, -2]).expand(4).coeffs
    (1, 2, 4, 8, 16)
    """

    __slots__ = ("num", "den", "_split", "_guards", "_expansion")
    __match_args__ = __slots__[:2]

    def __init__(self, num: IntPolynomial, den: IntPolynomial, _split=None, _guards=None,
                 _expansion=None):
        num, den = _normalize(num, den)
        _set(self, "num", num)
        _set(self, "den", den)
        _set(self, "_split", _split)
        _set(self, "_guards", _guards)
        _set(self, "_expansion", _expansion)

    @classmethod
    def from_coeffs(cls, num, den=(1,)) -> "RationalGF":
        return cls(IntPolynomial(tuple(num)), IntPolynomial(tuple(den)))

    @classmethod
    def constant(cls, k: int) -> "RationalGF":
        return cls(IntPolynomial((k,)), ONE)

    def __add__(self, other: "RationalGF") -> "RationalGF":
        return RationalGF(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "RationalGF") -> "RationalGF":
        return RationalGF(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self) -> "RationalGF":
        return RationalGF(-self.num, self.den)

    def __mul__(self, other: "RationalGF") -> "RationalGF":
        return RationalGF(self.num * other.num, self.den * other.den)

    def reciprocal(self) -> "RationalGF":
        if self.num.is_zero() or self.num.constant_term() == 0:
            raise ValueError("not invertible as a power series")
        return RationalGF(self.den, self.num)

    def shifted(self, k: int) -> "RationalGF":
        return RationalGF(self.num.shift(k), self.den)

    def expand(self, trunc_degree: int) -> "TruncatedSeries":
        return expand(self, trunc_degree)


class TruncatedSeries(_Record):
    """Coefficients c_0 .. c_N of a power series: ints, Fractions only where not integral."""

    __slots__ = __match_args__ = ("coeffs",)

    @property
    def trunc_degree(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, i: int):
        return self.coeffs[i]

    def __len__(self) -> int:
        return len(self.coeffs)

    def as_dims(self) -> tuple:
        """Coefficients as nonnegative integers; raises if any is not one."""
        return self.from_dims(self.coeffs).coeffs

    @classmethod
    def from_dims(cls, dims) -> "TruncatedSeries":
        dims = tuple(dims)
        if not (set(map(type, dims)) <= {int} and min(dims, default=0) >= 0):
            # the per-degree check names the first bad degree, and passes an
            # int subclass other than bool
            for i, c in enumerate(dims):
                if not isinstance(c, int) or isinstance(c, bool) or c < 0:
                    raise ValueError(f"dimension at degree {i} must be a nonnegative integer")
        return cls(dims)


def gf_add(a: RationalGF, b: RationalGF) -> RationalGF:
    return a + b


def gf_mul(a: RationalGF, b: RationalGF) -> RationalGF:
    return a * b


def gf_reciprocal(a: RationalGF) -> RationalGF:
    return a.reciprocal()


def gf_shift(a: RationalGF, k: int) -> RationalGF:
    return a.shifted(k)


def expand(gf: RationalGF, trunc_degree: int) -> TruncatedSeries:
    """Power series coefficients through z^trunc_degree.

    The denominator splits as cofactor * prod(1 - z^a) by the series'
    carried split; a series with none is its whole denominator with no
    binomials. With the cofactor 1, as for every loop series of a product
    of spheres, the series starts as the numerator, zero-padded. Otherwise
    a linear recurrence divides the numerator by the cofactor d_0 + d_1 z
    + ..., reading the last deg(cofactor) coefficients from a sliding
    window: c_k = n_k - sum_{j>=1} d_j c_(k-j) when d_0 = 1, as for every
    loop series, so each c_k is an int with no division. A cofactor with
    another constant term runs the same recurrence on n_k / d_0 and
    d_j / d_0 as Fractions, and a coefficient that comes out integral is
    made an int. Each 1 - z^a with a <= trunc_degree divides the series by
    one stride-a running sum.

    The series keeps its longest expansion: a request for no more terms
    than it holds is a prefix of it, and a longer one replaces it.

    >>> expand(RationalGF.from_coeffs([2], [2, -1]), 3).coeffs
    (1, Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))
    >>> expand(RationalGF.from_coeffs([1], [1, -1, -1, 1]), 5).coeffs
    (1, 1, 2, 2, 3, 3)
    """
    if trunc_degree < 0:
        raise ValueError("truncation degree must be nonnegative")
    kept = gf._expansion
    if kept is not None and kept.trunc_degree >= trunc_degree:
        return TruncatedSeries(kept.coeffs[:trunc_degree + 1])
    exponents, cofactor = gf._split or ((), gf.den)
    den = cofactor.coeffs
    num = list(gf.num.coeffs[:trunc_degree + 1])
    num += [0] * (trunc_degree + 1 - len(num))
    d0, tail = den[0], den[1:]
    if d0 != 1:
        num = [Fraction(n, d0) for n in num]
        tail = [Fraction(d, d0) for d in tail]
    if not tail:
        out = num
    else:
        # d_1, d_2, .. against c_(k-1), c_(k-2), ..: the window holds the
        # newest coefficient first, and map stops at the shorter of the two
        out = []
        window = deque(maxlen=len(tail))
        for nk in num:
            ck = nk - sum(map(mul, tail, window))
            window.appendleft(ck)
            out.append(ck)
    for a in exponents:
        if a <= trunc_degree:
            stride_sums(out, a)
    if d0 != 1:
        out = [c.numerator if c.denominator == 1 else c for c in out]
    kept = TruncatedSeries(tuple(out))
    _set(gf, "_expansion", kept)
    return kept


def mul_binomial_power(coeffs, t: int, sign: int, e: int) -> list:
    """The integer list coeffs times (1 + sign z^t)^e, truncated to its length.

    The weight of z^(jt) is sign^j C(e, j), generalized to e < 0, where it
    reads (-1)^j C(-e+j-1, j); each weight follows exactly from the last.

    >>> mul_binomial_power([1, 0, 0, 0, 0], 2, -1, -1)
    [1, 0, 1, 0, 1]
    """
    n = len(coeffs)
    out = list(coeffs)
    w = 1
    for j in range(1, (n - 1) // t + 1):
        w = w * sign * (e - j + 1) // j
        if not w:
            break
        k = j * t
        out[k:] = [x + w * y for x, y in zip(out[k:], coeffs)]
    return out


# -- radius of convergence -------------------------------------------------


class Radius(_Record):
    """Smallest positive pole, certified.

    Finite: lo <= hi are positive rationals, the reduced denominator has
    exactly one root in [lo, hi] and none in (0, lo). A degenerate interval
    (lo == hi) pins a rational pole exactly. Otherwise the carried
    polynomial below has opposite signs at lo and hi, so `refined` narrows
    the interval by signs alone (`_bisect`), with no root count. Infinite: no positive pole;
    `polynomial` records whether the series is a polynomial (so dimensions
    are eventually zero).

    `_den` is the denominator as the pole search found it, leading
    coefficient positive; `certificate_holds` rechecks it through `_sqfree`,
    its squarefree part unless one prime proves it squarefree, reduced on
    each call, exact radius or not. `_bracketed` is the polynomial whose
    sign change the interval brackets, set with the certificate: for "guard
    signs" the cell's polynomial, the gcd of the top guards that are not
    positive at hi (`_tree_pole`), for "Descartes counts" the squarefree
    denominator, and for any other exact radius the denominator. A
    non-exact interval holds one root of it, simple, so `refined` and
    `compare_radii` read its signs alone, and halving by them walks the
    cells that halving by the squarefree part of `_den` walks.

    `method` names how a finite pole was certified: "binomial split",
    "rational root", "guard signs" or "Descartes counts".

    The smallest positive pole equals the radius of convergence only for
    series with nonnegative coefficients; `pringsheim_ok` goes false when a
    negative coefficient was spotted in a desk-scale expansion of the source.

    Two radii are equal when lo, hi and `polynomial` are; the other fields
    are carried along, not compared.
    """

    __slots__ = ("lo", "hi", "polynomial", "_den", "pringsheim_ok", "method", "_bracketed")
    __match_args__ = __slots__[:3]
    _defaults = {
        "polynomial": False, "_den": None, "pringsheim_ok": True, "method": None, "_bracketed": None,
    }

    @property
    def is_infinite(self) -> bool:
        return self.lo is None

    @property
    def is_exact(self) -> bool:
        return self.lo is not None and self.lo == self.hi

    @property
    def _sqfree(self) -> IntPolynomial | None:
        f = self._den
        if f is None or _squarefree_mod_p(f):
            return f
        return squarefree_part(f)

    def width(self) -> Fraction:
        if self.is_infinite:
            return Fraction(0)
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        if self.is_infinite:
            raise ValueError("infinite radius has no midpoint")
        return (self.lo + self.hi) / 2

    def refined(self, tol: Fraction) -> "Radius":
        """Shrink the isolating interval to width <= tol (no-op when exact)."""
        if self.is_infinite or self.is_exact or self.width() <= tol:
            return self
        p = self._bracketed
        lo, hi = _bisect(p, tol, self.lo, self.hi)
        return Radius(lo, hi, self.polynomial, self._den, self.pringsheim_ok, self.method, p)

    def certificate_holds(self) -> bool:
        """Recheck the defining properties from scratch on `_den` (used by tests).

        Descartes subdivision of the squarefree part (`_isolating_cells`)
        settles each root count: it finds no root in (0, lo) and, for an
        interval, exactly one in (lo, hi).
        """
        if self.is_infinite:
            return True
        f, lo, hi = self._sqfree, self.lo, self.hi
        if self.is_exact:
            holds = lo > 0 and f.sign_at(lo) == 0
        else:
            holds = 0 < lo < hi and f.sign_at(lo) * f.sign_at(hi) < 0
            holds = holds and len([*islice(_isolating_cells(f, lo, hi), 2)]) == 1
        return holds and next(_isolating_cells(f, Fraction(0), lo), None) is None


# lo and hi stay the third and fourth positional arguments:
# loopbench/spans.py reads args[2] and args[3] to count bisection steps
def _bisect(sf, tol, lo, hi, estimate=None):
    """Shrink (lo, hi] to width <= tol around the one root of the squarefree sf in it.

    Precondition: sf(0) != 0, sf has one simple root in (lo, hi] and none in
    (0, lo], so the sign of sf at lo is the sign of sf(0). The result is the
    interval that halving (lo, hi] by midpoint signs reaches: a degenerate
    one when a midpoint is the root, else the first grid cell of width
    <= tol (and, from lo = 0, not the first cell of its level).

    The halving is not walked. A Newton estimate of the root names the cell
    at the level where the halving stops (`_newton_cell`), and exact signs
    at its two ends certify it, or one neighbour's. Only when neither
    certifies does the halving run, one integer Horner sign per midpoint.
    estimate(a, b, d, bits), `_root_estimate` on sf alone by default,
    guesses the root in (a/d, b/d] to about 2^-bits. With more roots in
    (lo, hi], the halving still ends at a sign change of sf, read from
    evaluated signs unless the cell ends at hi: `_tree_pole` passes the
    least sign of a series' guards, with an estimate from the guards, and
    certifies the cell it gets.
    """
    # on a common denominator, lo = a/d and hi = b/d, so the midpoint is
    # (a + b)/(2d) and every step stays in integers; a root below tol still
    # gets a positive lo
    d = math.lcm(lo.denominator, hi.denominator)
    a, b = lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator)
    s_lo = 1 if sf.coeffs[0] > 0 else -1
    # the first level whose cells are at most tol wide: 2^k >= width / tol
    over = -(-(b - a) * tol.denominator // (tol.numerator * d))
    k = (over - 1).bit_length()
    if estimate is None:
        def estimate(a, b, d, bits):
            return _root_estimate((sf,), s_lo, a, b, d, bits)
    a, b, d = _newton_cell(sf, s_lo, k, a, b, d, estimate) or (a, b, d)
    while a == 0 or (b - a) * tol.denominator > tol.numerator * d:
        m, d = a + b, 2 * d
        s_mid = sf.sign_at_ratio(m, d)
        if s_mid == 0:
            return Fraction(m, d), Fraction(m, d)
        if s_mid == s_lo:
            a, b = m, 2 * b
        else:
            a, b = 2 * a, m
    return Fraction(a, d), Fraction(b, d)


def _newton_cell(sf, s_lo, k_tol, a, b, d, estimate):
    """The state (a', b', d') where `_bisect`'s halving of (a/d, b/d] stops, or None.

    The state is degenerate, a' = b', at a grid point that is the root.

    Level i of the halving has the cells (a + j w / 2^i, a + (j + 1) w / 2^i]
    over d, w = b - a, held as a' = 2^i a + j w, b' = a' + w, d' = 2^i d.
    The halving stops at level k_tol, or from a = 0 at the first level from
    k_tol on whose cell is not the first, and it returns a grid point that
    is the root if it meets one on the way.

    The root estimate names a cell at level k_tol (from a = 0, at the level
    where the estimate's cell stops being the first). It is certified when
    sf has the sign s_lo of (0, lo] at its left end and not at its right
    end; the ends lo and hi need no evaluation, and one neighbour is tried
    on the side the signs point to. A certified cell holds the root inside,
    so its ancestors are the halving's cells: the answer is the one at the
    stop level, or the cell itself when the halving would still go on. A
    grid point where sf vanishes is the root, the answer when the halving
    reaches its level, else the ancestor cell holding it. At most three
    exact signs, and None on a miss.
    """
    w = b - a
    k = k_tol
    est = estimate(a, b, d, k + d.bit_length() - w.bit_length() + 1)
    if est is None:
        return None
    # est = x / (y d), so lo < est <= hi reads a y < x <= b y; an estimate
    # on hi names the last cell, as for a root on hi
    x, y = est.numerator * d, est.denominator
    if not a * y < x <= b * y:
        return None
    if not a:
        # the first cell of level m is (0, hi / 2^m], so the halving leaves
        # it at the first m with hi / 2^m < root
        k = max(k, (b * y // x).bit_length())
    top = 1 << k
    j = min(((x - a * y) << k) // (w * y), top - 1)

    def sign(i):
        if i == 0:
            return s_lo
        if i == top:
            return -s_lo  # the root is in (lo, hi], so not s_lo, and hi is never a midpoint
        p, q = (a << k) + i * w, d << k
        g = math.gcd(p, q)
        return sf.sign_at_ratio(p // g, q // g)

    # find j with sign(j) == s_lo != sign(j + 1), or a grid point that is the root
    s = sign(j)
    if s and s != s_lo:
        j -= 1  # j > 0 here, since sign(0) is s_lo
        s = sign(j)
        if s == s_lo:
            return _halving_state(j, k, k_tol, a, w, d)
        if s:
            return None
    elif s:
        s = sign(j + 1)
        if s == s_lo:
            j += 1
            s = sign(j + 1)
            if s == s_lo:
                return None
        if s:
            return _halving_state(j, k, k_tol, a, w, d)
        j += 1
    # sign(j) == 0: the grid point j of level k is the root; it is the point
    # t of level L with t odd, and the halving meets it unless it stops
    # at a level below L
    zeros = (j & -j).bit_length() - 1
    t, level = j >> zeros, k - zeros
    stop = k_tol if a else max(k_tol, level + 1 - t.bit_length())
    if stop >= level:
        p = (a << level) + t * w
        return p, p, d << level
    return _halving_state(t >> (level - stop), stop, k_tol, a, w, d)


def _halving_state(j, k, k_tol, a, w, d):
    """The halving's state from the cell j of level k that holds the root inside.

    Its ancestor at level i is j >> (k - i). The halving stops at k_tol, or
    from a = 0 at the first level from k_tol on where that ancestor is not
    the first cell; when no level up to k qualifies, it goes on from cell j.
    """
    stop = k_tol if a else max(k_tol, k + 1 - j.bit_length())
    if stop <= k:
        j, k = j >> (k - stop), stop
    left = (a << k) + j * w
    return left, left + w, d << k


# a float Newton iterate is trusted to this many bits below the leading bit
# of the bracket's right end; a finer cell is estimated in fixed point
_FLOAT_BITS = 48


def _root_estimate(polys, s_lo, a, b, d, bits):
    """An estimate, as a Fraction, of a root in (a/d, b/d] to about 2^-bits.

    Every polynomial has the sign s_lo at a/d. They are scanned in order
    from the bracket's right end x: one whose value at x is neither 0 nor of
    sign s_lo has a root below x, and Newton on (a/d, x) moves x to it. For
    one polynomial that is its root in the bracket. A tree-built series'
    guards come each node's after its children's, so each has at most one
    root below x, and x ends at their least first root, rho.

    Newton is safeguarded: the sign of each value narrows the bracket, and
    a step that would leave it is replaced by the bracket's midpoint; in
    floats (rtsafe) so is a step that is not below half the step before. It
    runs in floats, on the coefficients shifted into float range, when the
    bracket is wider than float resolution and 2^-bits is within
    `_FLOAT_BITS` of b/d's leading bit, and otherwise, or on a float NaN,
    in fixed point.
    The values here are not exact, so the estimate is only a guess for
    `_newton_cell` to certify.
    """
    try:
        xl, x = a / d, b / d
    except OverflowError:  # an end beyond float range
        x = None
    if x is not None and (b - a) << 40 > b and bits + math.frexp(x)[1] <= _FLOAT_BITS:
        for g in polys:
            v = _float_value(g.coeffs, x)
            if v and (v > 0) != (s_lo > 0):
                x = _float_newton(g.coeffs, s_lo, xl, x)
                if x is None:
                    break
        else:
            return Fraction(x)
    # fixed point X / 2^P, with guard bits for the truncation in Horner
    P = max(bits, 0) + 32 + max(g.degree() for g in polys).bit_length()
    A, X = (a << P) // d, (b << P) // d
    for g in polys:
        X = _fixed_newton(g.coeffs, s_lo, A, X, P, P - bits // 2 - 16)
    return Fraction(X, 1 << P)


def _float_value(coeffs, x: float) -> float:
    """The value at x, in floats, of the coefficients scaled into float range."""
    shift = max(0, max(map(abs, coeffs)).bit_length() - 960)
    v = 0.0
    for c in reversed(coeffs):
        v = v * x + float(c >> shift)
    return v


def _float_newton(coeffs, s_lo, xl, xh):
    """Safeguarded float Newton on (xl, xh) for the integer coefficients (low degree first); None on NaN."""
    shift = max(0, max(map(abs, coeffs)).bit_length() - 960)
    c = [float(v >> shift) for v in reversed(coeffs)]
    x, step = (xl + xh) / 2, xh - xl
    for _ in range(200):
        p = dp = 0.0
        for v in c:
            dp = dp * x + p
            p = p * x + v
        if p != p:
            return None
        if not p:
            return x
        if (p > 0) == (s_lo > 0):
            xl = x
        else:
            xh = x
        prev, step = step, p / dp if dp else math.inf
        if xl < x - step < xh and 2 * abs(step) < abs(prev):
            x -= step
            if abs(step) <= x * 2**-26:
                return x  # the next error is about step^2: below float resolution
        else:
            step = (xh - xl) / 2
            x = xl + step
            if step <= x * 2**-52:
                return x
    return x


def _fixed_newton(coeffs, s_lo, A, B, P, done):
    """Safeguarded Newton on x = X / 2^P in (A, B], from X = B, by a truncating integer Horner.

    A value of sign s_lo at B keeps B. The sign of each value narrows the
    bracket; a Newton step that stays inside it is taken, however long, so
    a linear polynomial's exact step lands on its root at once, and one
    that would leave it is replaced by the bracket's midpoint. It stops at a
    value that the truncation, at most a unit per coefficient, cannot tell
    from 0, as near a double root, after a Newton step below 2^done units,
    whose square is far below the 2^-bits the estimate needs, at a step
    that rounds to 0, or when the bracket closes.
    """
    c = [v << P for v in reversed(coeffs)]
    X = B
    for _ in range(4 * P):
        p = dp = 0
        for v in c:
            dp = (dp * X >> P) + p
            p = (p * X >> P) + v
        if abs(p) <= len(c):
            return X
        if (p > 0) == (s_lo > 0):
            A = X
        else:
            B = X
        step = (p << P) // dp if dp else B - A
        if not step:
            return X  # within a unit of the root
        if A < X - step < B:
            X -= step
            if abs(step) >> done == 0:
                return X
        else:
            step = (B - A) // 2
            if not step:
                return X
            X = A + step
    return X


def _smallest_positive_rational_root(f: IntPolynomial) -> Fraction | None:
    """Smallest positive rational root; None when none exists or coefficients are huge.

    A root p/q in lowest terms has q | lc(f), and q x - p divides f in Z[x]
    (Gauss's lemma), so b q - p divides f(b) at every integer b. With f(a)
    the least nonzero of f(0), f(1) and f(-1), p = a q -/+ e for some
    e | f(a); the other two values sieve these, and only the coprime ones
    left are evaluated. f need not be squarefree: a repeated factor only
    raises |f(0)| and |lc(f)|, so the 10^7 guard that passes on f passes on
    its squarefree part too.
    """
    f = f.primitive()
    a0, an = abs(f.constant_term()), abs(f.leading())
    if a0 == 0 or a0 > 10**7 or an > 10**7:
        return None
    # f(1) and f(-1) are sums of coefficients, and |f(a)| <= |f(0)| = a0
    c = f.coeffs
    f1, fm1 = sum(c), sum(c[::2]) - sum(c[1::2])
    fa, a = min((abs(v), b) for b, v in ((0, c[0]), (1, f1), (-1, fm1)) if v)
    roots = [
        Fraction(p, q)
        for q in divisors(an)
        for e in divisors(fa)
        for p in (a * q - e, a * q + e)
        if p > 0 and a0 % p == 0 and fm1 % (q + p) == 0 and int_gcd(p, q) == 1
        and (f1 % (q - p) == 0 if p != q else f1 == 0)
        and f.sign_at_ratio(p, q) == 0
    ]
    return min(roots, default=None)


# the largest prime below 2^30, so each residue Euclid's loop keeps is one
# 30-bit CPython digit (2^61 - 1 took two); one prime suffices, since a
# miss only costs the gcd of `squarefree_part`
_CERTIFICATE_PRIME = 1073741789


def _squarefree_mod_p(f: IntPolynomial) -> bool:
    """True when f mod p keeps its degree and gcd(f, f') = 1 mod p.

    That proves f squarefree over Q: a repeated factor g of f has lc(g) | lc(f),
    so g keeps its degree mod p and divides both f and f' there.
    """
    p = _CERTIFICATE_PRIME
    a = [c % p for c in f.coeffs]
    if not a[-1]:
        return False
    b = [i * c % p for i, c in enumerate(a)][1:]
    while b:
        # a := a mod b, Euclid over Z/p; entries are reduced once per division
        inv, db = pow(b[-1], -1, p), len(b) - 1
        if len(a) == db + 2 and db:
            # the usual step, a quotient c1 z + c0: one pass over the remainder
            c1 = a[-1] * inv % p
            c0 = (a[-2] - c1 * b[-2]) * inv % p
            a = [(x - c1 * y - c0 * z) % p for x, y, z in zip(a[:db], [0] + b, b)]
        else:
            # a long quotient: each term subtracts c z^k b at b's nonzero terms
            terms = [(j, y) for j, y in enumerate(b[:-1]) if y]
            for k in range(len(a) - len(b), -1, -1):
                c = a.pop() % p * inv % p
                if c:
                    for j, y in terms:
                        a[k + j] -= c * y
            a = [x % p for x in a]
        while a and not a[-1]:
            a.pop()
        a, b = b, a
    return len(a) == 1


def _cell_polynomial(f: IntPolynomial, a: Fraction, b: Fraction) -> list:
    """Coefficients, low degree first, of f(a + (b - a) x) made integral: the cell (a, b) as (0, 1).

    On a common denominator d, a = s/d and b = t/d. With F(y) = d^n f(y/d),
    G(x) = F(s + x) is H(x/s) for H(y) = F(s + s y), the Taylor shift of
    F(s y), and the cell is G((t - s) x).
    """
    d = math.lcm(a.denominator, b.denominator)
    s, t = a.numerator * d // a.denominator, b.numerator * d // b.denominator
    n = f.degree()
    g = [c * d ** (n - i) for i, c in enumerate(f.coeffs)]
    if s:
        h = taylor_shift([c * s**i for i, c in enumerate(g)][::-1])[::-1]
        g = [c // s**j for j, c in enumerate(h)]
    return [c * (t - s) ** j for j, c in enumerate(g)]


def _isolating_cells(f: IntPolynomial, a: Fraction, b: Fraction):
    """Yield, left to right, a cell (lo, hi) around each root of the squarefree f in (a, b), or (x, x) for a grid point.

    Descartes subdivision of the dyadic grid of (a, b) that `_bisect` walks,
    depth first and left first. A cell (lo, hi) is held as g(x) =
    f(lo + (hi - lo) x) made integral: its left child is 2^n g(x/2), its
    right child that shifted by one, whose constant term vanishes exactly
    when the grid midpoint between them is a root. A cell is yielded when
    its count is 1 and hi is not a root, so each root is in one item, and
    f, nonzero at a, changes sign across the first item when it is a cell.
    A cell small against the root separation counts 0 or 1 (Vincent's
    theorem), so the subdivision ends, below any tolerance for close roots.
    """
    n = f.degree()
    # (index j, level k, coefficients, shift pending): the cell is
    # a + (j, j + 1) times (b - a) / 2^k, and a right child is shifted when popped
    stack = [(0, 0, _cell_polynomial(f, a, b), False)]
    while stack:
        j, k, g, pending = stack.pop()
        width = (b - a) / 2**k
        lo = a + width * j
        if pending:
            g = taylor_shift(g[::-1])[::-1]
            if g[0] == 0:
                yield lo, lo
        count = descartes_count(g)
        if count == 0:
            continue
        if count == 1 and sum(g) != 0:
            yield lo, lo + width
            continue
        left = [c << (n - i) for i, c in enumerate(g)]
        stack.append((2 * j + 1, k + 1, left, True))
        stack.append((2 * j, k + 1, left, False))


def _tree_pole(polys, inner: int, tol: Fraction):
    """(lo, hi, G): the coarsest cell of (0, 1] at or below tol that a tree-built series' guards certify, and G.

    polys are the guards, the first `inner` of them below the factors of
    the denominator f (the top guards), each node's after its children's;
    the grid is the dyadic grid of (0, 1], since every loop radius is at
    most 1. Each guard is 1 at 0 and falls to its first positive root, and
    it has at most one root below the radii of its node's children.

    A cell (lo, hi] is certified when every inner guard is positive at hi
    and the top guards that are not share one root in the cell, where
    their gcd G vanishes at hi or changes sign. Then hi lies below the
    children's radii, where each top guard falls through at most one root,
    so G's one root in the cell is rho and f has no other in (0, hi].

    The least sign of the top guards is positive on (0, rho) and 0 at rho,
    so halving (0, 1] on it at tol reaches the cell of rho unless that sign
    turns positive again past rho, and the cell it reaches is checked.
    When the check fails, as when another guard's root lies within tol of
    rho, the halving is on the least sign S of all the guards. S is
    positive exactly on (0, rho) and, on (0, 1], zero only at rho, by
    induction over `loop`'s rules: each node's guard is negative between
    its first root and its children's radius, where a child's guard takes
    over, and a sphere's 1 - x up to the grid end. So halving by S walks
    the cells that hold rho. The subcells of a certified cell are
    certified, so the level is found by an exponential search, each level
    twice the last and its cell halved from the last, and then a binary
    search among the ancestors of the first certified cell.

    Every halving estimates rho by `_root_estimate` on the guards, and
    halving by S asks it for twice the bits, since a guard's value near a
    double root of f is about the square of the distance.
    """
    top = polys[inner:]

    def least(guards):
        guards = sorted(guards, key=IntPolynomial.degree)

        def sign(p, q):
            # a negative sign decides, so the cheapest guards are read first
            s = 1
            for g in guards:
                s = min(s, g.sign_at_ratio(p, q))
                if s < 0:
                    break
            return s

        # `_bisect` reads the sign at 0 off a constant term
        return SimpleNamespace(coeffs=(1,), sign_at_ratio=sign)

    def certified(lo, hi):
        if any(g.sign_at(hi) <= 0 for g in reversed(polys[:inner])):
            return None
        if len(top) == 1 and hi < 1:
            return lo, hi, top[0]  # its one root in (0, hi] is in the cell, and hi < 1 is not rho
        common = reduce(poly_gcd, [g for g in top if g.sign_at(hi) <= 0])
        s_hi = common.sign_at(hi)
        if s_hi == 0:
            return hi, hi, common
        return (lo, hi, common) if s_hi * common.sign_at(lo) < 0 else None

    def estimate(a, b, d, bits):
        return _root_estimate(polys, 1, a, b, d, bits)

    def fine(a, b, d, bits):
        return _root_estimate(polys, 1, a, b, d, 2 * bits)

    found = certified(*_bisect(least(top), tol, Fraction(0), Fraction(1), estimate))
    if found is not None:
        return found
    halving = least(polys)
    lo, hi = _bisect(halving, tol, Fraction(0), Fraction(1), fine)
    failed = k = (hi - lo).denominator.bit_length() - 1
    found = certified(lo, hi)
    while found is None:
        failed, k = k, 2 * k
        lo, hi = _bisect(halving, Fraction(1, 1 << k), lo, hi, fine)
        found = certified(lo, hi)
    j = (lo * (1 << k)).numerator
    while k - failed > 1 and lo < hi:
        mid = (failed + k) // 2
        up = j >> (k - mid)
        cell = up and certified(Fraction(up, 1 << mid), Fraction(up + 1, 1 << mid))
        if cell:
            found, j, k = cell, up, mid
        else:
            failed = mid
    return found


def smallest_positive_pole(gf: RationalGF, tol: Fraction = DEFAULT_POLE_TOLERANCE) -> Radius:
    """Certified isolating interval for the smallest positive denominator root.

    The gf is already reduced, so every denominator root is a genuine pole.
    Rational poles are pinned exactly (degenerate interval); irrational ones
    get a bisection interval of width <= tol.

    One pass reads the certificate off the denominator f, leading
    coefficient made positive, in the order of the module docstring, and
    builds every Radius here, naming the method that certified it. The
    Pringsheim guard's `expand` reads a prefix of the series' kept
    expansion when the caller has expanded through z^64 or further. The
    binomial exit reads the series' carried split only: a cofactor other
    than 1 is not used, since its pole may lie below 1, and a bare product
    of binomials is pinned at 1 by the rational-root exit.

    A guarded series then takes one branch: its guards certify a cell
    (lo, hi] of (0, 1] and its polynomial G (`_tree_pole`), and G alone is
    scanned for a rational root. G divides f and has rho as its one root
    in (0, hi], so a rational root of G at most hi is rho, and G passes the
    scan's coefficient bound wherever f does. The guards are the whole
    certificate, so this branch takes no squarefree step, Cauchy bound or
    Descartes count, and the Radius carries G for refinement and
    comparison.

    A bare series takes the other: a rational root r of f with Descartes
    count 0 on (0, r) is the pole. Otherwise f becomes its squarefree part
    unless one prime proves it squarefree, a rational root of that part,
    when f had none, is tested the same way, and the first cell that
    `_isolating_cells` yields on (0, r) or (0, Cauchy bound) is refined.

    >>> r = smallest_positive_pole(RationalGF.from_coeffs([1], [1, -2]))
    >>> (r.lo, r.hi, r.method)
    (Fraction(1, 2), Fraction(1, 2), 'rational root')
    """
    # Pringsheim guard: pole = radius only for nonnegative series
    ok = min(gf.expand(64).coeffs) >= 0
    den = gf.den
    if den.degree() == 0:
        return Radius(None, None, polynomial=True, pringsheim_ok=ok)
    f = den if den.leading() > 0 else -den
    if all(c >= 0 for c in f.coeffs):
        return Radius(None, None, polynomial=False, pringsheim_ok=ok)
    # every root of 1 - z^a is a root of unity, so a product of them has the
    # one positive root 1, and the exact division is the certificate
    if (gf._split or ((), den))[1] == ONE:
        return Radius(Fraction(1), Fraction(1), False, f, ok, "binomial split", f)
    guards = gf._guards
    if guards is not None:
        lo, hi, g = _tree_pole(guards[0] + guards[1], len(guards[0]), tol)
        # rho is the one root of G in (0, hi], so a rational root of G at most hi is rho
        q = _smallest_positive_rational_root(g)
        if q is not None and q <= hi:
            return Radius(q, q, False, f, ok, "rational root", f)
        return Radius(lo, hi, False, f, ok, "guard signs", g)
    r = _smallest_positive_rational_root(f)
    if r is not None and descartes_count(_cell_polynomial(f, Fraction(0), r)) == 0:
        return Radius(r, r, False, f, ok, "rational root", f)
    if not _squarefree_mod_p(f):
        # the squarefree part has f's roots, and its smaller coefficients
        # may pass the root scan's bound where f's did not
        f = squarefree_part(f)
        if r is None:
            r = _smallest_positive_rational_root(f)
            if r is not None and descartes_count(_cell_polynomial(f, Fraction(0), r)) == 0:
                return Radius(r, r, False, f, ok, "rational root", f)
    cell = next(_isolating_cells(f, Fraction(0), cauchy_root_bound(f) if r is None else r), None)
    if cell is not None:
        lo, hi = cell if cell[0] == cell[1] else _bisect(f, tol, *cell)
        return Radius(lo, hi, False, f, ok, "Descartes counts", f)
    if r is None:
        return Radius(None, None, polynomial=False, pringsheim_ok=ok)
    return Radius(r, r, False, f, ok, "rational root", f)


def compare_radii(a: Radius, b: Radius, tol: Fraction = DEFAULT_POLE_TOLERANCE):
    """Certified three-way comparison of two radii (library API).

    No verdict calls it: the gap rho(OmegaY) < rho(OmegaZ) is read off
    OmegaY's guard cell (`loop.strongly_inert_check`), and the tests compare
    that reading with this one. Returns (cmp, a_refined, b_refined) with
    cmp in {-1, 0, 1}. Strict answers come from disjoint isolating
    intervals. Equality is certified by a root of g = gcd of the two carried
    polynomials (`Radius._bracketed`) in the overlap [lo, hi]. Two exact radii never get this far. A non-exact
    interval holds one simple root of its polynomial and its ends are not
    roots, so g has at most one root there, simple: one iff g(hi) = 0 or
    g(lo) g(hi) < 0. The gcd is taken only once the intervals first overlap.
    Each round refines both intervals to 2^-8 of the last round's tolerance,
    or to the finer interval's width when that is less, so a coarse interval
    meets a far finer one in one `_bisect`. Intervals that still overlap
    after 300 rounds of refinement raise ValueError.
    """
    if a.is_infinite or b.is_infinite:
        return a.is_infinite - b.is_infinite, a, b
    common = None
    cur = tol
    ra, rb = a.refined(tol), b.refined(tol)
    for _ in range(300):
        decided = _disjoint_verdict(ra, rb)
        if decided is not None:
            return decided, ra, rb
        # overlapping intervals: either the radii share a denominator root
        # (equality) or refinement will separate them
        if common is None:
            common = poly_gcd(a._bracketed, b._bracketed)
        s_hi = common.sign_at(min(ra.hi, rb.hi))
        if s_hi == 0 or s_hi * common.sign_at(max(ra.lo, rb.lo)) < 0:
            return 0, ra, rb
        cur = min([cur / 2**8] + [r.width() for r in (ra, rb) if not r.is_exact])
        ra, rb = ra.refined(cur), rb.refined(cur)
    raise ValueError("radius comparison did not resolve; intervals would not separate")


def _disjoint_verdict(ra: Radius, rb: Radius):
    # non-exact intervals from bisection have their root strictly inside,
    # so touching endpoints still decide the order
    if ra.is_exact and rb.is_exact:
        return -1 if ra.lo < rb.lo else (1 if ra.lo > rb.lo else 0)
    if ra.hi <= rb.lo:
        return -1
    if rb.hi <= ra.lo:
        return 1
    return None


# -- log index -------------------------------------------------------------


class LogIndex(_Record):
    """Exponential growth rate -ln(radius), with a propagated error bound."""

    __slots__ = __match_args__ = ("value", "halfwidth", "eventually_zero")
    _defaults = {"halfwidth": 0.0, "eventually_zero": False}


def log_index_exact(rho: Radius) -> LogIndex:
    """-ln(rho) on the interval midpoint; interval width gives the error bound.

    An infinite radius reports 0.0; `eventually_zero` marks the degenerate
    polynomial case (dimensions vanish from some degree on).
    """
    if rho.is_infinite:
        return LogIndex(0.0, 0.0, eventually_zero=rho.polynomial)
    value = -math.log(rho.midpoint())
    if value == 0.0:
        value = 0.0  # avoid the -0.0 artifact at radius 1
    if rho.is_exact:
        return LogIndex(value, 0.0)
    halfwidth = (math.log(rho.hi) - math.log(rho.lo)) / 2
    return LogIndex(value, halfwidth)


def _log_fraction(q: Fraction) -> float:
    return math.log(q.numerator) - math.log(q.denominator)


_NEGATIVE = "series has negative coefficients; growth undefined"


def _rates(s: TruncatedSeries, start: int) -> tuple:
    """(degrees, rates): each n >= start with c_n nonzero, and log(c_n)/n.

    One negativity check covers the tail, and one log is mapped over its
    nonzero terms: `math.log` on an all-int tail, else `_log_fraction`,
    which takes an int's log exactly too.
    """
    tail = s.coeffs[start:]
    if tail and min(tail) < 0:
        raise ValueError(_NEGATIVE)
    log = math.log if set(map(type, tail)) <= {int} else _log_fraction
    degrees = list(compress(range(start, s.trunc_degree + 1), tail))
    return degrees, list(map(truediv, map(log, filter(None, tail)), degrees))


def _max_rate(rates: list) -> float:
    if not rates:
        raise ValueError("series has no tail growth to measure")
    return max(rates)


def log_index_empirical(s: TruncatedSeries, tail_start: int) -> float:
    """max over the tail of log(c_i)/i, skipping zero coefficients.

    >>> round(log_index_empirical(expand(RationalGF.from_coeffs([1], [1, -2]), 40), 10), 12)
    0.69314718056
    """
    if not 0 <= tail_start <= s.trunc_degree:
        raise ValueError("tail start outside the truncation range")
    return _max_rate(_rates(s, max(tail_start, 1))[1])


# -- controlled exponential growth ----------------------------------------


class GrowthCheckResult(_Record):
    """Outcome of the finite controlled-growth certificate.

    `sequence` is the admissible degree sequence of `controlled_growth_check`,
    `alphas` its per-degree rates log(dim)/degree. The series coefficients
    `dims` are carried along, not compared.
    """

    __slots__ = (
        "passed", "sequence", "alphas", "target", "lam", "epsilon", "k_min", "trunc_degree", "dims",
    )
    __match_args__ = __slots__[:-1]
    _defaults = {"dims": ()}

    def cumulative(self, k: int) -> int:
        """r_k: sum of dimensions through degree k."""
        if not 0 <= k <= self.trunc_degree:
            raise ValueError("degree outside the truncation range")
        return sum(self.dims[: k + 1])


def check_growth_parameters(lam: float, epsilon: float, k_min: int, trunc_degree: int) -> None:
    """Raise ValueError unless `controlled_growth_check` accepts these parameters."""
    if not (math.isfinite(lam) and math.isfinite(epsilon)):
        raise ValueError("ratio bound and tolerance must be finite")
    if lam <= 1:
        raise ValueError("ratio bound must exceed 1")
    if epsilon < 0:
        raise ValueError("tolerance must be nonnegative")
    if not 1 <= k_min <= trunc_degree:
        raise ValueError("k_min outside the truncation range")


def controlled_growth_check(
    s: TruncatedSeries,
    target: float,
    lam: float = 1.5,
    epsilon: float = 0.1,
    k_min: int = 10,
) -> GrowthCheckResult:
    """Finite certificate for controlled exponential growth at rate `target`.

    Admissible degrees n in [k_min, N] have dim > 0 and |log(dim)/n - target|
    <= epsilon. All admissible degrees are selected (greedy maximal sequence).
    The check passes when that sequence is nonempty, each of its degrees is
    below lambda times the one before, with k_min before the first, and
    lambda times its last degree reaches N, so truncation hides no gap.
    """
    check_growth_parameters(lam, epsilon, k_min, s.trunc_degree)
    return _growth_check(s, _rates(s, k_min), target, lam, epsilon, k_min)


def _growth_check(s, rates, target, lam, epsilon, k_min) -> GrowthCheckResult:
    """`controlled_growth_check` on checked parameters and the rate pass `_rates(s, k_min)`."""
    kept = [(n, rate) for n, rate in zip(*rates) if abs(rate - target) <= epsilon]
    seq = [n for n, _ in kept]
    passed = (
        bool(seq)
        and all(nxt < lam * prev for prev, nxt in zip([k_min] + seq, seq))
        and lam * seq[-1] >= s.trunc_degree
    )
    return GrowthCheckResult(
        passed=passed,
        sequence=tuple(seq),
        alphas=tuple(rate for _, rate in kept),
        target=target,
        lam=lam,
        epsilon=epsilon,
        k_min=k_min,
        trunc_degree=s.trunc_degree,
        dims=s.coeffs,
    )


def _growth_and_log_index(s, target, lam, epsilon, k_min) -> tuple:
    """(`controlled_growth_check(s, ...)`, `log_index_empirical(s, k_min)`) from one rate pass.

    The parameters must have passed `check_growth_parameters`; the errors
    are those of the two functions, the check's first.
    """
    rates = _rates(s, k_min)
    return _growth_check(s, rates, target, lam, epsilon, k_min), _max_rate(rates[1])
