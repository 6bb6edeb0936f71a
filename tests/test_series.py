"""Exact rational generating functions: arithmetic, poles, growth checks."""

import copy
import io
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from loopgrowth import polynomial, series
from loopgrowth.cli import run
from loopgrowth.loop import loop_gf
from loopgrowth.polynomial import IntPolynomial, cauchy_root_bound, count_roots_halfopen
from loopgrowth.series import (
    RationalGF,
    TruncatedSeries,
    compare_radii,
    controlled_growth_check,
    expand,
    gf_add,
    gf_mul,
    gf_reciprocal,
    gf_shift,
    log_index_empirical,
    log_index_exact,
    smallest_positive_pole,
)
from loopgrowth.space import parse

import oracles
from test_golden import DEEP_COFIBER, DEEP_CONNSUM, GUARD_WALK


def gf(num, den=(1,)):
    return RationalGF.from_coeffs(num, den)


def bare(g):
    """The series without its carried split, guards and expansion, as the public API builds it."""
    return RationalGF(g.num, g.den)


# Cauchy bound 2, so the second bisection midpoint is the root 1/2; the leading
# coefficient 4e7 skips the rational-root scan, and the true pole is the root
# near 3.33e-8 of the second factor
MIDPOINT_ROOT_DEN = IntPolynomial((1, -2)) * IntPolynomial((1, -3 * 10**7, -2 * 10**7))
SUSP_EXPR = "Susp(" + " x ".join(f"S{k}" for k in range(2, 8)) + ") v S3 x S5"


# -- arithmetic on closed forms ---------------------------------------------


class TestArithmetic:
    def test_add_partial_fractions(self):
        # 1/(1-z) + 1/(1-2z) has denominator (1-z)(1-2z) and numerator 2-3z
        out = gf_add(gf([1], [1, -1]), gf([1], [1, -2]))
        assert out.num.coeffs == (2, -3)
        assert out.den.coeffs == (1, -3, 2)

    def test_mul_polynomials(self):
        out = gf_mul(gf([1, 0, 1]), gf([1, 0, 0, 1]))
        assert out.num.coeffs == (1, 0, 1, 1, 0, 1)
        assert out.den.coeffs == (1,)

    def test_mul_geometric_square(self):
        out = gf_mul(gf([1], [1, -1]), gf([1], [1, -1]))
        assert out.expand(3).as_dims() == (1, 2, 3, 4)

    def test_reciprocal_round_trip(self):
        a = gf([1, 0, -1], [1, -1, -1])
        assert gf_mul(a, gf_reciprocal(a)) == RationalGF.constant(1)

    def test_reciprocal_rejects_zero_constant_term(self):
        with pytest.raises(ValueError, match="not invertible as a power series"):
            gf_reciprocal(gf([0, 1]))

    def test_shift(self):
        out = gf_shift(gf([1], [1, -1]), 2)
        assert out.num.coeffs == (0, 0, 1)
        assert out.expand(4).as_dims() == (0, 0, 1, 1, 1)

    def test_normalization_cancels_common_factor(self):
        # (1-z^2)/(1-z) normalizes to the polynomial 1+z
        a = gf([1, 0, -1], [1, -1])
        assert a.num.coeffs == (1, 1)
        assert a.den.coeffs == (1,)
        assert a.den.degree() == 0

    def test_normalization_sign_and_content(self):
        a = gf([2, -2], [-2, 4])
        assert a.den.constant_term() > 0
        assert math.gcd(*(abs(c) for c in a.num.coeffs + a.den.coeffs)) == 1


# -- truncated expansion ----------------------------------------------------


class TestExpand:
    def test_expansion_window(self):
        s = expand(gf([1, 0, 0, 1], [1, 0, -1]), 6)
        assert s.as_dims() == (1, 0, 1, 1, 1, 1, 1)

    def test_expansion_is_fractions(self):
        s = expand(gf([1], [2, -1]), 3)
        assert list(s.coeffs) == [
            Fraction(1, 2),
            Fraction(1, 4),
            Fraction(1, 8),
            Fraction(1, 16),
        ]

    def test_integral_coefficients_are_ints(self):
        # 2/(2 - z): the constant term divides out, the rest do not
        s = expand(gf([2], [2, -1]), 3)
        assert s.coeffs == (1, Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))
        assert type(s[0]) is int
        assert all(type(c) is Fraction for c in s.coeffs[1:])
        with pytest.raises(ValueError, match="degree 1 must be a nonnegative integer"):
            s.as_dims()

    def test_getitem_and_len(self):
        s = expand(gf([1], [1, -1]), 5)
        assert len(s) == 6 and s.trunc_degree == 5
        assert s[0] == 1 and s[5] == 1

    def test_from_dims_keeps_ints(self):
        s = TruncatedSeries.from_dims([1, 0, 2, 5])
        assert s.coeffs == (1, 0, 2, 5) and s.trunc_degree == 3
        assert all(type(c) is int for c in s.coeffs)
        assert s.as_dims() == s.coeffs
        for bad in ([1, -1], [1, Fraction(1, 2)], [1.0]):
            with pytest.raises(ValueError, match="must be a nonnegative integer"):
                TruncatedSeries.from_dims(bad)

    def test_from_dims_refuses_booleans(self):
        for bad in ([1, True], [False]):
            with pytest.raises(ValueError, match="must be a nonnegative integer"):
                TruncatedSeries.from_dims(bad)

    @given(
        st.lists(st.integers(-9, 9), min_size=1, max_size=9),
        st.sampled_from([1, 2, 3, 6]),
        st.lists(st.integers(-4, 4), max_size=4),
        st.integers(0, 12),
    )
    @settings(max_examples=150, deadline=None)
    def test_both_paths_match_truncated_arithmetic(self, num, d0, rest, n):
        # d0 = 1 gives ints only, d0 > 1 may give Fractions; n may fall
        # below the numerator's degree
        a = gf(num, [d0] + rest)
        got = expand(a, n).coeffs
        want = oracles.texpand(a.num.coeffs, a.den.coeffs, n)
        assert got == tuple(want)
        assert [type(c) is int for c in got] == [c.denominator == 1 for c in want]

    @given(
        st.lists(st.integers(1, 12), max_size=5),
        st.sampled_from([1, -1, 2, 3]),
        st.lists(st.integers(-3, 3), max_size=3),
        st.lists(st.integers(-9, 9), min_size=1, max_size=30),
        st.integers(0, 40),
    )
    @settings(max_examples=200, deadline=None)
    def test_binomial_products_match_truncated_arithmetic(self, exponents, c0, rest, num, n):
        # prod (1 - z^a) times a cofactor; n falls below and above each a and
        # the numerator's degree, and c0 != 1 either flips to 1 or keeps the
        # whole denominator in the recurrence
        den = IntPolynomial((c0, *rest))
        for a in exponents:
            den = den * IntPolynomial((1,) + (0,) * (a - 1) + (-1,))
        got = expand(RationalGF(IntPolynomial(tuple(num)), den), n).coeffs
        want = oracles.texpand(num, den.coeffs, n)
        assert got == tuple(want)
        assert [type(c) is int for c in got] == [c.denominator == 1 for c in want]

    @given(
        st.lists(st.integers(-9, 9), max_size=8),
        st.lists(st.integers(1, 9), max_size=4),
        st.lists(st.integers(-9, 9), min_size=1, max_size=50),
        st.integers(0, 40),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_a_cofactor_with_constant_term_1_gives_ints(self, rest, exponents, num, n, split):
        # the integer recurrence, with the binomials carried as a split or
        # left in the denominator; the numerator may run past the truncation
        cofactor = IntPolynomial((1, *rest))
        den = polynomial.binomial_product(exponents, cofactor.coeffs)
        a = RationalGF(IntPolynomial(tuple(num)), den)
        if split and a.den == den:
            a = RationalGF(a.num, den, (tuple(sorted(exponents)), cofactor))
        got = expand(a, n).coeffs
        assert got == tuple(oracles.texpand(a.num.coeffs, a.den.coeffs, n))
        assert all(type(c) is int for c in got)

    def test_truncation_below_the_numerator_degree(self):
        num = (1, 2, 3, 4, 5, 6, 7, 8)
        assert expand(gf(num, [1, -1]), 3).coeffs == (1, 3, 6, 10)
        assert expand(gf(num, [3, -1]), 2).coeffs == tuple(oracles.texpand(num, (3, -1), 2))
        assert expand(gf(num), 3).coeffs == (1, 2, 3, 4)


class TestExactIntegers:
    def test_float_coefficients_are_refused(self):
        with pytest.raises(TypeError):
            IntPolynomial((1.5, 2.7))
        with pytest.raises(TypeError):
            RationalGF.from_coeffs([0.5], [1, -1.9])

    def test_fraction_coefficients_are_refused(self):
        with pytest.raises(TypeError):
            IntPolynomial((Fraction(7, 2),))


# a sparse factor: a few nonzero terms at scattered degrees, zeros between them
sparse_coeffs = st.dictionaries(st.integers(0, 30), st.integers(-9, 9), max_size=3).map(
    lambda terms: [terms.get(i, 0) for i in range(max(terms, default=-1) + 1)]
)
dense_coeffs = st.lists(st.integers(-9, 9), max_size=12)


class TestMultiplyKernel:
    @given(sparse_coeffs, dense_coeffs)
    @settings(max_examples=200, deadline=None)
    def test_sparse_times_dense_either_way_round(self, a, b):
        p, q = IntPolynomial(tuple(a)), IntPolynomial(tuple(b))
        want = tuple(oracles.dense_product(list(p.coeffs), list(q.coeffs)))
        assert (p * q).coeffs == want
        assert (q * p).coeffs == want

    def test_zero_and_constant_factors(self):
        p = IntPolynomial((0, -3, 0, 0, 5))
        assert (p * IntPolynomial(())).is_zero() and (IntPolynomial(()) * p).is_zero()
        assert (p * IntPolynomial((-2,))).coeffs == (0, 6, 0, 0, -10)
        assert (IntPolynomial((0, 0, 1)) * p).coeffs == (0, 0, 0, -3, 0, 0, 5)


small_polys = st.lists(st.integers(-4, 4), min_size=1, max_size=5).map(tuple)
unit_polys = st.tuples(
    st.sampled_from([1, -1, 2, -2, 3]), st.lists(st.integers(-4, 4), max_size=4)
).map(lambda t: (t[0], *t[1]))


def gfs():
    return st.builds(gf, small_polys, unit_polys)


class TestRingLaws:
    @given(gfs(), gfs(), gfs())
    @settings(max_examples=100, deadline=None)
    def test_add_mul_match_truncated_oracle(self, a, b, c):
        n = 64
        ta = oracles.texpand(a.num.coeffs, a.den.coeffs, n)
        tb = oracles.texpand(b.num.coeffs, b.den.coeffs, n)
        tc = oracles.texpand(c.num.coeffs, c.den.coeffs, n)
        assert list(gf_add(a, b).expand(n).coeffs) == oracles.tadd(ta, tb, n)
        assert list(gf_mul(a, b).expand(n).coeffs) == oracles.tmul(ta, tb, n)
        lhs = gf_mul(a, gf_add(b, c))
        rhs = gf_add(gf_mul(a, b), gf_mul(a, c))
        assert lhs == rhs
        assert list(lhs.expand(n).coeffs) == oracles.tadd(
            oracles.tmul(ta, tb, n), oracles.tmul(ta, tc, n), n
        )

    @given(gfs())
    @settings(max_examples=100, deadline=None)
    def test_reciprocal_round_trip_to_deg_200(self, a):
        if a.num.constant_term() == 0:
            with pytest.raises(ValueError):
                gf_reciprocal(a)
            return
        prod = gf_mul(a, gf_reciprocal(a))
        assert prod == RationalGF.constant(1)
        assert prod.expand(200).as_dims() == (1,) + (0,) * 200

    @given(gfs())
    @settings(max_examples=100, deadline=None)
    def test_normalization_idempotent(self, a):
        again = RationalGF(a.num, a.den)
        assert again.num.coeffs == a.num.coeffs
        assert again.den.coeffs == a.den.coeffs


# -- reduced form by construction -----------------------------------------------

# factors planted in the unreduced fields: cyclotomic polynomials (1 - z,
# 1 + z, 1 + z + z^2, 1 - z + z^2, 1 + z^2, Phi_5), a non-monic one and a
# square, all with nonzero constant term so they may sit in a denominator
PLANTED = [(1, -1), (1, 1), (1, 1, 1), (1, -1, 1), (1, 0, 1), (1, 1, 1, 1, 1), (2, -3), (1, 2, 1)]


def _planted_product(draw, pool, min_size=0):
    out = IntPolynomial((draw(st.sampled_from([1, -1, 2, 3, -6])),))
    for f in draw(st.lists(st.sampled_from(pool), min_size=min_size, max_size=3)):
        out = out * IntPolynomial(f)
    return out


@st.composite
def planted_series(draw, pool):
    """A series num/den whose unreduced fields carry planted factors from pool, one at least in den.

    The numerator may be zero, and the denominator's constant term is drawn
    from values other than 1 too, before normalization makes it positive.
    """
    num = IntPolynomial(draw(st.lists(st.integers(-4, 4), max_size=4)) or (0,))
    d0 = draw(st.sampled_from([1, -1, 2, -3, 4]))
    den = IntPolynomial((d0, *draw(st.lists(st.integers(-3, 3), max_size=3))))
    return RationalGF(num * _planted_product(draw, pool), den * _planted_product(draw, pool, 1))


@st.composite
def operand_pairs(draw):
    """(x, y) where y shares planted factors with x, or is built so x + y or x * y cancels."""
    pool = draw(st.lists(st.sampled_from(PLANTED), min_size=1, max_size=3))
    x, w = draw(planted_series(pool)), draw(planted_series(pool))
    kind = draw(st.sampled_from(["shared", "sum-cancels", "product-cancels", "same", "negated"]))
    if kind == "sum-cancels":
        # x + y = w, so the sum cancels every factor of x.den that w.den lacks
        return x, RationalGF(w.num * x.den - x.num * w.den, w.den * x.den)
    if kind == "product-cancels":
        # x * y = w where x.num may sit in a denominator, else x * y = w x.num
        x_num = x.num if x.num.constant_term() != 0 else IntPolynomial((1,))
        return x, RationalGF(w.num * x.den, w.den * x_num)
    if kind == "same":
        return x, x  # x - x cancels to 0
    if kind == "negated":
        return x, RationalGF(-x.num, x.den)  # x + y cancels to 0
    return x, w


def unreduced(op, x, y, k):
    """The fields of the result of op before any cancellation."""
    a, b, c, d = x.num, x.den, y.num, y.den
    return {
        "add": (a * d + c * b, b * d),
        "sub": (a * d - c * b, b * d),
        "mul": (a * c, b * d),
        "neg": (-a, b),
        "reciprocal": (b, a),
        "shifted": (a.shift(k), b),
    }[op]


def computed(op, x, y, k):
    return {
        "add": lambda: x + y,
        "sub": lambda: x - y,
        "mul": lambda: x * y,
        "neg": lambda: -x,
        "reciprocal": x.reciprocal,
        "shifted": lambda: x.shifted(k),
    }[op]()


OPS = ["add", "sub", "mul", "neg", "reciprocal", "shifted"]


def invertible(op, x):
    return op != "reciprocal" or x.num.constant_term() != 0


class TestReducedArithmetic:
    """Each operation gives exactly the fields the constructor gives on the
    unreduced result, and those of sympy's cancel, though no gcd is taken
    with a constant operand."""

    @pytest.mark.parametrize("op", OPS)
    @given(pair=operand_pairs(), k=st.integers(0, 3))
    @settings(max_examples=100, deadline=None)
    def test_fields_match_the_constructor(self, op, pair, k):
        x, y = pair
        if not invertible(op, x):
            return
        got = computed(op, x, y, k)
        want = RationalGF(*unreduced(op, x, y, k))
        assert (got.num, got.den) == (want.num, want.den)

    @pytest.mark.parametrize("op", OPS)
    @given(pair=operand_pairs(), k=st.integers(0, 3))
    @settings(max_examples=25, deadline=None)
    def test_fields_match_sympy_cancel(self, op, pair, k):
        sympy = pytest.importorskip("sympy")
        x, y = pair
        if not invertible(op, x):
            return
        z = sympy.Symbol("z")
        num, den = (sum(c * z**i for i, c in enumerate(p.coeffs)) for p in unreduced(op, x, y, k))
        n, d = sympy.fraction(sympy.cancel(num / den))
        n, d = sympy.Poly(n, z, domain="QQ"), sympy.Poly(d, z, domain="QQ")
        # scale to coprime integer coefficients with den(0) > 0
        coeffs = n.all_coeffs() + d.all_coeffs()
        lcm, gcd = sympy.ilcm(*(c.q for c in coeffs)), sympy.igcd(*(c.p for c in coeffs))
        scale = sympy.Rational(lcm, gcd)  # exact: a float scale rounds 715/81 * 81 to 714.99...
        n, d = n * scale, d * scale
        if d.eval(0) < 0:
            n, d = -n, -d
        got = computed(op, x, y, k)
        assert got.num == IntPolynomial(tuple(int(c) for c in reversed(n.all_coeffs())))
        assert got.den == IntPolynomial(tuple(int(c) for c in reversed(d.all_coeffs())))

    def test_sum_that_cancels_to_zero(self):
        x = gf([1, 2], [1, 0, -1])
        for zero in (x - x, x + -x):
            assert (zero.num.coeffs, zero.den.coeffs) == ((), (1,))

    def test_product_that_cancels_to_a_constant_divides_out_content(self):
        # (2 - 2z)/(3 + 3z) * (3 + 3z)/(4 - 4z): every factor cancels but 1/2
        a = RationalGF(IntPolynomial((2, -2)), IntPolynomial((3, 3)))
        b = RationalGF(IntPolynomial((3, 3)), IntPolynomial((4, -4)))
        assert ((a * b).num.coeffs, (a * b).den.coeffs) == ((1,), (2,))

    def test_reciprocal_of_a_negative_constant_term_flips_the_sign(self):
        r = gf([-1, 1], [1, -3]).reciprocal()
        assert (r.num.coeffs, r.den.coeffs) == ((-1, 3), (1, -1))


# -- certified pole isolation -------------------------------------------------


class TestPoles:
    def test_rational_pole_is_exact(self):
        rho = smallest_positive_pole(gf([1], [1, -2]))
        assert rho.is_exact
        assert rho.lo == Fraction(1, 2)

    def test_smallest_of_two_poles(self):
        rho = smallest_positive_pole(gf([1], [1, -4, 3]))
        assert rho.is_exact
        assert rho.lo == Fraction(1, 3)

    def test_polynomial_has_infinite_radius(self):
        rho = smallest_positive_pole(gf([1, 0, 0, 1]))
        assert rho.is_infinite
        assert rho.polynomial

    def test_no_positive_pole(self):
        rho = smallest_positive_pole(gf([1], [1, 1]))
        assert rho.is_infinite
        assert not rho.polynomial

    def test_irrational_pole_certified_narrow(self):
        rho = smallest_positive_pole(gf([1], [1, 0, -2]))
        assert not rho.is_exact
        assert rho.width() <= Fraction(1, 10**12)
        assert rho.lo ** 2 < Fraction(1, 2) < rho.hi ** 2
        assert rho.certificate_holds()

    def test_golden_ratio_pole(self):
        rho = smallest_positive_pole(gf([1], [1, -1, -1]))
        assert rho.certificate_holds()
        mid = float(rho.midpoint())
        assert abs(mid - (math.sqrt(5) - 1) / 2) < 1e-9

    def test_refined_keeps_certificate(self):
        rho = smallest_positive_pole(gf([1], [1, 0, -2]), tol=Fraction(1, 100))
        tight = rho.refined(Fraction(1, 10**9))
        assert tight.width() <= Fraction(1, 10**9)
        assert tight.certificate_holds()
        assert tight.lo >= rho.lo and tight.hi <= rho.hi

    @given(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_certified_interval_properties(self, degs):
        # 1/(1 - sum z^d) always has a pole in (0, 1]
        den = [1] + [0] * max(degs)
        for d in degs:
            den[d] -= 1
        rho = smallest_positive_pole(gf([1], den))
        assert not rho.is_infinite
        assert rho.certificate_holds()
        assert 0 < rho.lo <= rho.hi <= 1

    def test_midpoint_root_does_not_hide_a_smaller_pole(self):
        rho = smallest_positive_pole(RationalGF(IntPolynomial((1,)), MIDPOINT_ROOT_DEN))
        assert not rho.is_exact
        assert rho.certificate_holds()
        assert rho.hi < Fraction(1, 10**7)

    def test_certificate_rejects_an_interval_holding_three_roots(self):
        # roots 1/4, 1/3, 1/2: (1/5, 3/5] has a sign change but three roots
        den = IntPolynomial((1, -4)) * IntPolynomial((1, -3)) * IntPolynomial((1, -2))
        rho = smallest_positive_pole(RationalGF(IntPolynomial((1,)), den))
        assert rho.is_exact and rho.lo == Fraction(1, 4)
        wide = series.Radius(
            Fraction(1, 5), Fraction(3, 5), rho.polynomial, rho._sqfree, rho.pringsheim_ok
        )
        assert den.sign_at(wide.lo) * den.sign_at(wide.hi) < 0
        assert not wide.certificate_holds()

    def test_pringsheim_flag(self):
        assert smallest_positive_pole(gf([1], [1, -2])).pringsheim_ok
        # (1-3z)/(1-2z) expands with negative coefficients
        mixed = smallest_positive_pole(gf([1, -3], [1, -2]))
        assert not mixed.pringsheim_ok
        assert mixed.refined(Fraction(1, 10**6)).pringsheim_ok is False


def sturm_certificate(f, lo, hi) -> bool:
    """`Radius.certificate_holds` by Sturm counts on f's squarefree part, the reference."""
    if not 0 < lo <= hi:
        return False
    f = polynomial.squarefree_part(f)
    if lo == hi:
        return f.sign_at(lo) == 0 and count_roots_halfopen(f, Fraction(0), lo) == 1
    return (
        f.sign_at(lo) * f.sign_at(hi) < 0
        and count_roots_halfopen(f, Fraction(0), lo) == 0
        and count_roots_halfopen(f, lo, hi) == 1
    )


def near_axis_pair(p, q, s):
    """(qs z - ps)^2 + 1, whose roots (p +- i/s)/q lie 1/(qs) off the real axis."""
    return IntPolynomial((p * p * s * s + 1, -2 * p * q * s * s, q * q * s * s))


@st.composite
def planted_cells(draw):
    """(f, grid step w, the level's grid cell holding f's smallest positive root).

    f has positive leading coefficient: planted rational roots, one of them
    perhaps double, perhaps a twin 2^-m past the smallest, and complex pairs
    near the real axis, so a single Descartes count often reads 2 or more,
    and a recheck that reduced no exact radius's denominator would not end
    on a double root below it. The cell
    is (x, x) when the root x is on the grid of (0, 64] with step w = 64/2^k.
    """
    ratios = st.tuples(st.integers(1, 48), st.integers(1, 16))
    roots = {Fraction(p, q) for p, q in draw(st.lists(ratios, min_size=1, max_size=3))}
    twin = draw(st.none() | st.integers(4, 40))
    if twin is not None:
        roots.add(min(roots) + Fraction(1, 2**twin))
    f = IntPolynomial((1,))
    for r in [*roots, *draw(st.lists(st.sampled_from(sorted(roots)), max_size=1))]:
        f = f * IntPolynomial((-r.numerator, r.denominator))
    for p, q in draw(st.lists(ratios, max_size=2)):
        f = f * near_axis_pair(p, q, draw(st.integers(1, 2**12)))
    rho, w = min(roots), Fraction(64, 2 ** draw(st.integers(0, 40)))
    lo = rho // w * w
    return f, w, (lo, lo if lo == rho else lo + w)


class TestCertificateAgainstSturm:
    """`Radius.certificate_holds` settles every root count by Descartes
    subdivision; it agrees with Sturm counts, the tests' oracle, also where
    a single Descartes count reads 2 or more."""

    @staticmethod
    def holds(f, lo, hi):
        return series.Radius(lo, hi, False, f).certificate_holds()

    @given(planted_cells(), st.integers(0, 8), st.integers(-2, 8))
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_sturm_counts(self, planted, steps, shift):
        f, w, (lo, hi) = planted
        assert self.holds(f, lo, hi) == sturm_certificate(f, lo, hi)
        # a cell shifted one grid step either way misses the smallest root
        for moved in (lo - w, lo + w):
            if moved > 0:
                assert not self.holds(f, moved, moved + hi - lo)
        # any other cell of the grid, wider or moved
        a = max(lo + shift * w, w)
        assert self.holds(f, a, a + steps * w) == sturm_certificate(f, a, a + steps * w)

    @pytest.mark.parametrize(
        "factors,lo,hi,counted,holds",
        [
            # a pair near 1/4 below the root 5/7 of (1/2, 3/4)
            ([(-5, 7), near_axis_pair(1, 4, 256)], Fraction(1, 2), Fraction(3, 4), "below", True),
            # a pair near 3/5 beside the root 5/7 in (1/2, 3/4)
            ([(-5, 7), near_axis_pair(3, 5, 256)], Fraction(1, 2), Fraction(3, 4), "inside", True),
            # 3/5, 5/7 and 5/7 + 2^-30 in one cell
            ([(-3, 5), (-5, 7), (-(5 * 2**30 + 7), 7 * 2**30)], Fraction(1, 2), Fraction(3, 4), "inside", False),
            # the exact root 1 past a pair near 1/2
            ([(-1, 1), near_axis_pair(1, 2, 256)], Fraction(1), Fraction(1), "below", True),
            # the root 1 past the double root 1/3, which no cell isolates
            ([(-1, 1), (-1, 3), (-1, 3)], Fraction(1), Fraction(1), "below", False),
        ],
        ids=["pair-below", "pair-inside", "three-roots", "exact-past-a-pair", "exact-past-a-double-root"],
    )
    def test_a_count_of_two_or_more_is_subdivided(self, factors, lo, hi, counted, holds):
        f = IntPolynomial((1,))
        for c in factors:
            f = f * (c if isinstance(c, IntPolynomial) else IntPolynomial(c))
        a, b = (Fraction(0), lo) if counted == "below" else (lo, hi)
        assert polynomial.descartes_count(series._cell_polynomial(f, a, b)) >= 2
        assert self.holds(f, lo, hi) == sturm_certificate(f, lo, hi) == holds


class TestBisectionWork:
    """Descartes counts isolate, on the raw denominator unless it has a
    repeated factor, and a certified Newton jump refines, in a few exact
    signs. No Sturm chain is built."""

    @staticmethod
    def count_chain_work(monkeypatch):
        calls = []

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(*args):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(module, name, wrapper)

        for name in ("squarefree_part", "taylor_shift", "_smallest_positive_rational_root"):
            counted(series, name)
        for name in ("sign_variations", "sturm_chain", "taylor_shift"):
            counted(polynomial, name)  # taylor_shift: the one inside descartes_count
        counted(IntPolynomial, "sign_at_ratio")  # every exact sign, sign_at's too
        return calls

    @staticmethod
    def signs_per_bisect(monkeypatch, calls):
        """The exact signs each `_bisect` call takes, from `count_chain_work`'s list."""
        per_call = []
        real = series._bisect

        def wrapper(*args):
            start = calls.count("sign_at_ratio")
            out = real(*args)
            per_call.append(calls.count("sign_at_ratio") - start)
            return out

        monkeypatch.setattr(series, "_bisect", wrapper)
        return per_call

    @staticmethod
    def isolation_steps(sf, hi):
        """Bisection steps from (0, hi] until one root is left, by plain root counts."""
        lo, steps = Fraction(0), 0
        while count_roots_halfopen(sf, lo, hi) > 1:
            mid = (lo + hi) / 2
            if count_roots_halfopen(sf, lo, mid) == 0:
                lo = mid
            else:
                hi = mid
            steps += 1
        return steps

    @pytest.mark.parametrize(
        "make_gf",
        [lambda: loop_gf(parse(SUSP_EXPR)), lambda: RationalGF(IntPolynomial((1,)), MIDPOINT_ROOT_DEN)],
        ids=["susp-product-wedge", "midpoint-root"],
    )
    def test_descartes_isolates_without_chains(self, monkeypatch, make_gf):
        gf = make_gf()
        calls = self.count_chain_work(monkeypatch)
        rho = smallest_positive_pole(gf)
        work = list(calls)
        assert not rho.is_exact and rho.certificate_holds()
        assert rho._sqfree in (gf.den, -gf.den)  # the raw denominator
        bound = cauchy_root_bound(rho._sqfree)
        isolating = self.isolation_steps(rho._sqfree, bound)
        steps = (bound / rho.width()).numerator.bit_length() - 1
        assert work.count("sturm_chain") == work.count("squarefree_part") == 0
        assert work.count("sign_variations") == 0
        # one shift counts a cell, and one more makes a right child: a count
        # at the top, then at most three shifts per level down to isolation
        assert work.count("taylor_shift") <= 1 + 3 * isolating
        assert isolating + 2 < steps

    def test_a_product_pole_takes_no_shift(self, monkeypatch):
        gf = loop_gf(parse(" x ".join(f"S{k}" for k in range(2, 14))))
        calls = self.count_chain_work(monkeypatch)
        rho = smallest_positive_pole(gf)
        assert calls == []  # no Taylor shift, no rational-root scan
        assert rho.lo == rho.hi == 1
        assert rho.certificate_holds()

    def test_a_bare_product_of_binomials_is_pinned_by_its_rational_root(self, monkeypatch):
        # with no carried split, the scan finds the root 1 and a Descartes
        # count of 0 on (0, 1) makes it the pole: the Radius of the split exit
        carried = loop_gf(parse("S2 x S3 x S5 x S5 x S9"))
        g = bare(carried)
        calls = self.count_chain_work(monkeypatch)
        rho = smallest_positive_pole(g)
        assert calls.count("_smallest_positive_rational_root") == 1
        assert calls.count("squarefree_part") == 0
        assert (rho.lo, rho.hi, rho.polynomial) == (1, 1, False)
        assert rho.certificate_holds()
        want = smallest_positive_pole(carried)
        assert rho == want and rho._sqfree == want._sqfree
        assert g.den == polynomial.binomial_product((1, 2, 4, 4, 8))

    # (lo, hi, certificate polynomial) as the Descartes path gave them before
    # the binomial step existed
    _GOLDEN_PHI = (
        Fraction(679535556991, 1099511627776),
        Fraction(5308871539, 8589934592),
    )

    @pytest.mark.parametrize(
        "make_gf,lo,hi,sqfree",
        [
            # bare series with binomial factors and a cofactor: no split is
            # carried, so each takes the rational-root scan and Descartes
            # counts; (1 - z^3)(1 - z^4) times the wedge's 1 - z - z^2
            (lambda: bare(loop_gf(parse("(S2 v S3) x S4 x S5"))), *_GOLDEN_PHI,
             (1, 0, -1, -2, -2, 0, 1, 2, 1)),
            # (1 - z)(1 - z - z^2)
            (lambda: gf([1], [1, -2, 0, 1]), *_GOLDEN_PHI, (1, -2, 0, 1)),
            # Phi_3 (1 - z^2)(1 - z^5), whose pole is 1; the squarefree part
            # keeps one factor 1 - z of the two
            (lambda: gf([1], [1, 1, 0, -1, -1, -1, -1, 0, 1, 1]),
             Fraction(1), Fraction(1), (-1, -2, -2, -1, 0, 1, 2, 2, 1)),
        ],
        ids=["wedge-times-spheres", "partial-split", "phi3-factor"],
    )
    def test_a_partial_split_takes_the_descartes_path(self, monkeypatch, make_gf, lo, hi, sqfree):
        g = make_gf()
        calls = self.count_chain_work(monkeypatch)
        rho = smallest_positive_pole(g)
        assert "_smallest_positive_rational_root" in calls and "taylor_shift" in calls
        assert (rho.lo, rho.hi, rho._sqfree.coeffs) == (lo, hi, sqfree)
        assert rho.certificate_holds()

    def test_a_double_root_takes_the_squarefree_part(self, monkeypatch):
        gf = loop_gf(parse("(S2 v S3) x (S2 v S3)"))
        calls = self.count_chain_work(monkeypatch)
        rho = smallest_positive_pole(gf)
        # the guards isolate the pole; only the recheck reduces the denominator
        assert calls.count("squarefree_part") == 0
        assert not rho.is_exact and rho.certificate_holds()
        assert calls.count("squarefree_part") == 1
        assert calls.count("sturm_chain") == calls.count("sign_variations") == 0
        assert rho._sqfree.coeffs == (-1, 1, 1)  # the squarefree part of (1 - z - z^2)^2
        # refinement and an overlapping comparison read the carried pole
        # guard, and each recheck reduces the denominator once, with no cache
        tests = oracles.count_calls(monkeypatch, series, "_squarefree_mod_p")
        calls.clear()
        tight = rho.refined(Fraction(1, 10**40))
        twin = smallest_positive_pole(gf)
        assert compare_radii(rho, twin)[0] == 0
        assert calls.count("squarefree_part") == 0 and tests == []
        assert tight.certificate_holds() and rho.certificate_holds()
        assert calls.count("squarefree_part") == len(tests) == 2

    def test_refined_builds_and_evaluates_no_chain(self, monkeypatch):
        rho = smallest_positive_pole(loop_gf(parse(SUSP_EXPR)))
        calls = self.count_chain_work(monkeypatch)
        tight = rho.refined(Fraction(1, 10**40))
        # no chain, no Descartes count: the two signs of the jump's cell
        assert calls == ["sign_at_ratio"] * 2
        assert tight.width() <= Fraction(1, 10**40)
        assert tight.certificate_holds()

    # the fixed sphere sets of the benchmark's cofiber, connsum and yclass verdicts
    VERDICTS = [
        ["cofiber", "--A", "S3 v S4", "--Z", "S2 x S3 x S4 x S5", "--inert", "x", "--max-degree", "36"],
        ["connsum", "--A", "S4", "--M", "S2 x S3 x S4", "--N", "S3 x S5", "--inert", "x",
         "--max-degree", "36"],
        ["yclass", "--m", "4", "--n", "11", "--J", "S2 v S3 v S5", "--inert", "x", "--max-degree", "36"],
    ]

    @pytest.mark.parametrize("argv", VERDICTS, ids=[argv[0] for argv in VERDICTS])
    def test_a_verdict_refines_in_at_most_three_signs_per_bisection(self, monkeypatch, argv):
        calls = self.count_chain_work(monkeypatch)
        per_call = self.signs_per_bisect(monkeypatch, calls)
        assert run(argv, io.StringIO()) == 0
        assert per_call and max(per_call) <= 3  # the halving took about 42

    @pytest.mark.parametrize(
        "den", [lambda: loop_gf(parse(SUSP_EXPR)).den, lambda: MIDPOINT_ROOT_DEN],
        ids=["susp-product-wedge", "midpoint-root"],
    )
    def test_a_pole_refines_in_at_most_three_signs(self, monkeypatch, den):
        g = RationalGF(IntPolynomial((1,)), den())
        calls = self.count_chain_work(monkeypatch)
        per_call = self.signs_per_bisect(monkeypatch, calls)
        rho = smallest_positive_pole(g)
        assert rho.refined(Fraction(1, 2**300)).certificate_holds()
        assert len(per_call) == 2 and max(per_call) <= 3

    # golden cases with radii about rho^252 apart: each walks Y's cell on the
    # least guard sign, and that cell certifies the gap (the connsum took
    # 886 signs when it refined both radii until they separated and every
    # refinement halved, and the cofibers 108 and 114 with a separate first
    # try beside the walk)
    @pytest.mark.parametrize(
        "argv,signs",
        [(DEEP_CONNSUM, 450), (DEEP_COFIBER, 108), (GUARD_WALK["cofiber-squared-wedge-deep-suspension"], 114)],
        ids=["connsum", "cofiber", "squared-wedge-cofiber"],
    )
    def test_the_deep_connsum_compares_radii_in_few_signs(self, monkeypatch, argv, signs):
        calls = self.count_chain_work(monkeypatch)
        assert run(argv, io.StringIO()) == 0
        assert calls.count("sign_at_ratio") <= signs

    @pytest.mark.parametrize(
        "estimate",
        [
            lambda sf, s_lo, a, b, d, bits: None,
            # inside the bracket, but far from the root: a wrong cell
            lambda sf, s_lo, a, b, d, bits: Fraction(a * 2**60 + (b - a), d * 2**60),
            lambda sf, s_lo, a, b, d, bits: Fraction(b * 2**60 - (b - a), d * 2**60),
        ],
        ids=["no-estimate", "near-lo", "near-hi"],
    )
    @pytest.mark.parametrize(
        "den", [lambda: loop_gf(parse(SUSP_EXPR)).den, lambda: MIDPOINT_ROOT_DEN],
        ids=["susp-product-wedge", "midpoint-root"],
    )
    def test_a_missed_estimate_falls_back_to_the_halving(self, monkeypatch, estimate, den):
        g = RationalGF(IntPolynomial((1,)), den())
        want = smallest_positive_pole(g)
        tol = Fraction(1, 2**100)
        tight = oracles.bisect_reference(want._sqfree.coeffs, tol, want.lo, want.hi)
        calls = self.count_chain_work(monkeypatch)
        monkeypatch.setattr(series, "_root_estimate", estimate)
        got = smallest_positive_pole(g)
        assert got == want
        assert calls.count("sign_at_ratio") > 30  # the halving ran
        refined = got.refined(tol)
        assert (refined.lo, refined.hi) == tight


    @pytest.mark.parametrize(
        "argv",
        [
            ["rho", "S2 v S3"],
            ["cofiber", "--A", "S3", "--Z", "S2 x S3", "--inert", "assumed"],
            ["connsum", "--A", "S3", "--M", "S2 x S2", "--N", "S2 x S2", "--inert", "assumed"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_a_tree_pole_runs_each_float_newton_once(self, monkeypatch, argv):
        # an estimate scans the guards in floats, one Newton per guard it moves past
        calls = oracles.count_calls(monkeypatch, series, "_float_newton")
        real, per_pole = series._tree_pole, []

        def tree_pole(*args):
            start = len(calls)
            cell = real(*args)
            per_pole.append(calls[start:])
            return cell

        monkeypatch.setattr(series, "_tree_pole", tree_pole)
        assert run(argv, io.StringIO()) == 0
        assert any(per_pole)
        for newtons in per_pole:
            assert len(set(newtons)) == len(newtons)


class TestFixedNewton:
    """The fixed-point Newton of a root estimate takes every step that stays
    in its bracket, so an exact step is never traded for halvings."""

    def test_a_linear_guard_lands_on_its_root_at_once(self, monkeypatch):
        # a cell of width 2^-80 whose left end lies within a unit of 1/3, at
        # 202 bits: the step from the right end lands on the root, where
        # halving the bracket to closure would take over 120 iterations;
        # each iteration reads len once, to compare its value with the
        # truncation
        reads = []
        monkeypatch.setattr(series, "len", lambda c: reads.append(c) or len(c), raising=False)
        P = 202
        A = (1 << P) // 3
        B = A + (1 << (P - 80))
        X = series._fixed_newton((1, -3), 1, A, B, P, P - 100)
        assert abs(3 * X - (1 << P)) <= 3 and A <= X <= B
        assert len(reads) <= 3


class TestCarriedSplit:
    """A loop series carries the split of its denominator into binomials
    times a cofactor from construction; any other series carries none."""

    CLONES = (copy.copy, copy.deepcopy, lambda g: pickle.loads(pickle.dumps(g)))

    @pytest.mark.parametrize("expr,split", [
        ("S2 x S3 x S5", ((1, 2, 4), (1,))),
        ("(S2 v S3) x S4 x S5", ((3, 4), (1, -1, -1))),
        ("S2 v S3", ((), (1, -1, -1))),
    ])
    def test_a_carried_split_is_not_compared(self, expr, split):
        built = loop_gf(parse(expr))
        fresh = bare(built)
        assert (built._split[0], built._split[1].coeffs) == split
        assert fresh._split is None
        assert built == fresh and hash(built) == hash(fresh)
        assert repr(built) == repr(fresh)
        for clone in self.CLONES:
            for g in (fresh, built):
                twin = clone(g)
                assert twin == g and hash(twin) == hash(g)
                assert twin._split == g._split
            assert clone(built).expand(12) == fresh.expand(12)
            assert smallest_positive_pole(clone(built)) == smallest_positive_pole(fresh)

    def test_guards_are_carried_not_compared(self):
        built = loop_gf(parse("(S2 v S3) x S4"))
        bare = RationalGF(built.num, built.den)
        wedge = IntPolynomial((1, -1, -1))
        assert built._guards == ((IntPolynomial((1, -1)),), (wedge, IntPolynomial((1, -1))))
        assert bare._guards is None
        assert built == bare and hash(built) == hash(bare) and repr(built) == repr(bare)
        for clone in self.CLONES:
            twin = clone(built)
            assert twin == built and twin._guards == built._guards
            assert smallest_positive_pole(twin) == smallest_positive_pole(bare)


class TestExpansionKept:
    """A series keeps its longest expansion: a shorter request reads a
    prefix of it and a longer one replaces it. The kept expansion is carried
    like the split: not compared, hashed or printed."""

    SERIES = {
        "sphere-product": lambda: loop_gf(parse("S2 x S3 x S5 x S5")),
        "wedge": lambda: loop_gf(parse("(S2 x S3) v S4")),
        "fractions": lambda: gf([1, 1], [2, -1, -1]),
    }

    @pytest.mark.parametrize("name", list(SERIES))
    @pytest.mark.parametrize("m,n", [(40, 10), (40, 40), (10, 40), (0, 64), (64, 0)])
    def test_a_second_expansion_equals_a_fresh_one(self, name, m, n):
        make = self.SERIES[name]
        g = make()
        assert expand(g, m) == expand(make(), m)
        assert expand(g, n) == expand(make(), n)
        assert g._expansion == expand(make(), max(m, n))

    def test_the_fraction_series_has_fraction_coefficients(self):
        assert isinstance(expand(self.SERIES["fractions"](), 3)[1], Fraction)

    def test_a_kept_expansion_is_carried_not_compared(self):
        fresh = loop_gf(parse("(S2 x S3) v S4"))
        used = loop_gf(parse("(S2 x S3) v S4"))
        kept = expand(used, 30)
        assert used._expansion is kept and fresh._expansion is None
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
        for clone in TestCarriedSplit.CLONES:
            twin = clone(used)
            assert twin == used and hash(twin) == hash(used)
            assert twin._expansion == kept
            assert expand(twin, 20) == expand(fresh, 20)

    @pytest.mark.parametrize("negative_at", [40, 80])
    @pytest.mark.parametrize("prior", [None, 30, 64, 100])
    def test_the_pringsheim_flag_ignores_a_prior_expansion(self, negative_at, prior):
        # (1 - 3z^k)/(1 - z) has coefficients 1 below degree k and -2 from
        # degree k on; the guard reads 64 terms, whatever was expanded before
        make = lambda: gf([1] + [0] * (negative_at - 1) + [-3], [1, -1])  # noqa: E731
        g = make()
        if prior is not None:
            expand(g, prior)
        assert smallest_positive_pole(g).pringsheim_ok == (negative_at > 64)
        assert smallest_positive_pole(g) == smallest_positive_pole(make())

    @pytest.mark.parametrize("command", ["loop-series", "log-index"])
    def test_a_sphere_product_is_multiplied_out_by_stride_differences(self, monkeypatch, command):
        # the denominator is built from its exponents 1, 2, 4, 4 with no
        # polynomial product, and the report's 200-term expansion is the
        # only one: one stride sum per exponent
        def refused(a, b):
            raise AssertionError("a polynomial product was taken")

        monkeypatch.setattr(IntPolynomial, "__mul__", refused)
        sums = oracles.count_calls(monkeypatch, polynomial, "stride_sums")
        argv = [command, "S2 x S3 x S5 x S5", "--max-degree", "200"]
        assert run(argv, io.StringIO()) == 0
        assert sorted(a for _, a in sums) == [1, 2, 4, 4]


class TestCompareRadii:
    def test_strictly_smaller(self):
        ra = smallest_positive_pole(gf([1], [1, -2]))
        rb = smallest_positive_pole(gf([1], [1, -1]))
        verdict, _, _ = compare_radii(ra, rb)
        assert verdict == -1

    def test_strictly_larger(self):
        ra = smallest_positive_pole(gf([1], [1, -1]))
        rb = smallest_positive_pole(gf([1], [1, -3]))
        verdict, _, _ = compare_radii(ra, rb)
        assert verdict == 1

    def test_equal_rational_poles(self):
        ra = smallest_positive_pole(gf([1], [1, -2]))
        rb = smallest_positive_pole(gf([1, 1], [1, -2]))
        verdict, _, _ = compare_radii(ra, rb)
        assert verdict == 0

    def test_equal_irrational_poles_via_common_factor(self):
        # same denominator twice: equality must be certified, not bisected forever
        ra = smallest_positive_pole(gf([1], [1, 0, -2]))
        rb = smallest_positive_pole(gf([1, 1], [1, 0, -2]))
        verdict, _, _ = compare_radii(ra, rb)
        assert verdict == 0

    def test_close_but_distinct_poles(self):
        ra = smallest_positive_pole(gf([1], [1, -1000]))
        rb = smallest_positive_pole(gf([1], [1, -1001]))
        verdict, ra2, rb2 = compare_radii(ra, rb)
        assert verdict == 1
        assert ra2.lo > rb2.hi

    def test_infinite_cases(self):
        fin = smallest_positive_pole(gf([1], [1, -2]))
        inf = smallest_positive_pole(gf([1, 1]))
        assert compare_radii(fin, inf)[0] == -1
        assert compare_radii(inf, fin)[0] == 1
        assert compare_radii(inf, inf)[0] == 0

    def test_a_coarse_radius_meets_a_fine_one_in_one_bisect(self, monkeypatch):
        # roots 2^-200 apart: (1 - z - z^2) and its shift by 2^-200, whose
        # cells sit at levels about 300 and 40; 8 bits per round would take
        # some 20 rounds of signs
        e = 2**200
        ez1 = IntPolynomial((-1, e))  # e z - 1, so f(z - 1/e) = f(ez1 / e)
        shifted = IntPolynomial((e * e,)) - IntPolynomial((-e, e * e)) - ez1 * ez1
        fine = smallest_positive_pole(gf([1], [1, -1, -1])).refined(Fraction(1, 2**300))
        coarse = smallest_positive_pole(RationalGF(IntPolynomial((1,)), shifted))
        assert coarse.lo < fine.lo and fine.hi < coarse.hi
        signs = []
        real = IntPolynomial.sign_at_ratio
        monkeypatch.setattr(IntPolynomial, "sign_at_ratio", lambda *a: signs.append(a) or real(*a))
        verdict, fine2, coarse2 = compare_radii(fine, coarse)
        assert verdict == -1 and fine2 == fine and coarse2.width() <= fine.width()
        # two signs of the gcd, then at most three for the one _bisect
        assert len(signs) <= 5

    def test_radii_that_never_separate_are_an_error(self, monkeypatch):
        # every round overlaps and no common root is found, so the
        # comparison runs out of its 300 refinement rounds
        ry = smallest_positive_pole(gf([1], [1, -2]))
        rz = smallest_positive_pole(loop_gf(parse("S2 x S2")))
        rounds = []
        monkeypatch.setattr(series, "_disjoint_verdict", lambda ra, rb: rounds.append((ra, rb)))
        monkeypatch.setattr(series, "poly_gcd", lambda a, b: IntPolynomial((1,)))
        with pytest.raises(ValueError, match="did not resolve"):
            compare_radii(ry, rz)
        assert len(rounds) == 300


COARSE = Fraction(1, 2)
# 10^8 z^2 + 1 has no real roots, and its leading coefficient turns off the
# rational-root scan, so a rational pole of a product with it is an interval
NO_SCAN = IntPolynomial((1, 0, 10**8))


def coarse_pole(den: IntPolynomial):
    return smallest_positive_pole(RationalGF(IntPolynomial((1,)), den), tol=COARSE)


class TestRootQuestionsBySign:
    """rho >= x and radius equality read off signs of the denominators."""

    def test_exact_radius_equals_an_interval_around_it(self):
        exact = coarse_pole(IntPolynomial((2, -3)))
        around = coarse_pole(IntPolynomial((2, -3)) * NO_SCAN)
        assert exact.is_exact and exact.lo == Fraction(2, 3)
        assert not around.is_exact and around.lo < Fraction(2, 3) < around.hi
        assert compare_radii(exact, around, COARSE)[0] == 0
        assert compare_radii(around, exact, COARSE)[0] == 0

    def test_exact_radius_inside_an_interval_is_not_its_root(self):
        exact = coarse_pole(IntPolynomial((2, -3)))
        smaller = coarse_pole(IntPolynomial((1, -1, -1)))
        assert smaller.lo < exact.lo < smaller.hi
        verdict, ra, rb = compare_radii(exact, smaller, COARSE)
        assert verdict == 1 and rb.hi <= ra.lo
        assert rb.certificate_holds()

    def test_overlapping_intervals_on_a_shared_irrational_root(self):
        golden = IntPolynomial((1, -1, -1))
        ra = coarse_pole(golden * IntPolynomial((1, 1)))
        rb = coarse_pole(golden * IntPolynomial((5, 0, -6)))
        assert max(ra.lo, rb.lo) < min(ra.hi, rb.hi)
        assert compare_radii(ra, rb, COARSE)[0] == 0

    @pytest.mark.parametrize(
        "den, at_least_one",
        [((1, -1, -1), False), ((6, 0, -5), True), ((1, 0, -1), True), ((2, -3), False)],
        ids=["golden-below", "sqrt-6/5-above", "exact-one", "exact-below"],
    )
    def test_at_least_one(self, den, at_least_one):
        rho = coarse_pole(IntPolynomial(den))
        if not rho.is_exact:
            assert rho.lo < 1 <= rho.hi
        one = coarse_pole(IntPolynomial((1, -1)))
        assert (compare_radii(rho, one, COARSE)[0] >= 0) is at_least_one

    def test_no_root_counts_outside_the_certificate_recheck(self, monkeypatch):
        counts = oracles.count_calls(monkeypatch, polynomial, "count_roots_halfopen")
        for argv in (
            ["rho", SUSP_EXPR],
            ["cofiber", "--A", "S2", "--Z", "S2 x S3", "--inert", "assumed"],
        ):
            assert run(argv, io.StringIO()) == 0
        golden = IntPolynomial((1, -1, -1))
        ra = coarse_pole(golden * IntPolynomial((1, 1)))
        rb = coarse_pole(golden * IntPolynomial((5, 0, -6)))
        assert compare_radii(ra, rb, COARSE)[0] == 0
        assert counts == []

    def test_no_positive_root_is_decided_before_the_rational_scan(self, monkeypatch):
        def refuse(sf):
            raise AssertionError("rational-root scan without a positive root")

        monkeypatch.setattr(series, "_smallest_positive_rational_root", refuse)
        # 448 divisors on each end, and every coefficient positive
        rho = smallest_positive_pole(gf([1], [8648640] + [1] * 20 + [8648640]))
        assert rho.is_infinite and not rho.polynomial

    def test_a_root_below_the_tolerance_gets_a_positive_lo(self):
        rho = smallest_positive_pole(gf([1], [1, -(10**13)]))
        assert 0 < rho.lo < rho.hi < Fraction(1, 10**12)
        assert rho.certificate_holds()
        assert math.isfinite(log_index_exact(rho).halfwidth)


class TestRationalRootScan:
    """The smallest positive rational root, from divisors of a small value."""

    def test_a_wide_divisor_scan_takes_few_evaluations(self, monkeypatch):
        # 448 divisors on each end, no rational root: the plain scan
        # evaluated all 200,704 pairs
        calls = []
        scaled_value = polynomial._scaled_value

        def counting(coeffs, p, q):
            calls.append((p, q))
            return scaled_value(coeffs, p, q)

        monkeypatch.setattr(polynomial, "_scaled_value", counting)
        f = IntPolynomial((8648640,) + (-1,) * 20 + (-8648640,))
        assert series._smallest_positive_rational_root(f) is None
        assert len(calls) <= 100

    def test_finds_a_planted_root_among_wide_divisors(self):
        # the other factor is positive on [0, 1/2]
        wide = IntPolynomial((4324320,) + (-1,) * 19 + (-4324320,))
        f = wide * IntPolynomial((-1, 2))
        assert series._smallest_positive_rational_root(f) == Fraction(1, 2)

    @given(
        st.lists(st.tuples(st.integers(-12, 12), st.integers(1, 12)), max_size=3),
        st.lists(st.integers(-20, 20), min_size=1, max_size=4).filter(any),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_every_divisor_pair(self, roots, cofactor):
        f = IntPolynomial(tuple(cofactor))
        for p, q in roots:
            f = f * IntPolynomial((-p, q))
        if f.constant_term() == 0:
            expected = None  # zero is not a positive root, and the scan stops
        else:
            expected = oracles.smallest_positive_rational_root(f.primitive().coeffs)
        assert series._smallest_positive_rational_root(f) == expected


class TestSquarefreeCertificate:
    """`_squarefree_mod_p` proves squarefree over Q, never the converse: a
    false answer only sends the search to the squarefree part."""

    @given(
        st.lists(st.integers(-50, 50), min_size=2, max_size=5).filter(lambda c: c[-1]),
        st.lists(st.integers(-(10**40), 10**40), min_size=1, max_size=4).filter(lambda c: c[-1]),
    )
    @settings(max_examples=150, deadline=None)
    def test_false_on_a_square_times_anything(self, g, h):
        g, h = IntPolynomial(tuple(g)), IntPolynomial(tuple(h))
        assert not series._squarefree_mod_p(g * g * h)

    # (1 - z)(1 - (1 + p) z) is squarefree over Q, and (1 - z)^2 mod p
    P = series._CERTIFICATE_PRIME
    SQUARE_MOD_P = IntPolynomial((1, -1)) * IntPolynomial((1, -(1 + P)))

    def test_false_on_a_polynomial_square_only_mod_p(self):
        f = self.SQUARE_MOD_P
        assert polynomial.squarefree_part(f) == f
        assert not series._squarefree_mod_p(f)

    def test_a_miss_gives_the_radius_of_the_squarefree_part(self, monkeypatch):
        g = RationalGF(IntPolynomial((1,)), self.SQUARE_MOD_P)
        rho = smallest_positive_pole(g)
        monkeypatch.setattr(series, "_squarefree_mod_p", lambda f: False)
        assert smallest_positive_pole(g) == rho
        assert rho.lo < Fraction(1, 1 + self.P) < rho.hi and rho.certificate_holds()


# -- log index ---------------------------------------------------------------


class TestLogIndex:
    def test_exact_geometric(self):
        li = log_index_exact(smallest_positive_pole(gf([1], [1, -2])))
        assert li.value == math.log(2)
        assert li.halfwidth == 0.0

    def test_radius_one_reports_positive_zero(self):
        li = log_index_exact(smallest_positive_pole(gf([1], [1, -1])))
        assert li.value == 0.0
        assert math.copysign(1.0, li.value) == 1.0

    def test_rate_three(self):
        li = log_index_exact(smallest_positive_pole(gf([1], [1, -3])))
        assert li.value == math.log(3)

    def test_infinite_radius_flags_eventually_zero(self):
        li = log_index_exact(smallest_positive_pole(gf([1, 2, 1])))
        assert li.value == 0.0
        assert li.eventually_zero

    def test_interval_halfwidth_bounds_error(self):
        rho = smallest_positive_pole(gf([1], [1, 0, -2]))
        li = log_index_exact(rho)
        assert abs(li.value - math.log(2) / 2) <= li.halfwidth + 1e-15
        assert li.halfwidth <= 1e-11

    def test_empirical_geometric(self):
        s = expand(gf([1], [1, -2]), 40)
        assert log_index_empirical(s, 10) == pytest.approx(math.log(2), abs=1e-9)

    def test_empirical_skips_zero_coefficients(self):
        s = expand(gf([1], [1, 0, -2]), 41)
        got = log_index_empirical(s, 10)
        assert got == pytest.approx(math.log(2) / 2, abs=0.02)

    def test_empirical_rejects_flat_tail(self):
        s = TruncatedSeries.from_dims([1] + [0] * 20)
        with pytest.raises(ValueError, match="no tail growth to measure"):
            log_index_empirical(s, 5)

    def test_empirical_rejects_bad_tail_start(self):
        s = expand(gf([1], [1, -2]), 10)
        with pytest.raises(ValueError, match="tail start outside the truncation range"):
            log_index_empirical(s, 11)


# -- controlled growth certificate --------------------------------------------


class TestControlledGrowth:
    def test_geometric_selects_every_degree(self):
        s = expand(gf([1], [1, -2]), 60)
        out = controlled_growth_check(s, math.log(2), lam=1.5, epsilon=0.01, k_min=5)
        assert out.passed
        assert out.sequence == tuple(range(5, 61))
        assert all(abs(a - math.log(2)) <= 0.01 for a in out.alphas)

    def test_flat_sequence_fails(self):
        s = TruncatedSeries.from_dims([1] + [0] * 30)
        out = controlled_growth_check(s, math.log(2), k_min=5)
        assert not out.passed
        assert out.sequence == ()

    def test_even_support_passes_at_rate_zero(self):
        s = expand(gf([1], [1, 0, -1]), 30)
        out = controlled_growth_check(s, 0.0, lam=1.5, epsilon=0.1, k_min=5)
        assert out.passed
        assert out.sequence == tuple(range(6, 31, 2))

    def test_truncation_gap_fails(self):
        # admissible degrees stop early; lambda * n_last < N exposes the gap
        dims = [1] * 21 + [0] * 20
        s = TruncatedSeries.from_dims(dims)
        out = controlled_growth_check(s, 0.0, lam=1.5, epsilon=0.1, k_min=5)
        assert not out.passed

    def test_parameter_validation(self):
        s = expand(gf([1], [1, -2]), 20)
        with pytest.raises(ValueError, match="ratio bound must exceed 1"):
            controlled_growth_check(s, 0.7, lam=1.0)
        with pytest.raises(ValueError, match="tolerance must be nonnegative"):
            controlled_growth_check(s, 0.7, epsilon=-0.1)
        with pytest.raises(ValueError, match="k_min outside the truncation range"):
            controlled_growth_check(s, 0.7, k_min=25)

    def test_cumulative_dimension_count(self):
        s = expand(gf([1], [1, -2]), 10)
        out = controlled_growth_check(s, math.log(2), k_min=5)
        assert out.cumulative(3) == 15 and type(out.cumulative(3)) is int
        assert out.cumulative(0) == 1


# -- the rate pass against the per-degree loops it replaced --------------------


def outcome(f, *args):
    try:
        return f(*args)
    except ValueError as e:
        return "ValueError", str(e)


def growth_fields(s, target, lam, epsilon, k_min):
    out = controlled_growth_check(s, target, lam=lam, epsilon=epsilon, k_min=k_min)
    return out.passed, out.sequence, out.alphas


def growth_series(head, zeros, negative):
    coeffs = list(head) + [0] * zeros
    if negative is not None:
        at, c = negative
        coeffs[at % len(coeffs)] = -c
    return TruncatedSeries(tuple(coeffs))


# zeros, ints over many magnitudes and Fractions, then an all-zero tail and at
# most one negative coefficient
COEFF = st.one_of(
    st.just(0), st.integers(0, 10**40), st.fractions(min_value=0, max_denominator=10**9)
)
GROWTH_SERIES = st.builds(
    growth_series,
    st.lists(COEFF, min_size=2, max_size=60),
    st.integers(0, 20),
    st.none() | st.tuples(st.integers(0, 79), st.integers(1, 10)),
)


class TestRatePass:
    @given(
        GROWTH_SERIES,
        st.floats(0, 3),
        st.floats(1, 3, exclude_min=True),
        st.floats(0, 2),
        st.integers(1, 80),
    )
    @settings(max_examples=300, deadline=None)
    def test_growth_check_matches_reference(self, s, target, lam, epsilon, k_min):
        k_min = min(k_min, s.trunc_degree)
        args = (s, target, lam, epsilon, k_min)
        assert outcome(growth_fields, *args) == outcome(oracles.controlled_growth_check, *args)

    @given(GROWTH_SERIES, st.integers(0, 80))
    @settings(max_examples=300, deadline=None)
    def test_empirical_matches_reference(self, s, tail_start):
        tail_start = min(tail_start, s.trunc_degree + 1)
        want = outcome(oracles.log_index_empirical, s, tail_start)
        assert outcome(log_index_empirical, s, tail_start) == want

    # a denominator with constant term 2..9 gives Fraction coefficients
    @given(
        st.lists(st.integers(-9, 9), min_size=1, max_size=4),
        st.integers(2, 9),
        st.lists(st.integers(-9, 9), min_size=1, max_size=4),
        st.integers(1, 60),
        st.integers(0, 60),
    )
    @settings(max_examples=200, deadline=None)
    def test_a_fraction_series_matches_reference(self, num, d0, den, n, tail_start):
        assume(any(num))
        s = expand(RationalGF.from_coeffs(num, [d0] + den), n)
        tail_start = min(tail_start, n)
        want = outcome(oracles.log_index_empirical, s, tail_start)
        assert outcome(log_index_empirical, s, tail_start) == want

    @pytest.mark.parametrize(
        "support,n,passed",
        [
            ((6, 8, 10, 12), 12, False),  # seq[0] == lam * k_min
            ((5, 6, 9), 9, False),  # 9 == lam * 6
            ((5, 6, 7, 8), 12, True),  # lam * seq[-1] == N
            ((5, 6, 7, 8), 13, False),
        ],
    )
    def test_boundary_ratios_match_reference(self, support, n, passed):
        # lam = 1.5 and k_min = 4 make each boundary an exact float equality
        s = TruncatedSeries(tuple(2**i if i in support else 0 for i in range(n + 1)))
        args = (s, math.log(2), 1.5, 1e-9, 4)
        assert growth_fields(*args) == oracles.controlled_growth_check(*args)
        assert growth_fields(*args)[:2] == (passed, support)

    def test_negative_coefficient_raises_the_reference_error(self):
        s = TruncatedSeries((1, 2, 0, -1, 0))
        message = "series has negative coefficients; growth undefined"
        for f, args in (
            (growth_fields, (s, 0.5, 1.5, 0.1, 1)),
            (oracles.controlled_growth_check, (s, 0.5, 1.5, 0.1, 1)),
            (log_index_empirical, (s, 0)),
            (oracles.log_index_empirical, (s, 0)),
        ):
            assert outcome(f, *args) == ("ValueError", message)


# -- growth flag consistency ---------------------------------------------------


def loop_like():
    # series of the form 1/(1 - sum z^d): nonnegative coefficients by design
    return st.lists(st.integers(1, 4), min_size=1, max_size=3).map(
        lambda degs: gf(
            [1],
            [1]
            + [
                -sum(1 for d in degs if d == i)
                for i in range(1, max(degs) + 1)
            ],
        )
    )


class TestPringsheimConsistency:
    @given(loop_like())
    @settings(max_examples=60, deadline=None)
    def test_empirical_brackets_exact(self, a):
        rho = smallest_positive_pole(a)
        assert rho.pringsheim_ok
        li = log_index_exact(rho)
        if li.value <= 0:
            return
        emp = log_index_empirical(a.expand(200), 150)
        assert li.value - 0.1 <= emp <= li.value + 0.05
