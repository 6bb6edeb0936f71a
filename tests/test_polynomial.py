"""The integer polynomial kernel against sympy: gcd, squarefree part, exact
division, Sturm chains and root counts, series expansion, and the certified
radii of the large denominators the kernel is built for."""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")

from loopgrowth import polynomial, series  # noqa: E402
from loopgrowth.loop import loop_gf  # noqa: E402
from loopgrowth.polynomial import (  # noqa: E402
    IntPolynomial,
    cauchy_root_bound,
    count_roots_halfopen,
    descartes_count,
    poly_divexact,
    poly_gcd,
    sign_variations,
    squarefree_part,
    stride_sums,
    sturm_chain,
)
from loopgrowth.series import (  # noqa: E402
    DEFAULT_POLE_TOLERANCE,
    RationalGF,
    compare_radii,
    expand,
    smallest_positive_pole,
)
from loopgrowth.space import parse  # noqa: E402

import oracles  # noqa: E402

Z = sympy.Symbol("z")


def to_sympy(p: IntPolynomial, domain="ZZ"):
    return sympy.Poly(list(reversed(p.coeffs)) or [0], Z, domain=domain)


def from_sympy(p) -> IntPolynomial:
    return IntPolynomial(tuple(int(c) for c in reversed(p.all_coeffs())))


def normalized(p: IntPolynomial) -> IntPolynomial:
    """Primitive, with positive leading coefficient."""
    p = p.primitive()
    return -p if p.leading() < 0 else p


def cyclotomic(n: int) -> IntPolynomial:
    return from_sympy(sympy.Poly(sympy.cyclotomic_poly(n, Z), Z))


def power(p: IntPolynomial, e: int) -> IntPolynomial:
    out = IntPolynomial((1,))
    for _ in range(e):
        out = out * p
    return out


def nonzero(max_degree: int, bound: int = 9):
    coeffs = st.lists(st.integers(-bound, bound), min_size=1, max_size=max_degree + 1)
    return coeffs.map(lambda c: IntPolynomial(tuple(c))).filter(lambda p: not p.is_zero())


def rational(denominators):
    return st.builds(Fraction, st.integers(-40, 40), st.sampled_from(denominators))


DYADIC = (1, 2, 4, 8, 16)
NON_DYADIC = (3, 5, 6, 7, 9, 12)


class TestGcd:
    @given(nonzero(5), nonzero(5), nonzero(4))
    @settings(max_examples=150, deadline=None)
    def test_planted_common_factor(self, p, q, g):
        a, b = p * g, q * g
        got = poly_gcd(a, b)
        want = from_sympy(to_sympy(a).gcd(to_sympy(b)))
        assert got == normalized(want)
        assert got.leading() > 0 and got.content() == 1
        poly_divexact(got, normalized(g))  # the planted factor divides the gcd
        assert polynomial._heuristic_gcd(a, b) in (None, got)

    # pairs where the first candidate divides a but not b, so only the
    # division check on b rejects it
    @pytest.mark.parametrize(
        "a,b",
        [((9, -12, 3), (-3, 9, 12, -15, 6, -9)), ((-5, 5, 5, -5), (-2, 1, -3, 20, -25, 9))],
    )
    def test_the_heuristic_gcd_divides_both(self, a, b):
        a, b = IntPolynomial(a), IntPolynomial(b)
        assert polynomial._heuristic_gcd(a, b) in (None, poly_gcd(a, b))

    @given(nonzero(6))
    @settings(max_examples=50, deadline=None)
    def test_gcd_with_zero_is_the_primitive_part(self, a):
        assert poly_gcd(a, IntPolynomial(())) == normalized(a)
        assert poly_gcd(IntPolynomial(()), a) == normalized(a)

    @given(
        nonzero(4),
        st.lists(st.tuples(st.integers(1, 12), st.integers(1, 3)), min_size=1, max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_squarefree_part_of_repeated_cyclotomic_factors(self, p, factors):
        f = p
        for n, e in factors:
            f = f * power(cyclotomic(n), e)
        got = squarefree_part(f)
        want = from_sympy(to_sympy(f).sqf_part())
        assert normalized(got) == normalized(want)
        assert got.content() == f.content()


    # a repeated factor with coefficients far above those of the rest, so
    # the first evaluation point of the heuristic gcd often misses
    @given(nonzero(4, 10**6), nonzero(3, 10**12), st.integers(1, 3), nonzero(2), st.integers(2, 4))
    @settings(max_examples=150, deadline=None)
    def test_squarefree_part_matches_the_remainder_sequence(self, p, q, e, r, k):
        f = p * power(q, e) * power(r, k)
        assume(f.degree() >= 1)
        df = f.derivative()
        g = poly_gcd(f, df)
        assert squarefree_part(f) == (f if g.degree() <= 0 else poly_divexact(f, g))
        assert polynomial._heuristic_gcd(f, df) in (None, g)

    def test_a_missed_evaluation_point_is_squared(self, monkeypatch):
        # (1 - z)^2 (1 - z^2)^2 ... (1 - z^12)^2: the gcd with the derivative
        # has coefficients above 2 max|f'| + 2, so the first points miss
        f = power(polynomial.binomial_product(tuple(range(1, 13))), 2)
        points = []
        real = polynomial._scaled_value
        monkeypatch.setattr(polynomial, "_scaled_value", lambda c, p, q: points.append(p) or real(c, p, q))
        got = polynomial._heuristic_gcd(f, f.derivative())
        assert got == poly_gcd(f, f.derivative())
        assert len(points) > 2 and points[2] == points[0] ** 2

    def test_a_run_of_misses_stops_at_the_size_limit(self, monkeypatch):
        # degree 1,000 with 100-bit coefficients: squaring xi on every miss
        # would evaluate at 3.2 million bits by the sixth try
        f = IntPolynomial(tuple(range(2**100, 2**100 + 1001)))
        sizes = []
        real = polynomial._scaled_value
        monkeypatch.setattr(
            polynomial, "_scaled_value", lambda c, p, q: sizes.append((len(c) - 1) * p.bit_length()) or real(c, p, q)
        )

        def miss(a, b):
            raise ValueError("not exact")

        monkeypatch.setattr(polynomial, "poly_divexact", miss)
        start = time.perf_counter()
        assert polynomial._heuristic_gcd(f, f.derivative()) is None
        assert 0 < len(sizes) < 12 and max(sizes) <= polynomial._HEURISTIC_BITS
        assert time.perf_counter() - start < 5

    def test_an_exhausted_heuristic_falls_back_to_the_remainder_sequence(self, monkeypatch):
        monkeypatch.setattr(polynomial, "_heuristic_gcd", lambda a, b: None)
        f = power(IntPolynomial((1, -3)), 2) * IntPolynomial((1, -1))
        assert squarefree_part(f) == IntPolynomial((-1, 4, -3))  # f / (3z - 1)


class TestDivexact:
    @given(nonzero(5), nonzero(4))
    @settings(max_examples=100, deadline=None)
    def test_exact_quotient(self, g, h):
        assert poly_divexact(g * h, g) == h

    @given(nonzero(4), nonzero(4), st.integers(2, 7))
    @settings(max_examples=100, deadline=None)
    def test_exact_over_q_but_not_over_z_raises(self, g, h, k):
        h = h.primitive()
        with pytest.raises(ValueError):
            poly_divexact(g * h, g * IntPolynomial((k,)))

    @given(nonzero(4), nonzero(3), nonzero(3))
    @settings(max_examples=100, deadline=None)
    def test_remainder_left_raises(self, g, h, r):
        assume(g.degree() >= 1 and r.degree() < g.degree())
        with pytest.raises(ValueError):
            poly_divexact(g * h + r, g)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            poly_divexact(IntPolynomial((1, 1)), IntPolynomial(()))


class TestSturm:
    @given(nonzero(7))
    @settings(max_examples=100, deadline=None)
    def test_rows_are_integer_positive_multiples_of_the_rational_chain(self, f):
        sf = squarefree_part(f)
        assume(sf.degree() >= 1)
        chain = sturm_chain(sf)
        assert all(type(c) is int for row in chain for c in row)
        reference = sympy.sturm(to_sympy(sf, "QQ"))
        assert len(chain) == len(reference)
        ratios = set()
        for row, ref in zip(chain, reference):
            ours = to_sympy(IntPolynomial(tuple(row)), "QQ")
            quotient, remainder = ours.div(ref)
            assert remainder.is_zero and quotient.degree() <= 0
            ratios.add(quotient.LC() > 0)
        # sympy makes the first row monic, which may flip every row at once
        assert len(ratios) == 1

    @pytest.mark.parametrize("denominators", [DYADIC, NON_DYADIC], ids=["dyadic", "non-dyadic"])
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_counts_on_halfopen_intervals(self, denominators, data):
        f = data.draw(nonzero(6))
        a = data.draw(rational(denominators))
        b = a + data.draw(rational(denominators).filter(lambda w: w > 0))
        assume(f.degree() >= 1 and f.sign_at(a) != 0)
        want = to_sympy(f).sqf_part().count_roots(sympy.Rational(a.numerator, a.denominator),
                                                  sympy.Rational(b.numerator, b.denominator))
        assert count_roots_halfopen(f, a, b) == want

    def test_root_at_the_right_endpoint_counts(self):
        f = IntPolynomial((-1, 3))  # root 1/3
        assert count_roots_halfopen(f, Fraction(0), Fraction(1, 3)) == 1
        assert count_roots_halfopen(f, Fraction(1, 3) - Fraction(1, 10**9), Fraction(1, 2)) == 1

    @given(nonzero(6), rational(DYADIC + NON_DYADIC))
    @settings(max_examples=100, deadline=None)
    def test_eval_and_sign_agree_with_fraction_horner(self, f, x):
        value = Fraction(0)
        for c in reversed(f.coeffs):
            value = value * x + c
        assert f.eval_at(x) == value
        assert f.sign_at(x) == (value > 0) - (value < 0)


def binomial(a: int) -> IntPolynomial:
    return IntPolynomial((1,) + (0,) * (a - 1) + (-1,))


def binomial_product(exponents) -> IntPolynomial:
    out = IntPolynomial((1,))
    for a in exponents:
        out = out * binomial(a)
    return out


def spheres(exponents) -> str:
    """The product of the spheres S^(a + 1), whose loop denominator is prod (1 - z^a)."""
    return " x ".join(f"S{a + 1}" for a in exponents)


class TestBinomialFactors:
    """The split a loop series carries, (exponents, cofactor), multiplies out
    to its denominator, and the binomials are the ones sympy factors out."""

    @given(st.lists(st.integers(1, 12), min_size=1, max_size=6),
           st.sampled_from(["S2 v S3", "Susp(S2 x S3)", "S3 ^ (S2 v S4)", "(S2 v S2) x (S3 v S3)"]))
    @settings(max_examples=100, deadline=None)
    def test_the_carried_split_rebuilds_the_denominator(self, exponents, other):
        # spheres times a factor of another kind: the spheres' binomials
        # over that factor's denominator
        g = loop_gf(parse(f"{spheres(exponents)} x ({other})"))
        found, cofactor = g._split
        assert found == tuple(sorted(exponents))
        assert cofactor == loop_gf(parse(other)).den
        assert binomial_product(found) * cofactor == g.den

    @staticmethod
    def check_against_sympy(exponents):
        g = loop_gf(parse(spheres(exponents)))
        found, cofactor = g._split
        assert found == tuple(sorted(exponents)) and cofactor == IntPolynomial((1,))
        # 1 - z^a is -prod over d | a of Phi_d, so Phi_d appears once per a it divides
        _, factors = to_sympy(g.den).factor_list()
        got = {normalized(from_sympy(h)): e for h, e in factors}
        counts = {d: sum(a % d == 0 for a in found) for d in range(1, max(found) + 1)}
        assert got == {cyclotomic(d): e for d, e in counts.items() if e}

    @given(st.lists(st.integers(1, 12), min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_a_product_splits_whole_as_sympy_factors_it(self, exponents):
        self.check_against_sympy(exponents)

    # degree about 200, with few distinct cyclotomic factors: sympy factors
    # a product of many distinct ones of high degree only in seconds
    @pytest.mark.parametrize(
        "exponents", [[200], [100, 100], [40] * 5, [60, 60, 60], [2] * 100, [1] * 50 + [3] * 50],
        ids=["200", "100x2", "40x5", "60x3", "2x100", "1x50-3x50"],
    )
    def test_degree_200_products_split_as_sympy_factors_them(self, exponents):
        self.check_against_sympy(exponents)

    @given(st.lists(st.integers(1, 12), max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_stride_differences_multiply_out_the_binomials(self, exponents):
        # the kernel's product equals the dense one, and stride sums undo it
        f = polynomial.binomial_product(exponents)
        assert f == binomial_product(exponents)
        q = list(f.coeffs)
        for a in exponents:
            stride_sums(q, a)
        assert q == [1] + [0] * sum(exponents)


class TestExpand:
    @given(
        st.lists(st.integers(-6, 6), min_size=1, max_size=5),
        st.sampled_from([2, 3, -4, 6, 9]),
        st.lists(st.integers(-6, 6), max_size=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_constant_term_not_one(self, num, d0, rest):
        gf = RationalGF.from_coeffs(num, [d0] + rest)
        assume(gf.den.constant_term() != 1)
        got = expand(gf, 25).coeffs
        assert got == tuple(oracles.texpand(num, [d0] + rest, 25))

    def test_geometric_series_in_thirds(self):
        got = expand(RationalGF.from_coeffs([1], [3, -1]), 6).coeffs
        assert got == tuple(Fraction(1, 3 ** (k + 1)) for k in range(7))


def planted_roots(g: IntPolynomial, t: Fraction) -> list:
    """Every r > 0 with r == t * cauchy_root_bound(g * (z - r)), g(r) != 0.

    The bound of h = g * (z - r) is 1 + max_i |g_(i-1) - r g_i| / |g_n|, so a
    fixed point lies on one of the lines r = t (|g_n| + s g_(i-1)) /
    (|g_n| + s t g_i), s = +-1; each candidate is checked exactly.
    """
    n, lead = g.degree(), abs(g.leading())
    found = set()
    for i in range(n + 1):
        for s in (1, -1):
            den = lead + s * t * g[i]
            if den == 0:
                continue
            r = t * (lead + s * g[i - 1]) / den
            if r <= 0 or g.sign_at(r) == 0:
                continue
            f = g * IntPolynomial((-r.numerator, r.denominator))
            if t * cauchy_root_bound(f) == r:
                found.add(r)
    return sorted(found)


@st.composite
def planted_denominators(draw):
    """A squarefree integer product with a rational root on a bisection
    midpoint of (0, Cauchy bound], that is, at a dyadic fraction of the bound.

    The optional factor 10^8 z^2 + 1 has no real roots; its leading
    coefficient turns off the rational-root scan, so the pole must come from
    bisection.
    """
    factors = draw(st.lists(
        st.lists(st.integers(-9, 9), min_size=2, max_size=4).filter(lambda c: c[0] != 0 and c[-1] != 0),
        min_size=1, max_size=3,
    ))
    g = IntPolynomial((1,))
    for c in factors:
        g = g * IntPolynomial(tuple(c))
    if draw(st.booleans()):
        g = g * IntPolynomial((1, 0, 10**8))
    j = draw(st.integers(1, 5))
    t = Fraction(2 * draw(st.integers(0, 2 ** (j - 1) - 1)) + 1, 2**j)
    roots = planted_roots(g, t)
    assume(roots)
    r = draw(st.sampled_from(roots))
    f = g * IntPolynomial((-r.numerator, r.denominator))
    assume(poly_gcd(f, f.derivative()).degree() == 0)
    return f


class TestPolesAgainstSympy:
    @given(planted_denominators())
    @settings(max_examples=150, deadline=None)
    def test_smallest_positive_pole_agrees_with_intervals(self, f):
        rho = smallest_positive_pole(RationalGF(IntPolynomial((1,)), f))
        positive = sorted(
            (Fraction(int(a.p), int(a.q)), Fraction(int(b.p), int(b.q)))
            for (a, b), _ in to_sympy(f).intervals(eps=Fraction(1, 10**14))
            if b > 0
        )
        if not positive:
            assert rho.is_infinite
            return
        (a, b), rest = positive[0], positive[1:]
        assert rho.lo <= b and a <= rho.hi
        assert all(rho.hi < c for c, _ in rest)
        if rho.is_exact:
            assert f.sign_at(rho.lo) == 0
        assert rho.certificate_holds()
        assert rho.refined(Fraction(1, 10**30)).certificate_holds()
        assert compare_radii(rho, rho)[0] == 0


def sympy_positive_intervals(f: IntPolynomial, eps=Fraction(1, 10**14)) -> list:
    """Disjoint isolating intervals of f's positive roots, in order, from
    sympy, each of width at most eps."""
    return sorted(
        (Fraction(int(a.p), int(a.q)), Fraction(int(b.p), int(b.q)))
        for (a, b), _ in to_sympy(f).intervals(eps=eps)
        if b > 0
    )


def square_free_factors(min_size=1):
    return st.lists(
        st.lists(st.integers(-9, 9), min_size=2, max_size=4).filter(lambda c: c[0] != 0 and c[-1] != 0),
        min_size=min_size, max_size=3,
    )


@st.composite
def root_at_the_rational_end(draw):
    """(q z - p) times a complex pair near the positive axis below p/q, and
    maybe one more factor: the Descartes count on (0, p/q) need not be 0,
    but p/q may still be the smallest positive root."""
    q, p = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    d = draw(st.integers(1, 6))
    a = draw(st.integers(1, max(1, p * d // q)))
    b = draw(st.integers(1, 40))
    # (d z - a)^2 + b: roots (a +- i sqrt(b)) / d
    f = IntPolynomial((-p, q)) * IntPolynomial((a * a + b, -2 * a * d, d * d))
    for c in draw(square_free_factors(0)):
        f = f * IntPolynomial(tuple(c))
    return f


@st.composite
def roots_closer_than_tol(draw):
    """sqrt(a) and sqrt(a + 1/n), between about 2^-41 and 2^-103 apart, so
    closer than the default tolerance 10^-12, as the two positive roots."""
    a = draw(st.integers(1, 9))
    n = draw(st.integers(2**40, 2**100))
    return IntPolynomial((-a, 0, 1)) * IntPolynomial((-(a * n + 1), 0, n))


@st.composite
def repeated_factors(draw):
    f = IntPolynomial((1,))
    for c in draw(square_free_factors()):
        f = f * power(IntPolynomial(tuple(c)), draw(st.integers(1, 3)))
    return f


@st.composite
def no_positive_root(draw):
    """Complex pairs (a z^2 - b z + c, b^2 < 4ac) with positive real part,
    times factors with positive coefficients: sign changes, no positive root."""
    f = IntPolynomial((1,))
    for _ in range(draw(st.integers(1, 3))):
        a, c = draw(st.integers(1, 9)), draw(st.integers(1, 9))
        b = draw(st.integers(1, max(1, math.isqrt(4 * a * c - 1))))
        f = f * IntPolynomial((c, -b, a))
    for c in draw(st.lists(st.lists(st.integers(0, 9), min_size=2, max_size=3).filter(lambda c: c[0] and c[-1]), max_size=2)):
        f = f * IntPolynomial(tuple(c))
    return f


def sturm_walk(f: IntPolynomial, tol: Fraction):
    """The smallest positive root of f by one Sturm chain on its squarefree
    part, walking the dyadic grid of (0, upper] that the Descartes search
    walks, then the reference sign bisection (`oracles.bisect_reference`);
    upper is the smallest positive rational root or the Cauchy bound.

    Returns None when f has no positive root, else (interval, cell): the
    refined interval, and the grid cell where the chain first isolated the
    root (both degenerate at a rational root found on the way).
    """
    sf = squarefree_part(f)
    if sf.leading() < 0:
        sf = -sf
    chain = sturm_chain(sf)
    v_lo = sign_variations(chain, Fraction(0))
    if v_lo == sign_variations(chain, cauchy_root_bound(sf)):
        return None
    upper = series._smallest_positive_rational_root(sf)
    if upper is None:
        upper = cauchy_root_bound(sf)
    lo, hi, v_hi = Fraction(0), upper, sign_variations(chain, upper)
    if v_lo - v_hi == 1 and sf.sign_at(upper) == 0:
        return (upper, upper), (upper, upper)
    while v_lo - v_hi > 1:
        mid = (lo + hi) / 2
        v_mid = sign_variations(chain, mid)
        if v_mid == v_lo:
            lo = mid
        elif v_lo - v_mid == 1 and sf.sign_at(mid) == 0:
            return (mid, mid), (mid, mid)
        else:
            hi, v_hi = mid, v_mid
    return oracles.bisect_reference(sf.coeffs, tol, lo, hi), (lo, hi)


class TestDescartesPathAgainstOracles:
    """`smallest_positive_pole` against a Sturm walk and sympy's smallest
    positive root. Where the walk isolates in a cell wider than the
    tolerance, both refine down the same grid cells to the same interval;
    where it must go below the tolerance, as with two roots closer than it,
    the Descartes interval lies inside the walk's cell."""

    TOL = Fraction(1, 2**16)

    def check(self, f: IntPolynomial, tol=TOL, eps=Fraction(1, 10**14)):
        gf = RationalGF(IntPolynomial((1,)), f)
        rho = smallest_positive_pole(gf, tol)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(series, "_squarefree_mod_p", lambda f: False)
            forced = smallest_positive_pole(gf, tol)
        assert rho == forced
        assert rho.certificate_holds()
        walk = sturm_walk(gf.den, tol)
        if walk is None:
            assert rho.is_infinite
        else:
            interval, (a, b) = walk
            if b - a > tol:
                assert (rho.lo, rho.hi) == interval
            else:
                assert a <= rho.lo <= rho.hi <= b
        # sympy's intervals must be narrower than the root separation
        positive = sympy_positive_intervals(f, eps)
        if not positive:
            assert rho.is_infinite
            return rho
        (a, b), rest = positive[0], positive[1:]
        assert rho.lo <= b and a <= rho.hi
        assert all(rho.hi < c for c, _ in rest)
        if rho.is_exact:
            assert f.sign_at(rho.lo) == 0
        return rho

    @given(planted_denominators())
    @settings(max_examples=60, deadline=None)
    def test_roots_on_grid_midpoints(self, f):
        self.check(f)

    @given(root_at_the_rational_end())
    @settings(max_examples=150, deadline=None)
    def test_a_root_at_the_rational_upper_end(self, f):
        self.check(f)

    @given(roots_closer_than_tol())
    @settings(max_examples=30, deadline=None)
    def test_two_roots_closer_than_tol(self, f):
        rho = self.check(f, DEFAULT_POLE_TOLERANCE, eps=Fraction(1, 2**110))
        assert rho.width() <= DEFAULT_POLE_TOLERANCE

    @given(repeated_factors())
    @settings(max_examples=150, deadline=None)
    def test_repeated_factors(self, f):
        self.check(f)

    @given(no_positive_root())
    @settings(max_examples=100, deadline=None)
    def test_no_positive_root(self, f):
        assert self.check(f).is_infinite

    def test_the_rational_end_is_returned_when_nothing_smaller_turns_up(self):
        # roots 2 and (1 +- i)/2: the Descartes count on (0, 2) is 2
        f = IntPolynomial((-2, 5, -6, 2))
        assert descartes_count(series._cell_polynomial(f, Fraction(0), Fraction(2))) == 2
        rho = self.check(f)
        assert rho.is_exact and rho.lo == 2

    def test_a_cell_ending_on_a_root_is_not_isolating(self):
        # roots sqrt(1 - 2^-22) and the rational end 1, 2^-23 apart: every
        # cell (1 - 2^-k, 1] counts one root inside and one at its end
        n = 2**22
        f = IntPolynomial((-1, 1)) * IntPolynomial((-(n - 1), 0, n))
        rho = self.check(f, Fraction(1, 2**20))
        assert not rho.is_exact and rho.hi < 1

    def test_close_roots_take_the_fallback(self, monkeypatch):
        # roots sqrt(2) and sqrt(2 + 2^-30), about 2^-32 apart: the search
        # goes on below the tolerance, and builds no Sturm chain
        chains = oracles.count_calls(monkeypatch, polynomial, "sturm_chain")
        f = IntPolynomial((-2, 0, 1)) * IntPolynomial((-(2 * 2**30 + 1), 0, 2**30))
        rho = smallest_positive_pole(RationalGF(IntPolynomial((1,)), f), self.TOL)
        assert chains == []
        assert rho.lo ** 2 < 2 < rho.hi ** 2
        assert rho.hi ** 2 < 2 + Fraction(1, 2**30)


TOLERANCES = [Fraction(1, 2**t) for t in (16, 40, 64, 200, 400)] + [DEFAULT_POLE_TOLERANCE]
BELOW_ONE = st.fractions(min_value=0, max_value=1, max_denominator=2**20).filter(lambda u: u < 1)


@st.composite
def bracketed_roots(draw):
    """(sf, lo, hi): sf squarefree with positive leading coefficient, one
    root in (lo, hi] and none in (0, lo]. The factors plant rational roots,
    square roots and roots of small random factors; sympy's isolating
    intervals place lo below the smallest positive root and hi below the
    next one, hi possibly on the root itself."""
    planted = st.one_of(
        st.tuples(st.integers(1, 2**12), st.integers(1, 2**8)).map(lambda t: (-t[0], t[1])),
        st.tuples(st.integers(1, 2**12), st.integers(1, 2**8)).map(lambda t: (-t[0], 0, t[1])),
        st.lists(st.integers(-9, 9), min_size=2, max_size=4).filter(lambda c: c[0] and c[-1]),
    )
    f = IntPolynomial((1,))
    for c in draw(st.lists(planted, min_size=1, max_size=3)):
        f = f * IntPolynomial(tuple(c))
    sf = normalized(squarefree_part(f))
    positive = sympy_positive_intervals(sf)
    assume(positive)
    (a, b), rest = positive[0], positive[1:]
    upper = rest[0][0] if rest else b + 1
    lo = draw(st.one_of(st.just(Fraction(0)), BELOW_ONE.map(lambda u: a * u)))
    hi = b + (upper - b) * draw(BELOW_ONE)
    return sf, lo, hi


def count_signs(monkeypatch):
    """A list that grows by one per exact sign `IntPolynomial.sign_at_ratio` takes."""
    signs = []
    real = IntPolynomial.sign_at_ratio
    monkeypatch.setattr(IntPolynomial, "sign_at_ratio", lambda f, p, q: signs.append(p) or real(f, p, q))
    return signs


class TestBisectAgainstReference:
    """`series._bisect` jumps to the cell a Newton estimate names and
    certifies it by signs; it must return the interval of the reference
    halving loop, `oracles.bisect_reference`, exactly."""

    @given(bracketed_roots(), st.sampled_from(TOLERANCES))
    @settings(max_examples=120, deadline=None)
    def test_same_interval_as_the_halving_loop(self, bracket, tol):
        sf, lo, hi = bracket
        assert series._bisect(sf, tol, lo, hi) == oracles.bisect_reference(sf.coeffs, tol, lo, hi)

    E = 10**400

    @pytest.mark.parametrize(
        "factors,lo,hi,tol",
        [
            # a root on a grid point above the stop level is returned exactly
            ([(-5, 8), (1, 0, 1)], 0, 1, Fraction(1, 2**16)),
            ([(-25, 48), (2, 0, 1)], Fraction(1, 3), Fraction(4, 3), Fraction(1, 2**40)),
            # a grid point below the stop level is not reached
            ([(-(2**20 + 9), 3 * 2**20)], Fraction(1, 3), Fraction(4, 3), Fraction(1, 2**10)),
            # 5/8 +- 1/(3 2^50): within 2^-50 of a cell end, on either side
            ([(-(15 * 2**50 + 8), 24 * 2**50)], 0, 1, Fraction(1, 2**16)),
            ([(-(15 * 2**50 - 8), 24 * 2**50)], 0, 1, Fraction(1, 2**16)),
            # from lo = 0 the halving goes on while its cell is the first:
            # it meets 2^-30 at the end of the first cell, and stops at
            # (2^-29, 2^-28] before its midpoint 3 2^-30
            ([(-1, 2**30)], 0, 1, Fraction(1, 2**10)),
            ([(-3, 2**30)], 0, 1, Fraction(1, 2**10)),
            ([(-3, 0, 2**81)], 0, 1, Fraction(1, 2**16)),
            # coefficients past float range
            ([(1 - E, 3 * E)], 0, 1, Fraction(1, 2**400)),
            ([(-(2 * E + 1), 0, E), (10**350, 1)], 1, 2, Fraction(1, 2**64)),
            # the root on hi
            ([(-1, 1)], 0, 1, Fraction(1, 2**16)),
        ]
        + [([(-2, 0, 1)], 1, 2, Fraction(1, 2**t)) for t in (16, 64, 200, 400)],
        ids=[
            "grid-root", "grid-root-off-zero", "grid-root-past-the-stop-level",
            "just-right-of-a-cell-end", "just-left-of-a-cell-end",
            "from-zero-first-cell-end", "from-zero-mid-second-cell", "from-zero-tiny-irrational",
            "huge-linear", "huge-quadratic", "root-on-hi",
        ] + [f"sqrt2-tol-2^-{t}" for t in (16, 64, 200, 400)],
    )
    def test_explicit_cases_in_at_most_three_signs(self, monkeypatch, factors, lo, hi, tol):
        self.check(monkeypatch, factors, lo, hi, tol)

    @staticmethod
    def check(monkeypatch, factors, lo, hi, tol):
        sf = IntPolynomial((1,))
        for c in factors:
            sf = sf * IntPolynomial(c)
        lo, hi = Fraction(lo), Fraction(hi)
        want = oracles.bisect_reference(sf.coeffs, tol, lo, hi)
        signs = count_signs(monkeypatch)
        assert series._bisect(sf, tol, lo, hi) == want
        assert len(signs) <= 3

    @staticmethod
    def perturb(monkeypatch, shift):
        """Move every root estimate by shift(estimate)."""
        real = series._root_estimate

        def moved(*args):
            est = real(*args)
            return None if est is None else est + shift(est)

        monkeypatch.setattr(series, "_root_estimate", moved)

    @pytest.mark.parametrize("cells", [Fraction(-3, 4), Fraction(3, 4)])
    def test_an_estimate_in_a_neighbour_cell_is_certified_there(self, monkeypatch, cells):
        # sqrt(2) on (1, 2]: the halving stops at level 64, in cells 2^-64 wide
        self.perturb(monkeypatch, lambda est: cells / 2**64)
        self.check(monkeypatch, [(-2, 0, 1)], 1, 2, Fraction(1, 2**64))

    @pytest.mark.parametrize(
        "root,shift",
        [
            # 2^-30 (1 + 2^-20 / 3) is just past the first cell of level 30:
            # an estimate just below 2^-30 names a cell of level 31, and the
            # halving stops at its parent
            ((-(3 * 2**20 + 1), 3 * 2**50), lambda est: -est / 2**18),
            # 3 2^-30 is the midpoint of the level-29 cell where the halving
            # stops: an estimate just below 2^-29 names level 30, where the
            # root is a grid point the halving never meets
            ((-3, 2**30), lambda est: -est / 3 - est / 2**20),
        ],
        ids=["cell", "grid-point"],
    )
    def test_an_estimate_one_level_too_deep_gives_the_ancestor_cell(self, monkeypatch, root, shift):
        self.perturb(monkeypatch, shift)
        self.check(monkeypatch, [root], 0, 1, Fraction(1, 2**10))

    @given(
        bracketed_roots(), st.sampled_from(TOLERANCES),
        st.sampled_from([Fraction(s, 2**e) for s in (-1, 1) for e in (8, 24, 50)]),
    )
    @settings(max_examples=120, deadline=None)
    def test_a_perturbed_estimate_changes_no_interval(self, bracket, tol, eps):
        sf, lo, hi = bracket
        with pytest.MonkeyPatch.context() as mp:
            self.perturb(mp, lambda est: est * eps)
            got = series._bisect(sf, tol, lo, hi)
        assert got == oracles.bisect_reference(sf.coeffs, tol, lo, hi)


COARSE = Fraction(1, 2)

# no real roots; a leading coefficient above the 1e7 scan guard, so a
# rational pole of a product with it comes back as a bisection interval
NO_SCAN = IntPolynomial((1, 0, 10**8))


def small_factors(min_size):
    """Factors with small coefficients, or with a root near 1: k/(k+1),
    (k+1)/k or sqrt(k/(k+1))."""
    near_one = st.integers(2, 9).flatmap(lambda k: st.sampled_from(
        [[k, -(k + 1)], [k + 1, -k], [k, 0, -(k + 1)]]))
    random = st.lists(st.integers(-5, 5), min_size=2, max_size=3).filter(
        lambda c: c[0] != 0 and c[-1] != 0)
    return st.lists(st.one_of(near_one, random), min_size=min_size, max_size=2)


def product(factors, no_scan=False) -> IntPolynomial:
    f = NO_SCAN if no_scan else IntPolynomial((1,))
    for c in factors:
        f = f * IntPolynomial(tuple(c))
    return f


def coarse_radius(f: IntPolynomial):
    """Radius of 1/f isolated only to width 1/2, so intervals overlap and straddle 1."""
    return smallest_positive_pole(RationalGF(IntPolynomial((1,)), f), tol=COARSE)


def first_positive_roots(polys) -> list:
    """For each polynomial, the position of its smallest positive root among the
    disjoint sympy isolating intervals of all of them (None when it has none)."""
    positive = sorted(
        (a, b, owners) for (a, b), owners in sympy.intervals([to_sympy(f) for f in polys])
        if b > 0
    )
    return [
        next((k for k, (_, _, owners) in enumerate(positive) if i in owners), None)
        for i in range(len(polys))
    ]


class TestRootQuestionsAgainstSympy:
    """rho >= x and radius equality, decided by signs, on coarse intervals."""

    @given(small_factors(1), st.booleans(), st.fractions(0, 1).filter(lambda t: t > 0))
    @settings(max_examples=200, deadline=None)
    def test_at_least_agrees_with_root_counts(self, factors, no_scan, t):
        f = product(factors, no_scan)
        rho = coarse_radius(f)
        sf = to_sympy(f)
        # 1, and a point of the interval itself, so that lo < x <= hi is common
        points = [Fraction(1)] if rho.is_infinite else [Fraction(1), rho.lo + t * rho.width()]
        for x in points:
            x_sym = sympy.Rational(x.numerator, x.denominator)
            # roots in (0, x): the closed count minus a root at x (none at 0)
            below = sf.count_roots(0, x_sym) - (sf.eval(x_sym) == 0)
            # the exact pole of 1/(p - q z) sits at x = p/q
            at_x = coarse_radius(IntPolynomial((x.numerator, -x.denominator)))
            assert (compare_radii(rho, at_x, COARSE)[0] >= 0) == (below == 0)

    @given(small_factors(1), small_factors(0), small_factors(0), st.booleans(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_compare_radii_on_a_shared_factor(self, shared, left, right, scan_a, scan_b):
        fa = product(shared + left, not scan_a)
        fb = product(shared + right, not scan_b)
        ra, rb = coarse_radius(fa), coarse_radius(fb)
        ia, ib = first_positive_roots([fa, fb])
        inf = float("inf")
        ka, kb = (inf if i is None else i for i in (ia, ib))
        verdict, ra2, rb2 = compare_radii(ra, rb, tol=COARSE)
        assert verdict == (ka > kb) - (ka < kb)
        assert ra2.certificate_holds() and rb2.certificate_holds()


class TestGateCertificates:
    """The large denominators that motivated the integer kernel."""

    def test_product_of_twenty_spheres(self):
        expr = " x ".join(f"S{k}" for k in range(2, 22))
        gf = loop_gf(parse(expr))
        assert gf.den.degree() == 210
        rho = smallest_positive_pole(gf)
        assert rho.is_exact and rho.lo == 1
        assert rho.certificate_holds()

    def test_suspended_product_wedge(self):
        expr = "Susp(" + " x ".join(f"S{k}" for k in range(2, 12)) + ") v S3 x S5"
        rho = smallest_positive_pole(loop_gf(parse(expr)))
        assert not rho.is_exact
        assert rho.width() <= Fraction(1, 10**12)
        assert rho.certificate_holds()
        sf = to_sympy(rho._sqfree)
        lo = sympy.Rational(rho.lo.numerator, rho.lo.denominator)
        hi = sympy.Rational(rho.hi.numerator, rho.hi.denominator)
        assert sf.count_roots(0, lo) == 0
        assert sf.count_roots(lo, hi) == 1


def timed_radius(expr: str):
    """The radius of the loop space of expr, and the seconds it took from the parse."""
    start = time.perf_counter()
    rho = smallest_positive_pole(loop_gf(parse(expr)))
    return rho, time.perf_counter() - start


class TestScalingFamilies:
    """The scaling families of the pole certificate, under generous wall bounds
    for a 2-core shared host; at the Sturm-only baseline the first three took
    89 s, 104 s and 1.3 s. The last is a pair of roots far closer than the
    tolerance, which the Descartes search isolates in about 80 ms where a
    Sturm chain took about 30 ms."""

    def test_product_of_forty_nine_spheres(self):
        rho, seconds = timed_radius(" x ".join(f"S{k}" for k in range(2, 51)))
        assert seconds < 2
        assert rho.is_exact and rho.lo == 1
        assert rho.certificate_holds()

    def test_three_spheres_near_the_dimension_limit(self):
        rho, seconds = timed_radius("S1000 x S999 x S998")
        assert seconds < 5
        assert rho.is_exact and rho.lo == 1
        assert rho.certificate_holds()

    def test_suspended_product_of_twenty_two_spheres(self):
        expr = "Susp(" + " x ".join(f"S{k}" for k in range(2, 24)) + ") v S3 x S5"
        rho, seconds = timed_radius(expr)
        assert seconds < 1
        assert not rho.is_exact and rho.width() <= Fraction(1, 10**12)
        assert rho.certificate_holds()

    def test_a_mignotte_pair_of_close_roots(self):
        # x^40 - 2 (100 x - 1)^2 has two roots near 1/100 about 10^-42 apart,
        # so the Descartes search goes far below the tolerance to isolate
        f = IntPolynomial((0,) * 40 + (1,)) - IntPolynomial((-1, 100)) * IntPolynomial((-2, 200))
        start = time.perf_counter()
        rho = smallest_positive_pole(RationalGF(IntPolynomial((1,)), f))
        seconds = time.perf_counter() - start
        assert seconds < 1
        assert not rho.is_exact and rho.width() < Fraction(1, 10**41)
        assert abs(rho.midpoint() - Fraction(1, 100)) < Fraction(1, 10**41)
        assert rho.certificate_holds()
