"""Loop space series, inert attachments, growth verdicts, homotopy ranks."""

import io
import random
from fractions import Fraction
from functools import reduce
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from loopgrowth.loop import (
    CofiberPresentation,
    ConnSumPresentation,
    GoodGrowth,
    HypothesisError,
    NotExpressibleError,
    YClassPresentation,
    good_growth_verdict,
    inert_cofiber_loop_gf,
    loop_gf,
    loop_smash_sphere,
    pi_ranks,
    strongly_inert_check,
)
from loopgrowth import cli, polynomial, series
from loopgrowth.polynomial import IntPolynomial
from loopgrowth.series import (
    RationalGF,
    compare_radii,
    expand,
    smallest_positive_pole,
)
from loopgrowth.space import MAX_DEPTH, Product, Smash, Sphere, Susp, Wedge, homology_poly, parse

import oracles
from test_golden import GOLDEN, run_case


def gf(num, den=(1,)):
    return RationalGF.from_coeffs(num, den)


# -- closed rules -----------------------------------------------------------


class TestLoopSeries:
    def test_sphere_even(self):
        assert loop_gf(Sphere(2)) == gf([1], [1, -1])

    def test_sphere_odd(self):
        assert loop_gf(Sphere(3)) == gf([1], [1, 0, -1])

    def test_wedge_free_product(self):
        assert loop_gf(parse("S2 v S2")) == gf([1], [1, -2])

    def test_product_multiplies(self):
        assert loop_gf(parse("S2 x S2")) == gf([1], [1, -2, 1])

    def test_suspension_tensor_algebra(self):
        assert loop_gf(Susp(Sphere(2))) == loop_gf(Sphere(3))
        assert loop_gf(Susp(parse("S2 x S2"))) == gf([1], [1, 0, -2, 0, -1])

    def test_smash_reduces_to_sphere(self):
        assert loop_gf(parse("S2 ^ S3")) == loop_gf(Sphere(5))

    def test_smash_of_products_not_expressible(self):
        with pytest.raises(NotExpressibleError, match="no suspension factor"):
            loop_gf(parse("(S2 x S2) ^ (S2 x S2)"))

    def test_mixed_wedge(self):
        # 1/Omega additivity: 1/(1-z) and 1/(1-z^2) combine to 1/(1-z-z^2)
        assert loop_gf(parse("S2 v S3")) == gf([1], [1, -1, -1])

    @given(st.lists(st.integers(2, 5), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_wedge_counts_words(self, dims):
        x = Sphere(dims[0])
        for n in dims[1:]:
            x = Wedge(x, Sphere(n))
        got = expand(loop_gf(x), 30).as_dims()
        assert list(got) == oracles.word_count_series([n - 1 for n in dims], 30)


def unreduced_loop_fields(x):
    """(num, den) of the loop series of a sphere product or wedge, nothing cancelled."""
    if isinstance(x, Sphere):
        return IntPolynomial((1,)), IntPolynomial((1,) + (0,) * (x.n - 2) + (-1,))
    (a, b), (c, d) = unreduced_loop_fields(x.left), unreduced_loop_fields(x.right)
    if isinstance(x, Product):
        return a * c, b * d
    # 1/OmegaW = b/a + d/c - 1
    return a * c, b * c + d * a - a * c


SPHERE_PRODUCT = " x ".join(f"S{n}" for n in range(2, 14))
# the degree-105 rho ladder of the seed-1 product-poles benchmark workload
LADDER = "S5 x S3 x S10 x S5 x S9 x S10 x S7 x S11 x S9 x S3 x S3 x S7 x S5 x S6 x S8 x S6 x S2 x S4 x S11"


class TestWorkPerSeries:
    @pytest.mark.parametrize("expr", [SPHERE_PRODUCT, LADDER, "(S2 x S3) v (S4 x S5)"])
    def test_products_and_wedges_of_spheres_take_no_gcd(self, monkeypatch, expr):
        want = RationalGF(*unreduced_loop_fields(parse(expr)))

        def refused(a, b):
            raise AssertionError("a polynomial gcd was taken")

        monkeypatch.setattr(series, "poly_gcd", refused)
        got = loop_gf(parse(expr))
        assert (got.num, got.den) == (want.num, want.den)

    def test_a_shared_factor_is_still_cancelled(self, monkeypatch, tmp_path):
        # redA = z^2 + z^3 for A = S2 v S3 shares 1 + z with 1 - z^2 from Z = S3;
        # the split series is built as 1/(D_Z - redA), where no factor is shared
        sympy = pytest.importorskip("sympy")
        gcds = oracles.count_calls(monkeypatch, polynomial, "poly_gcd")
        case = GOLDEN["cofiber-shared-factor"]
        assert case["argv"] == ["cofiber", "--A", "S2 v S3", "--Z", "S3", "--inert", "x"]
        assert run_case(case["argv"], tmp_path) == (case["exit"], case["stdout"])
        y = inert_cofiber_loop_gf(CofiberPresentation(parse("S2 v S3"), Sphere(3), True))
        assert gcds == []
        assert y == gf([1], [1, 0, -2, -1])
        z = sympy.Symbol("z")
        num, den = (sympy.Poly(p.coeffs[::-1], z) for p in (y.num, y.den))
        assert sympy.gcd(num, den) == 1

    # each pole is irrational, so the guarded pole path meets a pole guard
    # that is its own denominator up to sign
    @pytest.mark.parametrize(
        "argv",
        [
            ["cofiber", "--A", "S3", "--Z", "S2 v S3", "--inert", "assumed"],
            ["connsum", "--A", "S3", "--M", "S2 x S2", "--N", "S2 x S2", "--inert", "assumed"],
            ["rho", "S2 v S3 v S5"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_no_polynomial_is_scanned_for_a_rational_root_twice(self, monkeypatch, argv):
        scans = oracles.count_calls(monkeypatch, series, "_smallest_positive_rational_root")
        assert cli.run(argv, io.StringIO()) == 0
        up_to_sign = [(f if f.leading() > 0 else -f).coeffs for (f,) in scans]
        assert scans and len(set(up_to_sign)) == len(up_to_sign)

    def test_a_pass_of_the_verdict_workload_takes_26_rational_root_scans(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "loopbench"))
        import workloads

        scans = oracles.count_calls(monkeypatch, series, "_smallest_positive_rational_root")
        for req in workloads.build("inert-verdicts", 1):
            cli.run(req.argv, io.StringIO())
        assert len(scans) == 26

    # the exact signs and float Newton calls that one seed-1 pass takes
    @pytest.mark.parametrize("workload,signs,newtons", [("inert-verdicts", 114, 47), ("quick-queries", 129, 53)])
    def test_a_pass_of_a_pole_workload_takes_few_signs(self, monkeypatch, workload, signs, newtons):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "loopbench"))
        import workloads

        exact = []
        sign_at_ratio = IntPolynomial.sign_at_ratio
        monkeypatch.setattr(IntPolynomial, "sign_at_ratio", lambda f, p, q: exact.append(p) or sign_at_ratio(f, p, q))
        floats = oracles.count_calls(monkeypatch, series, "_float_newton")
        for req in workloads.build(workload, 1):
            cli.run(req.argv, io.StringIO())
        assert len(exact) <= signs and len(floats) <= newtons


def random_tree(rng, depth):
    """A seeded random expression: spheres, products, wedges, suspensions and smashes."""
    if depth == 0 or rng.random() < 0.3:
        return Sphere(rng.randint(2, 9))
    kind = rng.choice([Product, Product, Wedge, Susp, Smash])
    if kind is Susp:
        return Susp(random_tree(rng, depth - 1))
    if kind is Smash:
        return Smash(Sphere(rng.randint(2, 5)), random_tree(rng, depth - 1))
    return kind(random_tree(rng, depth - 1), random_tree(rng, depth - 1))


class TestSphereProductDenominators:
    """A product of spheres is carried as its exponents and multiplied out
    where a wedge or the series needs its denominator. The series and its
    guards equal those of the dense oracle, and its carried split multiplies
    out to its denominator, over the cofactor ONE for a product of spheres."""

    SHAPES = [
        "S7",
        "S2 x S3 x S5 x S5",
        "(S2 x S3) v (S4 x S5 x S5)",
        "(S2 v S3) x S4 x S5",
        "S2 x (S3 v S4) x S5",
        "S2 x Susp(S3 x S4) x S5",
        "(S2 ^ (S3 x S4)) x S3 x S3",
        "Susp(S2 x S3) v (S2 ^ (S3 x S5))",
    ]

    @staticmethod
    def check(x):
        den, exponents, guards = oracles.loop_den(x)
        got = loop_gf(x)
        assert got.den == den and got.num == IntPolynomial((1,))
        found, cofactor = got._split
        assert polynomial.binomial_product(found, cofactor.coeffs) == den
        assert list(found) == sorted(found)
        assert (cofactor is polynomial.ONE) == (exponents is not None)
        assert exponents in (None, found)
        assert got._guards == guards

    @pytest.mark.parametrize("expr", SHAPES)
    def test_a_shape(self, expr):
        self.check(parse(expr))

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_random_trees(self, seed):
        # a smash has a sphere factor, so every tree is expressible
        rng = random.Random(seed)
        for _ in range(25):
            self.check(random_tree(rng, 4))

    def test_a_product_of_spheres_takes_no_polynomial_product(self, monkeypatch):
        def refused(a, b):
            raise AssertionError("a polynomial product was taken")

        monkeypatch.setattr(IntPolynomial, "__mul__", refused)
        got = loop_gf(parse("S9 x (S2 x S3) x (S5 x S5)"))
        assert got._split == ((1, 2, 4, 4, 8), IntPolynomial((1,)))

    @pytest.mark.parametrize(
        "argv", [["loop-series", "(S2 v S3) x S4 x S5"], ["rho", "S2 x (S3 v S4) x S5"]]
    )
    def test_a_sphere_factor_of_another_takes_no_polynomial_product(self, argv, monkeypatch):
        # each 1 - z^a is one stride difference on the other factor's D
        self.check(parse(argv[1]))

        def refused(a, b):
            raise AssertionError("a polynomial product was taken")

        monkeypatch.setattr(IntPolynomial, "__mul__", refused)
        assert cli.run(argv, io.StringIO()) == 0


class TestLoopSmashSphere:
    def test_even_sphere_against_odd_z(self):
        out = loop_smash_sphere(2, Sphere(3))
        assert out.num.coeffs == (1, 0, -1)
        assert out.den.coeffs == (1, -1, -1)

    def test_odd_sphere_against_even_z(self):
        out = loop_smash_sphere(3, Sphere(2))
        assert out.num.coeffs == (1, -1)
        assert out.den.coeffs == (1, -1, -1)

    def test_dimension_validation(self):
        with pytest.raises(HypothesisError, match="dimension at least 2"):
            loop_smash_sphere(1, Sphere(2))

    @given(st.integers(2, 5), st.integers(2, 4), st.integers(2, 4))
    @settings(max_examples=40, deadline=None)
    def test_matches_truncated_division(self, n_alpha, a, b):
        # independent oracle: expand OmegaZ, shift, take truncated reciprocal
        z = Wedge(Sphere(a), Sphere(b))
        oz = loop_gf(z)
        t_oz = oracles.texpand(oz.num.coeffs, oz.den.coeffs, 40)
        shifted = oracles.tshift(t_oz, n_alpha - 1, 40)
        one_minus = oracles.tadd([1], [-c for c in shifted], 40)
        want = oracles.trecip(one_minus, 40)
        got = expand(loop_smash_sphere(n_alpha, z), 40)
        assert list(got.coeffs) == want


# -- presentations and splitting -----------------------------------------------


class TestInertCofiber:
    def test_deleted_manifold(self):
        c = CofiberPresentation(Sphere(2), parse("S2 x S2"), inert_asserted=True)
        out = inert_cofiber_loop_gf(c)
        assert out == gf([1], [1, -2])
        assert out == loop_gf(parse("S2 v S2"))

    def test_attach_to_odd_sphere(self):
        c = CofiberPresentation(Sphere(2), Sphere(3), inert_asserted=True)
        assert inert_cofiber_loop_gf(c) == gf([1], [1, 0, -2])

    def test_inertness_must_be_asserted(self):
        c = CofiberPresentation(Sphere(2), parse("S2 x S2"))
        with pytest.raises(HypothesisError, match="not asserted"):
            inert_cofiber_loop_gf(c)

    @given(st.integers(3, 5), st.data())
    @settings(max_examples=40, deadline=None)
    def test_sphere_cone_splits_as_product(self, n_alpha, data):
        # attaching a single cell: OmegaY = OmegaZ * Omega(S^n ^ OmegaZ)
        z = data.draw(loop_spaces())
        c = CofiberPresentation(Sphere(n_alpha - 1), z, inert_asserted=True)
        assert inert_cofiber_loop_gf(c) == loop_gf(z) * loop_smash_sphere(n_alpha, z)


class TestConnectedSum:
    def test_two_four_manifolds(self):
        c = ConnSumPresentation(
            Sphere(3), parse("S2 x S2"), parse("S2 x S2"), inert_asserted=True
        )
        out = inert_cofiber_loop_gf(c.as_cofiber())
        assert out == gf([1], [1, -4, 2, -1])

    def test_matches_truncated_oracle(self):
        c = ConnSumPresentation(
            Sphere(3), parse("S2 x S2"), parse("S2 x S2"), inert_asserted=True
        )
        n = 16
        om = oracles.texpand([1], [1, -2, 1], n)
        inv = oracles.tadd(
            oracles.trecip(om, n), oracles.tadd(oracles.trecip(om, n), [-1], n), n
        )
        owedge = oracles.trecip(inv, n)
        denom = oracles.tadd([1], [-c for c in oracles.tshift(owedge, 3, n)], n)
        want = oracles.tmul(owedge, oracles.trecip(denom, n), n)
        assert list(expand(inert_cofiber_loop_gf(c.as_cofiber()), n).coeffs) == want

    def test_odd_sphere_summands(self):
        c = ConnSumPresentation(Sphere(2), Sphere(3), Sphere(3), inert_asserted=True)
        assert inert_cofiber_loop_gf(c.as_cofiber()) == gf([1], [1, 0, -3])

    def test_cofiber_route_agrees(self):
        c = ConnSumPresentation(
            Sphere(3), parse("S2 x S2"), parse("S3 x S3"), inert_asserted=True
        )
        # Omega((S2 x S2) v (S3 x S3)) = 1/((1 - z)^2 + (1 - z^2)^2 - 1), and the
        # collar S3 has reduced series z^3, so the total is 1/(1 - 2z - z^2 + z^4 - z^3)
        assert inert_cofiber_loop_gf(c.as_cofiber()) == gf([1], [1, -2, -1, -1, 1])
        assert c.as_cofiber().Z == Wedge(parse("S2 x S2"), parse("S3 x S3"))


class TestYClass:
    def test_square_of_spheres(self):
        y = YClassPresentation(2, 4, Sphere(2), inert_asserted=True)
        assert inert_cofiber_loop_gf(y.as_cofiber()) == gf([1], [1, -2])

    def test_asymmetric_case(self):
        y = YClassPresentation(2, 5, Sphere(2), inert_asserted=True)
        assert inert_cofiber_loop_gf(y.as_cofiber()) == gf([1], [1, -1, -2, 1])

    def test_wedge_skeleton(self):
        y = YClassPresentation(2, 5, parse("S2 v S3"), inert_asserted=True)
        assert inert_cofiber_loop_gf(y.as_cofiber()) == gf([1], [1, -1, -2])

    def test_cofiber_space(self):
        y = YClassPresentation(2, 5, Sphere(2), inert_asserted=True)
        assert y.cofiber_space() == Product(Sphere(2), Sphere(3))

    def test_class_constraint(self):
        with pytest.raises(HypothesisError, match="need 1 < m <= n - m"):
            YClassPresentation(2, 3, Sphere(2), inert_asserted=True)
        with pytest.raises(HypothesisError, match="need 1 < m <= n - m"):
            YClassPresentation(1, 4, Sphere(2), inert_asserted=True)


# -- growth verdicts -------------------------------------------------------------


BATTERY = [
    CofiberPresentation(Sphere(2), parse("S2 x S2"), inert_asserted=True),
    CofiberPresentation(Sphere(2), Sphere(3), inert_asserted=True),
    YClassPresentation(2, 4, Sphere(2), inert_asserted=True).as_cofiber(),
    YClassPresentation(2, 5, Sphere(2), inert_asserted=True).as_cofiber(),
    YClassPresentation(2, 5, parse("S2 v S3"), inert_asserted=True).as_cofiber(),
]


def reference_gap(c, check):
    """compare_radii of the check's rho(OmegaY) and rho(OmegaZ) from Z's own pole search."""
    return compare_radii(check.rho_y, smallest_positive_pole(loop_gf(c.Z)))


class TestStronglyInert:
    def test_deleted_manifold_radii(self):
        out = strongly_inert_check(BATTERY[0])
        assert out.strongly_inert
        assert out.rho_y.is_exact and out.rho_y.lo == Fraction(1, 2)
        verdict, _, rho_z = reference_gap(BATTERY[0], out)
        assert verdict == -1 and rho_z.is_exact and rho_z.lo == 1

    def test_irrational_radius_gap(self):
        out = strongly_inert_check(BATTERY[1])
        assert out.strongly_inert
        assert out.rho_y.lo ** 2 < Fraction(1, 2) < out.rho_y.hi ** 2

    def test_intervals_disjoint_when_certified(self):
        for c in BATTERY:
            out = strongly_inert_check(c)
            assert out.strongly_inert
            verdict, rho_y, rho_z = reference_gap(c, out)
            assert verdict == -1 and rho_y.hi < rho_z.lo

    def test_requires_assertion(self):
        with pytest.raises(HypothesisError, match="not asserted"):
            strongly_inert_check(CofiberPresentation(Sphere(2), Sphere(3)))


class TestGrowthVerdict:
    def test_enum_values(self):
        assert GoodGrowth.CERTIFIED_STRONGLY_INERT.value == "certified-strongly-inert"

    def test_deleted_manifold_verdict(self):
        import math

        v = good_growth_verdict(BATTERY[0])
        assert v.good_growth == GoodGrowth.CERTIFIED_STRONGLY_INERT
        assert v.log_index.value == math.log(2)
        assert v.strongly_inert and v.omega_divergent
        assert not v.elliptic
        assert len(v.trail) >= 3

    def test_battery_certified(self):
        for c in BATTERY:
            v = good_growth_verdict(c)
            assert v.good_growth == GoodGrowth.CERTIFIED_STRONGLY_INERT
            assert v.log_index.value > 0
            assert not v.elliptic

    def test_justification_lands_in_trail(self):
        c = CofiberPresentation(
            Sphere(2), parse("S2 x S2"), inert_asserted=True, justification="top cell"
        )
        v = good_growth_verdict(c)
        assert any("top cell" in line for line in v.trail)

    def test_omega_divergence(self):
        # OmegaZ has a finite radius, so its series diverges there: the
        # omega_divergent flag every verdict sets
        for z in (Sphere(2), parse("S2 x S3"), Susp(parse("S2 x S2"))):
            assert not smallest_positive_pole(loop_gf(z)).is_infinite

    def test_fiber_series_certified_below_base(self):
        # the splitting's second factor must blow up strictly before OmegaZ
        one = RationalGF.constant(1)
        for c in BATTERY:
            fiber = (one - oracles.reduced_gf(c.A) * loop_gf(c.Z)).reciprocal()
            verdict, _, _ = compare_radii(
                smallest_positive_pole(fiber), smallest_positive_pole(loop_gf(c.Z))
            )
            assert verdict == -1


# -- the tree certificate ----------------------------------------------------------


def squared_wedges():
    """W x W for a wedge W of two to four of S2..S4: its loop denominator
    D_W^2 has a double root at rho(OmegaW) < 1."""
    wedges = st.lists(st.integers(2, 4).map(Sphere), min_size=2, max_size=4).map(
        lambda spheres: reduce(Wedge, spheres)
    )
    return wedges.map(lambda w: Product(w, w))


def deep_suspensions():
    """Susp^k(S2) for 40 <= k <= MAX_DEPTH, the deepest `parse` builds, whose reduced homology is z^(k+2)."""
    return st.integers(40, MAX_DEPTH).map(lambda k: reduce(lambda x, _: Susp(x), range(k), Sphere(2)))


def expressions(depth=3, wide=False):
    """Expressions over S2..S9 with all five operators, at most `depth` operators deep.

    Wide ones also take squared wedges and deep suspensions as leaves.
    """
    leaves = st.integers(2, 9).map(Sphere)
    if wide:
        leaves = st.one_of(leaves, squared_wedges(), deep_suspensions())
    if depth == 0:
        return leaves
    inner = expressions(depth - 1, wide)
    pairs = st.tuples(inner, inner)
    return st.one_of(
        leaves,
        pairs.map(lambda t: Wedge(*t)),
        pairs.map(lambda t: Product(*t)),
        pairs.map(lambda t: Smash(*t)),
        inner.map(Susp),
    )


@st.composite
def presentations(draw, wide=False):
    """An inert cofiber, connected-sum or two-cone presentation, as its cofiber.

    A wide one draws over wide expressions, and half the time takes A as a
    deep suspension and Z as a squared wedge times a sphere. Then D_Y =
    D_Z - z^(k+2) has two roots beside the double root of D_Z, often
    closer than the tolerance, so the pole search walks past its first cell.
    """
    space = expressions(2, wide)
    a = st.one_of(space, deep_suspensions()) if wide else space
    z = space
    if wide:
        squared = st.tuples(squared_wedges(), st.integers(2, 9).map(Sphere))
        z = st.one_of(space, squared.map(lambda t: Product(*t)))
    kind = draw(st.sampled_from(["cofiber", "connsum", "yclass"]))
    if kind == "cofiber":
        return CofiberPresentation(draw(a), draw(z), inert_asserted=True)
    if kind == "connsum":
        return ConnSumPresentation(draw(a), draw(z), draw(space), True).as_cofiber()
    m = draw(st.integers(2, 4))
    n = draw(st.integers(2 * m, 2 * m + 4))
    return YClassPresentation(m, n, draw(a), inert_asserted=True).as_cofiber()


def built(make):
    """make(), or a skipped example when its loop series is outside the closed rules."""
    try:
        return make()
    except NotExpressibleError:
        assume(False)


class TestTreeCertificate:
    """A series built as 1/D carries guards that certify its pole. The series
    equals the one `RationalGF` arithmetic builds, and the pole its guards
    certify equals the one the Descartes path finds on the bare series, on
    the same grid of (0, 1]: over these spheres no other guard's root lies
    within the tolerance of the pole, so the first cell is certified."""

    @staticmethod
    def check(series, reference):
        sympy = pytest.importorskip("sympy")
        assert (series.num, series.den) == (reference.num, reference.den)
        assert series._guards is not None and reference._guards is None
        rho = smallest_positive_pole(series)
        assert (rho.lo, rho.hi) == oracles.unit_grid_pole(reference)
        assert rho.certificate_holds()
        z = sympy.Symbol("z")
        den = sympy.Poly(series.den.coeffs[::-1], z)
        lo, hi = (sympy.Rational(x.numerator, x.denominator) for x in (rho.lo, rho.hi))
        if rho.is_exact:
            assert den.count_roots(0, lo) == 1 and den.eval(lo) == 0
        else:
            assert den.count_roots(0, lo) == 0 and den.count_roots(lo, hi) == 1

    @given(expressions())
    @settings(max_examples=60, deadline=None)
    def test_loop_series(self, x):
        self.check(built(lambda: loop_gf(x)), built(lambda: oracles.loop_gf(x)))

    @given(presentations())
    @settings(max_examples=40, deadline=None)
    def test_split_series(self, c):
        reference = built(lambda: oracles.inert_cofiber_loop_gf(c))
        self.check(built(lambda: inert_cofiber_loop_gf(c)), reference)

    def test_a_cell_past_the_tolerance_is_certified_by_the_guards(self, monkeypatch):
        # rho(OmegaY) of 1/(1 - 2z - z^43) lies about 2^-44 below rho(OmegaZ) = 1/2,
        # so the first cell reaches past 1/2, where Z's guard 1 - 2z is
        # negative; the guards certify a finer cell, below 1/2, with no
        # Taylor shift (the bare series' Descartes cell straddles 1/2)
        c = CofiberPresentation(Sphere(43), parse("S2 v S2"), inert_asserted=True)
        y = inert_cofiber_loop_gf(c)
        shifts = oracles.count_calls(monkeypatch, polynomial, "taylor_shift")
        rho = smallest_positive_pole(y)
        assert shifts == []
        assert rho.method == "guard signs" and rho.hi < Fraction(1, 2)
        assert rho.width() <= series.DEFAULT_POLE_TOLERANCE
        assert rho.certificate_holds()

    @pytest.mark.parametrize(
        "expr,r,exact",
        [
            # D = (1 - z^2)(1 - z - z^2): f's rational root 1 lies above the
            # pole, and only the cell's polynomial 1 - z - z^2 is scanned
            ("S3 x (S2 v S3)", Fraction(1), False),
            # D = (1 - 2z)^25: its coefficients are past the root scan's bound,
            # and the bisection of the pole guard 1 - 2z on (0, 1] meets the
            # rational root 1/2, where the other guards certify it
            (" x ".join(["(S2 v S2)"] * 25), Fraction(1, 2), True),
        ],
    )
    def test_the_guards_are_read_at_a_rational_root_once(self, monkeypatch, expr, r, exact):
        gf = loop_gf(parse(expr))
        guards = list(gf._guards[0] + gf._guards[1])
        signs = []
        sign_at = IntPolynomial.sign_at

        def counted(p, x):
            signs.append((p, x))
            return sign_at(p, x)

        monkeypatch.setattr(IntPolynomial, "sign_at", counted)
        points = []
        sign_at_ratio = IntPolynomial.sign_at_ratio
        monkeypatch.setattr(
            IntPolynomial, "sign_at_ratio", lambda p, n, q: points.append((p, n, q)) or sign_at_ratio(p, n, q)
        )
        scans = oracles.count_calls(monkeypatch, series, "_smallest_positive_rational_root")
        rho = smallest_positive_pole(gf)
        read = [p for p, x in signs if x == r]
        if exact:
            # the bisection meets the pole guard's root 1/2 as a grid point, and the
            # other guards, which do not vanish there, are read at it once
            assert read == [g for g in guards if sign_at(g, r)]
        else:
            # no exact sign of a guard is taken at f's root 1, and the one
            # rational-root scan is of the cell's polynomial, not of f
            assert not [p for p, n, q in points if Fraction(n, q) == r and p in guards]
            assert scans == [(rho._bracketed,)]
            assert rho._bracketed in (IntPolynomial((1, -1, -1)), IntPolynomial((-1, 1, 1)))
        assert rho.is_exact == exact and rho.certificate_holds()
        assert rho == smallest_positive_pole(RationalGF(gf.num, gf.den))

    def test_a_rational_pole_past_the_scan_bound_is_pinned_on_its_guard(self, monkeypatch):
        # D = (1 - 3z)^15: f's coefficients are past the root scan's bound
        # and 1/3 is no grid point, so the scan of the pole guard 1 - 3z pins it
        gf = loop_gf(parse(" x ".join(["(S2 v S2 v S2)"] * 15)))
        parts = oracles.count_calls(monkeypatch, polynomial, "squarefree_part")
        rho = smallest_positive_pole(gf)
        assert (rho.lo, rho.hi, rho.method) == (Fraction(1, 3), Fraction(1, 3), "rational root")
        assert parts == [] and rho.certificate_holds()

    def test_a_pole_at_the_grid_end_is_pinned_by_its_guard(self, monkeypatch):
        # D = (1 - z^2)^30 with the rational-root scans patched out: the pole
        # guard 1 - z^2 vanishes at 1, the end of (0, 1] that no bisection
        # step evaluates, so its sign there pins the pole
        gf = loop_gf(parse(" x ".join(["Susp(S2)"] * 30)))
        monkeypatch.setattr(series, "_smallest_positive_rational_root", lambda f: None)
        rho = smallest_positive_pole(gf)
        assert (rho.lo, rho.hi, rho.method) == (1, 1, "guard signs")
        assert rho.certificate_holds()

    def test_a_rational_pole_is_found_before_the_squarefree_part(self, monkeypatch):
        # the degree-963 denominator is not squarefree, and its squarefree
        # part takes over a minute; its pole is its rational root 1/2
        x = parse("(S2 v S2) x ((S189 v S7) x ((S284 ^ Susp(S231)) x (S257 x (S3 v S4))))")
        parts = oracles.count_calls(monkeypatch, polynomial, "squarefree_part")
        rho = smallest_positive_pole(loop_gf(x))
        assert (rho.lo, rho.hi) == (Fraction(1, 2), Fraction(1, 2))
        assert parts == []

    @given(presentations())
    @settings(max_examples=40, deadline=None)
    def test_the_total_space_grows_faster_than_the_cofiber(self, c):
        # D_Z - redA falls from 1 to -redA(rho_Z) < 0 on (0, rho_Z), and every
        # loop radius is at most 1, so rho(OmegaY) < rho(OmegaZ) <= 1
        check = built(lambda: strongly_inert_check(c))
        verdict = good_growth_verdict(c)
        rho_z = smallest_positive_pole(loop_gf(c.Z))
        assert check.strongly_inert
        assert not rho_z.is_infinite and rho_z.hi <= 1
        assert verdict.good_growth is GoodGrowth.CERTIFIED_STRONGLY_INERT
        assert verdict.strongly_inert and verdict.omega_divergent and not verdict.elliptic


class TestGapCertificate:
    """The verdict reads rho(OmegaY) < rho(OmegaZ) off OmegaY's guard cell,
    on whose right end every guard of OmegaZ is positive. The reference
    searches rho(OmegaZ) on its own and compares the two radii."""

    @given(presentations(wide=True))
    @settings(max_examples=40, deadline=None)
    def test_the_guard_cell_agrees_with_the_radius_comparison(self, c):
        check = built(lambda: strongly_inert_check(c))
        verdict, rho_y, rho_z = reference_gap(c, check)
        assert check.strongly_inert and verdict == -1
        assert rho_y.hi <= rho_z.lo
        inner, top = loop_gf(c.Z)._guards
        assert all(g.sign_at(check.rho_y.hi) > 0 for g in inner + top)

    # a verdict that searched rho(OmegaZ) as well would run the float Newton
    # on Z's pole guard 1 - 4z + 2z^2 twice: there and in OmegaY's scan
    @example(ConnSumPresentation(Sphere(3), parse("S2 x S2"), parse("S2 x S2"), True).as_cofiber())
    @given(presentations(wide=True))
    @settings(max_examples=40, deadline=None)
    def test_a_verdict_runs_each_float_newton_once(self, c):
        with mock.patch.object(series, "_float_newton", wraps=series._float_newton) as newton:
            built(lambda: good_growth_verdict(c))
        calls = [call.args for call in newton.call_args_list]
        assert len(set(calls)) == len(calls)

    def test_some_wide_draws_walk(self, monkeypatch):
        # the pole search halves once when its first cell certifies; a
        # second halving is the walk, and the verdict rests on its cell too
        halvings = oracles.count_calls(monkeypatch, series, "_bisect")
        walked = []

        @given(presentations(wide=True))
        @settings(max_examples=60, deadline=None, derandomize=True, database=None)
        def draw(c):
            y = built(lambda: inert_cofiber_loop_gf(c))
            halvings.clear()
            rho = smallest_positive_pole(y)
            if len(halvings) > 1:
                walked.append(rho)
                assert strongly_inert_check(c).strongly_inert

        draw()
        assert walked


class TestTreePoleAgainstAPlainWalk:
    """`series._tree_pole` finds its cell by a first halving on the top
    guards and, when that cell does not certify, an exponential and a
    binary search over the levels of the halving on all guards, each level
    jumped to by a Newton estimate. `oracles.guard_walk` halves on all
    guards one midpoint at a time and descends level by level; both must
    reach the same cell, with the same polynomial up to a constant."""

    @staticmethod
    def check(gf):
        inner, top = gf._guards
        tol = series.DEFAULT_POLE_TOLERANCE
        lo, hi, g = series._tree_pole(inner + top, len(inner), tol)
        want_lo, want_hi, want = oracles.guard_walk([p.coeffs for p in inner], [p.coeffs for p in top], tol)
        assert (lo, hi) == (want_lo, want_hi)
        assert [Fraction(c, g.leading()) for c in g.coeffs] == want

    @given(expressions(wide=True))
    @settings(max_examples=60, deadline=None)
    def test_loop_series(self, x):
        self.check(built(lambda: loop_gf(x)))

    @given(presentations(wide=True))
    @settings(max_examples=40, deadline=None)
    def test_split_series(self, c):
        self.check(built(lambda: inert_cofiber_loop_gf(c)))

    @given(
        st.lists(st.integers(2, 4), min_size=2, max_size=4),
        st.integers(2, 9),
        st.integers(40, 250),
    )
    @settings(max_examples=30, deadline=None)
    def test_a_squared_wedge_under_a_deep_suspension(self, wedge, n, k):
        # D_Y = D_Z - z^(k+2) has roots next to the double root of D_Z, so
        # the first cell mostly does not certify and the walk runs
        w = " v ".join(f"S{m}" for m in wedge)
        a, z = "Susp(" * k + "S2" + ")" * k, f"(({w}) x ({w})) x S{n}"
        self.check(inert_cofiber_loop_gf(CofiberPresentation(parse(a), parse(z), True)))

    @pytest.mark.parametrize("name", ["cofiber-squared-wedge-deep-suspension", "rho-shared-irrational-root"])
    def test_a_walked_golden_cell(self, name):
        # cells the first halving does not certify: past the double root of
        # D_Z, and on two top guards that share the pole
        argv = GOLDEN[name]["argv"]
        if argv[0] == "rho":
            self.check(loop_gf(parse(argv[1])))
        else:
            self.check(inert_cofiber_loop_gf(CofiberPresentation(parse(argv[2]), parse(argv[4]), True)))


class TestLeastGuardSign:
    """The least of a tree-built series' guard signs is positive exactly on
    (0, rho) and, on (0, 1], zero only at rho: what refining a pole on the
    guards rests on. rho comes from the bare series' search, which reads no
    guard."""

    @staticmethod
    def check(series, reference, data):
        lo, hi = oracles.unit_grid_pole(reference)
        f = polynomial.squarefree_part(reference.den)
        dyadic = st.integers(1, 64).flatmap(lambda m: st.integers(1, 2**m).map(lambda n: Fraction(n, 2**m)))
        x = data.draw(st.one_of(st.sampled_from([lo, hi, (lo + hi) / 2]), dyadic))
        if lo == hi:
            below, at = x < lo, x == lo
        elif x <= lo or x >= hi:
            below, at = x <= lo, False
        else:
            # the cell holds one simple root of f, and its ends are not roots
            below, at = f.sign_at(x) == f.sign_at(lo), f.sign_at(x) == 0
        least = min(g.sign_at(x) for g in series._guards[0] + series._guards[1])
        assert (least > 0) == below and (least == 0) == at

    @given(expressions(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_loop_series(self, x, data):
        self.check(built(lambda: loop_gf(x)), built(lambda: oracles.loop_gf(x)), data)

    @given(presentations(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_split_series(self, c, data):
        reference = built(lambda: oracles.inert_cofiber_loop_gf(c))
        self.check(built(lambda: inert_cofiber_loop_gf(c)), reference, data)


# -- homotopy ranks ----------------------------------------------------------------


class TestPiRanks:
    def test_odd_sphere(self):
        assert pi_ranks(gf([1], [1, 0, -1]), 8).ranks == {2: 1}

    def test_even_sphere(self):
        assert pi_ranks(gf([1], [1, -1]), 6).ranks == {1: 1, 2: 1}

    def test_two_odd_spheres(self):
        got = pi_ranks(gf([1], [1, 0, -2]), 10).ranks
        assert got == {2: 2, 4: 1, 6: 2, 8: 3, 10: 6}

    def test_negative_rank_rejected(self):
        # peeling (1-z^2) off 1+z^2 leaves 1-z^4: no valid rank at degree 4
        with pytest.raises(ValueError, match="not the Hilbert series"):
            pi_ranks(gf([1, 0, 1]), 8)

    def test_constant_term_must_be_one(self):
        with pytest.raises(ValueError, match="constant term must be 1"):
            pi_ranks(gf([2]), 4)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_reconstruction_round_trip(self, data):
        z = data.draw(loop_spaces())
        table = pi_ranks(loop_gf(z), 14)
        want = expand(loop_gf(z), 14).coeffs
        got = table.reconstruct().coeffs
        assert got == want
        # dimension series are ints end to end, homology included
        homology = homology_poly(z).coeffs
        assert all(type(c) is int for c in got + want + homology)

    def test_lyndon_cross_check_two_even_letters(self):
        # ranks of 1/(1-2z^2) count Lyndon words over two letters of weight 2
        got = pi_ranks(gf([1], [1, 0, -2]), 14).ranks
        words = oracles.brute_lyndon(2, 7)
        by_weight = {}
        for w in words:
            by_weight[2 * len(w)] = by_weight.get(2 * len(w), 0) + 1
        assert got == by_weight


def loop_spaces():
    leaves = st.integers(2, 4).map(Sphere)
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda t: Wedge(*t)),
            st.tuples(inner, inner).map(lambda t: Product(*t)),
            inner.map(Susp),
        ),
        max_leaves=5,
    )
