"""Loop-space homology series, inert-cofibration splittings, growth verdicts.

Closed rules for the based loop space of an expressible space:

    Omega S^n            1/(1 - z^(n-1))
    Omega (X x Y)        product of the factors' series
    Omega Susp(B)        1/(1 - redB(z))          (tensor algebra on red H(B))
    Omega (X v Y)        1/OmegaW = 1/OmegaX + 1/OmegaY - 1   (free product)
    Omega (X ^ Y)        1/(1 - redX(z) redY(z) / z)  when the smash is
                         rationally a suspension; otherwise not expressible

Every rule gives numerator 1, so a loop series is 1/D and is built as its
denominator D alone, with no series arithmetic and no gcd. Each node's D is
carried split, as a cofactor times prod (1 - z^a): a sphere S^n is the one
binomial a = n - 1 over the cofactor 1, a product joins its factors'
exponents and multiplies their cofactors, and a wedge, a suspension or a
smash is its D with no binomials. The binomials are multiplied out once,
one stride difference per exponent, where a wedge or the series itself
first needs D, and the series carries the split for `expand` and the pole
search.

For a cofibration attaching a cone on A to produce Y with cofiber Z, an inert
attaching map splits the loop space and forces

    OmegaY(z) = OmegaZ(z) / (1 - redA(z) OmegaZ(z)) = N_Z / (D_Z - redA N_Z),

which is reduced, since gcd(N_Z, D_Z - redA N_Z) = gcd(N_Z, D_Z) = 1. With
N_Z = 1 it is 1/(D_Z - redA).

Each series built so carries guards that decide rho > x by exact signs at
x. D = 1/Omega falls from 1 to 0 on (0, rho), because Omega has
nonnegative coefficients, which gives one guard per node:
- a product of spheres has rho = 1: the guard is 1 - x > 0;
- a product's rho is the smaller factor radius: it keeps its factors' guards;
- a wedge's D_X + D_Y - 1 falls from 1 to below 0 on (0, min(rho_X, rho_Y)),
  so it has one root there, its radius (the series form of the Ganea-Gray
  splitting of Omega(X v Y)): the guards are the children's and D(x) > 0;
- a suspension's or a smash's D = 1 - W, with W nonzero with nonnegative
  coefficients, has one positive root: the guard is D(x) > 0;
- a cofiber's D_Z - redA falls from 1 to -redA(rho_Z) < 0 on (0, rho_Z), so
  its one root there is rho(OmegaY) < rho(OmegaZ) (Halperin-Lemaire, inert
  cells): the guards are Z's and D(x) > 0, so every cell of rho(OmegaY)
  they certify ends below rho(OmegaZ) (`strongly_inert_check`).

Inertness itself is a homotopy-theoretic hypothesis the engine cannot decide;
callers assert it and the assertion is threaded into every verdict trail.
"""

from __future__ import annotations

from enum import Enum

from . import _Record, _set
from .polynomial import ONE, IntPolynomial, binomial_product
from .series import (
    RationalGF,
    TruncatedSeries,
    expand,
    log_index_exact,
    mul_binomial_power,
    smallest_positive_pole,
)
from .space import (
    Product,
    Smash,
    SpaceExpr,
    Sphere,
    Susp,
    Wedge,
    is_rational_sphere_wedge,
    reduced_poly,
    to_text,
)


class HypothesisError(ValueError):
    """A stated hypothesis of a splitting or growth theorem is not met."""

    report_kind = "hypothesis-error"


class NotExpressibleError(ValueError):
    """The loop series of the expression is outside the closed rules."""

    report_kind = "not-expressible"


def loop_gf(x: SpaceExpr) -> RationalGF:
    """Hilbert series of H_*(Omega X; Q) by the closed rules: 1/D, with its guards.

    `_loop_den` gives D as a cofactor times prod (1 - z^a); the exponents
    are sorted here, carried with the cofactor as the series' split, and
    multiplied out once into D.

    >>> loop_gf(Sphere(4)).den.coeffs
    (1, 0, 0, -1)
    >>> loop_gf(Wedge(Sphere(2), Sphere(2))).den.coeffs
    (1, -2)
    """
    cofactor, exponents, guards = _loop_den(x)
    exponents = tuple(sorted(exponents))
    den = binomial_product(exponents, cofactor.coeffs)
    return RationalGF(ONE, den, (exponents, cofactor), guards)


# the guards of every product of spheres, whose radius is 1: (inner, top)
# with the one top guard 1 - x > 0
_SPHERE_GUARDS = ((), (IntPolynomial((1, -1)),))


def _distinct(polys) -> tuple:
    return tuple(dict.fromkeys(polys))


def _loop_den(x: SpaceExpr):
    """(cofactor, exponents, guards) for OmegaX = 1/D, D = cofactor * prod (1 - z^a).

    The exponents are the a, unsorted: a sphere S^n gives the cofactor ONE
    and the exponent n - 1, and a product joins its factors' exponents and
    multiplies their cofactors, so a product of spheres keeps the cofactor
    ONE, the same object. A wedge multiplies each side out, one stride
    difference per exponent, and a wedge, a suspension or a smash returns
    its D as the cofactor, with no exponents. guards is (inner, top): top
    holds the guards of the factors of D that products keep apart, inner
    the guards of the nodes below them, each node after its children (see
    the module docstring). Equal guards are kept once.
    """
    if isinstance(x, Sphere):
        return ONE, (x.n - 1,), _SPHERE_GUARDS
    if isinstance(x, Product):
        cx, ex, (ix, tx) = _loop_den(x.left)
        cy, ey, (iy, ty) = _loop_den(x.right)
        # identity, not ==: a product of spheres is the hot case
        if cx is ONE and cy is ONE:
            return ONE, ex + ey, _SPHERE_GUARDS
        cofactor = cy if cx is ONE else cx if cy is ONE else cx * cy
        return cofactor, ex + ey, (_distinct(ix + iy), _distinct(tx + ty))
    if isinstance(x, Wedge):
        cx, ex, (ix, tx) = _loop_den(x.left)
        cy, ey, (iy, ty) = _loop_den(x.right)
        den = binomial_product(ex, cx.coeffs) + binomial_product(ey, cy.coeffs) - ONE
        return den, (), (_distinct(ix + tx + iy + ty), (den,))
    if isinstance(x, Susp):
        den = ONE - reduced_poly(x.inner)
    elif isinstance(x, Smash):
        if not is_rational_sphere_wedge(x):
            raise NotExpressibleError(
                "loop series not expressible: smash has no suspension factor"
            )
        # red(z)/z: the reduced homology of a smash starts in degree 4
        den = ONE - IntPolynomial(reduced_poly(x).coeffs[1:])
    else:
        raise TypeError(f"not a space expression: {x!r}")
    return den, (), ((), (den,))


def loop_smash_sphere(n_alpha: int, z: SpaceExpr) -> RationalGF:
    """Series of Omega(S^n ^ Omega Z) via 1/(1 - z^(n-1) OmegaZ(z)) = D/(D - z^(n-1) N).

    The pair is reduced, since gcd(D, D - z^(n-1) N) = gcd(D, N) = 1 with
    D(0) != 0, so the constructor's gcd is 1.

    >>> loop_smash_sphere(3, Sphere(2)).den.coeffs
    (1, -1, -1)
    """
    if n_alpha < 2:
        raise HypothesisError("smashing sphere must have dimension at least 2")
    oz = loop_gf(z)
    return RationalGF(oz.den, oz.den - oz.num.shift(n_alpha - 1))


# -- presentations ----------------------------------------------------------


def _require_inert(asserted: bool):
    if not asserted:
        raise HypothesisError(
            "inertness of the attaching map is not asserted; "
            "the splitting identity only holds for inert maps"
        )


class CofiberPresentation(_Record):
    """Cofibration Sigma A -> Y -> Z with A the desuspended cone.

    `inert_asserted` records the caller's hypothesis that the attaching map
    is inert; `justification` is free text carried into reports.
    """

    __slots__ = __match_args__ = ("A", "Z", "inert_asserted", "justification")
    _defaults = {"inert_asserted": False, "justification": ""}


class ConnSumPresentation(_Record):
    """Connected-sum presentation: summands M and N glued over the collar Sigma A."""

    __slots__ = __match_args__ = ("A", "M", "N", "inert_asserted", "justification")
    _defaults = CofiberPresentation._defaults

    def as_cofiber(self) -> CofiberPresentation:
        return CofiberPresentation(
            self.A, Wedge(self.M, self.N), self.inert_asserted, self.justification
        )


class YClassPresentation(_Record):
    """Two-cone presentation: skeleton Sigma J v S^m v S^(n-m), cofiber like
    S^m x S^(n-m), with 1 < m <= n - m."""

    __slots__ = __match_args__ = ("m", "n", "J", "inert_asserted", "justification")

    def __init__(self, m: int, n: int, J: SpaceExpr, inert_asserted=False, justification=""):
        if not 1 < m <= n - m:
            raise HypothesisError("class constraint violated: need 1 < m <= n - m")
        _set(self, "m", m)
        _set(self, "n", n)
        _set(self, "J", J)
        _set(self, "inert_asserted", inert_asserted)
        _set(self, "justification", justification)

    def cofiber_space(self) -> SpaceExpr:
        return Product(Sphere(self.m), Sphere(self.n - self.m))

    def as_cofiber(self) -> CofiberPresentation:
        return CofiberPresentation(
            self.J, self.cofiber_space(), self.inert_asserted, self.justification
        )


def inert_cofiber_loop_gf(c: CofiberPresentation) -> RationalGF:
    """OmegaZ / (1 - redA * OmegaZ), the split loop series of the total space.

    It is built as N_Z / (D_Z - redA N_Z), which is reduced. The result
    carries every guard of Z as an inner guard and its own denominator as
    its top guard.

    >>> inert_cofiber_loop_gf(CofiberPresentation(
    ...     Sphere(2), Product(Sphere(2), Sphere(2)), inert_asserted=True)).den.coeffs
    (1, -2)
    """
    _require_inert(c.inert_asserted)
    oz = loop_gf(c.Z)
    den = oz.den - reduced_poly(c.A) * oz.num
    inner, top = oz._guards
    return RationalGF(oz.num, den, None, (_distinct(inner + top), (den,)))


# -- growth verdicts ----------------------------------------------------------


class StronglyInertResult(_Record):
    """The radius gap; `series` is OmegaY, the split loop series of the total space."""

    __slots__ = __match_args__ = ("strongly_inert", "rho_y", "series")


def strongly_inert_check(c: CofiberPresentation) -> StronglyInertResult:
    """Certified test of rho(OmegaY) < rho(OmegaZ), read off OmegaY's guard cell.

    OmegaY's series carries every guard of OmegaZ among its inner guards
    (`inert_cofiber_loop_gf`), and the pole search certifies its cell
    (lo, hi] only when every inner guard is positive at hi. The least sign
    of OmegaZ's guards is positive exactly on (0, rho(OmegaZ)), so a finite
    rho(OmegaY) gives rho(OmegaY) <= hi < rho(OmegaZ), with no search for
    rho(OmegaZ) and no comparison of two radii.
    """
    _require_inert(c.inert_asserted)
    series = inert_cofiber_loop_gf(c)
    ry = smallest_positive_pole(series)
    return StronglyInertResult(not ry.is_infinite, ry, series)


class GoodGrowth(Enum):
    CERTIFIED_STRONGLY_INERT = "certified-strongly-inert"


class GrowthVerdict(_Record):
    """Good-exponential-growth verdict for the free loops on the total space."""

    __slots__ = __match_args__ = (
        "series", "rho", "log_index", "elliptic", "strongly_inert", "omega_divergent",
        "good_growth", "trail",
    )


def good_growth_verdict(c: CofiberPresentation) -> GrowthVerdict:
    """Decide good exponential growth for the loops of the cofibration's total space.

    An inert attachment gives rho(OmegaY) < rho(OmegaZ) <= 1 (the cofiber
    case of the module docstring; Halperin-Lemaire, inert cells), so Y is
    strongly inert, not elliptic, and OmegaZ diverges at its radius. The gap
    is certified by OmegaY's guard cell (`strongly_inert_check`); a
    ValueError is raised if it is not.
    """
    check = strongly_inert_check(c)
    if not check.strongly_inert:
        raise ValueError(
            "radius gap rho(OmegaY) < rho(OmegaZ) not certified by OmegaZ's guards "
            "at rho(OmegaY)'s cell"
        )
    trail = (
        f"attaching map asserted inert: {c.justification or 'no justification given'}",
        "the verdict rests on rho(OmegaY) < rho(OmegaZ) <= 1: the gap certified by OmegaZ's "
        "guards, positive at the right end of rho(OmegaY)'s cell, and rho(OmegaZ) <= 1 as for "
        "every loop series; strongly inert splitting gives controlled growth at the loop log index",
        f"log index certified by the splitting theorem for Z = {to_text(c.Z)}; "
        "free-loop homology is not recomputed here",
    )
    return GrowthVerdict(
        series=check.series,
        rho=check.rho_y,
        log_index=log_index_exact(check.rho_y),
        elliptic=False,
        strongly_inert=True,
        omega_divergent=True,
        good_growth=GoodGrowth.CERTIFIED_STRONGLY_INERT,
        trail=trail,
    )


# -- homotopy ranks via PBW inversion ------------------------------------------


class PiRankTable(_Record):
    """Graded Lie-algebra ranks l_i with
    gf = prod_{i odd} (1+z^i)^(l_i) * prod_{i even} (1-z^i)^(-l_i) mod z^(N+1)."""

    __slots__ = __match_args__ = ("ranks", "trunc_degree")

    def reconstruct(self) -> TruncatedSeries:
        cur = [1] + [0] * self.trunc_degree
        for i, l in sorted(self.ranks.items()):
            if i % 2 == 1:
                cur = mul_binomial_power(cur, i, +1, l)  # (1+z^i)^l
            else:
                cur = mul_binomial_power(cur, i, -1, -l)  # (1-z^i)^(-l)
        return TruncatedSeries(tuple(cur))


def pi_ranks(gf: RationalGF, trunc_degree: int) -> PiRankTable:
    """Invert the PBW factorization of a loop-homology Hilbert series.

    Degrees are peeled off smallest first: after removing all factors below i,
    the residual series is 1 + l_i z^i + O(z^(i+1)).

    >>> pi_ranks(RationalGF.from_coeffs([1], [1, -1]), 6).ranks
    {1: 1, 2: 1}
    """
    cur = list(expand(gf, trunc_degree).as_dims())
    if cur[0] != 1:
        raise ValueError("constant term must be 1")
    n = trunc_degree
    ranks = {}
    for i in range(1, n + 1):
        li = cur[i]
        if li == 0:
            continue
        if li < 0:
            raise ValueError(
                f"rank at degree {i} would be {li}; "
                "not the Hilbert series of a graded universal enveloping algebra"
            )
        ranks[i] = li
        # remove the degree-i factor: divide by (1+z^i)^li (odd) or
        # multiply by (1-z^i)^li (even)
        if i % 2 == 1:
            cur = mul_binomial_power(cur, i, +1, -li)
        else:
            cur = mul_binomial_power(cur, i, -1, li)
    for k in range(1, n + 1):
        if cur[k] != 0:
            raise ValueError("internal inversion failure; residual series is not 1")
    return PiRankTable(ranks, trunc_degree)
