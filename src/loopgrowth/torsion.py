"""Prime exclusion sets, p-local splitting tests, Hilton-Milnor censuses.

A suspension with cells between connectivity s and dimension d splits
p-locally into a wedge of spheres once p > (d - s + 1)/2; the finitely many
primes at or below that bound form the exclusion set. Loops on a wedge of two
spheres split (integrally) as a product of loop spaces of spheres, one factor
per basic product, and basic products are counted by Lyndon words over a
two-letter alphabet weighted by the generator degrees m-1 and n-1. The census
reads those counts from the weighted Witt formula that the necklace path of
`freeloop` already evaluates (`_lyndon_class_counts`), which sums the
bivariate Witt numbers by weight. The counts are classical (ungraded): the
census is a statement about actual sphere factors, not about rational
homotopy ranks, so no Koszul-sign regrading applies. The graded rank table
lives in `loop.pi_ranks` and the two agree exactly when every generator
degree is even.

Torsion consequences are reported in two registers. The census growth rate is
rigorous. Per-degree torsion counts are not: how many summands each sphere
factor contributes is not determined by this data, so t_lower is emitted
under an explicitly named counting model and must not be read as a theorem.
"""

from __future__ import annotations

from . import _Record, _set
from .arith import is_prime

PRIME_LIMIT = 10**10  # bounds the trial division at about 1e5 steps

PRIME_WINDOW_LIMIT = 10**5  # largest candidate primes_set tests, about 0.5 s


def _require_prime(p: int) -> None:
    if p > PRIME_LIMIT:
        raise ValueError(f"{p} exceeds the {PRIME_LIMIT} prime limit")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


class PrimeSet(_Record):
    """Finite sorted set of primes, the exclusion set of a (d, s) profile."""

    __slots__ = __match_args__ = ("primes",)

    def __init__(self, primes: tuple):
        primes = tuple(sorted(set(primes)))
        for p in primes:
            _require_prime(p)
        _set(self, "primes", primes)

    def __contains__(self, p: int) -> bool:
        return p in self.primes

    def __or__(self, other: "PrimeSet") -> "PrimeSet":
        return PrimeSet(self.primes + other.primes)


def primes_set(d: int, s: int) -> PrimeSet:
    """Primes q with 2q <= d - s + 1, for a space of dimension d, connectivity s.

    >>> primes_set(7, 1).primes
    (2, 3)
    >>> primes_set(3, 2).primes
    ()
    >>> primes_set(12, 1).primes
    (2, 3, 5)
    """
    if s < 1 or d <= s:
        raise ValueError("dimension must exceed connectivity")
    bound = d - s + 1
    if bound // 2 > PRIME_WINDOW_LIMIT:
        raise ValueError(f"prime window up to {bound // 2} exceeds the {PRIME_WINDOW_LIMIT} limit")
    return PrimeSet(tuple(q for q in range(2, bound // 2 + 1) if is_prime(q)))


def primes_set_of(x) -> PrimeSet:
    """Exclusion set from the structural (connectivity, dimension) profile."""
    from .space import profile

    pr = profile(x)
    return primes_set(pr.dimension, pr.connectivity)


def suspension_splits_locally(x, p: int) -> bool:
    """True when the suspension of x splits p-locally into a wedge of spheres,
    that is when the prime p lies outside the exclusion set of x.

    >>> from .space import parse
    >>> suspension_splits_locally(parse("S2 v S5"), 3)
    True
    >>> suspension_splits_locally(parse("S2 v S5"), 2)
    False
    """
    _require_prime(p)
    return p not in primes_set_of(x)


def least_p_torsion_dim(n: int, p: int) -> int:
    """First homotopy degree where loops on S^n can carry p-torsion: n + 2p - 3.

    >>> least_p_torsion_dim(3, 5)
    10
    >>> least_p_torsion_dim(3, 2)
    4
    """
    if n < 2:
        raise ValueError("sphere dimension must be at least 2")
    _require_prime(p)
    return n + 2 * p - 3


# -- the sphere-factor census ---------------------------------------------------


class HiltonMilnorCensus(_Record):
    """Sphere-factor multiplicities of loops on S^m v S^n up to weight N.

    factors maps a sphere dimension D to the number of loop-space factors on
    S^D, which equals the number of Lyndon words of weight D-1 over letters
    weighted m-1 and n-1. It is carried along, not compared: the generators
    and N determine it.
    """

    __slots__ = ("generators", "factors", "trunc_degree")
    __match_args__ = ("generators", "trunc_degree")
    _defaults = {"trunc_degree": 0}

    def factor_counts(self):
        """Counts as a series in the weight degree t = D - 1."""
        from .series import TruncatedSeries

        dims = [0] * (self.trunc_degree + 1)
        for dim, count in self.factors.items():
            dims[dim - 1] = count
        return TruncatedSeries.from_dims(dims)

    def reconstruct(self):
        """Product of 1/(1 - z^t) over all factors, t the weight degree.

        Unique factorization of words into nonincreasing Lyndon products
        makes this equal the word-counting series 1/(1 - z^{m-1} - z^{n-1}).
        The c factors of one dimension multiply in at once, as
        (1 - z^t)^-c = sum_r C(c+r-1, r) z^(rt).

        >>> hilton_milnor_census(2, 2, 6).reconstruct().as_dims()
        (1, 2, 4, 8, 16, 32, 64)
        """
        from .series import TruncatedSeries, mul_binomial_power

        cur = [1] + [0] * self.trunc_degree
        for dim, c in sorted(self.factors.items()):
            cur = mul_binomial_power(cur, dim - 1, -1, -c)
        return TruncatedSeries.from_dims(cur)


def hilton_milnor_census(m: int, n: int, trunc_degree: int) -> HiltonMilnorCensus:
    """Count sphere factors of loops on S^m v S^n by dimension, weight <= N.

    The factors of dimension t + 1 are the Lyndon words of weight t over
    letters weighted m-1 and n-1, as many as the aperiodic necklace classes
    of degree t that `freeloop._lyndon_class_counts` counts for the
    Hochschild tables.

    >>> hilton_milnor_census(2, 2, 6).factors
    {2: 2, 3: 1, 4: 2, 5: 3, 6: 6, 7: 9}
    """
    if m < 2 or n < 2:
        raise ValueError("sphere dimensions must be at least 2")
    from .freeloop import _lyndon_class_counts

    degrees = (m - 1, n - 1)
    counts = _lyndon_class_counts(degrees, trunc_degree)
    return HiltonMilnorCensus(
        generators=degrees,
        factors={t + 1: c for t, c in enumerate(counts) if c},
        trunc_degree=trunc_degree,
    )


# -- torsion and retraction reports --------------------------------------------


class TorsionReport(_Record):
    """Exponent witness and modeled torsion lower bounds at a prime power.

    census_log_index is the rigorous growth statistic. t_lower counts one
    torsion class per loop-sphere factor S^{2k+1} with k >= r, placed at the
    first degree where that factor can carry p-torsion; that per-factor
    count is a modeling choice, named by model_id, not a theorem.
    """

    __slots__ = __match_args__ = (
        "prime", "r", "census", "exponent_witness", "t_lower", "census_log_index", "excluded",
        "prime_excluded", "model_id",
    )
    _defaults = {"model_id": "factor-count-v1"}


def torsion_report(
    m: int,
    n: int,
    p: int,
    r: int,
    trunc_degree: int,
    excluded: PrimeSet = PrimeSet(()),
    tail_start: int = 10,
) -> TorsionReport:
    """Assemble the torsion-side report for loops on S^m v S^n at p^r.

    The witness is the least sphere-factor dimension 2k+1 with k >= r in the
    census; factor exponents grow with dimension, so every larger factor
    witnesses the same bound.
    """
    _require_prime(p)
    if r < 1:
        raise ValueError("r must be a positive integer")
    from .series import log_index_empirical

    census = hilton_milnor_census(m, n, trunc_degree)
    odd = [(dim, c) for dim, c in census.factors.items() if dim % 2 == 1 and (dim - 1) // 2 >= r]
    if not odd:
        raise ValueError(
            "increase truncation: no odd sphere factor of dimension 2k+1 "
            f"with k >= {r} below degree {trunc_degree}"
        )
    t_lower = {}
    for dim, count in odd:
        deg = least_p_torsion_dim(dim, p)
        t_lower[deg] = t_lower.get(deg, 0) + count
    rate = log_index_empirical(
        census.factor_counts(), max(1, min(tail_start, trunc_degree))
    )
    return TorsionReport(
        prime=p,
        r=r,
        census=census,
        exponent_witness=odd[0][0],
        t_lower=dict(sorted(t_lower.items())),
        census_log_index=rate,
        excluded=excluded,
        prime_excluded=p in excluded,
    )


class RetractionReport(_Record):
    """Sphere pair (m, n) with a wedge retraction off the cofiber's loops."""

    __slots__ = __match_args__ = ("m", "n", "excluded")

    def __repr__(self):
        return f"RetractionReport(m={self.m}, n={self.n}, excluded={self.excluded.primes})"


def retraction_report(A, Z) -> RetractionReport:
    """Locate the two-sphere wedge retracting off loops of the cofiber.

    m is the least sphere dimension in the wedge decomposition of the
    suspension of A. n is m-1 plus the least degree with nonzero reduced
    homology of Z, a rational proxy for the least cell of the (m-1)-fold
    suspension of Z. The excluded primes combine both profiles.

    >>> from .space import parse
    >>> retraction_report(parse("S2"), parse("S2 x S2"))
    RetractionReport(m=3, n=4, excluded=(2,))
    """
    from .space import Susp, reduced_poly, wedge_decomposition

    m = wedge_decomposition(Susp(A)).least_dimension()
    n = (m - 1) + reduced_poly(Z).low_degree()
    return RetractionReport(m, n, primes_set_of(A) | primes_set_of(Z))
