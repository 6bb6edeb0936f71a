"""Free-loop homology of wedges of spheres via Hochschild homology.

For X a simply connected wedge of spheres, H_*(Omega X) is the tensor algebra
A = T(V) on graded generators V (one generator of degree n-1 per wedge summand
S^n), and H_*(LX) is the Hochschild homology of A. Tensor algebras have
HH_p = 0 for p >= 2, and the two surviving layers are the cokernel and kernel
of the graded-commutator map

    theta : (A (x) V)_k -> A_k,   theta(a (x) v) = a v - (-1)^{|a||v|} v a.

The free-loop dimension table is lx[k] = hh0[k] + hh1[k-1] (internal degree
bookkeeping: HH_1 in internal degree k-1 lands in total degree k).

Two independent paths compute the table. The brute-force path numbers the
words of each degree by arithmetic and materializes theta from its
definition. In degree k >= 1 every word is a v for exactly one letter v (its
last) and v a' for exactly one (its first), so theta's rows e_{av} - sign
e_{va} are those of a signed permutation sigma(av) = va of the words. Its
rank over Q is the number of words minus the number of cycles of sigma whose
signs multiply to +1, found by walking each cycle once. Degree k's
permutation is assembled from blocks of the permutations of degrees k - d,
so no word is spelled out, and only the last max(d) degrees' permutations
are kept. The necklace path builds no words: it counts coinvariants of the
signed cyclic rotation action on degree-k words. A cyclic class survives
unless some rotation carries the word to minus itself, which happens exactly
when w0 * (k-1) is odd for w0 the weight of the word's minimal period
(rotating a letter of degree d past the rest contributes (-1)^(d*(k-d)), and
summing over one period collapses to that parity). The aperiodic classes of
each weight come from the weighted Witt formula. In degree k >= 1 theta maps
a space of dimension dim A_k to itself, so rank-nullity gives
hh1[k] = hh0[k] there, and hh1[0] = 0.

Tables are assembled and checked by whole tuples; the per-degree loop
runs only on a table that fails, to name its first bad degree. The growth
check of lx and its empirical log index read one rate pass over its tail.
"""

from __future__ import annotations

import math
from operator import add, floordiv

from . import _Record, _set
from .arith import moebius_invert
from .polynomial import ONE, IntPolynomial
from .series import (
    RationalGF,
    TruncatedSeries,
    _growth_and_log_index,
    check_growth_parameters,
    log_index_exact,
    smallest_positive_pole,
)
from .space import MAX_SPHERE_DIMENSION

BRUTE_FORCE_WORD_LIMIT = 10**7


class GradedAlphabet(_Record):
    """Multiset of generator degrees, each >= 1, sorted on construction."""

    __slots__ = __match_args__ = ("degrees",)

    def __init__(self, degrees: tuple):
        degs = tuple(sorted(int(d) for d in degrees))
        if not degs:
            raise ValueError("alphabet must have at least one generator")
        if degs[0] < 1:
            raise ValueError("generator degrees must be positive")
        _set(self, "degrees", degs)

    @classmethod
    def from_sphere_dimensions(cls, dims) -> "GradedAlphabet":
        return cls(tuple(n - 1 for n in dims))

    def loop_gf(self) -> RationalGF:
        """1/D, D = 1 - sum z^d: the loop series of the corresponding sphere wedge.

        D falls from 1 and has one positive root, like a suspension's
        denominator in `loop`, so the series carries the guard D(x) > 0.
        """
        if self.degrees[-1] >= MAX_SPHERE_DIMENSION:  # degree d is the sphere S^(d+1)
            raise ValueError(f"generator degree exceeds the {MAX_SPHERE_DIMENSION - 1} limit")
        den = [1] + [0] * max(self.degrees)
        for d in self.degrees:
            den[d] -= 1
        den = IntPolynomial(tuple(den))
        return RationalGF(ONE, den, None, ((), (den,)))


def tensor_algebra_dims(a: GradedAlphabet, trunc_degree: int) -> tuple:
    """dim A_k for k = 0..N; A_k counts words with total degree k.

    >>> tensor_algebra_dims(GradedAlphabet((1, 2)), 8)
    (1, 1, 2, 3, 5, 8, 13, 21, 34)
    """
    if trunc_degree < 0:
        raise ValueError("truncation degree must be nonnegative")
    dims = [0] * (trunc_degree + 1)
    dims[0] = 1
    for k in range(1, trunc_degree + 1):
        dims[k] = sum([dims[k - d] for d in a.degrees if k >= d])
    return tuple(dims)


class HHDimTable(_Record):
    """hh0, hh1 and the assembled free-loop table lx, exact integers.

    Invariants checked on construction: entries nonnegative, rank-nullity
    hh0[k] - hh1[k] = dim A_k - dim (A (x) V)_k, and the assembly rule
    lx[k] = hh0[k] + hh1[k-1]. As (A (x) V)_k = A_k for k >= 1 (split off the
    last letter), rank-nullity reads hh0[k] - hh1[k] = 1 if k == 0 else 0.
    """

    __slots__ = __match_args__ = ("alphabet", "hh0", "hh1", "lx", "trunc_degree")

    def __init__(self, alphabet: GradedAlphabet, hh0: tuple, hh1: tuple, lx: tuple, trunc_degree):
        if not (len(hh0) == len(hh1) == len(lx) == trunc_degree + 1):
            raise ValueError("table lengths must match the truncation degree")
        if min(hh0 + hh1 + lx) < 0:
            raise ValueError("negative dimension in the table")
        if hh0[0] - hh1[0] != 1 or hh0[1:] != hh1[1:] or lx != _assembled(hh0, hh1):
            # whole tuples disagree: name the first degree that breaks a rule
            for k in range(trunc_degree + 1):
                if hh0[k] - hh1[k] != (k == 0):
                    raise ValueError(f"rank-nullity violated at degree {k}")
                if lx[k] != hh0[k] + (hh1[k - 1] if k >= 1 else 0):
                    raise ValueError(f"free-loop assembly rule violated at degree {k}")
        _set(self, "alphabet", alphabet)
        _set(self, "hh0", hh0)
        _set(self, "hh1", hh1)
        _set(self, "lx", lx)
        _set(self, "trunc_degree", trunc_degree)


def _assembled(hh0, hh1) -> tuple:
    """lx[k] = hh0[k] + hh1[k-1], lx[0] = hh0[0]."""
    return (hh0[0], *map(add, hh0[1:], hh1))


def _assemble(alphabet, hh0, hh1, n) -> HHDimTable:
    hh0, hh1 = tuple(hh0), tuple(hh1)
    return HHDimTable(alphabet, hh0, hh1, _assembled(hh0, hh1), n)


# -- brute force: theta as a signed permutation of numbered words ------------


def exact_rank(perm, neg) -> int:
    """Rank over Q of the rows e_u - s_u e_perm[u], u in range(len(perm)).

    perm lists integers in range(len(perm)) and neg[u] is 1 where s_u = -1,
    else 0. The rows of one cycle of perm are independent unless its signs
    multiply to +1 (then, weighted by partial sign products, they sum to 0),
    so the rank is len(perm) minus the number of cycles with an even count
    of negative signs. A walk that reaches a visited word other than its
    start raises ValueError, so a map that is not a bijection is refused.
    Neither argument is changed: the walk marks visited words in a copy.

    >>> exact_rank([1, 2, 0], [0, 1, 1])
    2
    >>> exact_rank([1, 2, 0, 3], [0, 0, 1, 0])
    3
    """
    nxt = list(perm)  # nxt[u] = -1 once u is visited
    balanced = 0
    for start in range(len(nxt)):
        if nxt[start] < 0:
            continue
        parity = 0
        u = start
        while (v := nxt[u]) >= 0:
            nxt[u] = -1
            parity ^= neg[u]
            u = v
        if u != start:
            raise ValueError(f"not a permutation: word {u} is reached twice")
        balanced += not parity
    return len(nxt) - balanced


def hh_bruteforce(a: GradedAlphabet, trunc_degree: int) -> HHDimTable:
    """HH table by materializing theta on numbered words and ranking it.

    The words of degree k are numbered in blocks by last letter: word w
    followed by letter j has number off_k[j] + number(w). Block j of theta's
    permutation lists the numbers of the words j w, for w in the order of
    the words of degree k - d_j, with sign (-1)^{(k - d_j) d_j}. It is read
    off lower degrees' permutations: for w = w' l, the word j w = (j w') l
    has number off_k[l] + perm_m[off_m[j] + number(w')] with m = k - d_l, so
    block j is [off_k[j]] for the empty w (k = d_j) followed, letter l by
    letter l, by off_k[l] plus block j of perm_m. Only the last max(d)
    degrees' permutations are kept.

    >>> hh_bruteforce(GradedAlphabet((1,)), 6).lx
    (1, 1, 1, 1, 1, 1, 1)
    """
    n = trunc_degree
    degrees = a.degrees
    dims = tensor_algebra_dims(a, n)
    if sum(dims) > BRUTE_FORCE_WORD_LIMIT:
        raise ValueError(
            "truncation too large for brute force: "
            f"{sum(dims)} basis words exceeds the {BRUTE_FORCE_WORD_LIMIT} limit"
        )
    top = degrees[-1]
    letters = list(enumerate(degrees))
    perms, offs = [None] * (n + 1), [None] * (n + 1)
    hh0, hh1 = [], []
    for k in range(n + 1):
        off, start = [], 0
        for d in degrees:
            off.append(start)
            start += dims[k - d] if k >= d else 0
        perm, neg = [], []
        for j, d in letters:
            if k < d:
                continue
            if k == d:
                perm.append(off[j])
            for l, dl in letters:
                m = k - dl
                if m >= d:
                    o, lo = off[l], offs[m][j]
                    perm += [o + x for x in perms[m][lo:lo + dims[m - d]]]
            neg += [(k - d) * d % 2] * dims[k - d]
        perms[k], offs[k] = perm, off
        if k >= top:
            perms[k - top] = offs[k - top] = None  # later degrees read from k + 1 - top on
        rank = exact_rank(perm, neg)
        hh0.append(dims[k] - rank)
        hh1.append(len(perm) - rank)
    return _assemble(a, hh0, hh1, n)


# -- necklace path: signed cyclic coinvariants --------------------------------


def _lyndon_class_counts(degrees, trunc_degree):
    """counts[w] = aperiodic cyclic classes of words of total degree w.

    Unique factorization into Lyndon words gives prod_w (1 - z^w)^-counts[w]
    = A(z) = 1/(1 - sum_j z^d_j). Comparing logarithmic derivatives, with
    t_e = sum_j d_j A_{e - d_j} the coefficients of z A'(z)/A(z), gives the
    weighted Witt formula t_e = sum_{w | e} w counts[w], which
    `arith.moebius_invert` inverts in place. These are also the Lyndon words
    of weight w, so `torsion.hilton_milnor_census` reads them as the
    multiplicities of the sphere factors S^(w+1).

    >>> _lyndon_class_counts((1, 1), 6)
    [0, 2, 1, 2, 3, 6, 9]
    """
    dims = tensor_algebra_dims(GradedAlphabet(degrees), trunc_degree)
    t = [0] * (trunc_degree + 1)
    for d in degrees:
        t[d:] = [x + d * y for x, y in zip(t[d:], dims)]
    moebius_invert(t)
    return [0, *map(floordiv, t[1:], range(1, trunc_degree + 1))]


def hh_necklace(a: GradedAlphabet, trunc_degree: int) -> HHDimTable:
    """HH table from signed necklace counts; hh1 = hh0 above degree 0 by rank-nullity.

    A degree-k class with minimal period weight w0 survives the signed cyclic
    action iff w0 * (k-1) is even.

    >>> hh_necklace(GradedAlphabet((2,)), 6).lx
    (1, 0, 1, 1, 1, 1, 1)
    """
    n = trunc_degree
    counts = _lyndon_class_counts(a.degrees, n)
    # a class of weight w counts in the degrees k it divides, odd k if w is odd
    hh0 = [1] + [0] * n
    for w in range(1, n + 1):
        if counts[w]:
            for k in range(w, n + 1, w if w % 2 == 0 else 2 * w):
                hh0[k] += counts[w]
    return _assemble(a, hh0, [0] + hh0[1:], n)


# -- growth of the free-loop table --------------------------------------------


class FreeLoopGrowthResult(_Record):
    """Controlled-growth verdict for lx against the loop-space log index."""

    __slots__ = __match_args__ = (
        "alphabet", "target", "check", "empirical", "log_index_match", "match_tol", "table",
    )

    @property
    def passed(self) -> bool:
        return self.check.passed and self.log_index_match


def free_loop_good_growth(
    a: GradedAlphabet,
    trunc_degree: int = 40,
    lam: float = 1.5,
    epsilon: float = 0.1,
    k_min: int = 10,
    match_tol: float | None = None,
    method: str = "necklace",
) -> FreeLoopGrowthResult:
    """Check good exponential growth of the free-loop table of a sphere wedge.

    The target rate is the exact log index of the loop series 1/(1 - sum z^d).
    A single generator is rejected: one sphere is rationally elliptic, and the
    growth statement is about hyperbolic wedges.

    The default log-index tolerance scales with the truncation as 3.2/N
    (0.08 at the reference N = 40): the finite-truncation deficit of the
    empirical maximum decays like log(N)/N, so a fixed tolerance would be
    wrong at every other N.
    """
    if len(a.degrees) < 2:
        from .loop import HypothesisError

        raise HypothesisError(
            "wedge with a single sphere is rationally elliptic; "
            "good exponential growth needs at least two summands"
        )
    check_growth_parameters(lam, epsilon, k_min, trunc_degree)
    if method not in ("necklace", "brute"):
        raise ValueError(f"unknown method {method!r}; use 'necklace' or 'brute'")
    if match_tol is not None and not (math.isfinite(match_tol) and match_tol >= 0):
        raise ValueError("log-index tolerance must be finite and nonnegative")
    gf = a.loop_gf()
    target = log_index_exact(smallest_positive_pole(gf)).value
    if method == "necklace":
        table = hh_necklace(a, trunc_degree)
    else:
        table = hh_bruteforce(a, trunc_degree)
    lx = TruncatedSeries.from_dims(table.lx)
    check, empirical = _growth_and_log_index(lx, target, lam, epsilon, k_min)
    if match_tol is None:
        match_tol = 3.2 / trunc_degree
    match = abs(empirical - target) <= match_tol
    return FreeLoopGrowthResult(
        alphabet=a,
        target=target,
        check=check,
        empirical=empirical,
        log_index_match=match,
        match_tol=match_tol,
        table=table,
    )
