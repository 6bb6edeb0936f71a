"""Free-loop homology of wedges of spheres via Hochschild homology.

For X a simply connected wedge of spheres, H_*(Omega X) is the tensor algebra
A = T(V) on graded generators V (one generator of degree n-1 per wedge summand
S^n), and H_*(LX) is the Hochschild homology of A. Tensor algebras have
HH_p = 0 for p >= 2, and the two surviving layers are the cokernel and kernel
of the graded-commutator map

    theta : (A (x) V)_k -> A_k,   theta(a (x) v) = a v - (-1)^{|a||v|} v a.

The free-loop dimension table is lx[k] = hh0[k] + hh1[k-1] (internal degree
bookkeeping: HH_1 in internal degree k-1 lands in total degree k).

Two independent paths compute the table. The brute-force path materializes
theta on the word basis and takes exact integer ranks. The necklace path
counts coinvariants of the signed cyclic rotation action on degree-k words:
a cyclic class survives unless some rotation carries the word to minus
itself, which happens exactly when w0 * (k-1) is odd for w0 the weight of the
word's minimal period (rotating a letter of degree d past the rest
contributes (-1)^(d*(k-d)), and summing over one period collapses to that
parity). hh1 then follows from rank-nullity.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .arith import divisors, mobius
from .series import (
    RationalGF,
    TruncatedSeries,
    controlled_growth_check,
    GrowthCheckResult,
    log_index_empirical,
    log_index_exact,
    smallest_positive_pole,
)
from .loop import HypothesisError

BRUTE_FORCE_WORD_LIMIT = 10**7


@dataclass(frozen=True)
class GradedAlphabet:
    """Multiset of generator degrees, each >= 1, sorted on construction."""

    degrees: tuple

    def __post_init__(self):
        degs = tuple(sorted(int(d) for d in self.degrees))
        if not degs:
            raise ValueError("alphabet must have at least one generator")
        if degs[0] < 1:
            raise ValueError("generator degrees must be positive")
        object.__setattr__(self, "degrees", degs)

    @classmethod
    def from_sphere_dimensions(cls, dims) -> "GradedAlphabet":
        return cls(tuple(n - 1 for n in dims))

    def loop_gf(self) -> RationalGF:
        """1/(1 - sum z^d): the loop series of the corresponding sphere wedge."""
        den = [1] + [0] * max(self.degrees)
        for d in self.degrees:
            den[d] -= 1
        return RationalGF.from_coeffs([1], den)


def tensor_algebra_dims(a: GradedAlphabet, trunc_degree: int) -> tuple:
    """dim A_k for k = 0..N; A_k counts words with total degree k.

    >>> tensor_algebra_dims(GradedAlphabet((1, 2)), 8)
    (1, 1, 2, 3, 5, 8, 13, 21, 34)
    """
    dims = [0] * (trunc_degree + 1)
    dims[0] = 1
    for k in range(1, trunc_degree + 1):
        dims[k] = sum(dims[k - d] for d in a.degrees if k >= d)
    return tuple(dims)


@dataclass(frozen=True)
class HHDimTable:
    """hh0, hh1 and the assembled free-loop table lx, exact integers.

    Invariants checked on construction: entries nonnegative, rank-nullity
    hh0[k] - hh1[k] = dim A_k - dim (A (x) V)_k, and the assembly rule
    lx[k] = hh0[k] + hh1[k-1].
    """

    alphabet: GradedAlphabet
    hh0: tuple
    hh1: tuple
    lx: tuple
    trunc_degree: int

    def __post_init__(self):
        n = self.trunc_degree
        if not (len(self.hh0) == len(self.hh1) == len(self.lx) == n + 1):
            raise ValueError("table lengths must match the truncation degree")
        if any(v < 0 for v in self.hh0 + self.hh1 + self.lx):
            raise ValueError("negative dimension in the table")
        dims = tensor_algebra_dims(self.alphabet, n)
        for k in range(n + 1):
            av = sum(dims[k - d] for d in self.alphabet.degrees if k >= d)
            if self.hh0[k] - self.hh1[k] != dims[k] - av:
                raise ValueError(f"rank-nullity violated at degree {k}")
            if self.lx[k] != self.hh0[k] + (self.hh1[k - 1] if k >= 1 else 0):
                raise ValueError(f"free-loop assembly rule violated at degree {k}")


def _assemble(alphabet, hh0, hh1, n) -> HHDimTable:
    lx = tuple(
        hh0[k] + (hh1[k - 1] if k >= 1 else 0) for k in range(n + 1)
    )
    return HHDimTable(alphabet, tuple(hh0), tuple(hh1), lx, n)


# -- brute force: theta on the word basis, exact integer ranks ---------------


def _words_by_degree(degrees, trunc_degree):
    """words[k] lists all tuples of generator indices with total degree k."""
    words = [[] for _ in range(trunc_degree + 1)]
    words[0].append(())
    for k in range(1, trunc_degree + 1):
        for j, d in enumerate(degrees):
            if k >= d:
                words[k].extend(w + (j,) for w in words[k - d])
    return words


def exact_rank(rows) -> int:
    """Rank over Q of sparse integer rows (dicts col -> coeff), fraction free.

    Incremental echelon: each incoming row is cross-multiplied against the
    stored pivot rows until it either vanishes or lands a new pivot column.
    """
    pivots = {}
    rank = 0
    for row in rows:
        row = {c: v for c, v in row.items() if v}
        while row:
            c = min(row)
            if c not in pivots:
                g = 0
                for v in row.values():
                    g = gcd(g, v)
                if g > 1:
                    row = {col: v // g for col, v in row.items()}
                pivots[c] = row
                rank += 1
                break
            p = pivots[c]
            a, b = p[c], row[c]
            new = {col: a * v for col, v in row.items()}
            for col, v in p.items():
                new[col] = new.get(col, 0) - b * v
            row = {col: v for col, v in new.items() if v}
    return rank


def hh_bruteforce(a: GradedAlphabet, trunc_degree: int) -> HHDimTable:
    """HH table by materializing theta and taking exact ranks.

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
    words = _words_by_degree(degrees, n)
    index = [{w: i for i, w in enumerate(ws)} for ws in words]

    def rank_at(k):
        idx = index[k]
        rows = []
        for j, d in enumerate(degrees):
            if k < d:
                continue
            sign = -1 if ((k - d) * d) % 2 else 1
            for w in words[k - d]:
                wv = idx[w + (j,)]
                vw = idx[(j,) + w]
                if wv == vw:
                    row = {wv: 1 - sign}
                else:
                    row = {wv: 1, vw: -sign}
                rows.append(row)
        return exact_rank(rows)

    ranks = [rank_at(k) for k in range(n + 1)]
    hh0, hh1 = [], []
    for k in range(n + 1):
        av = sum(dims[k - d] for d in degrees if k >= d)
        hh0.append(dims[k] - ranks[k])
        hh1.append(av - ranks[k])
    return _assemble(a, hh0, hh1, n)


# -- necklace path: signed cyclic coinvariants --------------------------------


def _lyndon_class_counts(degrees, trunc_degree):
    """counts[w] = aperiodic cyclic classes of words of total degree w."""
    n = trunc_degree
    maxlen = n // min(degrees)
    words = [[0] * (maxlen + 1) for _ in range(n + 1)]
    words[0][0] = 1
    for w in range(1, n + 1):
        row = words[w]
        for l in range(1, maxlen + 1):
            row[l] = sum(words[w - d][l - 1] for d in degrees if w >= d)
    counts = [0] * (n + 1)
    for w in range(1, n + 1):
        total = 0
        for l in range(1, maxlen + 1):
            if words[w][l] == 0:
                continue
            aperiodic = 0
            for e in divisors(gcd(w, l)):
                aperiodic += mobius(e) * words[w // e][l // e]
            total += aperiodic // l
        counts[w] = total
    return counts


def hh_necklace(a: GradedAlphabet, trunc_degree: int) -> HHDimTable:
    """HH table from signed necklace counts; hh1 via rank-nullity.

    A degree-k class with minimal period weight w0 survives the signed cyclic
    action iff w0 * (k-1) is even.

    >>> hh_necklace(GradedAlphabet((2,)), 6).lx
    (1, 0, 1, 1, 1, 1, 1)
    """
    n = trunc_degree
    degrees = a.degrees
    counts = _lyndon_class_counts(degrees, n)
    dims = tensor_algebra_dims(a, n)

    def hh0_at(k):
        if k == 0:
            return 1
        total = 0
        for w in divisors(k):
            if w <= n and counts[w] and (k % 2 == 1 or w % 2 == 0):
                total += counts[w]
        return total

    hh0 = [hh0_at(k) for k in range(n + 1)]
    hh1 = []
    for k in range(n + 1):
        av = sum(dims[k - d] for d in degrees if k >= d)
        hh1.append(hh0[k] - dims[k] + av)
    return _assemble(a, hh0, hh1, n)


# -- growth of the free-loop table --------------------------------------------


@dataclass(frozen=True)
class FreeLoopGrowthResult:
    """Controlled-growth verdict for lx against the loop-space log index."""

    alphabet: GradedAlphabet
    target: float
    check: GrowthCheckResult
    empirical: float
    log_index_match: bool
    match_tol: float
    table: HHDimTable

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
        raise HypothesisError(
            "wedge with a single sphere is rationally elliptic; "
            "good exponential growth needs at least two summands"
        )
    gf = a.loop_gf()
    target = log_index_exact(smallest_positive_pole(gf)).value
    if method == "necklace":
        table = hh_necklace(a, trunc_degree)
    elif method == "brute":
        table = hh_bruteforce(a, trunc_degree)
    else:
        raise ValueError(f"unknown method {method!r}; use 'necklace' or 'brute'")
    if match_tol is None:
        match_tol = 3.2 / trunc_degree
    lx = TruncatedSeries.from_dims(table.lx)
    check = controlled_growth_check(lx, target, lam, epsilon, k_min)
    empirical = log_index_empirical(lx, k_min)
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
