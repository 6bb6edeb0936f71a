"""Independent reference implementations used to freeze expected values.

Everything here works on plain truncated coefficient lists with Fraction
arithmetic, with no shared code with the package: rational-function results
are checked against direct series manipulation, census counts against brute
word enumeration, Hochschild tables against theta on tuple words with a
fraction-free eliminator, and sparse ranks against dense elimination.

Two references use the package's series arithmetic instead of its
denominator rules: `loop_gf` and `inert_cofiber_loop_gf` combine normalized
`RationalGF`s by `*`, `+`, `-` and `reciprocal`, each step reduced by a
gcd. `count_calls` counts the calls of a package function wherever a
module binds it. `unit_grid_pole` finds a pole by the bare Descartes
search on the grid that a guarded series walks, and `guard_walk` by a plain
walk on its guards, one exact sign per midpoint. `parse` is the expression
parser as it was before the one-scan lexer: a loop over the text that
skips whitespace one character at a time and matches one token at a time,
keeping each token's offset.
"""

import importlib
import pkgutil
import re

from fractions import Fraction
from functools import reduce
from math import gcd, log

from loopgrowth.space import MAX_DEPTH, ParseError, Product, Smash, Sphere, Susp, Wedge


def tadd(a, b, n):
    out = [Fraction(0)] * (n + 1)
    for i in range(n + 1):
        if i < len(a):
            out[i] += Fraction(a[i])
        if i < len(b):
            out[i] += Fraction(b[i])
    return out


def _nonzero_terms(a, start, n):
    """(degree, Fraction) pairs of the nonzero coefficients in degrees start..n."""
    return [(i, Fraction(c)) for i, c in enumerate(a[: n + 1]) if i >= start and c != 0]


def tmul(a, b, n):
    out = [Fraction(0)] * (n + 1)
    b_terms = _nonzero_terms(b, 0, n)
    for i, ai in _nonzero_terms(a, 0, n):
        for j, bj in b_terms:
            if i + j > n:
                break
            out[i + j] += ai * bj
    return out


def trecip(a, n):
    # reciprocal of a power series with a[0] != 0
    a0 = Fraction(a[0])
    if a0 == 0:
        raise ZeroDivisionError("constant term is zero")
    terms = _nonzero_terms(a, 1, n)
    out = [Fraction(0)] * (n + 1)
    out[0] = 1 / a0
    for k in range(1, n + 1):
        s = Fraction(0)
        for j, aj in terms:
            if j > k:
                break
            s += aj * out[k - j]
        out[k] = -s / a0
    return out

def tshift(a, k, n):
    out = [Fraction(0)] * (n + 1)
    for i, c in enumerate(a):
        if i + k <= n:
            out[i + k] = Fraction(c)
    return out


def dense_product(a, b):
    """Coefficients of the product of two integer coefficient lists, every pair of terms visited."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return out


def texpand(num, den, n):
    """Expansion of num/den as lists of coefficients, exact."""
    return tmul(list(num), trecip(list(den), n), n)


def word_count_series(degrees, n):
    """dim of the free associative algebra on generators of the given degrees."""
    dims = [0] * (n + 1)
    dims[0] = 1
    for k in range(1, n + 1):
        dims[k] = sum(dims[k - d] for d in degrees if k >= d)
    return dims


def all_words(alphabet_size, length):
    if length == 0:
        return [()]
    return [
        w + (c,)
        for w in all_words(alphabet_size, length - 1)
        for c in range(alphabet_size)
    ]


def is_lyndon(w):
    """Strictly smallest among its rotations."""
    n = len(w)
    return all(w < w[i:] + w[:i] for i in range(1, n))


def brute_lyndon(alphabet_size, max_len):
    out = []
    for length in range(1, max_len + 1):
        out.extend(w for w in all_words(alphabet_size, length) if is_lyndon(w))
    return sorted(out)


def dense_rank(rows, ncols):
    """Gaussian elimination over Fractions on dense copies of sparse rows."""
    mat = []
    for row in rows:
        dense = [Fraction(0)] * ncols
        for c, v in row.items():
            dense[c] = Fraction(v)
        mat.append(dense)
    rank = 0
    col = 0
    nrows = len(mat)
    while rank < nrows and col < ncols:
        pivot = next((i for i in range(rank, nrows) if mat[i][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][col]
        for i in range(rank + 1, nrows):
            if mat[i][col] != 0:
                f = mat[i][col] / pv
                for j in range(col, ncols):
                    mat[i][j] -= f * mat[rank][j]
        rank += 1
        col += 1
    return rank


def exact_rank(rows):
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


def words_by_degree(degrees, n):
    """words[k] lists all tuples of generator indices with total degree k."""
    words = [[] for _ in range(n + 1)]
    words[0].append(())
    for k in range(1, n + 1):
        for j, d in enumerate(degrees):
            if k >= d:
                words[k].extend(w + (j,) for w in words[k - d])
    return words


def hh_by_words(degrees, n):
    """(hh0, hh1) of T(V) from theta on tuple words and the eliminator above.

    theta(w (x) v_j) = w v_j - (-1)^(|w| d_j) v_j w, a row of integer
    coefficients indexed by the positions of the words in their degree.
    """
    words = words_by_degree(degrees, n)
    hh0, hh1 = [], []
    for k in range(n + 1):
        index = {w: i for i, w in enumerate(words[k])}
        rows = []
        for j, d in enumerate(degrees):
            if k < d:
                continue
            sign = -1 if ((k - d) * d) % 2 else 1
            for w in words[k - d]:
                row = {}
                for col, v in ((index[w + (j,)], 1), (index[(j,) + w], -sign)):
                    row[col] = row.get(col, 0) + v
                rows.append(row)
        rank = exact_rank(rows)
        hh0.append(len(words[k]) - rank)
        hh1.append(len(rows) - rank)
    return hh0, hh1


def mobius(n):
    """Moebius function by factoring out every divisor in turn."""
    out, p = 1, 2
    while n > 1:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return out


def lyndon_counts_by_length(degrees, n):
    """Aperiodic cyclic classes by total degree, from a length-by-degree table.

    words[w][l] counts words of degree w and length l; the classes of length
    l and degree w are sum_{e | gcd(w, l)} mu(e) words[w/e][l/e] / l.
    """
    maxlen = n // min(degrees)
    words = [[0] * (maxlen + 1) for _ in range(n + 1)]
    words[0][0] = 1
    for w in range(1, n + 1):
        for l in range(1, maxlen + 1):
            words[w][l] = sum(words[w - d][l - 1] for d in degrees if w >= d)
    counts = [0] * (n + 1)
    for w in range(1, n + 1):
        for l in range(1, maxlen + 1):
            g = gcd(w, l)
            aperiodic = sum(
                mobius(e) * words[w // e][l // e] for e in range(1, g + 1) if g % e == 0
            )
            counts[w] += aperiodic // l
    return counts


def signed_necklace_hh0(degrees, k):
    """Count cyclic word classes of degree k alive under the signed rotation.

    Walks every word explicitly: a class dies when some rotation returns the
    word with accumulated sign -1. Exponential; for small cross-checks only.
    """
    if k == 0:
        return 1
    words = []

    def grow(prefix, weight):
        if weight == k:
            words.append(prefix)
            return
        for j, d in enumerate(degrees):
            if weight + d <= k:
                grow(prefix + (j,), weight + d)

    grow((), 0)
    seen = set()
    alive = 0
    for w in words:
        if w in seen:
            continue
        orbit = {w}
        cur = w
        sign = 1
        dead = False
        for _ in range(len(w)):
            d = degrees[cur[0]]
            sign *= -1 if (d * (k - d)) % 2 else 1
            cur = cur[1:] + (cur[0],)
            orbit.add(cur)
            if cur == w and sign == -1:
                dead = True
        seen |= orbit
        if not dead:
            alive += 1
    return alive


def smallest_positive_rational_root(coeffs):
    """Every divisor pair p | f(0), q | lc(f), evaluated exactly; None if no root."""
    def divs(n):
        return [d for d in range(1, abs(n) + 1) if n % d == 0]

    roots = [
        Fraction(p, q)
        for p in divs(coeffs[0])
        for q in divs(coeffs[-1])
        if sum(c * Fraction(p, q) ** i for i, c in enumerate(coeffs)) == 0
    ]
    return min(roots, default=None)


def _sign_at_ratio(coeffs, p, q):
    """Sign of f(p/q), q > 0: the sign of q^n f(p/q), summed term by term over the nonzero terms."""
    n = len(coeffs) - 1
    v = sum(c * p**i * q ** (n - i) for i, c in enumerate(coeffs) if c)
    return (v > 0) - (v < 0)


def bisect_reference(coeffs, tol, lo, hi):
    """Halve (lo, hi] by midpoint signs until it is at most tol wide.

    The bisection loop as `series._bisect` ran it before it jumped to its
    cell, with signs from `_sign_at_ratio`: it returns the midpoint when one
    is the root, and keeps halving from lo = 0 while the cell is the first.
    """
    d = lo.denominator * hi.denominator
    a, b = lo.numerator * hi.denominator, hi.numerator * lo.denominator
    s_lo = _sign_at_ratio(coeffs, a, d)
    while a == 0 or (b - a) * tol.denominator > tol.numerator * d:
        m, d = a + b, 2 * d
        s_mid = _sign_at_ratio(coeffs, m, d)
        if s_mid == 0:
            return Fraction(m, d), Fraction(m, d)
        if s_mid == s_lo:
            a, b = m, 2 * b
        else:
            a, b = 2 * a, m
    return Fraction(a, d), Fraction(b, d)


def _monic_gcd(f, g):
    """The monic gcd over Q of two coefficient lists, low degree first, by Euclid on Fractions."""
    def trimmed(c):
        c = list(c)
        while c and c[-1] == 0:
            c.pop()
        return c

    f, g = trimmed(map(Fraction, f)), trimmed(map(Fraction, g))
    while g:
        while len(f) >= len(g):
            c, k = f[-1] / g[-1], len(f) - len(g)
            f = trimmed([x - c * g[i - k] if i >= k else x for i, x in enumerate(f)])
        f, g = g, f
    return [x / f[-1] for x in f]


def guard_walk(inner, top, tol):
    """(lo, hi, G) of a tree-built series' pole, G monic, by a plain walk on its guards.

    inner and top are the guards' coefficient lists. The walk halves (0, 1]
    on the least guard sign, one exact sign per midpoint, to width <= tol,
    and from 0 past the first cell, as `bisect_reference` does. Then it
    descends one level at a time, by the same sign, to the first cell
    (lo, hi] that the guard rule certifies: every inner guard is positive
    at hi, and the top guards that are not have a gcd G that vanishes at
    hi, the answer (hi, hi), or has opposite signs at lo and hi. A midpoint
    where the least sign is 0 is the cell (m, m).
    """
    def least(p, q):
        return min(_sign_at_ratio(g, p, q) for g in inner + top)

    def certified(a, b, d):
        if any(_sign_at_ratio(g, b, d) <= 0 for g in inner):
            return None
        # gcd(0, g) is g made monic
        common = reduce(_monic_gcd, [g for g in top if _sign_at_ratio(g, b, d) <= 0], [0])
        s_hi = _sign_at_ratio(common, b, d)
        if s_hi == 0:
            return Fraction(b, d), Fraction(b, d), common
        if s_hi * _sign_at_ratio(common, a, d) < 0:
            return Fraction(a, d), Fraction(b, d), common
        return None

    a, b, d = 0, 1, 1
    while True:
        if a and (b - a) * tol.denominator <= tol.numerator * d:
            found = certified(a, b, d)
            if found is not None:
                return found
        m, d = a + b, 2 * d
        s_mid = least(m, d)
        if s_mid == 0:
            return certified(m, m, d)
        if s_mid > 0:
            a, b = m, 2 * b
        else:
            a, b = 2 * a, m


def _log_fraction(q):
    return log(q.numerator) - log(q.denominator)


def log_index_empirical(s, tail_start):
    """The per-degree loop of `series.log_index_empirical` before its rate pass."""
    if not 0 <= tail_start <= s.trunc_degree:
        raise ValueError("tail start outside the truncation range")
    best = None
    for i in range(max(tail_start, 1), s.trunc_degree + 1):
        c = s[i]
        if c <= 0:
            if c < 0:
                raise ValueError("series has negative coefficients; growth undefined")
            continue
        v = _log_fraction(c) / i
        if best is None or v > best:
            best = v
    if best is None:
        raise ValueError("series has no tail growth to measure")
    return best


def controlled_growth_check(s, target, lam, epsilon, k_min):
    """(passed, sequence, alphas) by the loops of `series.controlled_growth_check`
    before its rate pass, after the same parameter checks."""
    seq = []
    alphas = []
    for n in range(k_min, s.trunc_degree + 1):
        c = s[n]
        if c < 0:
            raise ValueError("series has negative coefficients; growth undefined")
        if c == 0:
            continue
        alpha = _log_fraction(c) / n
        if abs(alpha - target) <= epsilon:
            seq.append(n)
            alphas.append(alpha)
    passed = bool(seq)
    if passed and seq[0] >= lam * k_min:
        passed = False
    if passed:
        for prev, nxt in zip(seq, seq[1:]):
            if nxt >= lam * prev:
                passed = False
                break
    if passed and lam * seq[-1] < s.trunc_degree:
        passed = False
    return passed, tuple(seq), tuple(alphas)


def hh_table_error(hh0, hh1, lx):
    """The message `freeloop.HHDimTable` raises for a table of equal lengths,
    by its per-degree loop before the whole-tuple checks, or None."""
    if min(hh0 + hh1 + lx) < 0:
        return "negative dimension in the table"
    for k in range(len(hh0)):
        if hh0[k] - hh1[k] != (k == 0):
            return f"rank-nullity violated at degree {k}"
        if lx[k] != hh0[k] + (hh1[k - 1] if k >= 1 else 0):
            return f"free-loop assembly rule violated at degree {k}"
    return None


def from_dims_error(dims):
    """The message `TruncatedSeries.from_dims` raises, by its per-degree loop
    before the whole-sequence checks, or None."""
    for i, c in enumerate(dims):
        if not isinstance(c, int) or isinstance(c, bool) or c < 0:
            return f"dimension at degree {i} must be a nonnegative integer"
    return None


def count_calls(monkeypatch, module, name):
    """The argument tuples of every call of module.name, at each package module that binds it."""
    import loopgrowth

    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for info in pkgutil.iter_modules(loopgrowth.__path__):
        owner = importlib.import_module(f"loopgrowth.{info.name}")
        if owner.__dict__.get(name) is original:
            monkeypatch.setattr(owner, name, counted)
    return calls


def unit_grid_pole(gf):
    """(lo, hi) of gf's pole by the bare search, on the grid of (0, 1] that a guarded series walks.

    A rational pole is pinned by the bare series' rational-root exit; any
    other is the Descartes cell of the denominator's squarefree part, so
    no guard is read.
    """
    from loopgrowth import series
    from loopgrowth.polynomial import squarefree_part

    bare = series.smallest_positive_pole(series.RationalGF(gf.num, gf.den))
    if bare.is_exact:
        return bare.lo, bare.hi
    f = squarefree_part(gf.den if gf.den.leading() > 0 else -gf.den)
    cell = next(series._isolating_cells(f, Fraction(0), Fraction(1)), None)
    if cell is None or cell[0] == cell[1]:
        return cell
    return series._bisect(f, series.DEFAULT_POLE_TOLERANCE, *cell)


def reduced_gf(x):
    """The reduced homology series, homology_poly(x) - 1, as a `RationalGF`."""
    from loopgrowth.polynomial import ONE
    from loopgrowth.series import RationalGF
    from loopgrowth.space import homology_poly

    return RationalGF(homology_poly(x) - ONE, ONE)


def loop_gf(x):
    """The loop series by the closed rules, in normalized `RationalGF` arithmetic."""
    from loopgrowth.loop import NotExpressibleError
    from loopgrowth.series import RationalGF
    from loopgrowth.space import Product, Smash, Sphere, Susp, Wedge, is_rational_sphere_wedge

    one = RationalGF.constant(1)
    if isinstance(x, Sphere):
        return RationalGF.from_coeffs([1], [1] + [0] * (x.n - 2) + [-1])
    if isinstance(x, Product):
        return loop_gf(x.left) * loop_gf(x.right)
    if isinstance(x, Susp):
        return (one - reduced_gf(x.inner)).reciprocal()
    if isinstance(x, Wedge):
        return (loop_gf(x.left).reciprocal() + loop_gf(x.right).reciprocal() - one).reciprocal()
    if isinstance(x, Smash):
        if not is_rational_sphere_wedge(x):
            raise NotExpressibleError("loop series not expressible: smash has no suspension factor")
        red = reduced_gf(x)
        return (one - RationalGF.from_coeffs(red.num.coeffs[1:], red.den.coeffs)).reciprocal()
    raise TypeError(f"not a space expression: {x!r}")


def loop_den(x):
    """(D, exponents, guards) of the loop series 1/D, every product taken dense.

    exponents are the a of D = prod (1 - z^a), sorted, for a product of
    spheres, and None otherwise. guards are (inner, top) by the rules of
    the `loop` module docstring, each kept once: a sphere has the top guard
    1 - x, a product keeps its factors' guards apart from their nodes', and
    any other node's top guard is its own D.
    """
    from loopgrowth.polynomial import ONE, IntPolynomial
    from loopgrowth.space import Product, Sphere, Wedge

    def distinct(polys):
        return tuple(dict.fromkeys(polys))

    if isinstance(x, Sphere):
        den = IntPolynomial((1,) + (0,) * (x.n - 2) + (-1,))
        return den, (x.n - 1,), ((), (IntPolynomial((1, -1)),))
    if isinstance(x, (Product, Wedge)):
        dx, ex, (ix, tx) = loop_den(x.left)
        dy, ey, (iy, ty) = loop_den(x.right)
        if isinstance(x, Product):
            exponents = None if ex is None or ey is None else tuple(sorted(ex + ey))
            den = IntPolynomial(dense_product(dx.coeffs, dy.coeffs))
            return den, exponents, (distinct(ix + iy), distinct(tx + ty))
        den = dx + dy - ONE
        return den, None, (distinct(ix + tx + iy + ty), (den,))
    den = loop_gf(x).den
    return den, None, ((), (den,))


def inert_cofiber_loop_gf(c):
    """OmegaZ * (1 - redA * OmegaZ)^-1, in normalized `RationalGF` arithmetic."""
    from loopgrowth.series import RationalGF

    oz = loop_gf(c.Z)
    return oz * (RationalGF.constant(1) - reduced_gf(c.A) * oz).reciprocal()


# -- the expression parser, token by token ----------------------------------------

_OPERATORS = {"v": (1, Wedge), "x": (2, Product), "^": (3, Smash)}

_TOKEN_RE = re.compile(r"Susp|S(\d+)|[vx^()]")
_ATOM_EXPECTED = ("S<int>", "Susp", "(")


def _tokenize(text: str):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        lexeme, digits = m.group(0, 1)
        if digits is not None:
            try:
                index = int(digits)
            except ValueError:  # past the interpreter's integer digit limit
                raise ParseError("sphere index has too many digits", pos) from None
            tokens.append(("SPHERE", index, pos))
        else:
            tokens.append(("SUSP" if lexeme == "Susp" else lexeme, None, pos))
        pos = m.end()
    tokens.append(("END", None, n))
    return tokens


def parse(text: str):
    """The tree of an expression, or its ParseError or depth ValueError, token by token."""
    tokens = _tokenize(text)
    operands = []  # (tree, depth) pairs; a sphere has depth 0
    pending = []  # operator symbols, "(" and "SUSP" (an open "Susp(")
    opened = 0
    i = 0

    def fail(expected):
        kind, _, offset = tokens[i]
        what = "end of input" if kind == "END" else f"{text[offset]!r}"
        message = f"unexpected {what}; expected one of {', '.join(expected)}"
        raise ParseError(message, offset, expected)

    def push(node, depth):
        if depth > MAX_DEPTH:
            raise ValueError(f"expression tree deeper than the {MAX_DEPTH} level limit")
        operands.append((node, depth))

    def reduce():
        (right, dr), (left, dl) = operands.pop(), operands.pop()
        push(_OPERATORS[pending.pop()][1](left, right), max(dl, dr) + 1)

    while True:
        kind, value, offset = tokens[i]
        while kind in ("(", "SUSP"):
            if kind == "SUSP":
                i += 1
                if tokens[i][0] != "(":
                    fail(("(",))
            pending.append(kind)
            opened += 1
            i += 1
            kind, value, offset = tokens[i]
        if kind != "SPHERE":
            fail(_ATOM_EXPECTED)
        if value < 2:
            raise ParseError("spheres must be simply connected (n >= 2)", offset)
        push(Sphere(value), 0)
        i += 1
        kind = tokens[i][0]
        while kind == ")" and opened:
            while pending[-1] in _OPERATORS:
                reduce()
            if pending.pop() == "SUSP":
                inner, depth = operands.pop()
                push(Susp(inner), depth + 1)
            opened -= 1
            i += 1
            kind = tokens[i][0]
        if kind in _OPERATORS:
            prec = _OPERATORS[kind][0]
            while pending and pending[-1] in _OPERATORS and _OPERATORS[pending[-1]][0] >= prec:
                reduce()
            pending.append(kind)
            i += 1
            continue
        if opened:
            fail((")",))
        if kind != "END":
            fail((*_OPERATORS, "end of input"))
        while pending:
            reduce()
        return operands[0][0]
