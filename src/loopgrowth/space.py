"""Compositional space presentations: spheres, wedge, product, smash, suspension.

The expression language is

    expr  := wedge
    wedge := prod { "v" prod }
    prod  := smash { "x" smash }
    smash := atom { "^" atom }
    atom  := "S" integer | "Susp" "(" expr ")" | "(" expr ")"

with sphere dimension >= 2, precedence ^ over x over v, all operators left
associative, whitespace ignored. One table, `_OPERATORS`, drives `parse` and
`to_text`. `parse` lexes the text in one regex scan and keeps no offsets; an
error scans the text again for the offset it reports. The parser keeps
explicit stacks, so brackets nest to any depth;
a tree deeper than MAX_DEPTH levels is a ValueError, which keeps every
recursive tree walk (homology, profile, printing, loop series) inside the
default stack. So is a sphere past MAX_SPHERE_DIMENSION, which bounds the
series one sphere contributes. Every expressible space is simply connected with
finite-dimensional total homology, so its homology is an IntPolynomial with
constant term 1, nonnegative coefficients and a nonzero reduced part (each
rule keeps all three), and connectivity/dimension bounds are computed
structurally.

Parsing and printing need no other module of the package: the homology
functions import `polynomial` when they are called.
"""

from __future__ import annotations

import re
import sys

from . import _Record, _set


class ParseError(ValueError):
    """Syntax error with the offending offset and the expected token kinds."""

    report_kind = "parse-error"

    def __init__(self, message: str, offset: int, expected: tuple = ()):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset
        self.expected = expected


# -- AST --------------------------------------------------------------------


class SpaceExpr(_Record):
    """Base class; concrete nodes below are immutable and compare structurally."""

    __slots__ = ()


MAX_SPHERE_DIMENSION = 1000  # rho of S2 v S1000 takes about 0.2 s, of S2 v S10000 about 12 s


class Sphere(SpaceExpr):
    __slots__ = __match_args__ = ("n",)

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("spheres must be simply connected (n >= 2)")
        if n > MAX_SPHERE_DIMENSION:
            raise ValueError(f"sphere dimension exceeds the {MAX_SPHERE_DIMENSION} limit")
        _set(self, "n", n)


class _Binary(SpaceExpr):
    """A node with two operands; the subclass names the operator."""

    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left: SpaceExpr, right: SpaceExpr):
        _set(self, "left", left)
        _set(self, "right", right)


class Wedge(_Binary):
    __slots__ = ()


class Product(_Binary):
    __slots__ = ()


class Smash(_Binary):
    __slots__ = ()


class Susp(SpaceExpr):
    __slots__ = __match_args__ = ("inner",)

    def __init__(self, inner: SpaceExpr):
        _set(self, "inner", inner)


# -- parsing ------------------------------------------------------------------

MAX_DEPTH = 256  # deepest tree parse builds; every tree walk here recurses once per level

# symbol -> (precedence, node); all three operators are left associative
_OPERATORS = {"v": (1, Wedge), "x": (2, Product), "^": (3, Smash)}

# One scan cuts a text into lexemes and skips the whitespace between them. A
# `\S` match is one character, and one that is not an operator or a bracket
# is unexpected. A sphere lexeme is "S" and its index; "" marks the end.
# _VALID matches a text up to its first unexpected character; `re` compiles
# it on the first error, so a fresh process that parses compiles one pattern.
_LEXEME = re.compile(r"Susp|S\d+|[vx^()]|\S")
_VALID = r"(?:\s*(?:Susp|S\d+|[vx^()]))*\s*"
_ATOM_EXPECTED = ("S<int>", "Susp", "(")
# the most digits int() converts, 0 for no limit (none before Python 3.10.7)
_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _offset(text: str, i: int) -> int:
    """The offset of lexeme i of the text, or the text's length for the end."""
    offsets = list(map(re.Match.start, _LEXEME.finditer(text)))
    return offsets[i] if i < len(offsets) else len(text)


def _lexical_error(text: str):
    """The ParseError of the text's first invalid lexeme, or None if all are valid.

    A lexeme is invalid when it is an unexpected character, or a sphere
    index with more digits than int() converts. Every "S" of a text starts
    a lexeme, so the first such index is the first "S" followed by more
    digits than the limit.
    """
    bad = re.match(_VALID, text).end()
    limit = _max_str_digits()
    too_long = limit and re.compile(rf"S\d{{{limit + 1}}}").search(text, 0, bad)
    if too_long:
        return ParseError("sphere index has too many digits", too_long.start())
    if bad < len(text):
        return ParseError(f"unexpected character {text[bad]!r}", bad)
    return None


def parse(text: str) -> SpaceExpr:
    """Parse an expression; raises ParseError with offset and expected tokens.

    One regex scan cuts the text into lexemes, and operator precedence
    parsing (Floyd 1963) reads them in one loop: an operand is open
    brackets, a sphere, then closing brackets; an operator first reduces the
    pending operators that bind at least as tightly. The loop meets every
    lexeme before it returns and raises at any invalid one. Only then is the
    text checked for its first invalid lexeme in text order, which is raised
    before any grammar or depth error, and no offset is kept: an error scans
    the text again for its offset.

    >>> parse("S2 v S3 x S4")
    Wedge(left=Sphere(n=2), right=Product(left=Sphere(n=3), right=Sphere(n=4)))
    """
    try:
        return _parse(_LEXEME.findall(text), text)
    except ValueError as error:
        raise _lexical_error(text) or error from None


def _parse(lexemes: list, text: str) -> SpaceExpr:
    """The tree of the text's lexemes; a ValueError at the first error in parse order."""
    lexemes.append("")
    operands = []  # (tree, depth) pairs; a sphere has depth 0
    pending = []  # operator symbols, "(" and "Susp" (an open "Susp(")
    opened = 0
    i = 0

    def fail(expected):
        what = f"{lexemes[i][0]!r}" if lexemes[i] else "end of input"
        message = f"unexpected {what}; expected one of {', '.join(expected)}"
        raise ParseError(message, _offset(text, i), expected)

    def push(node, depth):
        if depth > MAX_DEPTH:
            raise ValueError(f"expression tree deeper than the {MAX_DEPTH} level limit")
        operands.append((node, depth))

    def reduce():
        (right, dr), (left, dl) = operands.pop(), operands.pop()
        push(_OPERATORS[pending.pop()][1](left, right), max(dl, dr) + 1)

    while True:
        lexeme = lexemes[i]
        while lexeme in ("(", "Susp"):
            if lexeme == "Susp":
                i += 1
                if lexemes[i] != "(":
                    fail(("(",))
            pending.append(lexeme)
            opened += 1
            i += 1
            lexeme = lexemes[i]
        if lexeme[:1] != "S":
            fail(_ATOM_EXPECTED)
        index = int(lexeme[1:])  # a lone "S" raises, and parse reports it as unexpected
        if index < 2:
            raise ParseError("spheres must be simply connected (n >= 2)", _offset(text, i))
        push(Sphere(index), 0)
        i += 1
        lexeme = lexemes[i]
        while lexeme == ")" and opened:
            while pending[-1] in _OPERATORS:
                reduce()
            if pending.pop() == "Susp":
                inner, depth = operands.pop()
                push(Susp(inner), depth + 1)
            opened -= 1
            i += 1
            lexeme = lexemes[i]
        if lexeme in _OPERATORS:
            prec = _OPERATORS[lexeme][0]
            while pending and pending[-1] in _OPERATORS and _OPERATORS[pending[-1]][0] >= prec:
                reduce()
            pending.append(lexeme)
            i += 1
            continue
        if opened:
            fail((")",))
        if lexeme:
            fail((*_OPERATORS, "end of input"))
        while pending:
            reduce()
        return operands[0][0]


# -- canonical printing -------------------------------------------------------

_PRINTED = {cls: (prec, symbol) for symbol, (prec, cls) in _OPERATORS.items()}


def to_text(expr: SpaceExpr) -> str:
    """Canonical form with minimal parentheses; parse(to_text(e)) == e.

    >>> to_text(parse("(S2 v S3) x S4"))
    '(S2 v S3) x S4'
    >>> to_text(parse("S2 v (S3 x S4)"))
    'S2 v S3 x S4'
    """
    return _render(expr, 0, False)


def _render(expr, parent_prec, is_right_child):
    if isinstance(expr, Sphere):
        return f"S{expr.n}"
    if isinstance(expr, Susp):
        return f"Susp({_render(expr.inner, 0, False)})"
    prec, symbol = _PRINTED[type(expr)]
    text = f"{_render(expr.left, prec, False)} {symbol} {_render(expr.right, prec, True)}"
    if prec < parent_prec or (prec == parent_prec and is_right_child):
        return f"({text})"
    return text


# -- homology -----------------------------------------------------------------


def homology_poly(x: SpaceExpr):
    """The Poincare polynomial of the rational homology, an IntPolynomial with constant 1.

    >>> homology_poly(parse("S2 x S3")).coeffs
    (1, 0, 1, 1, 0, 1)
    """
    from .polynomial import ONE

    return ONE + _reduced(x, ONE)


def reduced_poly(x: SpaceExpr):
    """The reduced homology polynomial, homology_poly(x) - 1: nonzero, coefficients >= 0."""
    from .polynomial import ONE

    return _reduced(x, ONE)


def _reduced(x: SpaceExpr, one):
    """The reduced homology polynomial; `one` is the constant IntPolynomial 1."""
    if isinstance(x, Sphere):
        return one.shift(x.n)
    if isinstance(x, Wedge):
        return _reduced(x.left, one) + _reduced(x.right, one)
    if isinstance(x, Product):
        left, right = _reduced(x.left, one), _reduced(x.right, one)
        return left + right + left * right
    if isinstance(x, Smash):
        return _reduced(x.left, one) * _reduced(x.right, one)
    if isinstance(x, Susp):
        return _reduced(x.inner, one).shift(1)
    raise TypeError(f"not a space expression: {x!r}")


# -- connectivity / dimension profile ------------------------------------------


class Profile(_Record):
    """Connectivity s (s-connected) and top nonzero degree d."""

    __slots__ = __match_args__ = ("connectivity", "dimension")


def profile(x: SpaceExpr) -> Profile:
    """Structural connectivity and dimension bounds; 1 <= s < d always holds.

    >>> profile(parse("Susp(S2 ^ S2)"))
    Profile(connectivity=4, dimension=5)
    """
    return Profile(*_profile_bounds(x))


def _profile_bounds(x: SpaceExpr):
    if isinstance(x, Sphere):
        return x.n - 1, x.n
    if isinstance(x, (Wedge, Product)):
        sl, dl = _profile_bounds(x.left)
        sr, dr = _profile_bounds(x.right)
        if isinstance(x, Wedge):
            return min(sl, sr), max(dl, dr)
        return min(sl, sr), dl + dr
    if isinstance(x, Smash):
        sl, dl = _profile_bounds(x.left)
        sr, dr = _profile_bounds(x.right)
        return sl + sr + 1, dl + dr
    if isinstance(x, Susp):
        s, d = _profile_bounds(x.inner)
        return s + 1, d + 1
    raise TypeError(f"not a space expression: {x!r}")


# -- wedge decomposition --------------------------------------------------------


class SphereList(_Record):
    """Multiset of sphere dimensions, sorted; the decomposition certificate.

    `spheres` is ((dimension, multiplicity), ...) sorted by dimension.
    """

    __slots__ = __match_args__ = ("spheres",)

    def __init__(self, spheres: tuple):
        _set(self, "spheres", spheres)

    def least_dimension(self) -> int:
        return self.spheres[0][0]


def is_rational_sphere_wedge(x: SpaceExpr) -> bool:
    """True when x splits rationally as a wedge of spheres.

    Spheres and suspensions qualify; wedges of qualifying pieces qualify; a
    smash qualifies when either factor does (a smash with a suspension is a
    suspension); products never do on their own.
    """
    if isinstance(x, (Sphere, Susp)):
        return True
    if isinstance(x, Wedge):
        return is_rational_sphere_wedge(x.left) and is_rational_sphere_wedge(x.right)
    if isinstance(x, Smash):
        return is_rational_sphere_wedge(x.left) or is_rational_sphere_wedge(x.right)
    return False


def wedge_decomposition(x: SpaceExpr) -> SphereList:
    """Sphere multiset read off the reduced homology of a rational sphere wedge.

    >>> wedge_decomposition(parse("Susp(S2 ^ (S2 v S3))")).spheres
    ((5, 1), (6, 1))
    """
    if not is_rational_sphere_wedge(x):
        raise ValueError("not rationally a wedge of spheres: product detected")
    spheres = tuple((dim, mult) for dim, mult in enumerate(reduced_poly(x).coeffs) if mult)
    return SphereList(spheres)
