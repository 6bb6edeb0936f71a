"""Space expressions: grammar, homology series, profiles, wedge decompositions."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from loopgrowth.loop import CofiberPresentation
from loopgrowth.polynomial import ONE, IntPolynomial
from loopgrowth.space import (
    MAX_DEPTH,
    MAX_SPHERE_DIMENSION,
    ParseError,
    Product,
    Smash,
    Sphere,
    Susp,
    Wedge,
    homology_poly,
    is_rational_sphere_wedge,
    parse,
    profile,
    reduced_poly,
    to_text,
    wedge_decomposition,
)


# -- parsing -------------------------------------------------------------------


class TestParse:
    def test_sphere(self):
        assert parse("S3") == Sphere(3)
        # any Unicode decimal digits, as int() reads them
        assert parse("S\u0663 v S2") == parse("S\uff13 v S2") == Wedge(Sphere(3), Sphere(2))
        assert parse("S1\u0662") == Sphere(12)

    def test_wedge(self):
        assert parse("S2 v S2") == Wedge(Sphere(2), Sphere(2))

    def test_precedence_smash_product_wedge(self):
        got = parse("Susp(S2 ^ S3) x S4")
        assert got == Product(Susp(Smash(Sphere(2), Sphere(3))), Sphere(4))

    def test_precedence_chain(self):
        got = parse("S2 v S3 ^ S4 x S5")
        assert got == Wedge(Sphere(2), Product(Smash(Sphere(3), Sphere(4)), Sphere(5)))

    def test_left_associativity(self):
        assert parse("S2 v S3 v S4") == Wedge(Wedge(Sphere(2), Sphere(3)), Sphere(4))
        assert parse("S2 x S3 x S4") == Product(Product(Sphere(2), Sphere(3)), Sphere(4))

    def test_parens_override(self):
        assert parse("S2 v (S3 v S4)") == Wedge(Sphere(2), Wedge(Sphere(3), Sphere(4)))

    def test_whitespace_insensitive(self):
        assert parse(" S2\tv\nS3 ") == parse("S2vS3") == Wedge(Sphere(2), Sphere(3))
        for space in ("\u2003", "\x85", "\u3000", "\x1c"):
            assert parse(f"S2{space}v S3") == Wedge(Sphere(2), Sphere(3))

    def test_sphere_must_be_simply_connected(self):
        with pytest.raises(ParseError, match="simply connected") as err:
            parse("S1")
        assert err.value.offset == 0

    def test_sphere_index_past_the_digit_limit_is_a_parse_error(self):
        # int() refuses more than 4,300 digits; the sphere's offset is reported
        with pytest.raises(ParseError, match="too many digits") as err:
            parse("S2 v S" + "9" * 5000)
        assert err.value.offset == 5

    def test_sphere_node_validates_too(self):
        with pytest.raises(ValueError, match="simply connected"):
            Sphere(1)

    def test_sphere_dimension_limit(self):
        assert MAX_SPHERE_DIMENSION == 1000
        assert parse("S2 v S1000") == Wedge(Sphere(2), Sphere(1000))
        for text in ("S1001", "S2 v S1001", "S" + "9" * 4000):
            with pytest.raises(ValueError, match="exceeds the 1000 limit") as err:
                parse(text)
            assert not isinstance(err.value, ParseError)
        with pytest.raises(ValueError, match="exceeds the 1000 limit"):
            Sphere(1001)

    def test_error_reports_offset_and_expected(self):
        with pytest.raises(ParseError) as err:
            parse("S2 v v S3")
        assert err.value.offset == 5
        assert set(err.value.expected) == {"S<int>", "Susp", "("}
        assert "at offset 5" in str(err.value)

    def test_error_at_end_of_input(self):
        with pytest.raises(ParseError, match="end of input") as err:
            parse("S2 v")
        assert err.value.offset == 4

    def test_error_missing_close_paren(self):
        with pytest.raises(ParseError) as err:
            parse("(S2 v S3")
        assert err.value.expected == (")",)

    def test_error_susp_needs_parens(self):
        with pytest.raises(ParseError) as err:
            parse("Susp S2")
        assert err.value.expected == ("(",)

    def test_error_trailing_garbage(self):
        with pytest.raises(ParseError) as err:
            parse("S2 S3")
        assert err.value.offset == 3
        assert "end of input" in err.value.expected

    def test_error_unknown_character(self):
        with pytest.raises(ParseError, match="unexpected character") as err:
            parse("S2 & S3")
        assert err.value.offset == 3


# every error input of this file and of the benchmark's invalid requests, with
# (message, offset, expected) as the recursive-descent parser reported them;
# from "S2 v v S3 %" on, as the token-by-token parser (`oracles.parse`) did
FROZEN_ERRORS = [
    ("S2 v", "unexpected end of input; expected one of S<int>, Susp, ( at offset 4", 4,
     ("S<int>", "Susp", "(")),
    ("S2 + S3", "unexpected character '+' at offset 3", 3, ()),
    ("(S2 v S3", "unexpected end of input; expected one of ) at offset 8", 8, (")",)),
    ("S1 v S2", "spheres must be simply connected (n >= 2) at offset 0", 0, ()),
    ("Susp S2", "unexpected 'S'; expected one of ( at offset 5", 5, ("(",)),
    ("S2 x", "unexpected end of input; expected one of S<int>, Susp, ( at offset 4", 4,
     ("S<int>", "Susp", "(")),
    ("", "unexpected end of input; expected one of S<int>, Susp, ( at offset 0", 0,
     ("S<int>", "Susp", "(")),
    ("S2 v S3)", "unexpected ')'; expected one of v, x, ^, end of input at offset 7", 7,
     ("v", "x", "^", "end of input")),
    ("x S2", "unexpected 'x'; expected one of S<int>, Susp, ( at offset 0", 0,
     ("S<int>", "Susp", "(")),
    ("S2 ^^ S3", "unexpected '^'; expected one of S<int>, Susp, ( at offset 4", 4,
     ("S<int>", "Susp", "(")),
    ("S1", "spheres must be simply connected (n >= 2) at offset 0", 0, ()),
    ("S2 v v S3", "unexpected 'v'; expected one of S<int>, Susp, ( at offset 5", 5,
     ("S<int>", "Susp", "(")),
    ("S2 S3", "unexpected 'S'; expected one of v, x, ^, end of input at offset 3", 3,
     ("v", "x", "^", "end of input")),
    ("S2 & S3", "unexpected character '&' at offset 3", 3, ()),
    # a lexical error anywhere comes before any grammar or depth error
    ("S2 v v S3 %", "unexpected character '%' at offset 10", 10, ()),
    (" v ".join(["S2"] * 300) + " %", "unexpected character '%' at offset 1498", 1498, ()),
    ("S" + "9" * 5000 + " v %", "sphere index has too many digits at offset 0", 0, ()),
    ("% v S" + "9" * 5000, "unexpected character '%' at offset 0", 0, ()),
    ("S2 v v S" + "9" * 5000, "sphere index has too many digits at offset 7", 7, ()),
    ("S2 v S", "unexpected character 'S' at offset 5", 5, ()),
    ("S2 v Su", "unexpected character 'S' at offset 5", 5, ()),
    ("S2 v 2", "unexpected character '2' at offset 5", 5, ()),
    ("S2 \x00", "unexpected character '\\x00' at offset 3", 3, ()),
    ("S2 v (", "unexpected end of input; expected one of S<int>, Susp, ( at offset 6", 6,
     ("S<int>", "Susp", "(")),
]


class TestParseErrorsFrozen:
    @pytest.mark.parametrize("text, message, offset, expected", FROZEN_ERRORS)
    def test_message_offset_and_expected(self, text, message, offset, expected):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (str(err.value), err.value.offset, err.value.expected) == (
            message, offset, expected)


def _outcome(parser, text):
    """The tree, or the class, message, offset and expected tokens of the error."""
    try:
        return parser(text)
    except ParseError as e:
        return ParseError, str(e), e.offset, e.expected
    except ValueError as e:
        return type(e), str(e)


PAST_DIGITS = "9" * (sys.get_int_max_str_digits() + 1)
PIECES = ["S2", "S3", "S12", "S0", "S1", "S02", "S1001", "Susp", "Susp(", "(", ")", "v", "x",
          "^", " ", "\t", "%", "\x00", "S", "Su", "Sus", "2", "\u0663", "S\uff13",
          "\uff13", "\x85", "\u3000", "S" + PAST_DIGITS, PAST_DIGITS]


def _nest(parts):
    opening, depth, inner, missing = parts
    return opening * depth + inner + ")" * max(depth - missing, 0)


lexeme_soup = st.lists(st.sampled_from(PIECES), max_size=30).map("".join)
deep = st.tuples(
    st.sampled_from(["(", "Susp("]), st.integers(MAX_DEPTH - 2, MAX_DEPTH + 3), lexeme_soup,
    st.sampled_from([0, 0, 1, -1]),
).map(_nest)
chains = st.tuples(
    st.sampled_from([" v ", "x", " ^ "]), st.integers(MAX_DEPTH - 1, MAX_DEPTH + 3)
).map(lambda t: t[0].join(["S2"] * t[1]))
parser_inputs = st.lists(st.one_of(lexeme_soup, deep, chains), min_size=1, max_size=3).map("".join)


class TestParserOracle:
    @given(parser_inputs)
    @settings(max_examples=300, deadline=None)
    def test_same_tree_or_same_error_as_token_by_token(self, text):
        assert _outcome(parse, text) == _outcome(oracles.parse, text)


class TestDepth:
    def test_bracket_nesting_costs_no_depth(self):
        assert parse("(" * 3000 + "S2" + ")" * 3000) == Sphere(2)

    def test_unbalanced_deep_brackets_are_parse_errors(self):
        with pytest.raises(ParseError) as err:
            parse("(" * 3000 + "S2" + ")" * 2999)
        assert (err.value.offset, err.value.expected) == (6001, (")",))

    def test_wedge_chain_up_to_the_limit_parses(self):
        x = parse(" v ".join(["S2"] * (MAX_DEPTH + 1)))
        for _ in range(MAX_DEPTH):
            assert x.right == Sphere(2)
            x = x.left
        assert x == Sphere(2)

    def test_wedge_chain_past_the_limit_is_refused(self):
        with pytest.raises(ValueError, match=f"deeper than the {MAX_DEPTH} level limit") as err:
            parse(" v ".join(["S2"] * (MAX_DEPTH + 2)))
        assert not isinstance(err.value, ParseError)

    def test_suspension_nesting_past_the_limit_is_refused(self):
        def nest(k):
            return "Susp(" * k + "S2" + ")" * k

        assert profile(parse(nest(MAX_DEPTH))).dimension == MAX_DEPTH + 2
        with pytest.raises(ValueError, match="level limit"):
            parse(nest(MAX_DEPTH + 1))

    def test_tree_walks_fit_at_the_limit(self):
        x = parse("Susp(" * (MAX_DEPTH - 1) + "S2 v S3" + ")" * (MAX_DEPTH - 1))
        assert parse(to_text(x)) == x
        assert wedge_decomposition(x).spheres == ((MAX_DEPTH + 1, 1), (MAX_DEPTH + 2, 1))

    def test_a_tree_at_the_limit_has_a_repr(self):
        x = parse("Susp(" * MAX_DEPTH + "S2" + ")" * MAX_DEPTH)
        text = "Susp(inner=" * MAX_DEPTH + "Sphere(n=2)" + ")" * MAX_DEPTH
        assert repr(x) == text
        held = CofiberPresentation(x, Sphere(3), True)
        assert repr(held) == f"CofiberPresentation(A={text}, Z=Sphere(n=3), inert_asserted=True, justification='')"


class TestPrint:
    def test_minimal_parens(self):
        assert to_text(parse("(S2 v S3) x S4")) == "(S2 v S3) x S4"
        assert to_text(parse("S2 v (S3 x S4)")) == "S2 v S3 x S4"

    def test_right_nested_keeps_parens(self):
        assert to_text(Wedge(Sphere(2), Wedge(Sphere(3), Sphere(4)))) == "S2 v (S3 v S4)"
        assert to_text(Wedge(Wedge(Sphere(2), Sphere(3)), Sphere(4))) == "S2 v S3 v S4"

    def test_susp(self):
        assert to_text(Susp(Smash(Sphere(2), Sphere(3)))) == "Susp(S2 ^ S3)"


# -- expression nodes as values -----------------------------------------------------


class TestNodes:
    def test_equal_trees_hash_equal(self):
        a, b = parse("Susp(S2 ^ S3) x (S4 v S5)"), parse("Susp(S2^S3) x (S4 v S5)")
        assert a == b and a is not b
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1

    def test_equality_sees_the_node_class(self):
        a, b = Sphere(2), Sphere(3)
        assert Wedge(a, b) != Product(a, b)
        assert Product(a, b) != Smash(a, b)
        assert Wedge(a, b) != Wedge(b, a)
        assert Susp(a) != a
        assert Sphere(2) != 2

    @pytest.mark.parametrize("field", ["left", "right"])
    def test_fields_are_frozen(self, field):
        x = Wedge(Sphere(2), Sphere(3))
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(x, field, Sphere(4))
        with pytest.raises(AttributeError):
            delattr(x, field)
        with pytest.raises(AttributeError):
            Sphere(2).n = 3
        with pytest.raises(AttributeError):
            x.extra = 1
        assert x == Wedge(Sphere(2), Sphere(3))

    def test_repr_names_the_fields(self):
        x = parse("Susp(S2 ^ S3) x S4 v S5")
        assert repr(x) == (
            "Wedge(left=Product(left=Susp(inner=Smash(left=Sphere(n=2), right=Sphere(n=3))), "
            "right=Sphere(n=4)), right=Sphere(n=5))"
        )
        assert repr(profile(Sphere(3))) == "Profile(connectivity=2, dimension=3)"
        assert repr(wedge_decomposition(parse("S2 v S2"))) == "SphereList(spheres=((2, 2),))"

    def test_a_node_takes_exactly_its_fields(self):
        with pytest.raises(TypeError):
            Wedge(Sphere(2))
        with pytest.raises(ValueError, match="simply connected"):
            Sphere(1)

    def test_copy_and_pickle_keep_the_tree(self):
        import copy
        import pickle

        x = parse("Susp(S2 ^ S3) x S4")
        assert copy.deepcopy(x) == x
        assert pickle.loads(pickle.dumps(x)) == x


# -- homology polynomials ---------------------------------------------------------


def sphere_wedge_homology(spheres) -> IntPolynomial:
    """The homology polynomial of a wedge of spheres, from ((dimension, multiplicity), ...)."""
    coeffs = [1] + [0] * max(dim for dim, _ in spheres)
    for dim, mult in spheres:
        coeffs[dim] += mult
    return IntPolynomial(tuple(coeffs))


class TestHomology:
    def test_sphere(self):
        assert homology_poly(Sphere(3)).coeffs == (1, 0, 0, 1)

    def test_product_kunneth(self):
        assert homology_poly(parse("S2 x S3")).coeffs == (1, 0, 1, 1, 0, 1)

    def test_smash_of_spheres(self):
        assert homology_poly(parse("S2 ^ S3")).coeffs == (1, 0, 0, 0, 0, 1)

    def test_wedge_adds_reduced(self):
        assert homology_poly(parse("S2 v S2")).coeffs == (1, 0, 2)

    def test_susp_shifts_reduced(self):
        assert homology_poly(Susp(Sphere(2))).coeffs == (1, 0, 0, 1)

    def test_always_polynomial_with_unit_constant(self):
        assert homology_poly(parse("Susp(S2 ^ S3) x S4")).constant_term() == 1

    def test_reduced_variant(self):
        assert reduced_poly(Sphere(2)).coeffs == (0, 0, 1)


# -- profiles ----------------------------------------------------------------------


class TestProfile:
    def test_sphere(self):
        p = profile(Sphere(3))
        assert (p.connectivity, p.dimension) == (2, 3)

    def test_wedge_takes_min_and_max(self):
        p = profile(parse("S2 v S5"))
        assert (p.connectivity, p.dimension) == (1, 5)

    def test_smash_then_susp(self):
        p = profile(parse("Susp(S2 ^ S2)"))
        assert (p.connectivity, p.dimension) == (4, 5)

    def test_product_sums_dimension(self):
        p = profile(parse("S2 x S3"))
        assert (p.connectivity, p.dimension) == (1, 5)


# -- wedge decomposition ---------------------------------------------------------


class TestWedgeDecomposition:
    def test_suspension_of_wedge(self):
        assert wedge_decomposition(parse("Susp(S2 v S2)")).spheres == ((3, 2),)

    def test_plain_wedge(self):
        assert wedge_decomposition(parse("S2 v S2 v S5")).spheres == ((2, 2), (5, 1))

    def test_smash_with_wedge(self):
        got = wedge_decomposition(parse("Susp(S2 ^ (S2 v S3))"))
        assert got.spheres == ((5, 1), (6, 1))

    def test_product_rejected(self):
        with pytest.raises(ValueError, match="not rationally a wedge of spheres"):
            wedge_decomposition(parse("S2 x S3"))

    def test_suspended_product_accepted(self):
        got = wedge_decomposition(parse("Susp(S2 x S2)"))
        assert got.spheres == ((3, 2), (5, 1))

    def test_smash_against_sphere_suspends_a_product(self):
        got = wedge_decomposition(parse("(S2 x S2) ^ S3"))
        assert got.spheres == ((5, 2), (7, 1))

    def test_least_dimension(self):
        assert wedge_decomposition(parse("S5 v S2")).least_dimension() == 2

    def test_series_reconstructs_input(self):
        x = parse("Susp(S2 v S3) v S4")
        assert sphere_wedge_homology(wedge_decomposition(x).spheres) == homology_poly(x)


# -- randomized structural invariants ----------------------------------------------


def exprs():
    leaves = st.integers(2, 5).map(Sphere)
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda t: Wedge(*t)),
            st.tuples(inner, inner).map(lambda t: Product(*t)),
            st.tuples(inner, inner).map(lambda t: Smash(*t)),
            inner.map(Susp),
        ),
        max_leaves=8,
    )


class TestInvariants:
    @given(exprs())
    @settings(max_examples=100, deadline=None)
    def test_susp_shifts_reduced_series(self, x):
        assert reduced_poly(Susp(x)) == reduced_poly(x).shift(1)

    @given(exprs(), exprs())
    @settings(max_examples=100, deadline=None)
    def test_smash_multiplies_reduced_series(self, a, b):
        assert reduced_poly(Smash(a, b)) == reduced_poly(a) * reduced_poly(b)

    @given(exprs())
    @settings(max_examples=100, deadline=None)
    def test_profile_brackets_reduced_series(self, x):
        p = profile(x)
        red = reduced_poly(x)
        assert 1 <= p.connectivity < p.dimension
        assert all(red[i] == 0 for i in range(p.connectivity + 1))
        assert red.degree() <= p.dimension

    @given(exprs(), exprs(), st.integers(0, 120))
    @settings(max_examples=100, deadline=None)
    def test_reduced_homology_is_nonzero_with_nonnegative_coefficients(self, a, b, k):
        # why no presentation checks for a rationally trivial space
        for x in (a, Smash(a, b)):
            for _ in range(k):
                x = Susp(x)
            red = homology_poly(x) - ONE
            assert not red.is_zero()
            assert min(red.coeffs) >= 0
            assert red == reduced_poly(x)
            p = profile(x)
            assert 1 <= p.connectivity < p.dimension

    @given(exprs())
    @settings(max_examples=100, deadline=None)
    def test_parse_print_round_trip(self, x):
        assert parse(to_text(x)) == x

    @given(exprs())
    @settings(max_examples=100, deadline=None)
    def test_decomposition_reconstructs_reduced_series(self, x):
        if not is_rational_sphere_wedge(x):
            with pytest.raises(ValueError, match="product detected"):
                wedge_decomposition(x)
            return
        got = wedge_decomposition(x)
        assert sphere_wedge_homology(got.spheres) == homology_poly(x)
        assert all(dim >= 2 and mult >= 1 for dim, mult in got.spheres)
        assert sphere_wedge_homology(got.spheres) - ONE == reduced_poly(x)
