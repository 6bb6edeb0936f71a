"""Free-loop homology tables: brute-force ranks, necklace counts, growth checks."""

import math
import time
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from loopgrowth import freeloop, series
from loopgrowth.freeloop import (
    BRUTE_FORCE_WORD_LIMIT,
    FreeLoopGrowthResult,
    GradedAlphabet,
    HHDimTable,
    _lyndon_class_counts,
    exact_rank,
    free_loop_good_growth,
    hh_bruteforce,
    hh_necklace,
    tensor_algebra_dims,
)
from loopgrowth.arith import moebius_invert
from loopgrowth.loop import HypothesisError
from loopgrowth.series import (
    RationalGF,
    TruncatedSeries,
    expand,
    log_index_empirical,
    log_index_exact,
    smallest_positive_pole,
)

import oracles


class Level(IntEnum):
    LOW = -1
    HIGH = 7


# -- alphabets and word counts ---------------------------------------------------


class TestAlphabet:
    def test_degrees_sorted_multiset(self):
        assert GradedAlphabet((3, 1, 2, 1)).degrees == (1, 1, 2, 3)

    def test_from_sphere_dimensions(self):
        assert GradedAlphabet.from_sphere_dimensions((3, 3)).degrees == (2, 2)

    def test_must_be_nonempty(self):
        with pytest.raises(ValueError, match="at least one generator"):
            GradedAlphabet(())

    def test_degrees_positive(self):
        with pytest.raises(ValueError, match="must be positive"):
            GradedAlphabet((0, 1))

    def test_loop_gf(self):
        assert GradedAlphabet((2, 2)).loop_gf() == RationalGF.from_coeffs(
            [1], [1, 0, -2]
        )

    @given(st.lists(st.integers(1, 12), min_size=1, max_size=5))
    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_the_guard_certifies_the_pole(self, monkeypatch, degrees):
        # 1 - sum z^d has one positive root, so its own sign decides rho > x
        def refused(*args):
            raise AssertionError("the Descartes search ran")

        gf = GradedAlphabet(degrees).loop_gf()
        want = oracles.unit_grid_pole(gf)
        with monkeypatch.context() as patched:
            patched.setattr(series, "_isolating_cells", refused)
            got = smallest_positive_pole(gf)
        assert (got.lo, got.hi) == want and got.certificate_holds()


class TestTensorAlgebraDims:
    def test_binary_words(self):
        assert tensor_algebra_dims(GradedAlphabet((1, 1)), 4) == (1, 2, 4, 8, 16)

    def test_single_even_letter(self):
        assert tensor_algebra_dims(GradedAlphabet((2,)), 6) == (1, 0, 1, 0, 1, 0, 1)

    def test_fibonacci_compositions(self):
        assert tensor_algebra_dims(GradedAlphabet((1, 2)), 5) == (1, 1, 2, 3, 5, 8)

    @pytest.mark.parametrize("table", [tensor_algebra_dims, hh_necklace, hh_bruteforce])
    def test_negative_truncation_is_refused(self, table):
        with pytest.raises(ValueError, match="must be nonnegative"):
            table(GradedAlphabet((1, 1)), -1)

    @given(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_matches_loop_series_expansion(self, degs):
        a = GradedAlphabet(tuple(degs))
        assert tensor_algebra_dims(a, 20) == expand(a.loop_gf(), 20).as_dims()


# -- exact rank --------------------------------------------------------------------


sparse_rows = st.lists(
    st.dictionaries(st.integers(0, 9), st.integers(-5, 5), max_size=3),
    min_size=0,
    max_size=12,
)


class TestExactRank:
    """The generic fraction-free eliminator of the word-tuple oracle."""

    def test_empty(self):
        assert oracles.exact_rank([]) == 0

    def test_dependent_rows(self):
        rows = [{0: 1, 1: 2}, {0: 2, 1: 4}, {2: 1}]
        assert oracles.exact_rank(rows) == 2

    @given(sparse_rows)
    @settings(max_examples=150, deadline=None)
    def test_matches_dense_gaussian_elimination(self, rows):
        assert oracles.exact_rank(rows) == oracles.dense_rank(rows, 10)


signed_permutations = st.integers(0, 12).flatmap(
    lambda n: st.tuples(
        st.permutations(range(n)),
        st.lists(st.sampled_from((0, 1)), min_size=n, max_size=n),
    )
)


def _permutation_rows(perm, neg):
    rows = []
    for u, (v, odd) in enumerate(zip(perm, neg)):
        row = {u: 1}
        row[v] = row.get(v, 0) - (-1 if odd else 1)
        rows.append(row)
    return rows


class TestSignedGraphRank:
    """theta as a signed permutation: one out-edge and one in-edge per word."""

    def test_empty_graph(self):
        assert exact_rank([], b"") == 0

    def test_balanced_cycle_loses_one(self):
        # x0 = x1 = -x2 = x0 is consistent, so the three rows span a plane
        assert exact_rank([1, 2, 0], [0, 1, 1]) == 2

    def test_unbalanced_cycle_has_full_rank(self):
        assert exact_rank([1, 2, 0], [0, 0, 1]) == 3

    def test_loops(self):
        # fixed points are loops: the row 2 e_u at -1, the zero row at +1
        assert exact_rank([0], [1]) == 1
        assert exact_rank([0], [0]) == 0
        assert exact_rank([0, 1], bytearray([1, 0])) == 1

    def test_several_cycles(self):
        # (0 3) balanced, (1 4 2) unbalanced, (5) +1, (6) -1
        perm = [3, 4, 1, 0, 2, 5, 6]
        neg = [1, 0, 1, 1, 0, 0, 1]
        assert exact_rank(perm, neg) == 5

    @given(signed_permutations)
    @settings(max_examples=300, deadline=None)
    def test_matches_dense_gaussian_elimination(self, signed):
        perm, neg = signed
        rows = _permutation_rows(perm, neg)
        assert exact_rank(perm, neg) == oracles.dense_rank(rows, len(perm))

    def test_map_that_is_not_a_bijection_is_refused(self):
        with pytest.raises(ValueError, match="not a permutation"):
            exact_rank([1, 2, 1], [0, 0, 0])
        with pytest.raises(ValueError, match="not a permutation"):
            exact_rank([0, 0], [0, 0])


class TestExactRankInputs:
    """The walk marks visited words in its own copy: slices of one degree's
    permutation feed the next degrees, so the arguments must survive."""

    @given(signed_permutations)
    @settings(max_examples=100, deadline=None)
    def test_random_inputs_are_left_unchanged(self, signed):
        perm, neg = list(signed[0]), list(signed[1])
        exact_rank(perm, neg)
        assert (perm, neg) == (list(signed[0]), list(signed[1]))

    @pytest.mark.parametrize("perm", [[1, 2, 1], [0, 0]])
    def test_refusal_leaves_the_input_unchanged(self, perm):
        before = list(perm)
        with pytest.raises(ValueError, match="not a permutation"):
            exact_rank(perm, [0] * len(perm))
        assert perm == before

    @pytest.mark.parametrize("kind", [bytes, bytearray, list])
    def test_signs_may_be_bytes(self, kind):
        neg = kind([1, 0, 1, 1, 0, 0, 1])
        assert exact_rank([3, 4, 1, 0, 2, 5, 6], neg) == 5


# -- Hochschild tables -------------------------------------------------------------


class TestEllipticTables:
    def test_unit_degree_letter_is_all_ones(self):
        table = hh_bruteforce(GradedAlphabet((1,)), 10)
        assert table.lx == (1,) * 11

    def test_single_even_letter(self):
        table = hh_bruteforce(GradedAlphabet((2,)), 10)
        want = expand(RationalGF.from_coeffs([1, 0, 0, 1], [1, 0, -1]), 10).as_dims()
        assert table.lx == want
        assert table.lx == (1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1)

    def test_necklace_agrees_on_elliptic_cases(self):
        for degs in ((1,), (2,)):
            a = GradedAlphabet(degs)
            assert hh_necklace(a, 10) == hh_bruteforce(a, 10)


class TestPermutationOracle:
    """theta's signed permutation itself, not only its rank: sigma(w j) = j w
    with sign (-1)^((k - d_j) d_j), numbered as `oracles.words_by_degree`
    numbers words (in blocks by last letter)."""

    @given(st.lists(st.integers(1, 4), min_size=1, max_size=3), st.integers(0, 10))
    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_each_degree_permutes_words_by_rotation(self, monkeypatch, degs, n):
        seen = []

        def capture(perm, neg):
            seen.append((perm, list(neg)))
            return exact_rank(perm, neg)

        monkeypatch.setattr(freeloop, "exact_rank", capture)
        a = GradedAlphabet(tuple(degs))
        hh_bruteforce(a, n)
        words = oracles.words_by_degree(a.degrees, n)
        assert len(seen) == n + 1
        for k, (perm, neg) in enumerate(seen):
            index = {w: i for i, w in enumerate(words[k])}
            rotated = [w for w in words[k] if w]  # degree 0's empty word has no row
            assert perm == [index[w[-1:] + w[:-1]] for w in rotated]
            assert neg == [(k - a.degrees[w[-1]]) * a.degrees[w[-1]] % 2 for w in rotated]


class TestOracleEquivalence:
    @pytest.mark.parametrize(
        "degs,n", [((1,), 8), ((2,), 10), ((1, 1), 8), ((1, 2, 3), 9), ((2, 2, 3), 10)]
    )
    def test_bruteforce_equals_word_tuple_oracle(self, degs, n):
        hh0, hh1 = oracles.hh_by_words(degs, n)
        table = hh_bruteforce(GradedAlphabet(degs), n)
        assert table.hh0 == tuple(hh0)
        assert table.hh1 == tuple(hh1)

    @pytest.mark.parametrize("degs,n", [((1, 1), 12), ((1, 2), 14), ((1, 1, 3), 9), ((2, 3), 16)])
    def test_witt_counts_equal_lyndon_enumeration(self, degs, n):
        by_degree = [0] * (n + 1)
        for w in oracles.brute_lyndon(len(degs), n // min(degs)):
            weight = sum(degs[i] for i in w)
            if weight <= n:
                by_degree[weight] += 1
        assert _lyndon_class_counts(degs, n) == by_degree

    @given(st.lists(st.integers(-(10**20), 10**20), max_size=400))
    @settings(max_examples=40, deadline=None)
    def test_moebius_invert_equals_divisor_sum(self, g):
        want = g[:1] + [
            sum(oracles.mobius(n // d) * g[d] for d in range(1, n + 1) if n % d == 0)
            for n in range(1, len(g))
        ]
        moebius_invert(g)
        assert g == want

    @pytest.mark.parametrize("n", [1, 5, 37, 200])
    @pytest.mark.parametrize("degs", [(1,), (1, 1), (1, 2, 3), (2, 2, 3), (1, 1, 2)])
    def test_witt_counts_equal_length_by_degree_table(self, degs, n):
        assert _lyndon_class_counts(degs, n) == oracles.lyndon_counts_by_length(degs, n)

    @pytest.mark.parametrize(
        "degs,n",
        [((1, 1), 12), ((1, 2), 14), ((2, 2), 14), ((1, 1, 2), 9), ((2, 3), 14), ((3,), 12)],
    )
    def test_necklace_equals_bruteforce(self, degs, n):
        a = GradedAlphabet(degs)
        assert hh_necklace(a, n) == hh_bruteforce(a, n)

    @pytest.mark.parametrize("degs", [(1, 1), (1, 2), (2, 2), (1, 1, 1), (2, 3)])
    def test_hh0_matches_signed_orbit_walk(self, degs):
        table = hh_necklace(GradedAlphabet(degs), 10)
        for k in range(11):
            assert table.hh0[k] == oracles.signed_necklace_hh0(degs, k)

    def test_two_unit_letters_small(self):
        # smallest hand-checkable case: values pinned by the orbit-walk oracle
        table = hh_bruteforce(GradedAlphabet((1, 1)), 3)
        assert table.lx[0] == 1
        assert all(v >= 1 for v in table.lx)
        assert table.hh0 == tuple(
            oracles.signed_necklace_hh0((1, 1), k) for k in range(4)
        )

    def test_necklace_still_fast_at_degree_200(self):
        table = hh_necklace(GradedAlphabet((1, 2)), 200)
        assert len(table.lx) == 201

    def test_necklace_at_least_ten_times_faster(self):
        a = GradedAlphabet((1, 1))
        t0 = time.perf_counter()
        brute = hh_bruteforce(a, 16)
        t1 = time.perf_counter()
        neck = hh_necklace(a, 16)
        t2 = time.perf_counter()
        assert brute == neck
        assert (t1 - t0) > 10 * (t2 - t1)


class TestTableValidation:
    def test_rank_nullity_enforced(self):
        a = GradedAlphabet((1,))
        with pytest.raises(ValueError, match="rank-nullity violated"):
            HHDimTable(a, (1, 2), (0, 1), (1, 2), 1)

    def test_assembly_rule_enforced(self):
        a = GradedAlphabet((1,))
        with pytest.raises(ValueError, match="assembly rule violated"):
            HHDimTable(a, (1, 1), (0, 1), (1, 2), 1)

    def test_lengths_enforced(self):
        a = GradedAlphabet((1,))
        with pytest.raises(ValueError, match="lengths must match"):
            HHDimTable(a, (1,), (1, 1), (1, 1), 1)

    @given(
        st.lists(st.integers(1, 4), min_size=1, max_size=3),
        st.integers(0, 40),
        st.lists(
            st.tuples(
                st.sampled_from(["negative", "rank-nullity", "assembly"]),
                st.integers(0, 10**6),
                st.integers(1, 10**20),
                st.integers(0, 2),
            ),
            min_size=1,
            max_size=3,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_a_corrupted_table_names_the_per_degree_loops_degree(self, degs, n, breaks):
        t = hh_necklace(GradedAlphabet(degs), n)
        cols = [list(t.hh0), list(t.hh1), list(t.lx)]
        for kind, at, delta, col in breaks:
            k = at % (n + 1)
            if kind == "negative":
                cols[col][k] = -delta
            elif kind == "rank-nullity":
                cols[col % 2][k] += delta  # hh0 or hh1 alone
            else:
                cols[2][k] += delta
        hh0, hh1, lx = map(tuple, cols)
        want = oracles.hh_table_error(hh0, hh1, lx)
        assert want is not None
        with pytest.raises(ValueError) as raised:
            HHDimTable(t.alphabet, hh0, hh1, lx, n)
        assert str(raised.value) == want

    @given(
        st.lists(st.integers(0, 10**30), min_size=1, max_size=40),
        st.lists(
            st.tuples(
                st.integers(0, 39),
                st.sampled_from([True, False, 1.0, 2.5, -1, -(10**25), "3", None, Fraction(2)]),
            ),
            max_size=3,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_from_dims_names_the_per_degree_loops_degree(self, dims, bad):
        for i, v in bad:
            dims[i % len(dims)] = v
        want = oracles.from_dims_error(dims)
        if want is None:
            assert TruncatedSeries.from_dims(dims).coeffs == tuple(dims)
        else:
            with pytest.raises(ValueError) as raised:
                TruncatedSeries.from_dims(dims)
            assert str(raised.value) == want

    def test_from_dims_takes_an_int_subclass(self):
        # an int subclass other than bool is a dimension, as it was per degree
        assert TruncatedSeries.from_dims([1, Level.HIGH, 3]).coeffs == (1, Level.HIGH, 3)
        with pytest.raises(ValueError, match="at degree 1 must"):
            TruncatedSeries.from_dims([1, Level.LOW, 3])

    def test_brute_guard(self):
        with pytest.raises(ValueError, match="truncation too large for brute force"):
            hh_bruteforce(GradedAlphabet((1, 1, 1)), 18)
        assert sum(tensor_algebra_dims(GradedAlphabet((1, 1, 1)), 18)) > (
            BRUTE_FORCE_WORD_LIMIT
        )


class TestSandwichBounds:
    @pytest.mark.parametrize("degs", [(1, 1), (2, 2), (1, 2), (2, 2, 2)])
    def test_hyperbolic_battery_at_degree_40(self, degs):
        a = GradedAlphabet(degs)
        table = hh_necklace(a, 40)
        dims = tensor_algebra_dims(a, 40)
        for k in range(41):
            assert table.hh0[k] <= dims[k]
            bound = dims[k] + (dims[k - 1] if k >= 1 else 0) * len(degs)
            assert table.lx[k] <= bound
        exact = log_index_exact(smallest_positive_pole(a.loop_gf())).value
        emp = log_index_empirical(TruncatedSeries.from_dims(table.lx), 20)
        assert exact - 0.1 <= emp <= exact + 0.02


# -- growth checks ------------------------------------------------------------------


class TestFreeLoopGrowth:
    def test_two_odd_spheres(self):
        r = free_loop_good_growth(
            GradedAlphabet((2, 2)), trunc_degree=40, lam=1.5, epsilon=0.15, k_min=12
        )
        assert isinstance(r, FreeLoopGrowthResult)
        assert r.passed and r.check.passed and r.log_index_match
        assert r.target == pytest.approx(math.log(2) / 2)
        assert r.match_tol == pytest.approx(0.08)

    def test_two_even_spheres(self):
        r = free_loop_good_growth(GradedAlphabet((1, 1)), trunc_degree=30)
        assert r.target == math.log(2)
        assert r.log_index_match

    def test_single_generator_rejected(self):
        with pytest.raises(HypothesisError, match="rationally elliptic"):
            free_loop_good_growth(GradedAlphabet((2,)))

    def test_single_generator_table_still_available(self):
        # the growth claim is rejected, the table itself is not
        assert hh_necklace(GradedAlphabet((2,)), 10).lx[0] == 1

    def test_explicit_tolerance_wins(self):
        r = free_loop_good_growth(GradedAlphabet((1, 1)), trunc_degree=30, match_tol=0.01)
        assert r.match_tol == 0.01
        assert not r.log_index_match

    def test_unknown_method(self, monkeypatch):
        # refused before the pole and the table are computed
        def fail(*args):
            raise AssertionError("computed before the method was checked")

        for name in ("smallest_positive_pole", "hh_necklace", "hh_bruteforce"):
            monkeypatch.setattr(freeloop, name, fail)
        with pytest.raises(ValueError, match="unknown method"):
            free_loop_good_growth(GradedAlphabet((2, 2)), method="fast")

    @given(
        st.lists(st.integers(1, 6), min_size=2, max_size=4),
        st.integers(2, 120),
        st.floats(1, 3, exclude_min=True),
        st.floats(0, 0.5),
        st.integers(1, 120),
        st.none() | st.floats(0, 0.2),
    )
    @settings(max_examples=100, deadline=None)
    def test_fields_match_the_per_degree_loops(self, degs, n, lam, epsilon, k_min, match_tol):
        k_min = min(k_min, n)
        a = GradedAlphabet(degs)
        try:
            r = free_loop_good_growth(a, n, lam, epsilon, k_min, match_tol)
        except ValueError as e:
            # a table with no nonzero entry from k_min on raises as the reference does
            lx = TruncatedSeries.from_dims(hh_necklace(a, n).lx)
            with pytest.raises(ValueError) as want:
                oracles.log_index_empirical(lx, k_min)
            assert str(e) == str(want.value)
            return
        lx = TruncatedSeries.from_dims(r.table.lx)
        passed, sequence, alphas = oracles.controlled_growth_check(lx, r.target, lam, epsilon, k_min)
        empirical = oracles.log_index_empirical(lx, k_min)
        assert (r.check.sequence, r.check.alphas, r.empirical) == (sequence, alphas, empirical)
        assert r.check.passed == passed
        assert r.log_index_match == (abs(empirical - r.target) <= r.match_tol)
        assert r.passed == (passed and r.log_index_match)

    def test_one_rate_pass_feeds_the_check_and_the_index(self, monkeypatch):
        passes = oracles.count_calls(monkeypatch, series, "_rates")
        free_loop_good_growth(GradedAlphabet((1, 2)), 60, k_min=5)
        assert len(passes) == 1

    def test_brute_method_agrees(self):
        a = GradedAlphabet((2, 2))
        rn = free_loop_good_growth(a, trunc_degree=14, k_min=5)
        rb = free_loop_good_growth(a, trunc_degree=14, k_min=5, method="brute")
        assert rn.table == rb.table
        assert rn.empirical == rb.empirical
