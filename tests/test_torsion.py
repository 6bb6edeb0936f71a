"""Prime exclusion sets, the sphere-factor census, torsion lower bounds."""

import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopgrowth.freeloop import GradedAlphabet
from loopgrowth.loop import pi_ranks
from loopgrowth.series import RationalGF, expand
from loopgrowth.space import Sphere, parse
from loopgrowth.torsion import (
    PRIME_LIMIT,
    PrimeSet,
    RetractionReport,
    hilton_milnor_census,
    least_p_torsion_dim,
    primes_set,
    primes_set_of,
    retraction_report,
    suspension_splits_locally,
    torsion_report,
)

import oracles


# -- prime bookkeeping ---------------------------------------------------------


class TestPrimeSet:
    def test_sorted_dedup(self):
        assert PrimeSet((5, 2, 2, 3)).primes == (2, 3, 5)

    def test_rejects_composites(self):
        with pytest.raises(ValueError, match="not prime"):
            PrimeSet((4,))

    def test_membership_and_union(self):
        s = PrimeSet((2,)) | PrimeSet((5,))
        assert 2 in s and 5 in s and 3 not in s

    def test_prime_limit(self):
        assert PrimeSet((9999999967,)).primes == (9999999967,)
        assert 9999999967 <= PRIME_LIMIT < 10**10 + 19
        with pytest.raises(ValueError, match="prime limit"):
            PrimeSet((10**10 + 19,))
        with pytest.raises(ValueError, match="prime limit"):
            least_p_torsion_dim(3, 10**400 + 267)


class TestPrimesSet:
    def test_low_dimension_low_connectivity(self):
        assert primes_set(7, 1).primes == (2, 3)

    def test_high_connectivity_excludes_nothing(self):
        assert primes_set(3, 2).primes == ()

    def test_wider_gap(self):
        assert primes_set(12, 1).primes == (2, 3, 5)

    def test_requires_dimension_above_connectivity(self):
        with pytest.raises(ValueError, match="dimension must exceed connectivity"):
            primes_set(3, 3)
        with pytest.raises(ValueError, match="dimension must exceed connectivity"):
            primes_set(2, 0)

    @given(st.integers(1, 30), st.integers(1, 30))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_dimension_antitone_in_connectivity(self, d, s):
        if d <= s:
            return
        base = set(primes_set(d, s).primes)
        assert base <= set(primes_set(d + 1, s).primes)
        if s + 1 < d:
            assert set(primes_set(d, s + 1).primes) <= base
        assert all(2 * q <= d - s + 1 for q in base)

    def test_from_space_profile(self):
        assert primes_set_of(Sphere(2)).primes == ()
        assert primes_set_of(parse("S2 v S7")).primes == (2, 3)


class TestSuspensionSplitting:
    def test_large_prime_splits(self):
        assert suspension_splits_locally(parse("S2 v S5"), 3)

    def test_small_prime_does_not(self):
        assert not suspension_splits_locally(parse("S2 v S5"), 2)

    def test_threshold_is_excluded_set(self):
        x = parse("S2 v S7")
        bad = primes_set_of(x)
        for p in (2, 3, 5, 7, 11):
            assert suspension_splits_locally(x, p) == (p not in bad)

    def test_prime_required(self):
        with pytest.raises(ValueError, match="not prime"):
            suspension_splits_locally(Sphere(2), 6)


class TestLeastTorsionDim:
    def test_formula_values(self):
        assert least_p_torsion_dim(3, 5) == 10
        assert least_p_torsion_dim(3, 2) == 4
        assert least_p_torsion_dim(7, 3) == 10

    def test_validation(self):
        with pytest.raises(ValueError, match="at least 2"):
            least_p_torsion_dim(1, 3)
        with pytest.raises(ValueError, match="not prime"):
            least_p_torsion_dim(3, 9)


# -- Lyndon words ---------------------------------------------------------------
#
# The library counts Lyndon words (the census) without listing them; these
# cases hold the two oracles the census tests rest on against each other and
# against the census itself.


def _lengths(words):
    by_len = {}
    for w in words:
        by_len[len(w)] = by_len.get(len(w), 0) + 1
    return by_len


def _census_from_counts(counts):
    """Census factors from Lyndon counts by weight: weight t names S^(t+1)."""
    return {t + 1: c for t, c in enumerate(counts) if c}


class TestLyndonWords:
    def test_matches_rotation_oracle(self):
        counts = oracles.lyndon_counts_by_length((1, 1), 6)
        assert _lengths(oracles.brute_lyndon(2, 6)) == {k: c for k, c in enumerate(counts) if c}

    def test_three_letters(self):
        counts = oracles.lyndon_counts_by_length((1, 1, 1), 4)
        assert _lengths(oracles.brute_lyndon(3, 4)) == {k: c for k, c in enumerate(counts) if c}

    def test_counts_are_witt_numbers(self):
        by_len = _lengths(oracles.brute_lyndon(2, 8))
        assert by_len == {1: 2, 2: 1, 3: 2, 4: 3, 5: 6, 6: 9, 7: 18, 8: 30}

    def test_basic_products(self):
        # a, b, ab, aab, abb: letters of weight 1 name S2, words of weight t name S^(t+1)
        assert hilton_milnor_census(2, 2, 3).factors == {2: 2, 3: 1, 4: 2}

    def test_basic_products_weighted_degrees(self):
        # letters of weight 1 and 2: a, b and ab have weights 1, 2 and 3
        assert hilton_milnor_census(2, 3, 3).factors == {2: 1, 3: 1, 4: 1}
        counts = oracles.lyndon_counts_by_length((1, 2), 3)
        assert hilton_milnor_census(2, 3, 3).factors == _census_from_counts(counts)

    def test_census_counts_words_past_the_old_length_guard(self):
        # Lyndon words were once listed and refused past length 20
        census = hilton_milnor_census(2, 2, 24)
        assert census.factors == _census_from_counts(oracles.lyndon_counts_by_length((1, 1), 24))


# -- the sphere-factor census -----------------------------------------------------


class TestCensus:
    def test_two_spheres_of_dimension_two(self):
        census = hilton_milnor_census(2, 2, 6)
        assert census.factors == {2: 2, 3: 1, 4: 2, 5: 3, 6: 6, 7: 9}

    # equal letters, mixed parity, and gcd(m - 1, n - 1) > 1
    @pytest.mark.parametrize("m, n", [(2, 2), (2, 3), (3, 3), (3, 5), (4, 7)])
    def test_factors_match_lyndon_enumeration(self, m, n):
        census = hilton_milnor_census(m, n, 12)
        want = {}
        for w in oracles.brute_lyndon(2, 12):
            i = sum(1 for c in w if c == 0)
            j = len(w) - i
            t = i * (m - 1) + j * (n - 1)
            if t <= 12:
                d = t + 1
                want[d] = want.get(d, 0) + 1
        assert census.factors == want

    def test_negative_truncation_is_refused(self):
        with pytest.raises(ValueError, match="must be nonnegative"):
            hilton_milnor_census(2, 2, -1)
        with pytest.raises(ValueError, match="must be nonnegative"):
            torsion_report(3, 3, 5, 1, -1)

    def test_reconstruct_geometric(self):
        census = hilton_milnor_census(2, 2, 14)
        assert census.reconstruct().as_dims() == tuple(2**k for k in range(15))

    def test_reconstruct_fibonacci(self):
        census = hilton_milnor_census(2, 3, 14)
        want = expand(RationalGF.from_coeffs([1], [1, -1, -1]), 14).as_dims()
        assert census.reconstruct().as_dims() == want

    def test_reconstruct_two_odd_spheres(self):
        census = hilton_milnor_census(3, 3, 14)
        want = expand(RationalGF.from_coeffs([1], [1, 0, -2]), 14).as_dims()
        assert census.reconstruct().as_dims() == want

    @given(st.integers(2, 4), st.integers(2, 4), st.integers(4, 16))
    @settings(max_examples=40, deadline=None)
    def test_reconstruction_property(self, m, n, trunc):
        census = hilton_milnor_census(m, n, trunc)
        a = GradedAlphabet((m - 1, n - 1))
        assert census.reconstruct().as_dims() == expand(a.loop_gf(), trunc).as_dims()
        coeffs = census.reconstruct().coeffs + census.factor_counts().coeffs
        assert all(type(c) is int for c in coeffs)

    def test_reconstruct_degree_40_is_fast(self):
        # 5.6e10 factors: one binomial convolution per dimension, not per factor
        census = hilton_milnor_census(2, 2, 40)
        assert sum(census.factors.values()) > 5 * 10**10
        start = time.perf_counter()
        dims = census.reconstruct().as_dims()
        assert time.perf_counter() - start < 1.0
        assert list(dims) == oracles.word_count_series((1, 1), 40)

    def test_factor_dimensions_fill_the_window(self):
        census = hilton_milnor_census(2, 2, 20)
        assert max(census.factors) == 21
        assert sorted(census.factors) == list(range(2, 22))

    def test_factor_counts_series(self):
        census = hilton_milnor_census(2, 2, 6)
        assert census.factor_counts().as_dims() == (0, 2, 1, 2, 3, 6, 9)

    def test_agrees_with_pi_ranks_when_all_degrees_even(self):
        # two odd spheres give even generator degrees: no sign subtleties,
        # so the graded rank table and the classical census coincide
        for m, n in ((3, 3), (3, 5)):
            census = hilton_milnor_census(m, n, 14)
            a = GradedAlphabet((m - 1, n - 1))
            ranks = pi_ranks(a.loop_gf(), 14).ranks
            assert ranks == {d - 1: c for d, c in census.factors.items() if d <= 15}

    def test_differs_from_graded_ranks_at_odd_degrees(self):
        # even spheres give odd generator degrees; the graded table counts
        # symmetric brackets the ungraded census does not
        census = hilton_milnor_census(2, 2, 10)
        ranks = pi_ranks(GradedAlphabet((1, 1)).loop_gf(), 10).ranks
        assert ranks != {d - 1: c for d, c in census.factors.items() if d <= 11}
        assert ranks[2] == 3 and census.factors[3] == 1


# -- torsion reports ----------------------------------------------------------------


class TestTorsionReport:
    def test_witness_and_model(self):
        rep = torsion_report(3, 3, 5, 2, 20)
        assert rep.exponent_witness == 5
        assert rep.model_id == "factor-count-v1"
        assert rep.prime == 5 and rep.r == 2
        assert not rep.prime_excluded

    def test_witness_at_r_one(self):
        assert torsion_report(3, 3, 5, 1, 10).exponent_witness == 3

    def test_t_lower_shifts_by_torsion_offset(self):
        rep = torsion_report(3, 3, 5, 2, 20)
        for dim, count in rep.census.factors.items():
            if dim % 2 == 1 and (dim - 1) // 2 >= 2:
                assert rep.t_lower[dim + 2 * 5 - 3] >= count
        assert rep.t_lower[12] == 1
        assert rep.t_lower[14] == 2

    def test_excluded_prime_flagged(self):
        rep = torsion_report(3, 3, 2, 1, 10, excluded=PrimeSet((2, 3)))
        assert rep.prime_excluded
        assert rep.excluded.primes == (2, 3)

    def test_census_rate_near_loop_rate(self):
        rep = torsion_report(3, 3, 5, 1, 30)
        assert abs(rep.census_log_index - math.log(math.sqrt(2))) <= 0.1

    def test_small_truncation_still_reports(self):
        rep = torsion_report(2, 2, 3, 1, 6)
        assert rep.exponent_witness == 3
        assert rep.census_log_index > 0

    def test_truncation_too_small_for_witness(self):
        with pytest.raises(ValueError, match="increase truncation"):
            torsion_report(3, 3, 5, 8, 10)

    def test_r_validation(self):
        with pytest.raises(ValueError, match="positive integer"):
            torsion_report(3, 3, 5, 0, 10)


class TestRetraction:
    def test_deleted_manifold_case(self):
        rep = retraction_report(Sphere(2), parse("S2 x S2"))
        assert (rep.m, rep.n) == (3, 4)
        assert rep.excluded.primes == (2,)
        assert repr(rep) == "RetractionReport(m=3, n=4, excluded=(2,))"

    def test_wedge_skeleton(self):
        rep = retraction_report(parse("S2 v S3"), Sphere(2))
        assert (rep.m, rep.n) == (3, 4)
        assert rep.excluded.primes == ()

    def test_equality(self):
        a = retraction_report(Sphere(2), parse("S2 x S2"))
        b = RetractionReport(3, 4, PrimeSet((2,)))
        assert a == b
