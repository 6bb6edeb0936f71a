"""Acceptance battery: one test per shipped guarantee, timed where promised.

Each test here is a self-contained check of one advertised behavior, so the
verbose pytest report reads as a pass/fail line per guarantee. Expected
values come from the independent oracles in oracles.py or from closed forms,
never from the code under test.
"""

import io
import itertools
import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

import oracles
from loopgrowth.cli import run
from loopgrowth.freeloop import (
    BRUTE_FORCE_WORD_LIMIT,
    GradedAlphabet,
    free_loop_good_growth,
    hh_bruteforce,
    hh_necklace,
    tensor_algebra_dims,
)
from loopgrowth.loop import (
    CofiberPresentation,
    YClassPresentation,
    inert_cofiber_loop_gf,
    loop_gf,
    loop_smash_sphere,
    pi_ranks,
    strongly_inert_check,
)
from loopgrowth.series import (
    RationalGF,
    compare_radii,
    gf_add,
    gf_mul,
    gf_reciprocal,
    gf_shift,
    smallest_positive_pole,
)
from loopgrowth.space import parse
from loopgrowth.torsion import least_p_torsion_dim, primes_set, torsion_report


JUST = "attaching map is a sum of Whitehead products of skeletal cells"

LN_SQRT2 = math.log(2) / 2


# -- 1: rational arithmetic vs direct truncated-series arithmetic ---------------


def _random_leaf(rng, deg):
    num = [rng.randint(-3, 3) for _ in range(rng.randint(1, 4))]
    if not any(num):
        num[0] = 1
    den = [rng.choice([1, 1, 2, -1, 3])]
    den += [rng.randint(-3, 3) for _ in range(rng.randint(0, 3))]
    g = RationalGF.from_coeffs(num, den)
    return g, oracles.texpand(num, den, deg)


def _random_expr(rng, depth, deg):
    if depth == 0:
        return _random_leaf(rng, deg)
    op = rng.choice(("add", "mul", "recip", "shift"))
    if op == "add":
        g1, c1 = _random_expr(rng, depth - 1, deg)
        g2, c2 = _random_expr(rng, depth - 1, deg)
        return gf_add(g1, g2), oracles.tadd(c1, c2, deg)
    if op == "mul":
        g1, c1 = _random_expr(rng, depth - 1, deg)
        g2, c2 = _random_expr(rng, depth - 1, deg)
        return gf_mul(g1, g2), oracles.tmul(c1, c2, deg)
    g, c = _random_expr(rng, depth - 1, deg)
    if op == "recip":
        if c[0] == 0:
            return g, c
        return gf_reciprocal(g), oracles.trecip(c, deg)
    k = rng.randint(0, 4)
    return gf_shift(g, k), oracles.tshift(c, k, deg)


def test_c01_series_arithmetic_matches_truncated_oracle_on_200_random_exprs():
    deg = 64
    rng = random.Random(20260817)
    start = time.perf_counter()
    for _ in range(200):
        g, coeffs = _random_expr(rng, rng.randint(1, 3), deg)
        assert list(g.expand(deg).coeffs) == coeffs
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0


# -- 2: smash-attachment loop series vs truncated division ----------------------


SMASH_ZS = [
    "S2", "S3", "S4", "S5", "S6",
    "S2 v S2", "S2 v S3", "S3 v S3", "S2 v S2 v S2",
    "S2 x S2", "S2 x S3", "S3 x S3",
    "Susp(S2 x S2)", "Susp(S2 x S3)", "Susp(S2 x S2 x S2)",
    "S2 x (S3 v S4)", "(S2 v S3) x (S2 v S3)",
    "Susp(S2 x S2) v S2", "S2 ^ S3", "Susp((S2 v S3) x S4)",
]


def test_c02_loop_smash_sphere_matches_independent_division_for_20_spaces():
    assert len(SMASH_ZS) == 20
    deg = 40
    for i, text in enumerate(SMASH_ZS):
        z = parse(text)
        n_alpha = 2 + i % 4
        got = loop_smash_sphere(n_alpha, z).expand(deg).as_dims()
        oz = loop_gf(z)
        oz_series = oracles.texpand(oz.num.coeffs, oz.den.coeffs, deg)
        shifted = oracles.tshift(oz_series, n_alpha - 1, deg)
        body = oracles.tadd([1], [-c for c in shifted], deg)
        want = oracles.trecip(body, deg)
        assert list(got) == want, text


# -- 3: deleted top cell of the product of two spheres ---------------------------


def test_c03_deleted_manifold_loop_series_is_the_wedge_series_exactly():
    pres = CofiberPresentation(
        parse("S2"), parse("S2 x S2"), inert_asserted=True, justification=JUST
    )
    got = inert_cofiber_loop_gf(pres)
    assert got == loop_gf(parse("S2 v S2"))
    assert got == RationalGF.from_coeffs([1], [1, -2])
    rho = smallest_positive_pole(got)
    assert rho.lo == rho.hi == Fraction(1, 2)
    assert rho.hi - rho.lo <= Fraction(1, 10**12)


# -- 4: strongly-inert battery with certified disjoint pole intervals ------------


BATTERY = [
    CofiberPresentation(parse("S2"), parse("S2 x S2"), True, JUST),
    CofiberPresentation(parse("S2"), parse("S3"), True, JUST),
    YClassPresentation(2, 4, parse("S2"), True, JUST).as_cofiber(),
    YClassPresentation(2, 5, parse("S2"), True, JUST).as_cofiber(),
    YClassPresentation(2, 5, parse("S2 v S3"), True, JUST).as_cofiber(),
]


def test_c04_battery_certifies_strict_radius_gap_under_one_second_each():
    for pres in BATTERY:
        start = time.perf_counter()
        res = strongly_inert_check(pres)
        elapsed = time.perf_counter() - start
        assert res.strongly_inert
        assert elapsed < 1.0
        # the reference: rho(OmegaZ) by its own search, the two cells made disjoint
        verdict, rho_y, rho_z = compare_radii(res.rho_y, smallest_positive_pole(loop_gf(pres.Z)))
        assert verdict == -1 and rho_y.hi < rho_z.lo


# -- 5: necklace Hochschild tables vs brute force, all small alphabets -----------


def _brute_cap(degrees, requested):
    # keep the total brute basis within a million words so the exhaustive
    # battery stays desk-scale; the guard test below records why the raw
    # truncation is out of reach for the densest alphabet
    dims = tensor_algebra_dims(GradedAlphabet(degrees), requested)
    total, cap = 0, 0
    for k, d in enumerate(dims):
        total += d
        if total > 10**6:
            break
        cap = k
    return cap


def test_c05_necklace_equals_brute_force_on_every_alphabet_up_to_3_generators():
    start = time.perf_counter()
    battery = [
        degrees
        for size in (1, 2, 3)
        for degrees in itertools.combinations_with_replacement((1, 2, 3), size)
    ]
    assert len(battery) == 19
    for degrees in battery:
        a = GradedAlphabet(degrees)
        n = _brute_cap(degrees, 18)
        fast = hh_necklace(a, n)
        slow = hh_bruteforce(a, n)
        assert fast == slow, degrees
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0


def test_c05_guard_blocks_brute_force_past_the_word_limit():
    assert sum(tensor_algebra_dims(GradedAlphabet((1, 1, 1)), 18)) > BRUTE_FORCE_WORD_LIMIT
    with pytest.raises(ValueError, match="truncation too large for brute force"):
        hh_bruteforce(GradedAlphabet((1, 1, 1)), 18)


# -- 6: elliptic free-loop tables against closed rational forms ------------------


def test_c06_free_loop_tables_of_single_spheres_match_rational_models():
    even = hh_necklace(GradedAlphabet((1,)), 20)
    assert even.lx == (1,) * 21
    odd = hh_necklace(GradedAlphabet((2,)), 20)
    want = oracles.texpand([1, 0, 0, 1], [1, 0, -1], 20)
    assert list(odd.lx) == want


# -- 7: good exponential growth of the free loops of a wedge of two 3-spheres ----


def test_c07_wedge_of_two_3_spheres_has_good_growth_at_degree_40():
    start = time.perf_counter()
    res = free_loop_good_growth(
        GradedAlphabet((2, 2)), trunc_degree=40, lam=1.5, epsilon=0.15, k_min=12
    )
    elapsed = time.perf_counter() - start
    assert res.check.passed
    assert res.log_index_match
    assert res.passed
    assert abs(res.empirical - LN_SQRT2) <= 0.08
    assert elapsed < 120.0


# -- 8: graded Lie ranks vs Lyndon-word counts ------------------------------------


def test_c08_pi_ranks_of_two_even_generators_equal_lyndon_counts_to_degree_14():
    table = pi_ranks(RationalGF.from_coeffs([1], [1, 0, -2]), 14)
    by_length = Counter(len(w) for w in oracles.brute_lyndon(2, 7))
    assert table.ranks == {2 * n: c for n, c in sorted(by_length.items())}


# -- 9: torsion-side arithmetic ----------------------------------------------------


def test_c09_prime_window_and_least_torsion_dimension():
    assert primes_set(7, 1).primes == (2, 3)
    assert least_p_torsion_dim(3, 5) == 10


# -- 10: census growth rate --------------------------------------------------------


def test_c10_census_log_index_for_two_3_spheres_matches_the_loop_rate():
    report = torsion_report(3, 3, p=5, r=1, trunc_degree=30)
    assert abs(report.census_log_index - LN_SQRT2) <= 0.1


# -- 11: byte-level determinism of the CLI ------------------------------------------


CLI_COMMANDS = [
    ["parse", "Susp(S2 ^ S3) x S4"],
    ["homology", "S2 x S3"],
    ["loop-series", "S2 v S2", "--max-degree", "8"],
    ["rho", "S2 v S3"],
    ["log-index", "S2 v S2", "--max-degree", "30"],
    ["cofiber", "--A", "S2", "--Z", "S2 x S2", "--inert", JUST],
    ["connsum", "--A", "S3", "--M", "S2 x S2", "--N", "S2 x S2", "--inert", JUST],
    ["yclass", "--m", "2", "--n", "5", "--J", "S2 v S3", "--inert", JUST],
    ["free-loop", "--degrees", "2,2", "--max-degree", "20", "--k-min", "8"],
    ["hm-census", "--m", "3", "--n", "3", "--max-degree", "14"],
    ["torsion", "--m", "3", "--n", "3", "--p", "5", "--r", "2", "--max-degree", "20"],
    ["primes", "--d", "7", "--s", "1"],
    ["retraction", "--A", "S2", "--Z", "S2 x S2"],
]


def _run_bytes(argv):
    out = io.StringIO()
    code = run(argv, out)
    return code, out.getvalue().encode()


def test_c11_cli_output_identical_across_runs():
    for argv in CLI_COMMANDS:
        assert _run_bytes(argv) == _run_bytes(argv)
    for fmt in ("json", "csv"):
        argv = ["free-loop", "--degrees", "1,2", "--max-degree", "14",
                "--method", "brute", "--format", fmt]
        assert _run_bytes(argv) == _run_bytes(argv)
