"""Golden bytes: every case prints exactly the stdout and exit code frozen in
golden_cli.json.

The cases cover every command of test_cli.COMMANDS in both formats, the
brute-force free-loop path, a presentation read from a file, one argv per
error kind, four requests whose loop-series denominator has a repeated
factor, the loop series of a twelve-sphere product and of a wedge of
products, sphere products alone, under and around wedges and as a
cofiber's Z, a cofiber whose redA shares a factor with the loop denominator
of Z, one free-loop growth check per branch of its verdict, and the Witt
counts and per-degree rates of free-loop, hm-census, torsion and log-index
at larger truncations, a report whose table has no rows, a connected sum
whose two radii lie about rho^252 apart, a cofiber whose pole lies within
the tolerance of rho(OmegaZ), over a Z whose denominator has a repeated
factor, the poles of spheres near the dimension limit in mixed shapes and
of denominators with repeated factors of degree up to 962,
denominators with binomial factors times a cofactor, built on the
expression tree and not, and poles that the guards certify only on a cell
finer than the tolerance or by the gcd of two guards. A
case whose argv holds "{file}" runs with the presentation file written to a
temporary directory; the path is never echoed.

After an intentional output change, refreeze with
`PYTHONPATH=src python tests/test_golden.py` and review the diff.
"""

import gc
import io
import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
from loopgrowth import polynomial, series
from loopgrowth.cli import run
from loopgrowth.loop import CofiberPresentation, loop_gf, strongly_inert_check
from loopgrowth.polynomial import IntPolynomial
from loopgrowth.series import smallest_positive_pole
from loopgrowth.space import parse
from test_cli import COMMANDS, JUST

DATA = Path(__file__).with_name("golden_cli.json")
PRESENTATION = {"kind": "cofiber", "A": "S2", "Z": "S2 x S3", "inert_justification": JUST}
# a connected sum whose A is suspended 250 times: rho(OmegaY) lies about
# rho^252 below rho(OmegaZ), and the guards certify Y's cell below it
DEEP_CONNSUM = [
    "connsum", "--A", "Susp(" * 250 + "S2" + ")" * 250, "--M", "Susp(S2)",
    "--N", "S3 v S3 v S3 v S3 v S3 v S3", "--inert", "assumed",
]
# a cofiber over the rho blow-up's Z, whose A is suspended 250 times: Y's
# first cell reaches past rho(OmegaZ), so the guards certify a finer one,
# below it
DEEP_COFIBER = [
    "cofiber", "--A", "Susp(" * 250 + "S2" + ")" * 250,
    "--Z", "((S189 v S7) x ((S284 ^ Susp(S231)) x (S257 x (S3 v S4))))",
    "--inert", "x", "--max-degree", "5",
]
# poles whose first cell the guards do not certify, so they refine on the
# least guard sign: a squared wedge of low spheres under a 250-fold
# suspension, where D_Y = D_Z - z^252 has two roots about 3^-127 from the
# double root 1/3 of D_Z, and a product whose two top guards, 1 - 3z^2 and
# (1 - 3z^2)(1 + z^2), share the irrational first root 1/sqrt(3)
GUARD_WALK = {
    "cofiber-squared-wedge-deep-suspension": [
        "cofiber", "--A", "Susp(" * 250 + "S2" + ")" * 250,
        "--Z", "((S2 v S2 v S2) x (S2 v S2 v S2)) x S2", "--inert", "x",
    ],
    "rho-shared-irrational-root": ["rho", "(S3 v S3 v S3) x Susp(S2 v S2 v S4 v S4 v S4)"],
}
# spheres near the dimension limit in mixed shapes: loop denominators of
# degree about 1,000 to 3,000 whose poles are not products of binomials
BIG_SPHERES = {
    "cofiber-big-spheres": [
        "cofiber", "--A", "S1000 x S999 x S998", "--Z", "S997 x S996 x S995", "--inert", "assumed",
    ],
    "rho-suspended-big-product": ["rho", "Susp(S1000 x S999 x S998)"],
    "rho-big-sphere-wedge-product": ["rho", "S1000 v (S999 x S998 x S997)"],
    "rho-wedge-of-big-products": ["rho", "(S1000 x S999 x S998) v (S997 x S996 x S995)"],
    "rho-product-of-big-wedges": ["rho", "(S1000 v S999) x (S998 v S997)"],
    # denominators with repeated factors, of degree 962 and 628, whose
    # squarefree part and Cauchy bound the guarded pole search never takes,
    # and a cofiber of degree 3,990
    "rho-repeated-factor-blow-up": [
        "rho", "((S189 v S7) x ((S284 ^ Susp(S231)) x (S257 x (S3 v S4))))",
    ],
    "log-index-repeated-factor-blow-up": [
        "log-index",
        "((S7 v ((S222 v S7) ^ (S4 x S267))) x ((Susp(S2) ^ (S5 ^ S2)) ^ ((S115 x S7) x (S5 v S3))))",
    ],
    "cofiber-degree-3990": [
        "cofiber", "--A", "S500 v S400", "--Z", "S1000 x S999 x S998 x S997", "--inert", "x",
    ],
}


def cases():
    out = []
    for argv in COMMANDS:
        for fmt in ("json", "csv"):
            out.append((f"{argv[0]}-{fmt}", argv + ["--format", fmt]))
    brute = ["free-loop", "--degrees", "1,2", "--max-degree", "12", "--method", "brute"]
    out += [("free-loop-brute-json", brute), ("free-loop-brute-csv", brute + ["--format", "csv"])]
    out += [
        ("cofiber-file", ["cofiber", "--file", "{file}", "--max-degree", "12"]),
        ("parse-error", ["rho", "S2 v (S3"]),
        ("parse-error-csv", ["parse", "S2 v", "--format", "csv"]),
        ("hypothesis-error", ["yclass", "--m", "2", "--n", "3", "--J", "S2", "--inert", JUST]),
        ("validation-error", ["loop-series", "S2", "--max-degree", "300"]),
        ("not-expressible", ["log-index", "(S2 x S2) ^ (S2 x S3)"]),
    ]
    # a denominator with a repeated factor, (1 - z - z^2)^2, and no rational
    # pole: its pole is isolated on the squarefree part
    square = "(S2 v S3) x (S2 v S3)"
    out += [(f"{cmd}-repeated-factor", [cmd, square]) for cmd in ("rho", "loop-series", "log-index")]
    out += [("cofiber-repeated-factor", ["cofiber", "--A", "S3", "--Z", square, "--inert", "x"])]
    # series built from spheres by products and wedges, which take no gcd,
    # and a cofiber whose redA = z^2 + z^3 shares the factor 1 + z with the
    # loop denominator 1 - z^2 of Z, which 1/(D_Z - redA) never forms
    product = " x ".join(f"S{n}" for n in range(2, 14))
    big = ["loop-series", product, "--max-degree", "200"]
    out += [("loop-series-sphere-product-json", big)]
    out += [("loop-series-sphere-product-csv", big + ["--format", "csv"])]
    out += [("loop-series-wedge-of-products", ["loop-series", "(S2 x S3) v (S4 x S5)"])]
    out += [("cofiber-shared-factor", ["cofiber", "--A", "S2 v S3", "--Z", "S3", "--inert", "x"])]
    # sphere products, whose loop denominators are products of binomials
    # 1 - z^a, and a product whose denominator keeps a cofactor 1 - z - z^2
    def spheres(hi, lo):
        return " x ".join(f"S{n}" for n in range(hi, lo - 1, -1))

    long = ["loop-series", spheres(40, 2), "--max-degree", "200"]
    out += [("loop-series-40-spheres-json", long)]
    out += [("loop-series-40-spheres-csv", long + ["--format", "csv"])]
    out += [("rho-eleven-spheres", ["rho", spheres(100, 90)])]
    out += [("rho-three-top-spheres", ["rho", spheres(1000, 998)])]
    mixed = ["loop-series", "(S2 v S3) x S4 x S5", "--max-degree", "200"]
    out += [("loop-series-wedge-times-spheres", mixed)]
    repeated = ["log-index", "S2 x S2 x S3 x S3 x S5 x S7 x S7", "--max-degree", "200"]
    out += [("log-index-repeated-spheres", repeated)]
    # sphere products alone, under a wedge, around a wedge and as the
    # cofiber, whose denominators are built from their exponents; the
    # 30-term log index reads fewer terms than the Pringsheim guard's 64
    four = "S2 x S3 x S5 x S5"
    out += [(f"log-index-four-spheres-{n}", ["log-index", four, "--max-degree", n])
            for n in ("30", "200")]
    wedge = ["loop-series", "(S2 x S3) v (S4 x S5 x S5)"]
    out += [("loop-series-wedge-of-sphere-products", wedge)]
    out += [("rho-spheres-around-a-wedge", ["rho", "S2 x (S3 v S4) x S5"])]
    out += [("loop-series-lone-sphere", ["loop-series", "S7"])]
    cofiber = ["cofiber", "--A", "S3", "--Z", "S2 x S4 x (S3 v S3)", "--inert", "assumed"]
    out += [("cofiber-spheres-around-a-wedge", cofiber)]
    # one free-loop growth check per branch of its verdict: no admissible
    # degree, a first degree too far past k_min, a ratio gap, a last degree
    # too far below N, and a pass
    def growth(degrees, n, k_min, epsilon, lam):
        return ["free-loop", "--degrees", degrees, "--max-degree", n, "--k-min", k_min,
                "--epsilon", epsilon, "--lambda", lam]

    out += [("free-loop-growth-empty", growth("1,1", "20", "5", "0.01", "1.1"))]
    out += [("free-loop-growth-late-start", growth("1,1", "40", "5", "0.1", "1.1"))]
    out += [("free-loop-growth-ratio-gap", growth("4,4", "20", "5", "0.05", "1.05"))]
    out += [("free-loop-growth-short-coverage", growth("2,2,2", "20", "2", "0.002", "1.05"))]
    out += [("free-loop-growth-passed", growth("1,1", "40", "30", "0.1", "1.1"))]
    # the Witt counts and per-degree rates at larger truncations
    necklace = ["free-loop", "--degrees", "1,2,3", "--max-degree", "200"]
    out += [("free-loop-necklace-200-json", necklace)]
    out += [("free-loop-necklace-200-csv", necklace + ["--format", "csv"])]
    out += [("hm-census-3-4", ["hm-census", "--m", "3", "--n", "4", "--max-degree", "60"])]
    torsion = ["torsion", "--m", "3", "--n", "5", "--p", "5", "--r", "3", "--max-degree", "60"]
    out += [("torsion-3-5", torsion)]
    top = ["log-index", "S2 v S3", "--max-degree", "40", "--k-min", "40"]
    out += [("log-index-tail-at-top", top)]
    # a report whose result list and table rows are both empty
    out += [("primes-empty-window", ["primes", "--d", "3", "--s", "1"])]
    out += [("connsum-deep-suspension", DEEP_CONNSUM)]
    out += [(f"cofiber-deep-suspension-{fmt}", DEEP_COFIBER + ["--format", fmt])
            for fmt in ("json", "csv")]
    out += [(name, argv) for name, argv in BIG_SPHERES.items()]
    # denominators that split into binomials times a cofactor: a cofiber's
    # (1 - 3z)(1 - z), which no expression tree splits, and wedges under
    # and around sphere products, which the tree splits as it builds them
    partial = ["cofiber", "--A", "S2", "--Z", "(S2 v S2) x (S2 v S2)", "--inert", "assumed"]
    out += [("cofiber-binomial-times-cofactor", partial)]
    two_wedges = ["loop-series", "(S2 v S3) x (S4 v S5) x S6 x S7", "--max-degree", "100"]
    out += [("loop-series-two-wedges-times-spheres", two_wedges)]
    nested = ["log-index", "((S2 v S3) x S4) v S5 x S6", "--max-degree", "200"]
    out += [("log-index-wedge-around-a-product", nested)]
    out += [(name, argv) for name, argv in GUARD_WALK.items()]
    return out


def run_case(argv, directory):
    path = Path(directory) / "pres.json"
    path.write_text(json.dumps(PRESENTATION))
    out = io.StringIO()
    code = run([a.replace("{file}", str(path)) for a in argv], out)
    return code, out.getvalue()


GOLDEN = json.loads(DATA.read_text()) if DATA.exists() else {}


@pytest.mark.parametrize("name,argv", cases(), ids=[name for name, _ in cases()])
def test_golden_bytes(name, argv, tmp_path):
    want = GOLDEN[name]
    assert want["argv"] == argv
    assert run_case(argv, tmp_path) == (want["exit"], want["stdout"])


def test_no_report_builds_a_sturm_chain(tmp_path, monkeypatch):
    # guard signs isolate every pole, with no squarefree step; a Sturm chain
    # is left to the independent recheck of Radius.certificate_holds
    chains = oracles.count_calls(monkeypatch, polynomial, "sturm_chain")
    for name, argv in cases():
        want = GOLDEN[name]
        assert run_case(argv, tmp_path) == (want["exit"], want["stdout"]), name
    assert chains == []


def test_guards_certify_every_pole(tmp_path, monkeypatch):
    # every series a report isolates a pole of carries its guards, the
    # free-loop alphabet's 1/(1 - sum z^d) too, and they certify a cell for
    # each, so no report takes the bare series' path
    bare = ("_isolating_cells", "_squarefree_mod_p", "squarefree_part", "cauchy_root_bound")
    calls = [oracles.count_calls(monkeypatch, series, name) for name in bare]
    for name, argv in cases():
        want = GOLDEN[name]
        assert run_case(argv, tmp_path) == (want["exit"], want["stdout"]), name
    assert calls == [[]] * 4


def test_every_pole_is_taken_on_a_guarded_series(tmp_path, monkeypatch):
    # every series a report takes a pole of is built on the expression tree,
    # so the pole search's binomial exit needs no split but the carried one
    calls = oracles.count_calls(monkeypatch, series, "smallest_positive_pole")
    for _, argv in cases():
        run_case(argv, tmp_path)
    assert calls
    assert all(gf._guards is not None for gf, *_ in calls)


def answers_within_a_second(monkeypatch, tmp_path, name):
    """The median of three runs of a golden case is under a second, with its
    bytes, and no run takes a Taylor shift or a squarefree step."""
    case = GOLDEN[name]
    shifts = oracles.count_calls(monkeypatch, polynomial, "taylor_shift")
    parts = oracles.count_calls(monkeypatch, polynomial, "squarefree_part")
    tests = oracles.count_calls(monkeypatch, series, "_squarefree_mod_p")
    seconds = []
    for _ in range(3):
        start = time.perf_counter()
        assert run_case(case["argv"], tmp_path) == (case["exit"], case["stdout"])
        seconds.append(time.perf_counter() - start)
    assert sorted(seconds)[1] < 1
    assert shifts == parts == tests == []


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_the_deep_cofiber_answers_within_a_second(monkeypatch, tmp_path, fmt):
    # Y's pole is certified by the guards on a cell finer than the
    # tolerance, which certifies the radius gap too
    answers_within_a_second(monkeypatch, tmp_path, f"cofiber-deep-suspension-{fmt}")


def test_reports_leave_no_reference_cycles(tmp_path):
    # with the collector off, any cyclic garbage a report leaves stays
    # behind for the one collection at the end to find
    gc.collect()
    gc.disable()
    try:
        for _, argv in cases():
            run_case(argv, tmp_path)
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestBigSpheres:
    """Spheres near the dimension limit in mixed shapes, and products of
    wedges with repeated factors: poles that no binomial split certifies,
    on denominators of degree up to 3,990."""

    @pytest.mark.parametrize("name", list(BIG_SPHERES))
    def test_a_frozen_case_answers_within_a_second(self, monkeypatch, tmp_path, name):
        # the guards are the whole certificate: no Descartes search and no
        # squarefree step, which the blow-ups once spent their time in
        answers_within_a_second(monkeypatch, tmp_path, name)

    def test_the_degree_3990_cell_is_certified_by_the_series_shape(self):
        # certificate_holds recounts roots by Taylor shifts of a degree-3,990
        # polynomial, which takes minutes; the shape of the series certifies
        # the interval instead. D_Z = prod (1 - z^a) is positive and falling
        # on (0, 1) and redA = z^400 + z^500 rises, so D_Y = D_Z - redA has
        # one root there, inside (lo, hi]
        argv = GOLDEN["cofiber-degree-3990"]["argv"]
        rho = strongly_inert_check(
            CofiberPresentation(parse(argv[2]), parse(argv[4]), inert_asserted=True)
        ).rho_y
        d_z = IntPolynomial((1,))
        for a in (996, 997, 998, 999):
            d_z = d_z * IntPolynomial((1,) + (0,) * (a - 1) + (-1,))
        d_y = d_z - IntPolynomial((0,) * 400 + (1,) + (0,) * 99 + (1,))
        assert rho._sqfree in (d_y, -d_y)
        assert d_y.sign_at(rho.lo) > 0 > d_y.sign_at(rho.hi) and rho.hi < 1


class TestGuardWalk:
    """Poles that the guards certify only on a cell finer than the tolerance,
    or by the gcd of two top guards that share the pole."""

    @staticmethod
    def radius(name):
        argv = GOLDEN[name]["argv"]
        if argv[0] == "rho":
            return smallest_positive_pole(loop_gf(parse(argv[1])))
        c = CofiberPresentation(parse(argv[2]), parse(argv[4]), inert_asserted=True)
        return strongly_inert_check(c).rho_y

    @pytest.mark.parametrize("name", list(GUARD_WALK))
    def test_a_frozen_case_answers_within_a_second(self, monkeypatch, tmp_path, name):
        answers_within_a_second(monkeypatch, tmp_path, name)

    @pytest.mark.parametrize("name", list(GUARD_WALK))
    def test_the_cell_is_certified(self, name):
        # the independent recheck, and sympy's root count on the denominator
        sympy = pytest.importorskip("sympy")
        rho = self.radius(name)
        assert rho.method == "guard signs" and not rho.is_exact
        assert rho.certificate_holds()
        z = sympy.Symbol("z")
        den = sympy.Poly(rho._den.coeffs[::-1], z)
        lo, hi = (sympy.Rational(x.numerator, x.denominator) for x in (rho.lo, rho.hi))
        assert den.count_roots(0, lo) == 0 and den.count_roots(lo, hi) == 1

    def test_the_squared_wedge_cell_lies_below_the_double_root(self):
        rho = self.radius("cofiber-squared-wedge-deep-suspension")
        assert rho.hi < Fraction(1, 3) and rho._bracketed.degree() == 252

    def test_a_shared_root_cell_carries_the_gcd_of_the_top_guards(self):
        rho = self.radius("rho-shared-irrational-root")
        g = IntPolynomial((1, 0, -3))
        assert rho._bracketed in (g, -g)
        assert rho.lo ** 2 < Fraction(1, 3) < rho.hi ** 2


if __name__ == "__main__":
    import tempfile

    frozen = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in cases():
            code, stdout = run_case(argv, tmp)
            frozen[name] = {"argv": argv, "exit": code, "stdout": stdout}
    DATA.write_text(json.dumps(frozen, indent=1) + "\n")
