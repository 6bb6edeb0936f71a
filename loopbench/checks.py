"""Independent checks of loopgrowth reports.

Every check recomputes the answer without loopgrowth's series, polynomial or
parser code: expressions come in as the generator's trees, loop series are
rebuilt from the closed rules with the truncated arithmetic of
`tests/oracles.py`, radii are re-certified with sympy's exact real-root
counts, censuses are multiplied back out with binomial series and compared
with the word-count series, and free-loop tables are compared with the other
Hochschild method (necklace against brute force and back). Reports are also
validated against the bundled JSON schema.

`Checker.check(request, exit_code, text)` returns a list of problems; an
empty list means the report is correct.
"""

from __future__ import annotations

import csv
import importlib.util
import io
import json
import math
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import jsonschema
import sympy

from workloads import degree_within, text

Z = sympy.Symbol("z")
POLE_TOLERANCE = Fraction(1, 10**12)
FLOAT_TOL = 1e-9
NECKLACE_CROSSCHECK_WORDS = 5_000
SIGNED_NECKLACE_WORDS = 2_000
TREE_DEPTH_LIMIT = 20_000


def load_oracles(root: Path):
    spec = importlib.util.spec_from_file_location("oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class CheckFailed(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


# -- closed rules on trees ---------------------------------------------------------


def homology(t) -> list:
    """Rational homology polynomial (constant term 1) of an expression tree."""
    op = t[0]
    if op == "S":
        return [1] + [0] * (t[1] - 1) + [1]
    if op == "Susp":
        return [1] + reduced(t[1])
    a, b = reduced(t[1]), reduced(t[2])
    if op == "v":
        out = [0] * max(len(a), len(b))
        for i, c in enumerate(a):
            out[i] += c
        for i, c in enumerate(b):
            out[i] += c
    elif op == "x":
        return _mul(homology(t[1]), homology(t[2]))
    else:
        out = _mul(a, b)
    out[0] = 1
    return out


def reduced(t) -> list:
    out = homology(t)
    out[0] -= 1
    return out


def profile(t):
    """(connectivity, dimension) bounds of an expression tree."""
    op = t[0]
    if op == "S":
        return t[1] - 1, t[1]
    if op == "Susp":
        s, d = profile(t[1])
        return s + 1, d + 1
    (sl, dl), (sr, dr) = profile(t[1]), profile(t[2])
    if op == "v":
        return min(sl, sr), max(dl, dr)
    if op == "x":
        return min(sl, sr), dl + dr
    return sl + sr + 1, dl + dr


def sphere_wedge(t) -> bool:
    op = t[0]
    if op in ("S", "Susp"):
        return True
    if op == "v":
        return sphere_wedge(t[1]) and sphere_wedge(t[2])
    if op == "^":
        return sphere_wedge(t[1]) or sphere_wedge(t[2])
    return False


def tree_json(t) -> dict:
    names = {"v": "wedge", "x": "product", "^": "smash"}
    if t[0] == "S":
        return {"kind": "sphere", "n": t[1]}
    if t[0] == "Susp":
        return {"kind": "suspension", "inner": tree_json(t[1])}
    return {"kind": names[t[0]], "left": tree_json(t[1]), "right": tree_json(t[2])}


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _strip(p):
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


class Rules:
    """Loop series as (numerator, denominator) integer polynomials, built with
    the oracle's truncated products and sums (exact at full degree)."""

    def __init__(self, oracles):
        self.o = oracles

    def mul(self, a, b):
        return _strip(int(c) for c in self.o.tmul(a, b, len(a) + len(b) - 2))

    def add(self, a, b):
        return _strip(int(c) for c in self.o.tadd(a, b, max(len(a), len(b)) - 1))

    def sub(self, a, b):
        return self.add(a, [-c for c in b])

    def loop(self, t):
        op = t[0]
        if op == "S":
            return [1], [1] + [0] * (t[1] - 2) + [-1]
        if op == "x":
            (n1, d1), (n2, d2) = self.loop(t[1]), self.loop(t[2])
            return self.mul(n1, n2), self.mul(d1, d2)
        if op == "Susp":
            return [1], self.sub([1], reduced(t[1]))
        if op == "v":
            (n1, d1), (n2, d2) = self.loop(t[1]), self.loop(t[2])
            nn = self.mul(n1, n2)
            den = self.sub(self.add(self.mul(d1, n2), self.mul(d2, n1)), nn)
            return nn, den
        if not sphere_wedge(t):
            raise CheckFailed("smash without a suspension factor has no closed loop series")
        red = reduced(t)
        _require(red[0] == 0 and red[1] == 0, "smash homology not simply connected")
        return [1], self.sub([1], red[1:])

    def cofiber(self, a_tree, z_tree):
        nz, dz = self.loop(z_tree)
        return nz, self.sub(dz, self.mul(reduced(a_tree), nz))

    def expand(self, num, den, n):
        return self.o.texpand(num, den, n)


# -- exact radii with sympy ---------------------------------------------------------


def _poly(coeffs):
    return sympy.Poly(list(reversed([int(c) for c in coeffs])), Z, domain="ZZ")


def reduced_denominator(num, den):
    """Squarefree part of den / gcd(num, den): exactly the poles of num/den."""
    p, q = _poly(num), _poly(den)
    return q.quo(p.gcd(q)).sqf_part()


def _rational(d) -> Fraction:
    return Fraction(int(d["num"]), int(d["den"]))


def _sym(q: Fraction):
    return sympy.Rational(q.numerator, q.denominator)


def check_interval(q, interval):
    """Re-certify a reported radius against the poles q; returns (lo, hi) or None."""
    positive = q.count_roots(0) if q.degree() > 0 else 0
    if interval["infinite"]:
        _require(positive == 0, "radius reported infinite but a positive pole exists")
        _require(interval["polynomial"] == (q.degree() == 0), "polynomial flag is wrong")
        return None
    lo, hi = _rational(interval["lo"]), _rational(interval["hi"])
    _require(0 < lo <= hi, "radius interval is not positive and ordered")
    if lo == hi:
        _require(interval["exact"], "degenerate interval not marked exact")
        _require(q.eval(_sym(lo)) == 0, "exact radius is not a pole")
        _require(q.count_roots(0, _sym(lo)) == 1, "a smaller positive pole exists")
    else:
        _require(not interval["exact"], "open interval marked exact")
        _require(hi - lo <= POLE_TOLERANCE, "radius interval wider than 1e-12")
        _require(q.eval(_sym(lo)) != 0, "left endpoint is a pole")
        _require(q.count_roots(0, _sym(lo)) == 0, "a pole lies below the interval")
        _require(q.count_roots(_sym(lo), _sym(hi)) == 1, "interval does not isolate one pole")
    return lo, hi


def smallest_pole(q):
    """sympy isolating interval (a, b) of the smallest positive root, or None."""
    if q.degree() <= 0 or q.count_roots(0) == 0:
        return None
    (a, b), _ = min(q.intervals(inf=0, eps=sympy.Rational(1, 10**15)), key=lambda iv: iv[0][0])
    return Fraction(int(a.p), int(a.q)), Fraction(int(b.p), int(b.q))


def check_log_index(li, q, reported_interval=None):
    pole = reported_interval or smallest_pole(q)
    if pole is None:
        _require(li["value"] == 0.0, "infinite radius needs log index 0")
        _require(li["eventually_zero"] == (q.degree() == 0), "eventually_zero flag is wrong")
        return
    lo, hi = pole
    exact = -math.log((lo + hi) / 2)
    _require(abs(li["value"] - exact) <= li["halfwidth"] + FLOAT_TOL, "log index off the radius")


def _tail_rate(values, start, stop):
    best = None
    for i in range(max(start, 1), stop + 1):
        c = Fraction(values[i])
        if c > 0:
            v = (math.log(c.numerator) - math.log(c.denominator)) / i
            best = v if best is None else max(best, v)
    return best


def _close(a, b):
    return abs(a - b) <= FLOAT_TOL * max(1.0, abs(b))


# -- the checker ---------------------------------------------------------------------


class Checker:
    def __init__(self, root: Path, rerun):
        """`rerun(argv)` returns (exit_code, text); used for CSV requests."""
        self.oracles = load_oracles(root)
        self.rules = Rules(self.oracles)
        schema = json.loads((root / "src" / "loopgrowth" / "report_schema.json").read_text())
        self.validator = jsonschema.Draft7Validator(schema)
        self.rerun = rerun
        self._poles = {}

    def check(self, req, code, text) -> list:
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, TREE_DEPTH_LIMIT))  # the trees of the defect requests are deep
        try:
            self._check(req, code, text)
        except CheckFailed as e:
            return [str(e)]
        except (KeyError, IndexError, TypeError, ValueError) as e:
            return [f"malformed report: {type(e).__name__}: {e}"]
        finally:
            sys.setrecursionlimit(limit)
        return []

    def _check(self, req, code, text):
        expect = req.expect
        if expect.get("csv"):
            return self._check_csv(req, code, text)
        report = json.loads(text)
        errors = sorted(self.validator.iter_errors(report), key=str)
        _require(not errors, f"schema: {errors[0].message}" if errors else "")
        if "defect" in expect and code != 0:
            # the input crashed or hung at baseline; a fixed engine may refuse
            # it, but only with a typed error report and its exit code
            _require("error" in report, f"exit code {code} without an error report")
            kind = report["error"]["kind"]
            _require(code == (2 if kind == "parse-error" else 1), f"exit code {code} for a {kind}")
            return
        if "error" in expect:
            _require(code == expect["exit"], f"exit code {code}, expected {expect['exit']}")
            _require("error" in report, "expected an error report")
            _require(report["error"]["kind"] == expect["error"],
                     f"error kind {report['error']['kind']}, expected {expect['error']}")
            return
        _require(code == 0, f"exit code {code} for a valid request")
        _require(report["command"] == req.command, "command echo")
        getattr(self, req.command.replace("-", "_"))(req, report)

    def _check_csv(self, req, code, text):
        _require(code == 0, f"exit code {code}")
        argv = req.argv[: req.argv.index("--format")]
        json_code, json_text = self.rerun(argv)
        _require(json_code == 0, "JSON rendering of the request failed")
        json_req = type(req)(argv, {k: v for k, v in req.expect.items() if k != "csv"})
        self._check(json_req, json_code, json_text)
        table = json.loads(json_text)["table"]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(table["columns"])
        writer.writerows(table["rows"])
        _require(text == buf.getvalue(), "CSV does not render the report table")

    # -- per command -------------------------------------------------------------

    def _poles_of(self, num, den):
        key = (tuple(num), tuple(den))
        if key not in self._poles:
            self._poles[key] = reduced_denominator(num, den)
        return self._poles[key]

    def _series(self, report, num, den, n):
        series = report["result"]["series"]
        rn, rd = series["numerator"], series["denominator"]
        _require(self.rules.mul(rn, den) == self.rules.mul(num, rd), "series differs from the closed rules")
        _require(rd[0] > 0, "denominator constant term not positive")
        _require(_poly(rn).gcd(_poly(rd)).degree() <= 0, "series is not reduced")
        coeffs = self.rules.expand(num, den, n)
        got = [Fraction(c) for c in report["result"]["coefficients"]]
        _require(got == coeffs, "coefficients differ from the truncated oracle")
        _require(report["table"]["rows"] == [[k, str(c)] for k, c in enumerate(coeffs)], "series table")
        return coeffs

    def parse(self, req, report):
        t = req.expect["tree"]
        _require(report["result"]["tree"] == tree_json(t), "syntax tree")
        _require(report["result"]["canonical"] == text(t), "canonical form")

    def homology(self, req, report):
        t, n = req.expect["tree"], int(req.argv[req.argv.index("--max-degree") + 1])
        h = _strip(homology(t))
        want = h[: min(n, len(h) - 1) + 1]
        _require(report["result"]["polynomial"] == want, "homology polynomial")
        s, d = profile(t)
        _require(report["result"]["profile"] == {"connectivity": s, "dimension": d}, "profile")

    def loop_series(self, req, report):
        num, den = self.rules.loop(req.expect["tree"])
        self._series(report, num, den, report["request"]["max_degree"])
        check_interval(self._poles_of(num, den), report["result"]["rho"])

    def rho(self, req, report):
        num, den = self.rules.loop(req.expect["tree"])
        check_interval(self._poles_of(num, den), report["result"]["rho"])

    def log_index(self, req, report):
        num, den = self.rules.loop(req.expect["tree"])
        res, n = report["result"], report["request"]["max_degree"]
        check_log_index(res["log_index"], self._poles_of(num, den))
        tail = max(1, min(report["request"]["k_min"], n))
        _require(res["tail_start"] == tail, "tail start")
        rate = _tail_rate(self.rules.expand(num, den, n), tail, n)
        _require(_close(res["empirical"], rate), "empirical log index")

    def _verdict(self, req, report, a_tree, z_tree):
        num, den = self.rules.cofiber(a_tree, z_tree)
        self._series(report, num, den, req.expect["max_degree"])
        res = report["result"]
        qy = self._poles_of(num, den)
        qz = self._poles_of(*self.rules.loop(z_tree))
        pole = check_interval(qy, res["rho"])
        check_log_index(res["log_index"], qy, pole)
        z_finite = qz.degree() > 0 and qz.count_roots(0) > 0
        if pole is None:
            _require(not res["strongly_inert"], "strongly inert with an infinite radius")
        elif res["strongly_inert"]:
            _require(not z_finite or qz.count_roots(0, _sym(pole[1])) == 0,
                     "claimed rho(OmegaY) < rho(OmegaZ) but OmegaZ has a pole at or below")
        else:
            _require(z_finite and qz.count_roots(0, _sym(pole[1])) > 0,
                     "radius gap not certified although rho(OmegaZ) lies above")
        _require(res["omega_divergent"] == z_finite, "omega_divergent")
        below_one = 0
        if qy.degree() > 0:
            below_one = qy.count_roots(0, 1) - (1 if qy.eval(1) == 0 else 0)
        _require(res["elliptic"] == (below_one == 0), "elliptic flag")
        if res["strongly_inert"]:
            verdict = "certified-strongly-inert"
        elif res["omega_divergent"]:
            verdict = "certified-divergent-loop-series"
        else:
            verdict = "not-certified"
        _require(res["verdict"] == verdict, "verdict string")

    def cofiber(self, req, report):
        t = req.expect["trees"]
        _require(report["request"]["A"] == text(t["A"]) and report["request"]["Z"] == text(t["Z"]),
                 "request echo")
        self._verdict(req, report, t["A"], t["Z"])

    def connsum(self, req, report):
        t = req.expect["trees"]
        _require([report["request"][k] for k in "AMN"] == [text(t[k]) for k in "AMN"], "request echo")
        self._verdict(req, report, t["A"], ("v", t["M"], t["N"]))

    def yclass(self, req, report):
        t = req.expect["trees"]
        m, n = t["m"], t["n"]
        _require(report["result"]["cofiber_space"] == f"S{m} x S{n - m}", "cofiber space")
        self._verdict(req, report, t["J"], ("x", ("S", m), ("S", n - m)))

    def free_loop(self, req, report):
        from loopgrowth.freeloop import GradedAlphabet, hh_bruteforce, hh_necklace

        degrees, n = req.expect["degrees"], req.expect["max_degree"]
        res = report["result"]
        _require(res["degrees"] == degrees and res["method"] == req.expect["method"], "alphabet echo")
        rows = report["table"]["rows"]
        _require([r[0] for r in rows] == list(range(n + 1)), "table degrees")
        hh0, hh1, lx = ([r[i] for r in rows] for i in (1, 2, 3))
        dims = self.oracles.word_count_series(degrees, n)
        for k in range(n + 1):
            av = sum(dims[k - d] for d in degrees if k >= d)
            _require(hh0[k] - hh1[k] == dims[k] - av, f"rank-nullity at degree {k}")
            _require(lx[k] == hh0[k] + (hh1[k - 1] if k else 0), f"assembly at degree {k}")
        # the other Hochschild method, on as many degrees as stays cheap
        alphabet = GradedAlphabet(tuple(degrees))
        if req.expect["method"] == "brute":
            other = hh_necklace(alphabet, n)
        else:
            nb = min(n, degree_within(degrees, NECKLACE_CROSSCHECK_WORDS))
            other = hh_bruteforce(alphabet, nb)
        m = other.trunc_degree + 1
        _require(list(other.hh0) == hh0[:m] and list(other.hh1) == hh1[:m], "necklace and brute force disagree")
        for k in range(min(n, degree_within(degrees, SIGNED_NECKLACE_WORDS)) + 1):
            _require(self.oracles.signed_necklace_hh0(degrees, k) == hh0[k], f"hh0 oracle at degree {k}")
        # growth numbers against the radius of 1/(1 - sum z^d)
        den = [1] + [0] * max(degrees)
        for d in degrees:
            den[d] -= 1
        lo, hi = smallest_pole(_poly(den).sqf_part())
        target = -math.log((lo + hi) / 2)
        _require(abs(res["target_log_index"] - target) <= 1e-10, "target log index")
        k_min = report["request"]["k_min"]
        _require(_close(res["empirical_log_index"], _tail_rate(lx, k_min, n)), "empirical log index")
        g = res["growth_check"]
        seq = [k for k in range(k_min, n + 1)
               if lx[k] > 0 and abs(math.log(lx[k]) / k - res["target_log_index"]) <= g["epsilon"]]
        _require(g["sequence"] == seq, "admissible degree sequence")
        lam = g["lambda"]
        passed = bool(seq) and seq[0] < lam * k_min and lam * seq[-1] >= n
        passed = passed and all(b < lam * a for a, b in zip(seq, seq[1:]))
        _require(g["passed"] == passed, "growth check verdict")
        match = abs(res["empirical_log_index"] - res["target_log_index"]) <= res["match_tol"]
        _require(res["log_index_match"] == match and res["passed"] == (passed and match), "passed flag")

    def hm_census(self, req, report):
        m, n, deg = req.expect["m"], req.expect["n"], req.expect["max_degree"]
        res = report["result"]
        factors = {d: c for d, c in report["table"]["rows"]}
        _require(res["generators"] == [m - 1, n - 1], "generators")
        _require(all(2 <= d <= deg + 1 and c > 0 for d, c in factors.items()), "factor dimensions")
        cur = [1] + [0] * deg
        for dim, count in factors.items():
            t = dim - 1
            out = [0] * (deg + 1)
            for j in range(deg // t + 1):
                w = comb(count + j - 1, j)
                for k in range(t * j, deg + 1):
                    out[k] += w * cur[k - t * j]
            cur = out
        _require(cur == self.oracles.word_count_series((m - 1, n - 1), deg),
                 "census does not multiply back to the word-count series")
        _require(res["reconstruction_ok"] is True, "reconstruction flag")
        _require(res["total_factors"] == sum(factors.values()), "total factors")
        _require(res["max_factor_dimension"] == max(factors, default=0), "max factor dimension")
        counts = [0] * (deg + 1)
        for dim, count in factors.items():
            counts[dim - 1] = count
        tail = max(1, min(report["request"]["k_min"], deg))
        _require(_close(res["census_log_index"], _tail_rate(counts, tail, deg)), "census log index")

    def torsion(self, req, report):
        e = req.expect
        res = report["result"]
        _require((res["prime"], res["r"]) == (e["p"], e["r"]), "prime and r echo")
        w = res["exponent_witness"]
        _require(w % 2 == 1 and (w - 1) // 2 >= e["r"], "exponent witness")
        shift = 2 * e["p"] - 3
        degrees = [row[0] for row in report["table"]["rows"]]
        _require(degrees and degrees[0] == w + shift, "first torsion degree")
        for d in degrees:
            dim = d - shift
            _require(dim % 2 == 1 and (dim - 1) // 2 >= e["r"], f"torsion degree {d}")
        _require(res["excluded"] == [] and res["prime_excluded"] is False, "exclusion echo")

    def primes(self, req, report):
        d, s = req.expect["d"], req.expect["s"]
        _require(report["result"]["primes"] == _prime_window(d, s), "prime window")

    def retraction(self, req, report):
        t = req.expect["trees"]
        m = _lowest(reduced(t["A"])) + 1
        n = m - 1 + _lowest(reduced(t["Z"]))
        _require((report["result"]["m"], report["result"]["n"]) == (m, n), "retraction pair")
        (sa, da), (sz, dz) = profile(t["A"]), profile(t["Z"])
        excluded = sorted(set(_prime_window(da, sa)) | set(_prime_window(dz, sz)))
        _require(report["result"]["excluded"] == excluded, "excluded primes")


def _prime_window(d, s):
    """Primes q with 2q <= d - s + 1."""
    return [q for q in range(2, d) if 2 * q <= d - s + 1 and all(q % r for r in range(2, q))]


def _lowest(coeffs):
    return next(i for i, c in enumerate(coeffs) if c)
