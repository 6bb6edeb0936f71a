"""CLI reports: schema validity, exit codes, determinism, CSV round trips, and
the request echo read off each command's declared arguments."""

import argparse
import csv
import functools
import io
import json
import math
import re
import time
from enum import IntEnum
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loopgrowth import cli, freeloop, loop, polynomial, series, space
from loopgrowth.cli import run
from loopgrowth.loop import CofiberPresentation, good_growth_verdict, inert_cofiber_loop_gf
from loopgrowth.polynomial import IntPolynomial
from loopgrowth.space import Sphere, parse

import oracles


SCHEMA = json.loads(
    resources.files("loopgrowth").joinpath("report_schema.json").read_text()
)
VALIDATOR = jsonschema.Draft7Validator(SCHEMA)


def run_cli(argv):
    out = io.StringIO()
    code = run(argv, out)
    return code, out.getvalue()


def run_json(argv):
    code, text = run_cli(argv)
    report = json.loads(text)
    errors = sorted(VALIDATOR.iter_errors(report), key=str)
    assert not errors, errors[0]
    return code, report


JUST = "top cell attaches along a sum of Whitehead products"

COMMANDS = [
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


class TestSchema:
    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0])
    def test_every_command_emits_valid_report(self, argv):
        code, report = run_json(argv)
        assert code == 0
        assert report["schema"] == "loopgrowth-report/v1"
        assert report["command"] == argv[0]
        assert report["engine"]["name"] == "loopgrowth"
        assert report["table"]["columns"]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0])
    def test_provenance_well_formed(self, argv):
        _, report = run_json(argv)
        assert report["provenance"]
        for entry in report["provenance"]:
            assert entry["source"] in {"THEOREM_CITED", "COMPUTED", "MODEL", "ASSERTED"}
            if entry["source"] == "THEOREM_CITED":
                assert entry["theorem"].strip()
            if entry["source"] == "MODEL":
                assert entry["model_id"].strip()


class TestCommands:
    def test_parse_reports_canonical_form(self):
        _, report = run_json(["parse", "(S2 v S3) x S4 "])
        assert report["result"]["canonical"] == "(S2 v S3) x S4"
        assert report["result"]["tree"]["kind"] == "product"

    def test_homology_polynomial(self):
        _, report = run_json(["homology", "S2 x S3"])
        assert report["result"]["polynomial"] == [1, 0, 1, 1, 0, 1]
        assert report["result"]["profile"] == {"connectivity": 1, "dimension": 5}

    def test_loop_series_geometric(self):
        _, report = run_json(["loop-series", "S2 v S2", "--max-degree", "8"])
        res = report["result"]
        assert res["coefficients"] == [1, 2, 4, 8, 16, 32, 64, 128, 256]
        assert res["series"] == {"numerator": [1], "denominator": [1, -2]}
        rho = res["rho"]
        assert rho["exact"] and rho["lo"] == rho["hi"]
        assert rho["lo"] == {"num": "1", "den": "2", "decimal": "0.5"}

    def test_rho_interval_for_irrational_pole(self):
        _, report = run_json(["rho", "S2 v S3"])
        rho = report["result"]["rho"]
        assert not rho["infinite"] and not rho["exact"]
        lo = Fraction(int(rho["lo"]["num"]), int(rho["lo"]["den"]))
        hi = Fraction(int(rho["hi"]["num"]), int(rho["hi"]["den"]))
        assert hi - lo <= Fraction(1, 10**12)
        # the pole of 1/(1 - z - z^2) is (sqrt(5) - 1) / 2
        assert lo**2 + lo < 1 < hi**2 + hi

    def test_log_index(self):
        _, report = run_json(["log-index", "S2 v S2", "--max-degree", "30"])
        assert report["result"]["log_index"]["value"] == math.log(2)
        assert abs(report["result"]["empirical"] - math.log(2)) < 1e-6

    def test_cofiber_verdict(self):
        _, report = run_json(
            ["cofiber", "--A", "S2", "--Z", "S2 x S2", "--inert", JUST]
        )
        res = report["result"]
        assert res["verdict"] == "certified-strongly-inert"
        assert res["strongly_inert"] and res["omega_divergent"]
        assert not res["elliptic"]
        assert res["log_index"]["value"] == math.log(2)
        assert res["series"] == {"numerator": [1], "denominator": [1, -2]}
        assert any(
            e["source"] == "ASSERTED" and JUST in e["claim"]
            for e in report["provenance"]
        )

    def test_connsum(self):
        _, report = run_json(
            ["connsum", "--A", "S3", "--M", "S2 x S2", "--N", "S2 x S2", "--inert", JUST]
        )
        assert report["result"]["series"]["denominator"] == [1, -4, 2, -1]
        assert report["result"]["verdict"] == "certified-strongly-inert"

    def test_yclass(self):
        _, report = run_json(
            ["yclass", "--m", "2", "--n", "5", "--J", "S2 v S3", "--inert", JUST]
        )
        assert report["result"]["series"]["denominator"] == [1, -1, -2]
        assert report["result"]["cofiber_space"] == "S2 x S3"

    def test_free_loop(self):
        _, report = run_json(
            ["free-loop", "--degrees", "2,2", "--max-degree", "40", "--k-min", "12",
             "--epsilon", "0.15"]
        )
        res = report["result"]
        assert res["passed"] and res["growth_check"]["passed"] and res["log_index_match"]
        assert res["target_log_index"] == pytest.approx(math.log(2) / 2)
        assert res["match_tol"] == pytest.approx(0.08)
        assert report["table"]["columns"] == ["degree", "hh0", "hh1", "lx"]

    def test_free_loop_methods_agree_on_table(self):
        _, neck = run_json(["free-loop", "--degrees", "2,2", "--max-degree", "14"])
        _, brute = run_json(
            ["free-loop", "--degrees", "2,2", "--max-degree", "14", "--method", "brute"]
        )
        assert neck["table"] == brute["table"]
        assert neck["result"]["empirical_log_index"] == brute["result"]["empirical_log_index"]

    def test_hm_census(self):
        _, report = run_json(["hm-census", "--m", "3", "--n", "3", "--max-degree", "14"])
        res = report["result"]
        assert res["reconstruction_ok"]
        assert res["max_factor_dimension"] == 15
        assert report["table"]["rows"][0] == [3, 2]
        assert report["table"]["rows"][1] == [5, 1]

    def test_torsion(self):
        _, report = run_json(
            ["torsion", "--m", "3", "--n", "3", "--p", "5", "--r", "2",
             "--max-degree", "20"]
        )
        res = report["result"]
        assert res["exponent_witness"] == 5
        assert res["model_id"] == "factor-count-v1"
        assert not res["prime_excluded"]
        assert [12, 1] in report["table"]["rows"]

    def test_torsion_excluded_prime(self):
        _, report = run_json(
            ["torsion", "--m", "3", "--n", "3", "--p", "2", "--r", "1",
             "--max-degree", "10", "--excluded", "2,3"]
        )
        assert report["result"]["prime_excluded"]
        assert report["result"]["excluded"] == [2, 3]

    def test_primes(self):
        _, report = run_json(["primes", "--d", "7", "--s", "1"])
        assert report["result"]["primes"] == [2, 3]

    def test_retraction(self):
        _, report = run_json(["retraction", "--A", "S2", "--Z", "S2 x S2"])
        assert report["result"] == {"m": 3, "n": 4, "excluded": [2]}

    @pytest.mark.parametrize(
        "argv,method",
        [
            (["rho", "S2 x S3"], "the split of the loop denominator into binomials 1 - z^a"),
            (["loop-series", "S2 v S2"], "a rational root with no root below it"),
            (["rho", "S2 v S3"], "guard signs and rational bisection"),
            (["cofiber", "--A", "S3", "--Z", "S2 x S3", "--inert", "x"],
             "guard signs and rational bisection"),
        ],
    )
    def test_the_radius_claim_names_its_method(self, argv, method):
        _, report = run_json(argv)
        what = "radius and log index" if argv[0] == "cofiber" else "radius"
        claim = {"claim": f"{what} certified by {method}", "source": "COMPUTED"}
        assert claim in report["provenance"]

    def test_the_trail_names_the_radius_gap_behind_the_verdict(self):
        _, report = run_json(["connsum", "--A", "S3", "--M", "S2 x S2", "--N", "S2 x S2", "--inert", "x"])
        assert any("rests on rho(OmegaY) < rho(OmegaZ) <= 1" in step for step in report["result"]["trail"])


class TestErrors:
    def test_parse_error_exits_two(self):
        code, text = run_cli(["parse", "S2 v"])
        assert code == 2
        report = json.loads(text)
        assert not sorted(VALIDATOR.iter_errors(report), key=str)
        err = report["error"]
        assert err["kind"] == "parse-error"
        assert err["offset"] == 4
        assert err["expected"]

    def test_sphere_index_parse_error(self):
        code, text = run_cli(["loop-series", "S1"])
        assert code == 2
        assert json.loads(text)["error"]["kind"] == "parse-error"

    def test_huge_sphere_index_is_a_parse_error(self):
        code, report = run_json(["parse", "S" + "9" * 5000])
        assert code == 2
        assert report["error"]["kind"] == "parse-error"
        assert report["error"]["offset"] == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["homology", "S" + "9" * 4000],
            ["loop-series", "S" + "9" * 4000],
            ["rho", "S" + "9" * 4000],
            ["rho", "S2 v S1001"],
            ["free-loop", "--degrees", "1," + "9" * 30],
            ["free-loop", "--degrees", "1,1000"],
            ["yclass", "--m", "2", "--n", "9" * 30, "--J", "S2", "--inert", JUST],
        ],
        ids=["homology", "loop-series", "rho", "rho-1001", "free-loop", "free-loop-1000",
             "yclass"],
    )
    def test_sphere_past_the_dimension_limit_is_a_validation_error(self, argv):
        code, report = run_json(argv)
        assert code == 1
        assert report["error"]["kind"] == "validation-error"
        assert "limit" in report["error"]["message"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["rho", "S2 v S1000"],
            ["free-loop", "--degrees", "1,999", "--max-degree", "12", "--k-min", "2"],
            ["hm-census", "--m", "1000000", "--n", "3", "--max-degree", "10", "--k-min", "1"],
            ["torsion", "--m", "1000000", "--n", "3", "--p", "3", "--r", "1", "--k-min", "1"],
        ],
        ids=["rho", "free-loop", "hm-census", "torsion"],
    )
    def test_sphere_at_the_dimension_limit_answers(self, argv):
        # the census and torsion never build a loop series of S^m
        code, report = run_json(argv)
        assert code == 0, report

    def test_hypothesis_error(self):
        code, text = run_cli(
            ["yclass", "--m", "2", "--n", "3", "--J", "S2", "--inert", JUST]
        )
        assert code == 1
        err = json.loads(text)["error"]
        assert err["kind"] == "hypothesis-error"
        assert "1 < m <= n - m" in err["message"]

    def test_not_expressible(self):
        code, text = run_cli(["loop-series", "(S2 x S2) ^ (S2 x S2)"])
        assert code == 1
        assert json.loads(text)["error"]["kind"] == "not-expressible"

    def test_degree_limit_validation(self):
        code, text = run_cli(["loop-series", "S2", "--max-degree", "300"])
        assert code == 1
        err = json.loads(text)["error"]
        assert err["kind"] == "validation-error"
        assert "200" in err["message"]

    def test_brute_degree_limit(self):
        code, text = run_cli(
            ["free-loop", "--degrees", "1,1", "--method", "brute", "--max-degree", "60"]
        )
        assert code == 1
        assert "40" in json.loads(text)["error"]["message"]

    def test_missing_justification(self):
        code, text = run_cli(["cofiber", "--A", "S2", "--Z", "S2 x S2"])
        assert code == 1
        err = json.loads(text)["error"]
        assert err["kind"] == "validation-error"
        assert "inertness justification is required" in err["message"]

    def test_single_sphere_free_loop(self):
        code, text = run_cli(["free-loop", "--degrees", "2"])
        assert code == 1
        assert json.loads(text)["error"]["kind"] == "hypothesis-error"

    def test_free_loop_degree_zero_is_a_validation_error(self):
        code, report = run_json(["free-loop", "--degrees", "1,2", "--max-degree", "0"])
        assert code == 1
        assert report["error"] == {
            "kind": "validation-error",
            "message": "k_min outside the truncation range",
        }

    @pytest.mark.parametrize(
        "flag, value",
        [("--lambda", "nan"), ("--lambda", "inf"), ("--epsilon", "nan"),
         ("--epsilon", "-inf"), ("--match-tol", "nan"), ("--match-tol", "inf"),
         ("--match-tol", "-0.5")],
    )
    def test_free_loop_non_finite_tolerance_is_a_validation_error(self, flag, value):
        code, text = run_cli(["free-loop", "--degrees", "1,2", f"{flag}={value}"])
        assert code == 1
        # strict JSON: NaN and Infinity are rejected by the constant hook
        report = json.loads(text, parse_constant=lambda c: pytest.fail(f"non-JSON {c}"))
        assert report["error"]["kind"] == "validation-error"

    @pytest.mark.parametrize(
        "content, reason",
        [(b"[" * 200000 + b"]" * 200000, "recursion"), (b"\xff\xfe{", "utf-8"), (b"", "Expecting")],
        ids=["deeply-nested", "not-utf-8", "empty"],
    )
    def test_undecodable_presentation_file_is_a_validation_error(self, tmp_path, content, reason):
        path = tmp_path / "pres.json"
        path.write_bytes(content)
        code, report = run_json(["cofiber", "--file", str(path)])
        assert code == 1
        assert report["error"]["kind"] == "validation-error"
        message = report["error"]["message"]
        assert message.startswith(f"cannot read presentation file {str(path)!r}: ")
        assert reason in message

    @pytest.mark.parametrize("flag", ["--p", "--excluded"])
    def test_huge_prime_is_a_validation_error(self, flag):
        argv = ["torsion", "--m", "3", "--n", "3", "--p", "5", "--r", "1"]
        huge = "1" + "0" * 400
        if flag == "--p":
            argv[6] = huge
        else:
            argv += ["--excluded", huge]
        code, report = run_json(argv)
        assert code == 1
        assert report["error"]["kind"] == "validation-error"
        assert "prime limit" in report["error"]["message"]

    @pytest.mark.parametrize(
        "flags, message",
        [(["--lambda", "nan"], "ratio bound and tolerance must be finite"),
         (["--lambda", "1"], "ratio bound must exceed 1"),
         (["--epsilon", "-1"], "tolerance must be nonnegative"),
         (["--k-min", "0"], "k_min outside the truncation range"),
         (["--k-min", "41"], "k_min outside the truncation range")],
    )
    @pytest.mark.parametrize("method", ["necklace", "brute"])
    def test_free_loop_parameters_are_refused_before_computing(
        self, monkeypatch, flags, message, method
    ):
        def fail(*args):
            raise AssertionError("computed before the parameters were checked")

        for name in ("hh_necklace", "hh_bruteforce", "smallest_positive_pole"):
            monkeypatch.setattr(freeloop, name, fail)
        argv = ["free-loop", "--degrees", "1,1", "--method", method] + flags
        code, report = run_json(argv)
        assert code == 1
        assert report["error"] == {"kind": "validation-error", "message": message}

    def test_prime_window_is_a_validation_error(self):
        code, report = run_json(["primes", "--d", "100000000", "--s", "1"])
        assert code == 1
        assert report["error"] == {
            "kind": "validation-error",
            "message": "prime window up to 50000000 exceeds the 100000 limit",
        }

    @pytest.mark.parametrize(
        "argv",
        [["cofiber", "--A", "S2", "--Z", "S2 x S2", "--inert", JUST],
         ["connsum", "--A", "S2", "--M", "S2 x S2", "--N", "S3", "--inert", JUST]],
        ids=["cofiber", "connsum"],
    )
    def test_an_uncertified_radius_gap_is_a_validation_error(self, monkeypatch, argv):
        # no finite rho(OmegaY), so no guard cell below rho(OmegaZ)
        monkeypatch.setattr(loop, "smallest_positive_pole", lambda gf: series.Radius(None, None))
        code, report = run_json(argv)
        assert code == 1
        assert report["error"]["kind"] == "validation-error"
        assert "not certified" in report["error"]["message"]


class TestDeepExpressions:
    def test_three_thousand_brackets_answer(self):
        code, report = run_json(["parse", "(" * 3000 + "S2" + ")" * 3000])
        assert code == 0
        assert report["result"] == {"canonical": "S2", "tree": {"kind": "sphere", "n": 2}}

    def test_twelve_hundred_sphere_wedge_is_refused(self):
        code, report = run_json(["rho", " v ".join(f"S{2 + i % 5}" for i in range(1200))])
        assert code == 1
        assert report["error"] == {
            "kind": "validation-error",
            "message": f"expression tree deeper than the {space.MAX_DEPTH} level limit",
        }

    @pytest.mark.parametrize("command", ["parse", "homology", "loop-series", "rho"])
    def test_tree_at_the_depth_limit_answers(self, command):
        k = space.MAX_DEPTH
        for expr in (" v ".join(["S2"] * (k + 1)), "Susp(" * k + "S2" + ")" * k):
            code, report = run_json([command, expr])
            assert code == 0, report


class TestWorkPerVerdict:
    def test_a_verdict_takes_one_pole_per_series(self, monkeypatch):
        # rho(OmegaY)'s guard cell certifies the gap: no pole of OmegaZ, and
        # no comparison or refinement of two radii
        poles = oracles.count_calls(monkeypatch, series, "smallest_positive_pole")
        compared = oracles.count_calls(monkeypatch, series, "compare_radii")
        refined = []
        monkeypatch.setattr(series.Radius, "refined", lambda *args: refined.append(args))
        pres = CofiberPresentation(Sphere(2), parse("S2 x S3"), inert_asserted=True)
        verdict = good_growth_verdict(pres)
        assert [gf for gf, *_ in poles] == [verdict.series]
        assert compared == refined == []
        assert verdict.series == inert_cofiber_loop_gf(pres)
        assert verdict.omega_divergent

    def test_a_cofiber_report_builds_the_split_series_once(self, monkeypatch):
        calls = oracles.count_calls(monkeypatch, loop, "inert_cofiber_loop_gf")
        code, report = run_json(["cofiber", "--A", "S2", "--Z", "S2 x S2", "--inert", JUST])
        assert code == 0
        assert len(calls) == 1
        assert report["result"]["series"] == {"numerator": [1], "denominator": [1, -2]}

    # the fixed sphere sets of the benchmark's verdicts, and seven radii of
    # Susp(S2 x ... x Sk) v S3 x S5: six with k = 6, in rotated order, and k = 7
    FIXED = [
        ["cofiber", "--A", "S3 v S4", "--Z", "S2 x S3 x S4 x S5", "--inert", JUST],
        ["connsum", "--A", "S4", "--M", "S2 x S3 x S4", "--N", "S3 x S5", "--inert", JUST],
        ["yclass", "--m", "4", "--n", "11", "--J", "S2 v S3 v S5", "--inert", JUST],
    ] + [
        ["rho", f"Susp({' x '.join(f'S{n}' for n in dims)}) v S3 x S5"]
        for dims in [[*range(2 + i, 8), *range(2, 2 + i)] for i in range(6)] + [list(range(2, 9))]
    ]

    def test_fixed_requests_take_no_gcd_and_no_taylor_shift(self, monkeypatch):
        gcds = oracles.count_calls(monkeypatch, polynomial, "poly_gcd")
        shifts = oracles.count_calls(monkeypatch, polynomial, "taylor_shift")
        for argv in self.FIXED:
            assert run_json(argv)[0] == 0
        assert gcds == [] and shifts == []


class TestSphereProductScaling:
    def test_eleven_spheres_near_the_limit_answer_within_a_second(self):
        # the loop denominator prod (1 - z^(n-1)) has degree 10,934 and the
        # pole 1; its exact split into binomials certifies that pole
        expr = " x ".join(f"S{n}" for n in range(1000, 989, -1))
        want = IntPolynomial((1,))
        for n in range(990, 1001):
            want = want * IntPolynomial((1,) + (0,) * (n - 2) + (-1,))
        assert want.degree() == 10_934
        assert loop.loop_gf(parse(expr)).den == want
        start = time.perf_counter()
        code, text = run_cli(["rho", expr])
        seconds = time.perf_counter() - start
        assert code == 0 and seconds < 1
        rho = json.loads(text)["result"]["rho"]
        assert rho["exact"] and rho["lo"] == rho["hi"]
        assert (rho["lo"]["num"], rho["lo"]["den"]) == ("1", "1")


PRESENTATIONS = {
    "cofiber": {"A": "S2", "Z": "S2 x S2", "inert_justification": JUST},
    "connsum": {"A": "S3", "M": "S2 x S2", "N": "S2 x S2", "inert_justification": JUST},
    "yclass": {"m": 2, "n": 5, "J": "S2 v S3", "inert_justification": JUST},
}


def presentation_file(directory, command, **fields) -> str:
    """Write the test presentation of `command`, with `fields` replaced."""
    path = directory / "pres.json"
    path.write_text(json.dumps({"kind": command, **PRESENTATIONS[command], **fields}))
    return str(path)


class TestPresentationFiles:
    def test_file_supplies_fields(self, tmp_path):
        f = tmp_path / "pres.json"
        f.write_text(
            json.dumps(
                {"kind": "cofiber", "A": "S2", "Z": "S2 x S2",
                 "inert_justification": "from file"}
            )
        )
        code, report = run_json(["cofiber", "--file", str(f)])
        assert code == 0
        assert report["request"]["A"] == "S2"
        assert report["request"]["inert_justification"] == "from file"

    def test_flags_override_file(self, tmp_path):
        f = tmp_path / "pres.json"
        f.write_text(
            json.dumps(
                {"kind": "cofiber", "A": "S2", "Z": "S2 x S2",
                 "inert_justification": "from file"}
            )
        )
        code, report = run_json(["cofiber", "--file", str(f), "--Z", "S3", "--inert", JUST])
        assert code == 0
        assert report["request"]["Z"] == "S3"
        assert report["request"]["inert_justification"] == JUST

    def test_kind_mismatch_rejected(self, tmp_path):
        f = tmp_path / "pres.json"
        f.write_text(json.dumps({"kind": "cofiber", "A": "S2", "Z": "S2 x S2"}))
        code, text = run_cli(
            ["connsum", "--file", str(f), "--M", "S3", "--N", "S3", "--inert", JUST]
        )
        assert code == 1
        assert "does not match command" in json.loads(text)["error"]["message"]

    @pytest.mark.parametrize("name", ["absent.json", "."], ids=["missing", "directory"])
    def test_unreadable_file_is_a_validation_error(self, tmp_path, name):
        path = str(tmp_path / name)
        code, report = run_json(["cofiber", "--file", path, "--inert", JUST])
        assert code == 1
        assert report["error"]["kind"] == "validation-error"
        assert "cannot read presentation file" in report["error"]["message"]

    def test_missing_fields_reported(self):
        code, text = run_cli(["connsum", "--A", "S3", "--inert", JUST])
        assert code == 1
        err = json.loads(text)["error"]
        assert "missing presentation fields" in err["message"]
        assert "M" in err["message"] and "N" in err["message"]

    @pytest.mark.parametrize("command", PRESENTATIONS)
    def test_file_alone_answers(self, command, tmp_path):
        code, report = run_json([command, "--file", presentation_file(tmp_path, command)])
        assert code == 0
        assert report["request"]["inert_justification"] == JUST

    def test_integer_field_may_be_a_numeric_string(self, tmp_path):
        path = presentation_file(tmp_path, "yclass", m="2", n=" 5 ")
        code, report = run_json(["yclass", "--file", path])
        assert code == 0
        assert (report["request"]["m"], report["request"]["n"]) == (2, 5)

    @pytest.mark.parametrize(
        "command,field,value",
        [("yclass", f, v) for f in ("m", "n") for v in (2.9, 5.0, True, "2.5", [2])]
        + [
            (command, f, v)
            for command, fields in PRESENTATIONS.items()
            for f in fields
            if f not in ("m", "n")
            for v in (2, False, ["S2"])
        ],
    )
    def test_file_field_of_the_wrong_type_is_refused(self, command, field, value, tmp_path):
        path = presentation_file(tmp_path, command, **{field: value})
        code, report = run_json([command, "--file", path])
        assert code == 1
        assert report["error"]["kind"] == "validation-error"
        assert f"presentation field {field!r} must be" in report["error"]["message"]


README = Path(__file__).resolve().parent.parent / "README.md"


def declared_flags(command):
    """(dest, flag) of each argument `command` declares, in order; a
    positional's flag is its name in capitals, as the README writes it."""
    parser = argparse.ArgumentParser(add_help=False)
    out = []
    for flags, kwargs in cli._COMMANDS[command].arguments:
        dest = parser.add_argument(*flags, **kwargs).dest
        out.append((dest, flags[0] if flags[0].startswith("-") else flags[0].upper()))
    return out


class TestRequestEcho:
    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0])
    def test_request_echoes_the_declared_arguments_in_order(self, argv):
        _, report = run_json(argv)
        dests = [dest for dest, _ in declared_flags(argv[0]) if dest != "file"]
        assert list(report["request"]) == dests

    def test_readme_table_lists_the_declared_flags_in_order(self):
        text = README.read_text(encoding="utf-8")
        header = "| command | what it reports | arguments |"
        rows = text[text.index(header):].split("\n\n")[0].splitlines()[2:]
        listed = {}
        for row in rows:
            cells = row.strip("|").split("|")
            listed[cells[0].strip().strip("`")] = re.findall(r"`([^`]+)`", cells[-1])
        declared = {c: [flag for _, flag in declared_flags(c)] for c in cli._COMMANDS}
        assert listed == declared


class TestCsv:
    def test_csv_is_the_table(self):
        _, report = run_json(["loop-series", "S2 v S2", "--max-degree", "8"])
        code, text = run_cli(["loop-series", "S2 v S2", "--max-degree", "8",
                              "--format", "csv"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == report["table"]["columns"]
        want = [[str(c) for c in row] for row in report["table"]["rows"]]
        assert rows[1:] == want

    def test_csv_uses_bare_newlines(self):
        _, text = run_cli(["primes", "--d", "7", "--s", "1", "--format", "csv"])
        assert text == "prime\n2\n3\n"
        assert "\r" not in text

    def test_errors_fall_back_to_json(self):
        code, text = run_cli(["parse", "S2 v", "--format", "csv"])
        assert code == 2
        assert json.loads(text)["error"]["kind"] == "parse-error"


class Level(IntEnum):
    LOW = 1
    HIGH = -7


class Tag(str):
    pass


# strings that exercise escaping and the table row template
SPECIAL = '"\\,[]{}%s\n\t\x00\x1f\x7fé€\U0001f600'
TEXT = st.text(st.one_of(st.sampled_from(SPECIAL), st.characters()))
INTS = st.one_of(st.integers(), st.integers(-10**1000, 10**1000))
FLOATS = st.floats(allow_nan=False, allow_infinity=False)  # every report float is finite
SCALARS = st.one_of(
    INTS, TEXT, FLOATS, st.sampled_from([True, False, None, Level.LOW, Level.HIGH]), TEXT.map(Tag)
)
# what one table column holds: one exact type, or a mix the column path refuses
COLUMNS = [INTS, TEXT, FLOATS, st.one_of(INTS, TEXT), st.one_of(INTS, st.booleans())]


@st.composite
def tables(draw):
    """Rows of one length, each column drawn from one of COLUMNS; zero columns
    give empty rows, and rows may be tuples."""
    n_rows, n_cols = draw(st.integers(1, 6)), draw(st.integers(0, 4))
    columns = [draw(st.lists(draw(st.sampled_from(COLUMNS)), min_size=n_rows, max_size=n_rows))
               for _ in range(n_cols)]
    rows = [list(row) for row in zip(*columns)] if columns else [[] for _ in range(n_rows)]
    return [tuple(row) for row in rows] if draw(st.booleans()) else rows


VALUES = st.recursive(
    st.one_of(SCALARS, tables(), st.lists(SCALARS), st.lists(st.lists(INTS, max_size=3))),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(TEXT, inner, max_size=4),
    ),
    max_leaves=20,
)


class TestEmission:
    # the examples: finite floats at the ends of the range, then one of each
    # list shape (empty, a table, ragged, a mixed column, empty rows, uniform
    # floats, a str subclass among strs)
    @given(VALUES)
    @example(-0.0)
    @example(5e-324)
    @example(2.225073858507201e-308)
    @example(1e308)
    @example(-1e308)
    @example([])
    @example({})
    @example({"rows": [[0, "1"], [1, "%s"]], "empty": [], "ragged": [[1], [2, 3]]})
    @example([[1, "a"], [2, 3]])
    @example([[1, True], [2, 3]])
    @example([[], []])
    @example([1.5, 2.0, -0.0])
    @example([Tag("x"), "y"])
    @settings(max_examples=300, deadline=None)
    def test_json_matches_json_dumps(self, value):
        assert cli._json(value) == json.dumps(value, indent=2)

    # integer tables take one %d template per row; a bool or an IntEnum in a
    # column sends the table back to the per-item path
    @given(
        st.integers(1, 4).flatmap(
            lambda width: st.lists(st.lists(INTS, min_size=width, max_size=width), min_size=1, max_size=8)
        ),
        st.booleans(),
        st.none() | st.tuples(st.integers(0, 7), st.integers(0, 3), st.sampled_from([True, Level.HIGH])),
        st.integers(0, 3),
    )
    @example([[0, -1], [10**999, 2]], True, None, 0)
    @example([[1, 2], [3, 4]], False, (1, 1, True), 2)
    @settings(max_examples=300, deadline=None)
    def test_an_int_table_matches_json_dumps(self, rows, as_tuples, odd, depth):
        if odd is not None:
            i, j, value = odd
            rows[i % len(rows)][j % len(rows[0])] = value
        value = [tuple(row) for row in rows] if as_tuples else rows
        for _ in range(depth):
            value = {"table": {"rows": value}}
        assert cli._json(value) == json.dumps(value, indent=2)

    # exponent notation, integers, 40-digit ratios, then any nonnegative ratio
    @given(st.builds(Fraction, st.integers(0, 10**60), st.integers(1, 10**60)))
    @example(Fraction(1, 2**60))
    @example(Fraction(2**60))
    @example(Fraction(0))
    @example(Fraction(7))
    @example(Fraction(10**45 + 1))
    @example(Fraction(10**40 - 1, 3 * 10**39 + 7))
    @example(Fraction(10**39 + 3, 10**40 - 17))
    @settings(max_examples=300, deadline=None)
    def test_decimal_str_matches_a_local_context(self, q):
        from decimal import Decimal, localcontext

        with localcontext() as ctx:
            ctx.prec = cli.DECIMAL_DIGITS
            want = str(Decimal(q.numerator) / Decimal(q.denominator))
        assert cli._decimal_str(q) == want


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["loop-series", "S2 v S3", "--max-degree", "30"],
            ["free-loop", "--degrees", "2,2", "--max-degree", "20", "--k-min", "8"],
            ["hm-census", "--m", "2", "--n", "3", "--max-degree", "12"],
        ],
        ids=lambda a: a[0],
    )
    def test_repeated_runs_identical(self, argv):
        assert run_cli(argv) == run_cli(argv)


USAGE_ERRORS = [
    (["free-loop", "--degrees", "1,2", "--method", "brute", "--threads", "8"],
     "free-loop", "unrecognized arguments: --threads 8"),
    (["rho", "S2 v S3", "--lambda", "2"], "rho", "unrecognized arguments: --lambda 2"),
    (["loop-series", "S2 v S3", "--max-degree", "abc"], "loop-series",
     "argument --max-degree: invalid int value: 'abc'"),
    (["parse", "S2", "--no-such-flag"], "parse", "unrecognized arguments: --no-such-flag"),
    ([], "", "the following arguments are required: command"),
]


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv,command,message", USAGE_ERRORS,
        ids=["threads", "lambda-on-rho", "max-degree-abc", "unknown-flag", "empty"],
    )
    def test_usage_error_is_a_report(self, argv, command, message):
        code, report = run_json(argv)
        assert code == 2
        assert report["command"] == command
        assert report["error"] == {"kind": "usage-error", "message": message}

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0])
    def test_flags_attach_only_where_read(self, argv):
        free_loop = argv[0] == "free-loop"
        code, report = run_json(argv + ["--epsilon", "0.2"])
        assert code == (0 if free_loop else 2)
        assert ("error" in report) != free_loop
        reads_degree = argv[0] not in ("parse", "rho", "primes", "retraction")
        code, _ = run_json(argv + ["--max-degree", "12"])
        assert code == (0 if reads_degree else 2)

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_zero(self, flag, capsys):
        out = io.StringIO()
        with pytest.raises(SystemExit) as exc:
            run([flag], out)
        assert exc.value.code == 0
        assert out.getvalue() == ""
        assert "loopgrowth" in capsys.readouterr().out

    def test_parser_is_built_once(self, monkeypatch):
        import loopgrowth.cli as cli

        def fail():
            raise AssertionError("argparse built for a plain argv")

        monkeypatch.setattr(cli, "_parsers", fail)
        assert run_cli(["primes", "--d", "7", "--s", "1"])[0] == 0


# argvs that both parsers must refuse with the same message
PARSER_USAGE_ERRORS = [argv for argv, _, _ in USAGE_ERRORS] + [
    ["hm-census", "--m", "2", "--max-degree", "12"],  # missing required flag
    ["free-loop", "--degrees", "1,2", "--method", "fast"],  # invalid choice
    ["no-such-command", "S2"],
    ["--format", "csv", "rho", "S2"],
    ["rho", "S2", "--", "S3"],
    ["rho", "--version"],
]
# and argvs that both must parse, or exit on, alike
PARSER_ARGVS = PARSER_USAGE_ERRORS + [
    ["rho", "--", "S2"], ["--version"], ["-h"], ["rho", "-h"],
] + COMMANDS


class TestSubparserDispatch:
    """`run` reads a plain argv off the command table and parses any other
    with the command's own subparser; the outcome must be what the top
    parser's `parse_args` gives on the same argv."""

    @staticmethod
    def outcome(parse, argv, capsys):
        try:
            return "args", vars(parse(argv))
        except cli.UsageError as e:
            return "usage-error", str(e)
        except SystemExit as e:
            return "exit", e.code, capsys.readouterr().out

    @pytest.mark.parametrize("argv", PARSER_ARGVS, ids=lambda a: " ".join(a[:3]) or "empty")
    def test_same_outcome_as_the_top_parser(self, argv, capsys):
        want = self.outcome(cli._parsers()[0].parse_args, argv, capsys)
        assert self.outcome(cli._parse, argv, capsys) == want

    @pytest.mark.parametrize("argv", PARSER_USAGE_ERRORS, ids=lambda a: " ".join(a[:3]) or "empty")
    def test_usage_error_report_is_the_top_parsers(self, argv):
        with pytest.raises(cli.UsageError) as exc:
            cli._parsers()[0].parse_args(argv)
        command = argv[0] if argv and argv[0] in cli._COMMANDS else ""
        report = cli._error_report(command, "usage-error", str(exc.value))
        assert run_cli(argv) == (2, cli._json(report) + "\n")


# argvs whose form the table reader passes on to argparse
FALLBACK_FORMS = {
    "flag=value": ["rho", "S2", "--format=csv"],
    "abbreviation": ["homology", "S2", "--max-deg", "5"],
    "double-dash": ["rho", "--", "S2"],
    "short-help": ["rho", "S2", "-h"],
    "help": ["homology", "--help"],
    "version": ["--version"],
    "command-version": ["rho", "--version"],
    "negative-number": ["homology", "S2", "--max-degree", "-3"],
    "unknown-flag": ["parse", "S2", "--no-such-flag"],
    "other-command-flag": ["rho", "S2", "--max-degree", "5"],
    "bad-int": ["loop-series", "S2", "--max-degree", "abc"],
    "bad-choice": ["free-loop", "--degrees", "1,2", "--method", "fast"],
    "missing-required": ["hm-census", "--m", "2"],
    "missing-positional": ["rho"],
    "extra-positional": ["rho", "S2", "S3"],
    "flag-without-value": ["rho", "S2", "--format"],
    "repeated-flag": ["homology", "S2", "--max-degree", "3", "--max-degree", "4"],
    "unknown-command": ["no-such-command", "S2"],
    "flag-first": ["--format", "csv", "rho", "S2"],
    "empty-command": ["", "S2"],
    "empty": [],
}

ROOT = Path(__file__).resolve().parent.parent


def argparse_vars(argv):
    return vars(cli._parsers()[0].parse_args(argv))


def is_nan(value) -> bool:
    return isinstance(value, float) and math.isnan(value)


@st.composite
def table_argvs(draw):
    """A command and a shuffle of pieces: its declared flags and positionals
    with good and bad values, and the forms the reader passes on."""
    name = draw(st.sampled_from(list(cli._COMMANDS)))
    values = {
        int: st.one_of(st.integers(-3, 60).map(str), st.sampled_from([" 7 ", "x", "1.5", ""])),
        float: st.one_of(
            st.floats(-2, 5, allow_nan=False).map(repr), st.sampled_from(["nan", "1e3", "x"])
        ),
        None: st.sampled_from(["S2", "S3 v S4", "S2 x S3", "2,3", "", "S2 v", "-S2", "a=b"]),
    }
    pieces = []
    for flags, kwargs in cli._COMMANDS[name].arguments + (cli.FORMAT,):
        value = values[kwargs.get("type")]
        if "choices" in kwargs:
            value = st.sampled_from(kwargs["choices"] + ("bad",))
        flag = flags[0]
        form = draw(st.sampled_from(["plain", "plain", "plain", "absent", "twice", "odd"]))
        if form == "absent":
            continue
        words = [draw(value)] if not flag.startswith("-") else [flag, draw(value)]
        if form == "twice":
            words += words
        elif form == "odd":
            words = draw(st.sampled_from([
                [f"{flag}={words[-1]}"], [flag[:4], words[-1]], [flag], ["--", *words],
                [flag, "-1"], ["-h"], ["--version"], ["--no-such-flag", "1"],
            ]))
        pieces.append(words)
    pieces = draw(st.permutations(pieces))
    return [name] + [word for words in pieces for word in words]


class TestTableReader:
    """`_read` reads a plain argv off the command table, as argparse would,
    and passes every other form on to argparse."""

    @given(table_argvs())
    @example(["free-loop", "--degrees", "S2", "--epsilon", "nan"])
    @settings(max_examples=400, deadline=None)
    def test_a_read_argv_is_what_argparse_gives(self, argv):
        args = cli._read(argv)
        if args is not None:
            want = argparse_vars(argv)
            # nan != nan: a value matches when equal, or when both are nan
            assert args.keys() == want.keys()
            for key, value in args.items():
                assert value == want[key] or is_nan(value) and is_nan(want[key]), key

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0])
    def test_a_plain_argv_is_read(self, argv):
        for extra in ([], ["--format", "csv"]):
            assert cli._read(argv + extra) == argparse_vars(argv + extra)

    @pytest.mark.parametrize("form", FALLBACK_FORMS)
    def test_every_other_form_is_passed_on(self, form):
        assert cli._read(FALLBACK_FORMS[form]) is None

    def test_no_workload_argv_is_passed_on(self, monkeypatch):
        monkeypatch.syspath_prepend(str(ROOT / "loopbench"))
        import workloads

        for name in workloads.WORKLOADS:
            for seed in (1, 2):
                for req in workloads.build(name, seed):
                    assert cli._read(req.argv) is not None, req.argv

    def test_argparse_is_built_on_first_need_and_once(self, monkeypatch):
        monkeypatch.setattr(cli, "_parsers", functools.cache(cli._parsers.__wrapped__))
        assert run_cli(["primes", "--d", "7", "--s", "1"])[0] == 0
        assert cli._parsers.cache_info().currsize == 0
        assert run_cli(["primes", "--d=7", "--s", "1"])[0] == 0
        assert run_cli(["rho"])[0] == 2
        assert cli._parsers.cache_info()[:2] == (1, 1)  # one hit, one miss

    def test_declared_dests_are_argparses(self):
        for name in cli._COMMANDS:
            dests = [entry[0] for entry in cli._SPECS[name][:-1]]
            assert dests == [dest for dest, _ in declared_flags(name)]
