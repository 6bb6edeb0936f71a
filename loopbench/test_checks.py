"""The benchmark's own tests: its checker rejects wrong reports, its request
lists are reproducible, and its tracer restores what it patches."""

import copy
import io
import json
import sys
from pathlib import Path

import pytest

pytest.importorskip("sympy")  # the checker's exact root counts; not a loopgrowth dependency

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from checks import Checker  # noqa: E402
from loopgrowth import cli, polynomial, series  # noqa: E402
from workloads import Request, chain, sphere  # noqa: E402


def _run(argv):
    out = io.StringIO()
    code = cli.run(argv, out)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def checker():
    return Checker(ROOT, _run)


def _answer(req):
    code, text = _run(req.argv)
    return code, json.loads(text)


PRODUCT = ("x", ("x", sphere(2), sphere(3)), sphere(4))
WEDGE = ("v", sphere(2), sphere(3))


def _corruptions():
    def bump_coefficient(r):
        r["result"]["coefficients"][5] += 1

    def shift_rho(r):
        for end in ("lo", "hi"):
            r["result"]["rho"][end]["num"] = str(int(r["result"]["rho"][end]["num"]) * 9)
            r["result"]["rho"][end]["den"] = str(int(r["result"]["rho"][end]["den"]) * 10)

    def flip_verdict(r):
        r["result"]["strongly_inert"] = not r["result"]["strongly_inert"]

    def bump_hh0(r):
        r["table"]["rows"][6][1] += 1
        r["table"]["rows"][6][3] += 1

    def bump_census(r):
        r["table"]["rows"][3][1] += 1

    def extra_key(r):
        r["result_extra"] = 1

    return [
        (workloads._expr("loop-series", PRODUCT, "--max-degree", 12), bump_coefficient),
        (workloads._expr("loop-series", WEDGE, "--max-degree", 12), shift_rho),
        (workloads._expr("rho", WEDGE), shift_rho),
        (Request(["cofiber", "--A", "S2", "--Z", "S2 x S2", "--inert", "assumed", "--max-degree", "10"],
                 dict(trees={"A": sphere(2), "Z": ("x", sphere(2), sphere(2))}, max_degree=10)),
         flip_verdict),
        (Request(["free-loop", "--degrees", "1,2", "--max-degree", "20"],
                 dict(degrees=[1, 2], max_degree=20, method="necklace")), bump_hh0),
        (Request(["hm-census", "--m", "3", "--n", "4", "--max-degree", "14"],
                 dict(m=3, n=4, max_degree=14)), bump_census),
        (workloads._expr("parse", PRODUCT), extra_key),
    ]


@pytest.mark.parametrize("req,corrupt", _corruptions(), ids=lambda x: getattr(x, "command", ""))
def test_checker_accepts_the_report_and_rejects_a_corrupted_copy(checker, req, corrupt):
    code, report = _answer(req)
    assert checker.check(req, code, json.dumps(report)) == []
    bad = copy.deepcopy(report)
    corrupt(bad)
    assert checker.check(req, code, json.dumps(bad))


def test_checker_rejects_a_wrong_error_kind_and_exit_code(checker):
    req = Request(["rho", "S2 v"], dict(error="validation-error", exit=1))
    code, text = _run(req.argv)
    assert code == 2
    assert checker.check(req, code, text)


def test_checker_rejects_a_csv_rendering_that_differs(checker):
    req = Request(["primes", "--d", "20", "--s", "1", "--format", "csv"], dict(d=20, s=1, csv=True))
    code, text = _run(req.argv)
    assert checker.check(req, code, text) == []
    assert checker.check(req, code, text.replace("5", "6"))


def test_checker_checks_an_answer_to_a_known_defect_like_any_answer(checker):
    # small versions of the crashing requests, answered today
    wedge = Request(["rho", "S2 v S3 v S4"], dict(tree=chain("v", [sphere(2), sphere(3), sphere(4)]),
                                                   defect="RecursionError"))
    nested = Request(["parse", "((S2))"], dict(tree=sphere(2), defect="RecursionError"))
    for req, field in ((wedge, "rho"), (nested, "canonical")):
        code, report = _answer(req)
        assert code == 0 and checker.check(req, code, json.dumps(report)) == []
        bad = copy.deepcopy(report)
        bad["result"][field] = _corrupt_field(report["result"][field])
        assert checker.check(req, code, json.dumps(bad))


def _corrupt_field(value):
    if isinstance(value, str):
        return value + " v S2"
    value = copy.deepcopy(value)
    value["lo"]["num"] = str(int(value["lo"]["num"]) * 2)
    value["hi"]["num"] = str(int(value["hi"]["num"]) * 2)
    return value


def test_checker_accepts_a_known_defect_refused_only_with_a_typed_error(checker):
    req = Request(["cofiber", "--file", workloads.MISSING_FILE, "--inert", "assumed"],
                  dict(defect="FileNotFoundError", error="validation-error", exit=1))
    code, text = _run(["cofiber", "--A", "S2", "--Z", "S2 x S2"])
    assert code == 1 and json.loads(text)["error"]["kind"] == "validation-error"
    assert checker.check(req, code, text) == []
    assert checker.check(req, 2, text)
    _, answer = _run(["cofiber", "--A", "S2", "--Z", "S2 x S2", "--inert", "assumed", "--max-degree", "10"])
    assert checker.check(req, 0, answer)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_request_lists_depend_only_on_the_seed(name):
    a = [r.argv for r in workloads.build(name, 7)]
    assert a == [r.argv for r in workloads.build(name, 7)]
    assert a != [r.argv for r in workloads.build(name, 8)]


def test_tracer_records_spans_and_restores_the_library():
    from spans import Tracer

    gcd, refined = series.poly_gcd, series.Radius.refined
    tracer = Tracer()
    tracer.install()
    try:
        assert series.poly_gcd is not gcd and polynomial.poly_gcd is series.poly_gcd
        tracer.begin("t")
        _run(["rho", "S2 v S3"])
    finally:
        tracer.uninstall()
    assert series.poly_gcd is gcd and polynomial.poly_gcd is gcd and series.Radius.refined is refined
    metrics = tracer.layer_metrics(1)
    assert metrics["series.smallest_positive_pole.calls"] == 1
    assert metrics["series.expand.unused_terms"] == 65
    assert metrics["series.bisection_steps"] > 30


def test_host_speed_scales_a_time_by_the_probes_around_it():
    from run import REFERENCE_MS, HostSpeed

    speed = HostSpeed()
    # probes at t = 0..5 s; the host runs at half the reference speed from t = 3 s
    ms = [REFERENCE_MS] * 3 + [2 * REFERENCE_MS] * 3
    speed.probes = [(float(t), m / 1000) for t, m in enumerate(ms)]
    assert speed.scale(0.5) == pytest.approx(1.0)  # median of 20, 20, 20
    assert speed.scale(2.5) == pytest.approx(2 / 3)  # median of 20, 20, 40, 40
    assert speed.scale(4.5) == pytest.approx(0.5)  # median of 40, 40, 40
