"""Reach audit of `series` and `loop`: every function they define runs on a
golden argv or a benchmark request, or is named here with the test that
pins it.

The argvs of `golden_cli.json` and the seed-1 request lists of the four
`loopbench` workloads run once under `sys.setprofile`, which records every
code object of the package entered. A function or method of `series` or
`loop` that none of them enters is library API, a recheck, the bare
series' pole path or a branch that no loop series takes; each is allowed
only with a test that calls it. Each list must match exactly, so code that
no request reaches is declared here, and an entry goes when a request
comes to reach it.
"""

import importlib
import inspect
import io
import sys
from pathlib import Path

import pytest

from loopgrowth import cli, loop, series
from test_golden import GOLDEN, run_case

# function or method of `series` -> the test that pins it
UNREACHED = {
    # library arithmetic; every loop series is built from its denominator
    "RationalGF.from_coeffs": "test_series.py::TestArithmetic::test_add_partial_fractions",
    "RationalGF.constant": "test_series.py::TestArithmetic::test_reciprocal_round_trip",
    "RationalGF.__add__": "test_series.py::TestReducedArithmetic::test_fields_match_the_constructor",
    "RationalGF.__sub__": "test_series.py::TestReducedArithmetic::test_fields_match_the_constructor",
    "RationalGF.__neg__": "test_series.py::TestReducedArithmetic::test_fields_match_the_constructor",
    "RationalGF.__mul__": "test_series.py::TestReducedArithmetic::test_fields_match_the_constructor",
    "RationalGF.reciprocal": "test_series.py::TestReducedArithmetic::test_fields_match_the_constructor",
    "RationalGF.shifted": "test_series.py::TestReducedArithmetic::test_fields_match_the_constructor",
    "gf_add": "test_series.py::TestArithmetic::test_add_partial_fractions",
    "gf_mul": "test_series.py::TestArithmetic::test_mul_polynomials",
    "gf_reciprocal": "test_series.py::TestArithmetic::test_reciprocal_round_trip",
    "gf_shift": "test_series.py::TestArithmetic::test_shift",
    # library API: a verdict reads its radius gap off rho(OmegaY)'s guard
    # cell, so no request compares or refines two radii
    "compare_radii": "test_series.py::TestCompareRadii::test_strictly_smaller",
    "_disjoint_verdict": "test_series.py::TestCompareRadii::test_close_but_distinct_poles",
    "Radius.refined": "test_series.py::TestBisectionWork::test_refined_builds_and_evaluates_no_chain",
    "Radius.width": "test_series.py::TestBisectionWork::test_refined_builds_and_evaluates_no_chain",
    # the independent recheck of a certificate
    "Radius.certificate_holds": "test_series.py::TestPoles::test_certified_interval_properties",
    "Radius._sqfree": "test_series.py::TestBisectionWork::test_a_double_root_takes_the_squarefree_part",
    # the pole path of a bare series, one with no guards
    "_descartes_pole": "test_series.py::TestBisectionWork::test_descartes_isolates_without_chains",
    "_cell_polynomial": "test_series.py::TestBisectionWork::test_descartes_isolates_without_chains",
    "_squarefree_mod_p": "test_series.py::TestSquarefreeCertificate::test_false_on_a_square_times_anything",
    # branches no loop series takes: its coefficients are ints
    "_log_fraction": "test_series.py::TestRatePass::test_empirical_matches_reference",
    "TruncatedSeries.__getitem__": "test_series.py::TestExpand::test_getitem_and_len",
    "TruncatedSeries.__len__": "test_series.py::TestExpand::test_getitem_and_len",
    "GrowthCheckResult.cumulative": "test_series.py::TestControlledGrowth::test_cumulative_dimension_count",
}

# function or method of `loop` -> the test that pins it
LOOP_UNREACHED = {
    # library API that waits for a caller (ROADMAP item 7) and the smash rule's series
    "pi_ranks": "test_loop.py::TestPiRanks::test_reconstruction_round_trip",
    "PiRankTable.reconstruct": "test_loop.py::TestPiRanks::test_reconstruction_round_trip",
    "loop_smash_sphere": "test_loop.py::TestLoopSmashSphere::test_matches_truncated_division",
}

WORKLOADS = ("product-poles", "inert-verdicts", "quick-queries", "hochschild")


def defined(module) -> dict:
    """{code object: name} of every function and method defined in module, nested ones aside.

    A method a class takes from elsewhere, as an Enum takes `__new__`, is
    not the module's.
    """
    out = {}
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            out[obj.__code__] = name
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                fn = member.fget if isinstance(member, property) else getattr(member, "__func__", member)
                if inspect.isfunction(fn) and fn.__code__.co_filename == module.__file__:
                    out[fn.__code__] = f"{name}.{attr}"
    return out


@pytest.fixture(scope="module")
def entered(tmp_path_factory):
    """The code objects of `loopgrowth` that the golden argvs and the workloads' seed-1 requests enter."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(Path(__file__).resolve().parent.parent / "loopbench"))
        import workloads

        requests = [workloads.build(name, 1) for name in WORKLOADS]
    tmp_path = tmp_path_factory.mktemp("reach")
    package = Path(series.__file__).parent
    codes = set()

    def profile(frame, event, arg):
        if event == "call" and Path(frame.f_code.co_filename).parent == package:
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for case in GOLDEN.values():
            run_case(case["argv"], tmp_path)
        for reqs in requests:
            for req in reqs:
                cli.run(req.argv, io.StringIO())
    finally:
        sys.setprofile(None)
    return codes


def unreached(module, entered) -> list:
    return sorted(name for code, name in defined(module).items() if code not in entered)


def test_every_series_function_is_reached_or_pinned(entered):
    assert unreached(series, entered) == sorted(UNREACHED)


def test_every_loop_function_is_reached_or_pinned(entered):
    assert unreached(loop, entered) == sorted(LOOP_UNREACHED)


def test_every_pin_names_a_test():
    for pin in [*UNREACHED.values(), *LOOP_UNREACHED.values()]:
        filename, *names = pin.split("::")
        obj = importlib.import_module(Path(filename).stem)
        for name in names:
            obj = getattr(obj, name)
        assert callable(obj), pin
