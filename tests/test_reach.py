"""Reach audit: every function the package defines runs on a golden argv
or a benchmark request, or is named here with the test that pins it.

The argvs of `golden_cli.json` and the seed-1 request lists of the four
`loopbench` workloads run once under `sys.setprofile`, which records every
code object of the package entered. A function or method of a module that
none of them enters is library API, a recheck, the bare series' pole path,
the tests' oracle, code that runs at import or a branch that no loop series
takes; each is allowed only with a test that calls it. Each module's list
must match exactly, so code that no request reaches is declared here, and
an entry goes when a request comes to reach it.
"""

import importlib
import inspect
import io
import sys
from pathlib import Path

import pytest

import loopgrowth
from loopgrowth import arith, cli, freeloop, loop, polynomial, series, space, torsion
from test_golden import GOLDEN, run_case

# module -> {function or method it defines that no request enters: the test that pins it}
UNREACHED = {
    loopgrowth: {
        # the record protocol that no report reads, and the lazy exports,
        # which the modules of the package do not import through
        "_Record.__repr__": "test_space.py::TestDepth::test_a_tree_at_the_limit_has_a_repr",
        "_Record.__reduce__": "test_record.py::test_a_pickled_expression_tree_rebuilds_through_inherited_slots",
        "_Record.__setattr__": "test_record.py::test_a_record_is_immutable",
        "_Record.__delattr__": "test_record.py::test_a_record_is_immutable",
        "__getattr__": "test_cold_start.py::test_a_public_name_is_the_object_its_home_module_defines",
        "__dir__": "test_cold_start.py::test_dir_lists_every_public_name",
    },
    polynomial: {
        # the tests' oracle, Sturm counts; loopbench/spans.py wraps
        # sturm_chain and count_roots_halfopen by name
        "sturm_chain": "test_polynomial.py::TestSturm::test_rows_are_integer_positive_multiples_of_the_rational_chain",
        "sign_variations": "test_polynomial.py::TestSturm::test_counts_on_halfopen_intervals",
        "count_roots_halfopen": "test_series.py::TestCertificateAgainstSturm::test_agrees_with_sturm_counts",
        # the bare series' pole path and the recheck of a certificate
        "taylor_shift": "test_series.py::TestBisectionWork::test_descartes_isolates_without_chains",
        "descartes_count": "test_series.py::TestBisectionWork::test_descartes_isolates_without_chains",
        "_changes": "test_series.py::TestBisectionWork::test_descartes_isolates_without_chains",
        "cauchy_root_bound": "test_series.py::TestBisectionWork::test_descartes_isolates_without_chains",
        "squarefree_part": "test_series.py::TestBisectionWork::test_a_double_root_takes_the_squarefree_part",
        "IntPolynomial.derivative": "test_series.py::TestBisectionWork::test_a_double_root_takes_the_squarefree_part",
        "poly_divexact": "test_polynomial.py::TestDivexact::test_exact_quotient",
        # library API: a loop series is read by signs and Horner sums
        "IntPolynomial.eval_at": "test_polynomial.py::TestSturm::test_eval_and_sign_agree_with_fraction_horner",
        "IntPolynomial.__getitem__": "test_polynomial.py::TestPolesAgainstSympy::test_smallest_positive_pole_agrees_with_intervals",
    },
    space: {},
    freeloop: {
        # an alphabet from sphere dimensions; the CLI takes generator degrees
        "GradedAlphabet.from_sphere_dimensions": "test_freeloop.py::TestAlphabet::test_from_sphere_dimensions",
    },
    torsion: {
        # library API that waits for a caller (ROADMAP item 18), and a repr
        # no report prints
        "suspension_splits_locally": "test_torsion.py::TestSuspensionSplitting::test_threshold_is_excluded_set",
        "RetractionReport.__repr__": "test_torsion.py::TestRetraction::test_deleted_manifold_case",
    },
    arith: {},
    cli: {
        # the command table's builders run at import, before the trace starts
        "_arg": "test_cli.py::TestRequestEcho::test_readme_table_lists_the_declared_flags_in_order",
        "_inert": "test_cli.py::TestRequestEcho::test_readme_table_lists_the_declared_flags_in_order",
        "_entry": "test_cli.py::TestRequestEcho::test_request_echoes_the_declared_arguments_in_order",
        # the process entry point, which the cold-start tests run
        "main": "test_cold_start.py::test_a_closed_pipe_exits_1_quietly",
    },
    series: {
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
        # the pole path of a bare series, one with no guards, and the recheck
        "_isolating_cells": "test_series.py::TestCertificateAgainstSturm::test_agrees_with_sturm_counts",
        "_cell_polynomial": "test_series.py::TestBisectionWork::test_descartes_isolates_without_chains",
        "_squarefree_mod_p": "test_series.py::TestSquarefreeCertificate::test_false_on_a_square_times_anything",
        # branches no loop series takes: its coefficients are ints
        "_log_fraction": "test_series.py::TestRatePass::test_empirical_matches_reference",
        "TruncatedSeries.__getitem__": "test_series.py::TestExpand::test_getitem_and_len",
        "TruncatedSeries.__len__": "test_series.py::TestExpand::test_getitem_and_len",
        "GrowthCheckResult.cumulative": "test_series.py::TestControlledGrowth::test_cumulative_dimension_count",
    },
    loop: {
        # library API that waits for a caller (ROADMAP item 7) and the smash rule's series
        "pi_ranks": "test_loop.py::TestPiRanks::test_reconstruction_round_trip",
        "PiRankTable.reconstruct": "test_loop.py::TestPiRanks::test_reconstruction_round_trip",
        "loop_smash_sphere": "test_loop.py::TestLoopSmashSphere::test_matches_truncated_division",
    },
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


def test_every_module_is_audited():
    package = Path(loopgrowth.__file__).parent
    assert sorted(m.__file__ for m in UNREACHED) == sorted(map(str, package.glob("*.py")))


@pytest.mark.parametrize("module", list(UNREACHED), ids=lambda m: m.__name__)
def test_every_function_is_reached_or_pinned(module, entered):
    assert unreached(module, entered) == sorted(UNREACHED[module])


def test_every_pin_names_a_test():
    for pin in [pin for pins in UNREACHED.values() for pin in pins.values()]:
        filename, *names = pin.split("::")
        obj = importlib.import_module(Path(filename).stem)
        for name in names:
            obj = getattr(obj, name)
        assert callable(obj), pin
