"""`loopgrowth._Record`, the package's one record type: construction, the
four argument errors, compared and carried fields, immutability, copies."""

import copy
import pickle
from fractions import Fraction

import pytest

from loopgrowth import _Record
from loopgrowth.loop import loop_gf
from loopgrowth.series import LogIndex, Radius, RationalGF, compare_radii, smallest_positive_pole
from loopgrowth.space import parse
from loopgrowth.torsion import HiltonMilnorCensus, hilton_milnor_census


class Point(_Record):
    __slots__ = ("x", "y", "label")
    __match_args__ = ("x", "y")
    _defaults = {"y": 0, "label": ""}


class TestConstruction:
    def test_by_position(self):
        p = Point(1, 2, "a")
        assert (p.x, p.y, p.label) == (1, 2, "a")

    def test_by_keyword(self):
        p = Point(label="a", y=2, x=1)
        assert (p.x, p.y, p.label) == (1, 2, "a")

    def test_defaults_fill_the_missing_fields(self):
        p = Point(1)
        assert (p.x, p.y, p.label) == (1, 0, "")
        assert LogIndex(0.5) == LogIndex(0.5, 0.0, False)

    def test_too_many_arguments(self):
        with pytest.raises(TypeError, match="Point takes 3 fields, not 4"):
            Point(1, 2, "a", "b")

    def test_an_unknown_name(self):
        with pytest.raises(TypeError, match="Point has no field 'z'"):
            Point(1, z=3)

    def test_a_field_given_twice(self):
        with pytest.raises(TypeError, match="Point got two values for the field 'x'"):
            Point(1, x=2)

    def test_a_missing_field(self):
        with pytest.raises(TypeError, match="Point is missing the field 'x'"):
            Point(y=2)


class TestComparedAndCarriedFields:
    def test_a_carried_slot_is_not_compared_or_hashed(self):
        assert Point(1, 2, "a") == Point(1, 2, "b")
        assert hash(Point(1, 2, "a")) == hash(Point(1, 2, "b"))
        assert Point(1, 2) != Point(2, 1)

    def test_a_carried_slot_is_not_printed(self):
        assert repr(Point(1, 2, "a")) == "Point(x=1, y=2)"

    def test_radius_carries_its_polynomial_and_pringsheim_flag(self):
        half = Fraction(1, 2)
        assert Radius(half, half, False, None, True) == Radius(half, half, False, "f", False)
        assert repr(Radius(half, half)) == (
            "Radius(lo=Fraction(1, 2), hi=Fraction(1, 2), polynomial=False)"
        )

    def test_radius_carries_its_method(self):
        half = Fraction(1, 2)
        found = Radius(half, half, False, None, True, "rational root")
        other = Radius(half, half, False, None, True, "guard signs")
        assert found == other and hash(found) == hash(other) and repr(found) == repr(other)

    def test_the_census_carries_its_factors(self):
        census = hilton_milnor_census(2, 2, 6)
        assert census == HiltonMilnorCensus(census.generators, {}, census.trunc_degree)
        assert hash(census) == hash(HiltonMilnorCensus((1, 1), {}, 6))

    def test_records_of_different_classes_differ(self):
        class Other(_Record):
            __slots__ = __match_args__ = ("x", "y")

        assert Point(1, 2) != Other(1, 2)


def test_a_record_is_immutable():
    p = Point(1, 2)
    with pytest.raises(AttributeError):
        p.x = 3
    with pytest.raises(AttributeError):
        del p.y
    with pytest.raises(AttributeError):
        p.z = 3


def irrational_radius() -> Radius:
    # the pole of 1/(1 - z - z^2) is (sqrt(5) - 1)/2
    rho = smallest_positive_pole(RationalGF.from_coeffs([1], [1, -1, -1]))
    assert not rho.is_exact and rho._sqfree is not None
    return rho


@pytest.mark.parametrize(
    "clone", [copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))], ids=["deepcopy", "pickle"]
)
def test_a_copied_radius_keeps_its_polynomial_and_still_refines(clone):
    rho = irrational_radius()
    twin = clone(rho)
    assert twin == rho
    assert twin._sqfree == rho._sqfree and twin.pringsheim_ok == rho.pringsheim_ok
    tol = Fraction(1, 10**30)
    narrow = twin.refined(tol)
    assert narrow.width() <= tol < rho.width()
    assert narrow.certificate_holds()


def test_a_refined_or_copied_radius_keeps_its_method():
    rho = irrational_radius()
    assert rho.method == "Descartes counts"  # a bare series
    for twin in (copy.deepcopy(rho), pickle.loads(pickle.dumps(rho)), rho.refined(Fraction(1, 10**30))):
        assert twin.method == rho.method


def test_a_guard_radius_is_not_rewritten_by_reading_it():
    # (1 - z - z^2)^2: the guards isolate the pole, and neither refinement,
    # an overlapping comparison nor the recheck replaces a field
    gf = loop_gf(parse("(S2 v S3) x (S2 v S3)"))
    rho = smallest_positive_pole(gf)
    assert rho.method == "guard signs" and not rho.is_exact
    before = [getattr(rho, name) for name in Radius.__slots__]
    rho.refined(Fraction(1, 10**30))
    assert compare_radii(rho, smallest_positive_pole(gf))[0] == 0
    assert rho.certificate_holds()
    assert all(getattr(rho, name) is was for name, was in zip(Radius.__slots__, before))


def test_a_copied_record_keeps_every_slot():
    p = Point(1, 2, "a")
    for twin in (copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert (twin.x, twin.y, twin.label) == (1, 2, "a")


def test_a_pickled_expression_tree_rebuilds_through_inherited_slots():
    tree = parse("Susp(S2 ^ S3) v S4 x S5")
    assert pickle.loads(pickle.dumps(tree)) == tree
    assert copy.deepcopy(tree) == tree
