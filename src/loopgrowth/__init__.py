"""Exact growth invariants of loop spaces and free loop spaces.

Spaces are written in a small expression language (spheres, wedges, products,
smash products, suspensions). The engine computes rational homology series of
their based loops as exact rational functions, certifies radii of convergence
with integer root counting, decides good-exponential-growth questions for
asserted-inert cell attachments, computes free-loop dimension tables through
Hochschild homology of tensor algebras, and counts the sphere factors of
loops on two-sphere wedges together with their torsion consequences.

The public names below are loaded on first access (PEP 562): importing the
package imports none of its modules, and `loopgrowth.parse` imports only
`loopgrowth.space`. Every record of the package is a `_Record`.
"""

from importlib import import_module

__version__ = "0.1.0"

_set = object.__setattr__  # how a record's __init__ writes its fields


class _Record:
    """An immutable record whose fields live in slots.

    The fields named in `__match_args__` are compared, hashed and printed:
    equality is field by field between instances of the same class, the hash
    is that of the field tuple, and the repr is `Name(field=value, ...)`. A
    slot outside `__match_args__` is carried along, through copies and
    pickles too, but is neither compared nor printed.

    `__init__` takes the slots in order, by position or by keyword, and
    fills a missing one from the class's `_defaults`. A class that validates
    or normalizes writes its own `__init__`, which runs its checks and then
    writes each field with `_set`. Either way `__init__` takes every slot in
    order, which is how `__reduce__` rebuilds a record.
    """

    __slots__ = ()
    __match_args__ = ()
    _defaults = {}

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} fields, not {len(args)}")
        for field, value in zip(names, args):
            _set(self, field, value)
        for field in names[len(args):]:
            if field in kwargs:
                _set(self, field, kwargs.pop(field))
            elif field in self._defaults:
                _set(self, field, self._defaults[field])
            else:
                raise TypeError(f"{type(self).__name__} is missing the field {field!r}")
        if kwargs:
            field = next(iter(kwargs))
            problem = "got two values for the" if field in names else "has no"
            raise TypeError(f"{type(self).__name__} {problem} field {field!r}")

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        # an explicit stack of records still to print and text already made,
        # so a tree as deep as the parser builds prints without recursing
        out, stack = [], [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            parts = [f"{type(item).__qualname__}("]
            for i, name in enumerate(item.__match_args__):
                value = getattr(item, name)
                inline = type(value).__repr__ is not _Record.__repr__
                parts += [f"{', ' if i else ''}{name}=", repr(value) if inline else value]
            stack += reversed([*parts, ")"])
        return "".join(out)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        mro = reversed(type(self).__mro__)
        slots = [name for cls in mro for name in vars(cls).get("__slots__", ())]
        return type(self), tuple(getattr(self, name) for name in slots)

# home module -> the public names it defines
_EXPORTS = {
    "freeloop": (
        "FreeLoopGrowthResult",
        "GradedAlphabet",
        "HHDimTable",
        "free_loop_good_growth",
        "hh_bruteforce",
        "hh_necklace",
        "tensor_algebra_dims",
    ),
    "loop": (
        "CofiberPresentation",
        "ConnSumPresentation",
        "GoodGrowth",
        "GrowthVerdict",
        "HypothesisError",
        "NotExpressibleError",
        "PiRankTable",
        "StronglyInertResult",
        "YClassPresentation",
        "good_growth_verdict",
        "inert_cofiber_loop_gf",
        "loop_gf",
        "loop_smash_sphere",
        "pi_ranks",
        "strongly_inert_check",
    ),
    "series": (
        "GrowthCheckResult",
        "LogIndex",
        "Radius",
        "RationalGF",
        "TruncatedSeries",
        "compare_radii",
        "controlled_growth_check",
        "expand",
        "log_index_empirical",
        "log_index_exact",
        "smallest_positive_pole",
    ),
    "space": (
        "ParseError",
        "Product",
        "Profile",
        "Smash",
        "SpaceExpr",
        "Sphere",
        "SphereList",
        "Susp",
        "Wedge",
        "homology_poly",
        "is_rational_sphere_wedge",
        "parse",
        "profile",
        "reduced_poly",
        "to_text",
        "wedge_decomposition",
    ),
    "torsion": (
        "HiltonMilnorCensus",
        "PrimeSet",
        "RetractionReport",
        "TorsionReport",
        "hilton_milnor_census",
        "least_p_torsion_dim",
        "primes_set",
        "primes_set_of",
        "retraction_report",
        "suspension_splits_locally",
        "torsion_report",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
