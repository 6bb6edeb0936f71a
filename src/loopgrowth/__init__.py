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
`loopgrowth.space`.
"""

from importlib import import_module

__version__ = "0.1.0"

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
        "connected_sum_loop_gf",
        "good_growth_verdict",
        "inert_cofiber_loop_gf",
        "loop_gf",
        "loop_smash_sphere",
        "omega_at_rho_infinite",
        "pi_ranks",
        "strongly_inert_check",
        "y_class_loop_gf",
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
        "homology_gf",
        "is_rational_sphere_wedge",
        "parse",
        "profile",
        "reduced_gf",
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
