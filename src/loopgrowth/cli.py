"""Command-line front end: deterministic JSON and CSV analysis reports.

Every successful run prints one report object: request echo, result fields,
a plot-ready table, and a provenance list classifying each claim as
THEOREM_CITED, COMPUTED, MODEL, or ASSERTED. Exact rationals are emitted as
numerator/denominator strings plus a decimal rendering so no JSON number
ever carries the precision. Errors print a report with a machine-readable
`error.kind`; exit code 2 flags expression parse errors, 1 everything else.

Each subcommand is declared once, in `_COMMANDS`: its help, its arguments
and its handler. A flag is attached only to the commands whose handler reads
it, so a flag a command would ignore is a usage error. The same arguments
are the report's `request`: it echoes every argument but `--file`, keyed by
its `dest`, in declaration order, with the value the handler normalized it
to. A plain argv (exact flags, each with its value, and the positionals)
is read straight off the table; any other goes to argparse, which is
imported and built from the same table once per process, on first need,
and is the one source of usage-error wording and of help. Usage errors
(unknown or malformed flags, a missing subcommand) print a `usage-error`
report and exit 2; `--help` and `--version` print to stdout and exit 0.

Output is byte-identical across repeated runs. This module imports no
library module at load time: each handler imports the modules it reads when
it is called, and reads library functions off their home module (for
instance `space.parse`, `series.expand`), so a wrapper installed there sees
every call, and a command loads only what it uses. A library error carries
its report kind as the class attribute `report_kind`; any other ValueError
is a `validation-error`.
"""

import io
import sys
from _json import encode_basestring_ascii
from functools import cache, partial
from itertools import chain
from types import SimpleNamespace

from . import __version__, _Record

SCHEMA_ID = "loopgrowth-report/v1"
RATIONAL_DEGREE_LIMIT = 200
BRUTE_DEGREE_LIMIT = 40
DECIMAL_DIGITS = 30

# the kinds run() names itself; a library error carries its own as `report_kind`
KIND_PARSE = "parse-error"
KIND_VALIDATION = "validation-error"
KIND_USAGE = "usage-error"


# -- serialization helpers -----------------------------------------------------


@cache
def _decimal_context():
    """The context of DECIMAL_DIGITS digits, built on first use, so `decimal` loads only then."""
    from decimal import Context

    return Context(prec=DECIMAL_DIGITS)


def _decimal_str(q) -> str:
    return str(_decimal_context().divide(q.numerator, q.denominator))


def _rational(q) -> dict:
    return {"num": str(q.numerator), "den": str(q.denominator), "decimal": _decimal_str(q)}


def _interval(r) -> dict:
    """A finite radius: every loop series here has integer coefficients, infinitely many nonzero."""
    return {"infinite": False, "exact": r.is_exact, "lo": _rational(r.lo), "hi": _rational(r.hi)}


def _log_index(li) -> dict:
    return {"value": li.value, "halfwidth": li.halfwidth, "eventually_zero": li.eventually_zero}


def _coeffs_json(coeffs) -> list:
    """Series coefficients as JSON values: ints as they are, Fractions as "p/q"."""
    return [c if isinstance(c, int) else str(c) for c in coeffs]


def _gf_json(gf) -> dict:
    return {"numerator": list(gf.num.coeffs), "denominator": list(gf.den.coeffs)}


def _series_table(coeffs) -> dict:
    return {
        "columns": ["degree", "coefficient"],
        "rows": list(zip(range(len(coeffs)), map(str, coeffs))),
    }


def _kv_table(pairs) -> dict:
    return {"columns": ["key", "value"], "rows": [[k, str(v)] for k, v in pairs]}


def _cited(claim: str, theorem: str) -> dict:
    return {"claim": claim, "source": "THEOREM_CITED", "theorem": theorem}


def _computed(claim: str) -> dict:
    return {"claim": claim, "source": "COMPUTED"}


# how a radius was certified (`Radius.method`) -> the wording of its claim
_RADIUS_METHODS = {
    "binomial split": "the split of the loop denominator into binomials 1 - z^a",
    "rational root": "a rational root with no root below it",
    "guard signs": "guard signs",
    "Descartes counts": "Descartes counts",
}


def _radius_claim(what: str, rho) -> dict:
    claim = f"{what} certified by {_RADIUS_METHODS[rho.method]}"
    return _computed(claim if rho.is_exact else claim + " and rational bisection")


def _asserted(claim: str) -> dict:
    return {"claim": claim, "source": "ASSERTED"}


def _model(claim: str, model_id: str) -> dict:
    return {"claim": claim, "source": "MODEL", "model_id": model_id}


# expression node class -> its "kind" in the syntax tree of a parse report
_TREE_KINDS = {
    "Sphere": "sphere",
    "Wedge": "wedge",
    "Product": "product",
    "Smash": "smash",
    "Susp": "suspension",
}


def _tree(x) -> dict:
    """The syntax tree as nested dicts. Nodes are told apart by class name,
    so the walk imports nothing."""
    kind = _TREE_KINDS.get(type(x).__name__)
    if kind == "sphere":
        return {"kind": kind, "n": x.n}
    if kind == "suspension":
        return {"kind": kind, "inner": _tree(x.inner)}
    if kind is None:
        raise TypeError(f"unknown expression node {x!r}")
    return {"kind": kind, "left": _tree(x.left), "right": _tree(x.right)}


def _check_degree(n: int, limit: int = RATIONAL_DEGREE_LIMIT, what: str = "") -> int:
    if n < 0:
        raise ValueError("max degree must be nonnegative")
    if n > limit:
        suffix = f" for {what}" if what else ""
        raise ValueError(f"max degree {n} exceeds the {limit} limit{suffix}")
    return n


# -- presentation payloads -----------------------------------------------------


def _file_value(name, value, kind):
    """A presentation-file value, held to the type its flag declares."""
    if kind is int and type(value) in (int, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif kind is None and type(value) is str:
        return value
    import json

    want = "an integer" if kind is int else "a string"
    raise ValueError(f"presentation field {name!r} must be {want}, not {json.dumps(value)}")


def _load_presentation(args, fields):
    """Merge a presentation file into `args`, field by field; flags win."""
    data = {}
    if args.file:
        import json

        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        # a decode error does not name the file, and arrays nested past the
        # decoder's depth raise RecursionError
        except (OSError, ValueError, RecursionError) as e:
            raise ValueError(
                f"cannot read presentation file {args.file!r}: {getattr(e, 'strerror', None) or e}"
            ) from None
        if not isinstance(data, dict):
            raise ValueError("presentation file must hold a JSON object")
        if "kind" in data and data["kind"] != args.command:
            raise ValueError(
                f"presentation kind {data['kind']!r} does not match command {args.command!r}"
            )
    types = {dest: kind for dest, _, kind, *_ in _SPECS[args.command]}
    for name in fields + ("inert_justification",):
        if getattr(args, name) is None and data.get(name) is not None:
            setattr(args, name, _file_value(name, data[name], types[name]))
    if not args.inert_justification:
        raise ValueError(
            "an inertness justification is required (--inert or the "
            "inert_justification field): the engine cannot verify inertness"
        )
    missing = [name for name in fields if getattr(args, name) is None]
    if missing:
        raise ValueError(f"missing presentation fields: {', '.join(missing)}")


# -- command handlers ----------------------------------------------------------


def _cmd_parse(args):
    from . import space

    x = space.parse(args.expr)
    canonical = space.to_text(x)
    result = {"canonical": canonical, "tree": _tree(x)}
    table = _kv_table([("canonical", canonical)])
    prov = [_computed("canonical form from the precedence grammar (^ over x over v)")]
    return result, table, prov


def _cmd_homology(args):
    from . import space

    n = _check_degree(args.max_degree)
    x = space.parse(args.expr)
    pr = space.profile(x)
    coeffs = space.homology_poly(x).coeffs[: n + 1]
    result = {
        "polynomial": _coeffs_json(coeffs),
        "profile": {"connectivity": pr.connectivity, "dimension": pr.dimension},
    }
    prov = [
        _computed("rational homology by the wedge, product, smash and suspension rules"),
        _computed("connectivity and dimension bounds read off the same recursion"),
    ]
    return result, _series_table(coeffs), prov


def _cmd_loop_series(args):
    from . import loop, series, space

    n = _check_degree(args.max_degree)
    x = space.parse(args.expr)
    gf = loop.loop_gf(x)
    coeffs = gf.expand(n).coeffs
    rho = series.smallest_positive_pole(gf)
    result = {
        "series": _gf_json(gf),
        "coefficients": _coeffs_json(coeffs),
        "rho": _interval(rho),
    }
    prov = [
        _cited(
            "loop-space homology series assembled from closed multiplicative rules",
            "loop-suspension splitting and the free-product identity for wedges",
        ),
        _computed("coefficients by linear recurrence on the reduced fraction"),
        _radius_claim("radius", rho),
    ]
    return result, _series_table(coeffs), prov


def _cmd_rho(args):
    from . import loop, series, space

    x = space.parse(args.expr)
    rho = series.smallest_positive_pole(loop.loop_gf(x))
    result = {"rho": _interval(rho)}
    rows = [
        ("rho_lo", _decimal_str(rho.lo)),
        ("rho_hi", _decimal_str(rho.hi)),
        ("exact", str(rho.is_exact).lower()),
    ]
    prov = [_radius_claim("radius", rho)]
    return result, _kv_table(rows), prov


def _cmd_log_index(args):
    from . import loop, series, space

    n = _check_degree(args.max_degree)
    x = space.parse(args.expr)
    gf = loop.loop_gf(x)
    expansion = series.expand(gf, n)
    li = series.log_index_exact(series.smallest_positive_pole(gf))
    tail = max(1, min(args.k_min, n))
    empirical = series.log_index_empirical(expansion, tail)
    result = {"log_index": _log_index(li), "empirical": empirical, "tail_start": tail}
    table = _kv_table([("log_index", repr(li.value)), ("empirical", repr(empirical))])
    prov = [
        _computed("exact log index as -ln(certified radius midpoint)"),
        _computed("empirical log index as the max of log(dim)/degree over the tail"),
    ]
    return result, table, prov


def _cmd_presentation(kind, fields, args):
    """Growth verdict for a presentation of the `loop` class named `kind`
    with these fields; the request echoes each field in canonical form."""
    from . import loop, space

    n = _check_degree(args.max_degree)
    _load_presentation(args, fields)
    just = args.inert_justification
    values = [getattr(args, name) for name in fields]
    values = [space.parse(v) if isinstance(v, str) else v for v in values]
    pres = getattr(loop, kind)(*values, inert_asserted=True, justification=just)
    for name, value in zip(fields, values):
        if not isinstance(value, int):
            setattr(args, name, space.to_text(value))
    cofiber = pres if kind == "CofiberPresentation" else pres.as_cofiber()
    verdict = loop.good_growth_verdict(cofiber)
    coeffs = verdict.series.expand(n).coeffs
    result = {
        "series": _gf_json(verdict.series),
        "coefficients": _coeffs_json(coeffs),
        "rho": _interval(verdict.rho),
        "log_index": _log_index(verdict.log_index),
        "elliptic": verdict.elliptic,
        "strongly_inert": verdict.strongly_inert,
        "omega_divergent": verdict.omega_divergent,
        "verdict": verdict.good_growth.value,
        "trail": list(verdict.trail),
    }
    prov = [
        _asserted(f"attaching map is inert: {just}"),
        _cited(
            "loop series of the total space from the splitting of the cofiber fibration",
            "loop-space splitting for inert attachments",
        ),
        _radius_claim("radius and log index", verdict.rho),
        _cited(
            "good exponential growth of the free loops on the total space",
            "log-index transfer for strongly inert attachments",
        ),
    ]
    if kind == "ConnSumPresentation":
        prov.insert(
            1,
            _cited(
                "connected sum analyzed through its collar cofibration onto the wedge",
                "collar cofibration of a connected sum",
            ),
        )
    elif kind == "YClassPresentation":
        result["cofiber_space"] = space.to_text(pres.cofiber_space())
    return result, _series_table(coeffs), prov


def _cmd_free_loop(args):
    from . import freeloop

    limit = BRUTE_DEGREE_LIMIT if args.method == "brute" else RATIONAL_DEGREE_LIMIT
    what = "brute-force Hochschild computation" if args.method == "brute" else ""
    n = _check_degree(args.max_degree, limit, what)
    degrees = tuple(int(part) for part in args.degrees.split(",") if part.strip())
    a = freeloop.GradedAlphabet(degrees)
    r = freeloop.free_loop_good_growth(
        a, n, getattr(args, "lambda"), args.epsilon, args.k_min, args.match_tol, args.method
    )
    args.degrees, args.match_tol = list(a.degrees), r.match_tol
    result = {
        "degrees": args.degrees,
        "target_log_index": r.target,
        "empirical_log_index": r.empirical,
        "log_index_match": r.log_index_match,
        "match_tol": r.match_tol,
        "growth_check": {
            "passed": r.check.passed,
            "sequence": list(r.check.sequence),
            "alphas": list(r.check.alphas),
            "lambda": r.check.lam,
            "epsilon": r.check.epsilon,
            "k_min": r.check.k_min,
        },
        "passed": r.passed,
        "method": args.method,
    }
    t = r.table
    table = {
        "columns": ["degree", "hh0", "hh1", "lx"],
        "rows": list(zip(range(t.trunc_degree + 1), t.hh0, t.hh1, t.lx)),
    }
    method = "signed cyclic coinvariants of the tensor algebra"
    if args.method == "brute":
        method = "cycle parity of theta's signed permutation of numbered words"
    prov = [
        _computed(f"free-loop dimension table from {method}, kernel layer by rank-nullity"),
        _computed("target log index from the certified radius of the loop series"),
        _computed("finite controlled-growth certificate over the requested window"),
    ]
    return result, table, prov


def _cmd_hm_census(args):
    from . import freeloop, series, torsion

    n = _check_degree(args.max_degree)
    census = torsion.hilton_milnor_census(args.m, args.n, n)
    alphabet = freeloop.GradedAlphabet((args.m - 1, args.n - 1))
    expected = freeloop.tensor_algebra_dims(alphabet, n)
    reconstruction_ok = census.reconstruct().as_dims() == expected
    tail = max(1, min(args.k_min, n))
    rate = series.log_index_empirical(census.factor_counts(), tail)
    result = {
        "generators": list(census.generators),
        "total_factors": sum(census.factors.values()),
        "max_factor_dimension": max(census.factors, default=0),
        "reconstruction_ok": reconstruction_ok,
        "census_log_index": rate,
    }
    table = {
        "columns": ["sphere_dimension", "multiplicity"],
        "rows": [[d, c] for d, c in census.factors.items()],
    }
    prov = [
        _cited(
            "loops on a wedge of two spheres split as a product of loops on "
            "spheres indexed by basic products",
            "product decomposition of loops on a two-sphere wedge",
        ),
        _computed("multiplicities by the weighted Witt formula over Lyndon words"),
        _computed("reconstruction cross-check against the word-counting series"),
        _computed("census growth rate as the empirical log index of factor counts"),
    ]
    return result, table, prov


def _cmd_torsion(args):
    from . import torsion

    n = _check_degree(args.max_degree)
    excluded = torsion.PrimeSet(
        tuple(int(q) for q in (args.excluded or "").split(",") if q.strip())
    )
    rep = torsion.torsion_report(
        args.m, args.n, args.p, args.r, n, excluded=excluded, tail_start=args.k_min
    )
    args.excluded = list(excluded.primes)
    result = {
        "prime": rep.prime,
        "r": rep.r,
        "exponent_witness": rep.exponent_witness,
        "census_log_index": rep.census_log_index,
        "excluded": list(rep.excluded.primes),
        "prime_excluded": rep.prime_excluded,
        "model_id": rep.model_id,
    }
    table = {
        "columns": ["degree", "t_lower"],
        "rows": [[d, c] for d, c in rep.t_lower.items()],
    }
    prov = [
        _cited(
            f"a sphere factor of dimension {rep.exponent_witness} carries "
            f"p-power torsion of exponent at least p^{rep.r}",
            "growth of sphere exponents with dimension",
        ),
        _model(
            "per-degree torsion lower bounds count one class per qualifying "
            "loop-sphere factor at its first possible torsion degree",
            rep.model_id,
        ),
        _computed("census growth rate as the empirical log index of factor counts"),
    ]
    return result, table, prov


def _cmd_primes(args):
    from . import torsion

    ps = torsion.primes_set(args.d, args.s)
    result = {"d": args.d, "s": args.s, "primes": list(ps.primes)}
    table = {"columns": ["prime"], "rows": [[p] for p in ps.primes]}
    prov = [
        _cited(
            "suspensions split p-locally into wedges of spheres away from these primes",
            "p-local splitting of suspensions",
        ),
        _computed("primes q with 2q <= d - s + 1"),
    ]
    return result, table, prov


def _cmd_retraction(args):
    from . import space, torsion

    A = space.parse(args.A)
    Z = space.parse(args.Z)
    rep = torsion.retraction_report(A, Z)
    result = {"m": rep.m, "n": rep.n, "excluded": list(rep.excluded.primes)}
    table = _kv_table(
        [("m", rep.m), ("n", rep.n), ("excluded", ",".join(map(str, rep.excluded.primes)))]
    )
    prov = [
        _cited(
            f"loops on S^{rep.m} v S^{rep.n} retract off the loops of the cofiber "
            "away from the excluded primes",
            "two-sphere wedge retraction off loops of an inert cofiber",
        ),
        _computed("m from the wedge decomposition of the suspension of A"),
        _computed("n from the least nonvanishing reduced homology degree of Z"),
        _computed("excluded primes from both structural profiles"),
    ]
    return result, table, prov


# -- command table -------------------------------------------------------------


class Command(_Record):
    """Help text, handler(args) -> (result, table, provenance), and the
    arguments as (flags, add_argument keywords) pairs.

    The arguments are the command's whole request: the report echoes each
    one but `--file` under its `dest`, in this order, with the value the
    handler leaves in `args`. A handler writes back only what it normalizes.
    `_read` reads argv by each argument's first flag and its `dest`, `type`,
    `choices`, `required` and `default` keywords; argparse, for help and
    other argv, reads them all.
    """

    __slots__ = __match_args__ = ("help", "handler", "arguments")


def _arg(*flags, **kwargs):
    return flags, kwargs


def _inert(what):
    return _arg("--inert", dest="inert_justification", help=f"why the {what} is inert (recorded)")


EXPR = _arg("expr")
MAX_DEGREE = _arg("--max-degree", type=int, default=40, metavar="N")
K_MIN = _arg("--k-min", type=int, default=10)
FILE = _arg("--file", help="presentation file (JSON)")
FORMAT = _arg("--format", choices=("json", "csv"), default="json")

_COMMANDS = {
    "parse": Command("echo the canonical form and syntax tree", _cmd_parse, (EXPR,)),
    "homology": Command(
        "rational homology polynomial and profile", _cmd_homology, (EXPR, MAX_DEGREE)
    ),
    "loop-series": Command(
        "loop-space homology series and radius", _cmd_loop_series, (EXPR, MAX_DEGREE)
    ),
    "rho": Command("certified radius of convergence of the loop series", _cmd_rho, (EXPR,)),
    "log-index": Command(
        "exact and empirical log index of the loop series",
        _cmd_log_index,
        (EXPR, MAX_DEGREE, K_MIN),
    ),
    "cofiber": Command(
        "growth verdict for an asserted-inert cofibration",
        partial(_cmd_presentation, "CofiberPresentation", ("A", "Z")),
        (
            _arg("--A", help="cofiber attachment source (suspended)"),
            _arg("--Z", help="cofiber of the attachment"),
            _inert("attaching map"),
            FILE,
            MAX_DEGREE,
        ),
    ),
    "connsum": Command(
        "growth verdict for a connected sum",
        partial(_cmd_presentation, "ConnSumPresentation", ("A", "M", "N")),
        (
            _arg("--A", help="collar attachment source"),
            _arg("--M", help="first summand"),
            _arg("--N", help="second summand"),
            _inert("collar attachment"),
            FILE,
            MAX_DEGREE,
        ),
    ),
    "yclass": Command(
        "growth verdict for a two-cone sphere-product class",
        partial(_cmd_presentation, "YClassPresentation", ("m", "n", "J")),
        (
            _arg("--m", type=int, help="lower sphere dimension"),
            _arg("--n", type=int, help="total dimension"),
            _arg("--J", help="suspended attachment source"),
            _inert("attaching map"),
            FILE,
            MAX_DEGREE,
        ),
    ),
    "free-loop": Command(
        "free-loop growth check for a wedge of spheres",
        _cmd_free_loop,
        (
            _arg("--degrees", required=True, help="generator degrees, e.g. 2,2"),
            MAX_DEGREE,
            _arg("--lambda", type=float, default=1.5),
            _arg("--epsilon", type=float, default=0.1),
            K_MIN,
            _arg(
                "--match-tol",
                type=float,
                default=None,
                help="log-index agreement tolerance (default 3.2/N, i.e. 0.08 at N=40)",
            ),
            _arg("--method", choices=("necklace", "brute"), default="necklace"),
        ),
    ),
    "hm-census": Command(
        "sphere-factor census of loops on S^m v S^n",
        _cmd_hm_census,
        (
            _arg("--m", type=int, required=True),
            _arg("--n", type=int, required=True),
            MAX_DEGREE,
            K_MIN,
        ),
    ),
    "torsion": Command(
        "exponent witness and modeled torsion lower bounds",
        _cmd_torsion,
        (
            _arg("--m", type=int, required=True),
            _arg("--n", type=int, required=True),
            _arg("--p", type=int, required=True),
            _arg("--r", type=int, required=True),
            MAX_DEGREE,
            K_MIN,
            _arg("--excluded", help="comma-separated excluded primes"),
        ),
    ),
    "primes": Command(
        "excluded primes for a (dimension, connectivity) profile",
        _cmd_primes,
        (_arg("--d", type=int, required=True), _arg("--s", type=int, required=True)),
    ),
    "retraction": Command(
        "sphere pair retracting off loops of a cofiber",
        _cmd_retraction,
        (_arg("--A", required=True), _arg("--Z", required=True)),
    ),
}


# -- argument parsing ----------------------------------------------------------


class UsageError(Exception):
    """An argv the parser rejects; run() reports it as a usage error."""


def _entry(flags, kwargs) -> tuple:
    """(dest, flag, type, choices, required, default) of a declared argument.

    flag is None for a positional, which is required. The dest is argparse's:
    the declared one, else the flag without its dashes, - read as _.
    """
    flag = flags[0]
    positional = not flag.startswith("-")
    return (
        kwargs.get("dest") or flag.lstrip("-").replace("-", "_"),
        None if positional else flag,
        kwargs.get("type"),
        kwargs.get("choices"),
        positional or kwargs.get("required", False),
        kwargs.get("default"),
    )


# each command's arguments, then --format, as `_entry` tuples
_SPECS = {
    name: tuple(_entry(*arg) for arg in command.arguments + (FORMAT,))
    for name, command in _COMMANDS.items()
}
# the dests a report's request echoes, in order: every argument but --file
_ECHO = {
    name: tuple(dest for dest, *_ in spec[:-1] if dest != "file")
    for name, spec in _SPECS.items()
}


def _read(argv):
    """argparse's namespace for argv, as a dict, read off the command table,
    or None when argv is not plain.

    Plain is: argv[0] a command, then its declared flags, each exactly and
    once, each followed by a value that does not start with "-", and one
    such word for each declared positional, in any order. Each value is
    converted by its type and held to its choices, and a flag left out takes
    its default. Anything else (a missing or unknown flag, a short or
    abbreviated one, --flag=value, --, a negative number, a value argparse
    would refuse) is None: argparse parses it, or words its error.
    """
    spec = _SPECS.get(argv[0]) if argv else None
    if spec is None:
        return None
    flags, words = {}, []
    rest = iter(argv[1:])
    for word in rest:
        if word[:1] != "-":
            words.append(word)
            continue
        value = next(rest, "-")  # a flag that ends argv has no value
        if word in flags or value[:1] == "-":
            return None
        flags[word] = value
    words.reverse()
    args = {"command": argv[0]}
    for dest, flag, kind, choices, required, default in spec:
        if flag is None:
            if not words:
                return None
            value = words.pop()
        elif flag in flags:
            value = flags.pop(flag)
        elif required:
            return None
        else:
            args[dest] = default
            continue
        if kind is not None:
            try:
                value = kind(value)
            except ValueError:
                return None
        if choices is not None and value not in choices:
            return None
        args[dest] = value
    return None if flags or words else args


@cache
def _parsers():
    """argparse's parser and each command's subparser, built from the command
    table on first need, once per process."""
    import argparse

    class ArgumentParser(argparse.ArgumentParser):
        def error(self, message):
            raise UsageError(message)

    top = ArgumentParser(
        prog="loopgrowth",
        description="growth invariants of loop spaces and free loop spaces",
    )
    top.add_argument("--version", action="version", version=f"loopgrowth {__version__}")
    sub = top.add_subparsers(dest="command", required=True)
    parsers = {}
    for name, command in _COMMANDS.items():
        p = parsers[name] = sub.add_parser(name, help=command.help)
        for flags, kwargs in command.arguments + (FORMAT,):
            p.add_argument(*flags, **kwargs)
        p.set_defaults(command=name)
    return top, parsers


def _parse(argv):
    """The namespace `_parsers()[0].parse_args(argv)` gives: read by `_read`
    when argv is plain, else parsed by the command's own subparser when
    argv[0] names a command, and by the top parser otherwise."""
    args = _read(argv)
    if args is not None:
        return SimpleNamespace(**args)
    top, parsers = _parsers()
    sub = parsers.get(argv[0]) if argv else None
    return top.parse_args(argv) if sub is None else sub.parse_args(argv[1:])


# -- report assembly -----------------------------------------------------------


def _render_csv(table: dict) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table["columns"])
    writer.writerows(table["rows"])
    return buf.getvalue()


_LITERALS = {True: "true", False: "false", None: "null"}
# exact type -> its JSON text; bool, None and every subclass take the
# isinstance chain of `_json`
_SCALARS = {int: int.__repr__, str: encode_basestring_ascii, float: float.__repr__}
_ROW_TYPES = {list, tuple}


def _json(value, indent: str = "") -> str:
    """`json.dumps(value, indent=2)`, byte for byte, with no reference cycles.

    With an indent the standard library takes its pure-Python encoder, whose
    nested closures leave cyclic garbage behind on every call. Object keys
    must be strings, as they are in every report, and floats finite.

    A value of exact type int, str or float is written by its encoder
    directly. A list is written as a whole where it can be: items all of one
    such exact type are one join of that encoder, and a table (rows of one
    length whose every column holds one such type) is encoded column by
    column and joined row by row, then all rows at once, so neither costs
    a Python call per item. A table of ints alone is one `%d` format of all
    its cells into the row template repeated once per row. Anything else
    (dicts, mixed or ragged lists, bool and None items, subclasses) takes
    the isinstance chain, whose text is the same as `json.dumps`'s.
    """
    encode = _SCALARS.get(type(value))
    if encode is not None:
        return encode(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or isinstance(value, bool):
        return _LITERALS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return float.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{encode_basestring_ascii(k)}: {_json(v, inner)}" for k, v in value.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[\n" + inner + (",\n" + inner).join(_json_items(value, inner)) + "\n" + indent + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _column_encoder(items):
    """The encoder of the one exact scalar type of all the items, else None."""
    types = set(map(type, items))
    return _SCALARS.get(types.pop()) if len(types) == 1 else None


def _json_items(items, indent: str):
    """JSON texts for the items of a nonempty list, at this indent, to be
    joined by the list's item separator; a table comes back as one text."""
    encode = _column_encoder(items)
    if encode is not None:
        return map(encode, items)
    if set(map(type, items)) <= _ROW_TYPES and len(set(map(len, items))) == 1:
        columns = list(zip(*items))
        encoders = [_column_encoder(column) for column in columns]
        if columns and None not in encoders:
            inner = indent + "  "
            prefix, suffix = "[\n" + inner, "\n" + indent + "]"
            if encoders.count(int.__repr__) == len(encoders):
                # an int table: the %d row template once per row, filled by
                # one format of all the cells, nothing transposed back
                row = prefix + (",\n" + inner).join(["%d"] * len(encoders)) + suffix
                return [(",\n" + indent).join([row] * len(items)) % tuple(chain.from_iterable(items))]
            rows = map((",\n" + inner).join, zip(*map(map, encoders, columns)))
            return [prefix + (suffix + ",\n" + indent + prefix).join(rows) + suffix]
    return [_json(v, indent) for v in items]


def _emit(report: dict, fmt: str, out) -> None:
    if fmt == "csv" and "table" in report:
        out.write(_render_csv(report["table"]))
    else:
        out.write(_json(report))
        out.write("\n")


def _error_report(command, kind, message, **extra) -> dict:
    err = {"kind": kind, "message": message}
    err.update(extra)
    return {"schema": SCHEMA_ID, "command": command or "", "error": err}


def run(argv, out) -> int:
    try:
        args = _parse(argv)
    except UsageError as e:
        command = argv[0] if argv and argv[0] in _COMMANDS else ""
        _emit(_error_report(command, KIND_USAGE, str(e)), "json", out)
        return 2
    try:
        result, table, provenance = _COMMANDS[args.command].handler(args)
    except ValueError as e:
        kind = getattr(e, "report_kind", KIND_VALIDATION)
        extra = {"offset": e.offset, "expected": list(e.expected)} if kind == KIND_PARSE else {}
        _emit(_error_report(args.command, kind, str(e), **extra), "json", out)
        return 2 if kind == KIND_PARSE else 1
    report = {
        "schema": SCHEMA_ID,
        "command": args.command,
        "engine": {"name": "loopgrowth", "version": __version__},
        "request": {dest: getattr(args, dest) for dest in _ECHO[args.command]},
        "result": result,
        "table": table,
        "provenance": provenance,
    }
    _emit(report, args.format, out)
    return 0


def main(argv=None) -> int:
    """`run` on the process's argv and stdout; a stdout that cannot be written exits 1.

    A closed pipe means the reader has left, so it is quiet; any other
    write error is one line on stderr. Either way stdout is then pointed at
    os.devnull, so the flush at exit writes nothing and raises nothing. A
    process started with no stdout at all exits 1 quietly too.
    """
    if sys.stdout is None:
        return 1
    try:
        code = run(sys.argv[1:] if argv is None else argv, sys.stdout)
        sys.stdout.flush()
    except OSError as e:
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(e, BrokenPipeError):
            print(f"loopgrowth: cannot write the report: {e}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
