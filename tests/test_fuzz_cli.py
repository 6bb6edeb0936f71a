"""Fuzzing `run()` argv: every input gets one typed JSON report, never a traceback.

The expression and presentation commands get expressions from four sources:

- random trees over the spheres S2..S9, bracketed at random, and, for
  `rho`, `loop-series` and `log-index`, over S2..S60 with repeated operands
  (a subtree times itself), whose denominators have repeated factors;
- token soup: the language's tokens, a few foreign characters, no grammar;
- deep nests: up to 3,000 brackets, suspensions nested just past the
  parser's depth limit, and operator chains of up to 400 operands;
- a random tree joined to one sphere past the sphere dimension limit, with up
  to 4,000 digits.

`parse` and `rho` also get long texts: a random tree in up to 5,000
brackets, balanced or one short or one over, and wedge or product chains
of 200 to 1,500 spheres with a stray character at a drawn position.

`free-loop` gets a few small generator degrees, sometimes with one past the
limit (a generator of degree d is the sphere S^(d+1)).

Each argv goes through `cli.run`. No exception may escape, the exit code is
0, 1 or 2, and stdout is one strict JSON report (no NaN or Infinity) that
validates against `report_schema.json`, within the per-example deadline. A
loop series has integer coefficients, infinitely many of them nonzero, so
every `rho`, `loop-series` and presentation report gives a finite rho <= 1.

Sphere dimension is limited to `space.MAX_SPHERE_DIMENSION`, but loop-series
denominator degree has no declared limit yet (ROADMAP item 5). The guards of a
loop series certify its pole with no squarefree step, so a repeated factor
costs nothing extra. The presentation commands keep their spheres within
S2..S9 here, and long product and smash chains and deep suspension nests are
drawn only past the depth limit. Past either limit, the parser refuses the
expression before any series is built. Tests in `test_space.py` and
`test_cli.py` cover trees at the depth limit and spheres at the dimension
limit.

Valid `cofiber`, `connsum` and `yclass` presentations are drawn wider, over
S2..S60 with wedges, products and suspensions, sometimes with a squared
factor in Z and an A suspended up to 250 times, and sometimes with a
squared wedge of S2..S4 in Z under an A suspended 40 to 250 times, whose Y
has two roots close to Z's double root, so that the guard walk runs (the
slowest draw). Each must exit 0 with a certified verdict, with every pole
certified by the guards (no Descartes search), within the same
per-example deadline. The verdict reads the gap off rho(OmegaY)'s cell
alone: every guard of OmegaZ must be positive at the cell's right end, and
the cell must come out disjoint from rho(OmegaZ) by Z's own search.
"""

import io
import json
from datetime import timedelta
from fractions import Fraction
from importlib import resources
from unittest import mock

import jsonschema
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from loopgrowth import loop, series
from loopgrowth.cli import run
from loopgrowth.loop import strongly_inert_check
from loopgrowth.space import MAX_DEPTH, MAX_SPHERE_DIMENSION

VALIDATOR = jsonschema.Draft7Validator(
    json.loads(resources.files("loopgrowth").joinpath("report_schema.json").read_text())
)

JUST = "asserted for the fuzz test"
OPERATORS = st.sampled_from(["v", "x", "^"])
SPHERES = st.integers(2, 9).map(lambda n: f"S{n}")


def _binary(parts):
    left, op, right, bracketed = parts
    text = f"{left} {op} {right}"
    return f"({text})" if bracketed else text


trees = st.recursive(
    SPHERES,
    lambda inner: st.one_of(
        st.tuples(inner, OPERATORS, inner, st.booleans()).map(_binary),
        inner.map(lambda x: f"Susp({x})"),
    ),
    max_leaves=6,
)


def _squared(x):
    return f"({x} x {x})"


wide_trees = st.recursive(
    st.integers(2, 60).map(lambda n: f"S{n}"),
    lambda inner: st.one_of(
        st.tuples(inner, OPERATORS, inner, st.booleans()).map(_binary),
        inner.map(_squared),
        inner.map(lambda x: f"Susp({x})"),
    ),
    max_leaves=6,
)

TOKENS = ["S2", "S3", "S9", "S1", "S0", "S", "Susp", "Susp(", "(", ")", "v", "x", "^",
          " ", "+", "&", "\t", "s2", "V"]
soup = st.lists(st.sampled_from(TOKENS), max_size=24).map("".join)


def _brackets(parts):
    depth, inner, missing = parts
    return "(" * depth + inner + ")" * max(depth - missing, 0)


def _suspensions(parts):
    depth, inner = parts
    return "Susp(" * depth + inner + ")" * depth


def _chain(parts):
    op, length, sphere = parts
    return f" {op} ".join([sphere] * length)


nests = st.one_of(
    st.tuples(st.integers(0, 3000), trees, st.sampled_from([0, 0, 0, 1])).map(_brackets),
    st.tuples(st.integers(MAX_DEPTH + 1, MAX_DEPTH + 4), SPHERES).map(_suspensions),
    st.tuples(st.just("v"), st.integers(1, 400), SPHERES).map(_chain),
    st.tuples(
        OPERATORS,
        st.one_of(st.integers(1, 6), st.integers(MAX_DEPTH + 2, 400)),
        SPHERES,
    ).map(_chain),
)


def _stray(parts):
    op, length, sphere, stray, where = parts
    text = f" {op} ".join([sphere] * length)
    at = where % (len(text) + 1)
    return text[:at] + stray + text[at:]


long_texts = st.one_of(
    st.tuples(st.integers(0, 5000), trees, st.sampled_from([0, 1, -1])).map(_brackets),
    st.tuples(
        st.sampled_from(["v", "x"]), st.integers(200, 1500), SPHERES,
        st.sampled_from(["%", "S", "Su", "\x00", "(", ")", "v", "9" * 4301, ""]),
        st.integers(0, 10**6),
    ).map(_stray),
)

PAST_LIMIT = st.integers(MAX_SPHERE_DIMENSION + 1, 10**4000)
past_limit = st.tuples(trees, OPERATORS, PAST_LIMIT).map(lambda t: f"{t[0]} {t[1]} S{t[2]}")

expressions = st.one_of(trees, soup, nests, past_limit)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(
        ["parse", "homology", "loop-series", "rho", "log-index", "retraction",
         "cofiber", "connsum", "yclass", "free-loop"]
    ))
    if command == "parse":
        return [command, draw(st.one_of(expressions, long_texts))]
    if command == "rho":
        return [command, draw(st.one_of(expressions, wide_trees, long_texts))]
    if command in ("homology", "loop-series", "log-index"):
        expr = draw(expressions if command == "homology" else st.one_of(expressions, wide_trees))
        argv = [command, expr, "--max-degree", str(draw(st.integers(-1, 201)))]
        if command == "log-index":
            argv += ["--k-min", str(draw(st.integers(-1, 50)))]
        return argv
    if command == "free-loop":
        degrees = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
        if draw(st.booleans()):
            degrees.append(draw(PAST_LIMIT) - 1)
        return [command, "--degrees", ",".join(map(str, degrees)),
                "--max-degree", str(draw(st.integers(0, 60))), "--k-min", str(draw(st.integers(1, 20)))]
    if command == "retraction":
        return [command, "--A", draw(expressions), "--Z", draw(expressions)]
    if command == "yclass":
        argv = [command, "--m", str(draw(st.integers(1, 6))), "--n", str(draw(st.integers(2, 12))),
                "--J", draw(expressions)]
    else:
        flags = ("--A", "--Z") if command == "cofiber" else ("--A", "--M", "--N")
        argv = [command]
        for flag in flags:
            argv += [flag, draw(expressions)]
    if draw(st.integers(0, 9)):
        argv += ["--inert", JUST]
    return argv + ["--max-degree", str(draw(st.integers(0, 60)))]


# presentations whose verdict must certify: spheres up to S60 under wedges,
# products and suspensions (a smash need not be expressible); sometimes a Z
# with a repeated product factor, so that D_Z is not squarefree; sometimes an
# A = Susp^k(S2), k <= 250, whose rho(OmegaY) lies so close to rho(OmegaZ)
# that the first cells overlap and the test's `compare_radii` takes its gcd
WIDE_SPHERES = st.integers(2, 60).map(lambda n: f"S{n}")
wide_spaces = st.recursive(
    WIDE_SPHERES,
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["v", "x"]), inner, st.booleans()).map(_binary),
        inner.map(lambda x: f"Susp({x})"),
    ),
    max_leaves=3,
)
# a squared wedge has a double root at rho(OmegaZ) < 1
wide_wedges = st.tuples(wide_spaces, st.just("v"), wide_spaces, st.just(True)).map(_binary)
repeated_factor = st.tuples(st.one_of(wide_spaces, wide_wedges), wide_spaces).map(
    lambda t: f"{_squared(t[0])} x {t[1]}"
)
deep_suspensions = st.integers(0, 250).map(lambda k: "Susp(" * k + "S2" + ")" * k)
# a deep A over a squared wedge of S2..S4: D_Y = D_Z - z^(k+2) has roots
# beside the double root of D_Z, so the first cell mostly does not certify
# and the guard walk runs
low_wedges = st.lists(st.integers(2, 4).map(lambda n: f"S{n}"), min_size=2, max_size=4).map(" v ".join)
walked = st.tuples(
    st.integers(40, 250).map(lambda k: "Susp(" * k + "S2" + ")" * k),
    st.tuples(low_wedges, SPHERES).map(lambda t: f"{_squared(f'({t[0]})')} x {t[1]}"),
)


@st.composite
def presentations(draw):
    command = draw(st.sampled_from(["cofiber", "connsum", "yclass"]))
    a, z = draw(st.one_of(
        st.tuples(st.one_of(wide_spaces, deep_suspensions), st.one_of(wide_spaces, repeated_factor)),
        walked,
    ))
    if command == "cofiber":
        argv = [command, "--A", a, "--Z", z]
    elif command == "connsum":
        argv = [command, "--A", a, "--M", z, "--N", draw(wide_spaces)]
    else:
        m = draw(st.integers(2, 30))
        argv = [command, "--m", str(m), "--n", str(draw(st.integers(2 * m, 60))), "--J", a]
    return argv + ["--inert", JUST, "--max-degree", str(draw(st.integers(0, 60)))]


def _strict(constant):
    raise ValueError(f"non-JSON constant {constant}")


@given(argvs())
@settings(
    max_examples=400,
    deadline=timedelta(seconds=3),
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_every_argv_gets_one_schema_valid_report(argv):
    out = io.StringIO()
    code = run(argv, out)
    assert code in (0, 1, 2)
    report = json.loads(out.getvalue(), parse_constant=_strict)
    errors = sorted(VALIDATOR.iter_errors(report), key=str)
    assert not errors, errors[0]
    assert ("error" in report) == (code != 0)
    if code == 2:
        assert report["error"]["kind"] == "parse-error"
    if code == 0 and report["command"] in ("rho", "loop-series", "cofiber", "connsum", "yclass"):
        rho = report["result"]["rho"]
        assert not rho["infinite"]
        assert Fraction(int(rho["hi"]["num"]), int(rho["hi"]["den"])) <= 1
    if code == 0 and report["command"] in ("cofiber", "connsum", "yclass"):
        # an inert attachment gives rho(OmegaY) < rho(OmegaZ) <= 1
        result = report["result"]
        assert result["verdict"] == "certified-strongly-inert"
        assert result["strongly_inert"] and result["omega_divergent"]
        assert not result["elliptic"]


@given(presentations())
@settings(
    max_examples=100,
    deadline=timedelta(seconds=3),
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_every_wide_presentation_certifies_its_gap_on_the_guard_cell(argv):
    checks = []

    def recorded(c):
        checks.append((c, strongly_inert_check(c)))
        return checks[-1][1]

    def refused(*args):
        raise AssertionError("the Descartes search ran")

    out = io.StringIO()
    with mock.patch.object(loop, "strongly_inert_check", recorded), \
            mock.patch.object(series, "_isolating_cells", refused):
        code = run(argv, out)
    assert code == 0, out.getvalue()
    assert json.loads(out.getvalue())["result"]["verdict"] == "certified-strongly-inert"
    ((c, check),) = checks
    assert check.strongly_inert
    # the certificate: every guard of OmegaZ is positive at the right end of
    # OmegaY's cell as the pole search certified it
    inner, top = loop.loop_gf(c.Z)._guards
    assert all(g.sign_at(check.rho_y.hi) > 0 for g in inner + top)
    # the reference: rho(OmegaZ) by its own search, the two cells made disjoint
    verdict, rho_y, rho_z = series.compare_radii(check.rho_y, series.smallest_positive_pole(loop.loop_gf(c.Z)))
    assert verdict == -1 and rho_y.hi <= rho_z.lo
