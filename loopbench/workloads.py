"""Seeded request lists for the four benchmark workloads.

A workload is a list of `Request`s: the argv handed to `loopgrowth.cli.run`
plus what the checker needs to verify the report independently (the space
expressions as trees, the expected exit code and error kind, or the known
defect the input triggers). The seed only changes choices that keep each
request's cost class: factor order, multiplicities at fixed support and
degree, degrees within a fixed stratum, list order. So the cost profile of a
list, and with it every end-to-end metric, stays put from seed to seed, while
the inputs themselves differ.

Expressions are trees of tuples, ("S", n), ("v", a, b), ("x", a, b),
("^", a, b) and ("Susp", a), printed by `text` with the minimal parentheses
of the expression grammar; chains are left associative, as the parser builds
them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

DEADLINE_S = 2.0
"""Wall-clock limit per run() call; a request past it counts as failed."""

BRUTE_WORD_BUDGET = 60_000
"""Brute-force Hochschild requests use the largest N whose basis fits this."""

MISSING_FILE = "loopbench/no-such-presentation.json"


@dataclass
class Request:
    argv: list
    expect: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.argv[0]


# -- expression trees ----------------------------------------------------------

_PREC = {"v": 1, "x": 2, "^": 3}


def sphere(n: int):
    return ("S", n)


def chain(op: str, items):
    node = items[0]
    for item in items[1:]:
        node = (op, node, item)
    return node


def text(t) -> str:
    """Print a tree with minimal parentheses (left-associative operators)."""
    return _text(t, 0, False)


def _text(t, parent, right):
    if t[0] == "S":
        return f"S{t[1]}"
    if t[0] == "Susp":
        return f"Susp({_text(t[1], 0, False)})"
    prec = _PREC[t[0]]
    body = f"{_text(t[1], prec, False)} {t[0]} {_text(t[2], prec, True)}"
    return f"({body})" if prec < parent or (prec == parent and right) else body


def _ladder(rng, k: int, degree: int):
    """Product of spheres S2..S(k+1) plus seed-drawn repeats from the same
    range, with sum(n - 1) == degree: the loop-series denominator has degree
    `degree` and its squarefree part is fixed by k."""
    parts = list(range(1, k + 1))
    while sum(parts) < degree:
        parts.append(rng.randint(1, min(k, degree - sum(parts))))
    rng.shuffle(parts)
    return chain("x", [sphere(p + 1) for p in parts])


def _small_space(rng, depth: int = 2):
    if depth == 0 or rng.random() < 0.35:
        return sphere(rng.randint(2, 7))
    op = rng.choice(["v", "x", "^", "Susp"])
    if op == "Susp":
        return ("Susp", _small_space(rng, depth - 1))
    return (op, _small_space(rng, depth - 1), _small_space(rng, depth - 1))


def _spheres(rng, op: str, dims):
    """A chain of spheres of the given dimensions, in seed-drawn order."""
    dims = list(dims)
    rng.shuffle(dims)
    return chain(op, [sphere(d) for d in dims])


def _expr(command: str, tree, *extra, **expect):
    return Request([command, text(tree), *map(str, extra)], dict(tree=tree, **expect))


def _strata_degree(rng, i: int, count: int, lo: int, hi: int) -> int:
    """The i-th of `count` degrees spread evenly over [lo, hi], jittered by 2."""
    mid = lo + (i + 0.5) * (hi - lo) / count
    return min(hi, max(lo, round(mid) + rng.randint(-2, 2)))


_JUSTIFICATIONS = [
    "top cell attaches along a sum of Whitehead products",
    "attaching map is a suspension",
    "cell attached along an inert map by assumption",
]


def _presentation(rng, kind: str, spaces: dict, argv_extra=(), degrees=(10, 40)):
    argv = [kind, *argv_extra]
    for flag, tree in spaces.items():
        argv += [f"--{flag}", text(tree)]
    n_deg = rng.randint(*degrees)
    argv += ["--inert", rng.choice(_JUSTIFICATIONS), "--max-degree", str(n_deg)]
    return Request(argv, dict(trees=spaces, max_degree=n_deg))


def _small_presentation(rng, kind: str):
    """A valid inert presentation on one or two small spheres per space.
    Spheres stay below S4, so that every one of these costs less than any
    `_fixed_presentation` and the seed cannot move the median between them."""
    def s():
        return sphere(rng.randint(2, 3))

    if kind == "cofiber":
        return _presentation(rng, kind, {"A": s(), "Z": ("x", s(), s())})
    if kind == "connsum":
        return _presentation(rng, kind, {"A": s(), "M": s(), "N": ("x", s(), s())})
    m = rng.randint(2, 3)
    n = 2 * m + rng.randint(0, 2)
    req = _presentation(rng, kind, {"J": s()}, ["--m", str(m), "--n", str(n)])
    req.expect["trees"].update(m=m, n=n)
    return req


def _fixed_presentation(rng, kind: str):
    """A presentation on fixed sphere multisets in seed-drawn order, so its
    cost does not depend on the seed."""
    if kind == "cofiber":
        return _presentation(rng, kind, {"A": _spheres(rng, "v", [3, 4]),
                                         "Z": _spheres(rng, "x", [2, 3, 4, 5])}, degrees=(36, 40))
    if kind == "connsum":
        return _presentation(rng, kind, {"A": sphere(4), "M": _spheres(rng, "x", [2, 3, 4]),
                                         "N": _spheres(rng, "x", [3, 5])}, degrees=(36, 40))
    req = _presentation(rng, kind, {"J": _spheres(rng, "v", [2, 3, 5])}, ["--m", "4", "--n", "11"],
                        degrees=(36, 40))
    req.expect["trees"].update(m=4, n=11)
    return req


# -- workloads -----------------------------------------------------------------


def product_poles(rng):
    # cost strata, cheapest first: 8 light, 11 medium, 7 heavy requests, so
    # the median and the 0.9 quantile fall inside the medium and heavy strata
    reqs = []
    n200 = ("--max-degree", 200)
    for cmd, extra in [("loop-series", n200)] * 2 + [("log-index", n200)] + [("rho", ())] * 2:
        reqs.append(_expr(cmd, _ladder(rng, 6, 30), *extra))
    for cmd, extra in [("rho", ()), ("loop-series", n200)]:
        reqs.append(_expr(cmd, ("v", _ladder(rng, 3, 8), _ladder(rng, 3, 8)), *extra))
    reqs.append(_expr("rho", ("v", _ladder(rng, 4, 12), _ladder(rng, 3, 9))))
    for cmd in ["loop-series"] * 6 + ["log-index"] * 5:
        reqs.append(_expr(cmd, _ladder(rng, 10, 80), *n200))
    reqs.append(_expr("rho", _ladder(rng, 10, 105)))
    for cmd in ["loop-series"] * 3 + ["log-index"] * 3:
        reqs.append(_expr(cmd, _spheres(rng, "x", range(2, 14)), *n200))
    return reqs


def inert_verdicts(rng):
    # 8 light and 11 medium presentations, then 7 Susp(S2 x ... x Sk) v S3 x S5
    # radii (six k = 6, one k = 7) whose Sturm chains carry the cost
    reqs = []
    for kind in ["cofiber", "cofiber", "cofiber", "connsum", "connsum", "connsum", "yclass", "yclass"]:
        reqs.append(_small_presentation(rng, kind))
    for kind in ["cofiber"] * 4 + ["connsum"] * 4 + ["yclass"] * 3:
        reqs.append(_fixed_presentation(rng, kind))
    for k in (6, 6, 6, 6, 6, 6, 7):
        inner = _spheres(rng, "x", range(2, k + 2))
        right = _spheres(rng, "x", [3, 5])
        reqs.append(_expr("rho", ("v", ("Susp", inner), right)))
    return reqs


C05_ALPHABETS = [
    (1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3), (1, 1, 1), (1, 1, 2),
    (1, 1, 3), (1, 2, 3), (2, 2, 3), (2, 3, 3), (3, 3, 3),
]


def degree_within(degrees, words: int) -> int:
    """Largest N <= 40 whose tensor-algebra basis through degree N has at most
    `words` words."""
    dims = [1]
    while len(dims) <= 40:
        k = len(dims)
        dims.append(sum(dims[k - d] for d in degrees if k >= d))
        if sum(dims) > words:
            return k - 1
    return 40


def hochschild(rng):
    reqs = [
        Request(
            ["hm-census", "--m", "2", "--n", "2", "--max-degree", "40"],
            dict(m=2, n=2, max_degree=40, defect="deadline"),
        )
    ]
    for i in range(8):
        m, n = rng.randint(3, 6), rng.randint(3, 6)
        deg = _strata_degree(rng, i, 8, 16, 30)
        reqs.append(Request(
            ["hm-census", "--m", str(m), "--n", str(n), "--max-degree", str(deg)],
            dict(m=m, n=n, max_degree=deg),
        ))
    for i in range(8):
        m, n = rng.randint(2, 6), rng.randint(2, 6)
        p, r = rng.choice([2, 3, 5, 7]), rng.randint(1, 3)
        deg = _strata_degree(rng, i, 8, 24, 60)
        reqs.append(Request(
            ["torsion", "--m", str(m), "--n", str(n), "--p", str(p), "--r", str(r),
             "--max-degree", str(deg)],
            dict(m=m, n=n, p=p, r=r, max_degree=deg),
        ))
    necklace = C05_ALPHABETS + C05_ALPHABETS[:9]
    rng.shuffle(necklace)
    for degrees in necklace:
        degrees = list(degrees)
        deg = rng.randint(190, 200)
        reqs.append(Request(
            ["free-loop", "--degrees", ",".join(map(str, degrees)), "--max-degree", str(deg)],
            dict(degrees=degrees, max_degree=deg, method="necklace"),
        ))
    for degrees in C05_ALPHABETS:
        deg = degree_within(degrees, BRUTE_WORD_BUDGET)
        order = list(degrees)
        rng.shuffle(order)
        reqs.append(Request(
            ["free-loop", "--degrees", ",".join(map(str, order)), "--max-degree", str(deg),
             "--method", "brute", "--k-min", str(min(10, deg // 2))],
            dict(degrees=sorted(degrees), max_degree=deg, method="brute"),
        ))
    return reqs


_PARSE_ERRORS = [
    "S2 v", "S2 + S3", "(S2 v S3", "S1 v S2", "Susp S2", "S2 x", "", "S2 v S3)", "x S2",
    "S2 ^^ S3",
]


def quick_queries(rng):
    reqs = []
    for _ in range(10):
        reqs.append(_expr("parse", _small_space(rng)))
    for i in range(8):
        reqs.append(_expr("homology", _small_space(rng), "--max-degree", _strata_degree(rng, i, 8, 0, 200)))
    # the costlier commands use fixed spaces in seed-drawn order, so the
    # tail of the latency distribution does not move with the seed
    for i in range(8):
        reqs.append(_expr("loop-series", _spheres(rng, "v", [2, 3]), "--max-degree",
                          _strata_degree(rng, i, 8, 0, 200)))
    for _ in range(8):
        reqs.append(_expr("rho", _spheres(rng, "v", [2, 3, 4])))
    for i in range(6):
        reqs.append(_expr("log-index", _spheres(rng, "v", [2, 3]), "--max-degree",
                          _strata_degree(rng, i, 6, 10, 200), "--k-min", rng.randint(1, 10)))
    for _ in range(3):
        reqs.append(_presentation(rng, "cofiber", {"A": sphere(2), "Z": _spheres(rng, "x", [2, 3])}))
        reqs.append(_presentation(rng, "connsum", {"A": sphere(2), "M": sphere(3),
                                                   "N": _spheres(rng, "x", [2, 3])}))
        req = _presentation(rng, "yclass", {"J": sphere(3)}, ["--m", "2", "--n", "5"])
        req.expect["trees"].update(m=2, n=5)
        reqs.append(req)
    for _ in range(6):
        degrees = sorted(rng.randint(1, 4) for _ in range(2))
        deg = rng.randint(12, 40)
        reqs.append(Request(
            ["free-loop", "--degrees", ",".join(map(str, degrees)), "--max-degree", str(deg)],
            dict(degrees=degrees, max_degree=deg, method="necklace"),
        ))
    for _ in range(5):
        m, n, deg = rng.randint(3, 6), rng.randint(3, 6), rng.randint(14, 24)
        reqs.append(Request(["hm-census", "--m", str(m), "--n", str(n), "--max-degree", str(deg)],
                            dict(m=m, n=n, max_degree=deg)))
    for _ in range(5):
        m, n, p, r = rng.randint(3, 5), rng.randint(3, 5), rng.choice([2, 3, 5]), rng.randint(1, 2)
        deg = rng.randint(20, 40)
        reqs.append(Request(
            ["torsion", "--m", str(m), "--n", str(n), "--p", str(p), "--r", str(r), "--max-degree", str(deg)],
            dict(m=m, n=n, p=p, r=r, max_degree=deg)))
    for _ in range(8):
        s = rng.randint(1, 6)
        d = s + rng.randint(1, 60)
        reqs.append(Request(["primes", "--d", str(d), "--s", str(s)], dict(d=d, s=s)))
    for _ in range(6):
        a, z = _small_space(rng, 1), _spheres(rng, "x", [rng.randint(2, 5) for _ in range(2)])
        reqs.append(Request(["retraction", "--A", text(a), "--Z", text(z)], dict(trees={"A": a, "Z": z})))
    # CSV renderings of a few of the requests above
    for req in rng.sample([r for r in reqs if r.command in ("primes", "hm-census", "rho")], 6):
        reqs.append(Request(req.argv + ["--format", "csv"], dict(req.expect, csv=True)))

    # about a quarter of the list is invalid input with a typed error report
    for bad in _PARSE_ERRORS:
        reqs.append(Request([rng.choice(["parse", "rho", "homology"]), bad], dict(error="parse-error", exit=2)))
    for argv in (
        ["free-loop", "--degrees", str(rng.randint(1, 4))],
        ["yclass", "--m", "5", "--n", str(rng.randint(6, 9)), "--J", "S3", "--inert", "assumed"],
        ["yclass", "--m", "1", "--n", "4", "--J", "S2", "--inert", "assumed"],
        ["free-loop", "--degrees", str(rng.randint(1, 4)), "--method", "brute", "--max-degree", "12"],
        ["free-loop", "--degrees", "2", "--max-degree", str(rng.randint(12, 40))],
    ):
        reqs.append(Request(argv, dict(error="hypothesis-error", exit=1)))
    for argv in (
        ["loop-series", "S2 v S3", "--max-degree", str(rng.randint(201, 400))],
        ["free-loop", "--degrees", "1,2", "--method", "brute", "--max-degree", str(rng.randint(41, 60))],
        ["primes", "--d", "3", "--s", str(rng.randint(3, 6))],
        ["torsion", "--m", "3", "--n", "3", "--p", rng.choice(["4", "6", "9"]), "--r", "1"],
        ["cofiber", "--A", "S2", "--Z", "S2 x S2"],
        ["hm-census", "--m", "1", "--n", str(rng.randint(2, 5))],
        ["free-loop", "--degrees", "0,2"],
        ["homology", "S2 v S3", "--max-degree", str(rng.randint(201, 300))],
    ):
        reqs.append(Request(argv, dict(error="validation-error", exit=1)))
    for argv in (
        ["loop-series", "(S2 x S2) ^ (S2 x S3)"],
        ["rho", "(S3 x S2) ^ (S4 x S2)"],
        ["log-index", "(S2 x S4) ^ (S2 x S2) v S3"],
        ["cofiber", "--A", "S2", "--Z", "(S2 x S2) ^ (S3 x S3)", "--inert", "assumed"],
    ):
        reqs.append(Request(argv, dict(error="not-expressible", exit=1)))
    # known defects: each raises out of run() today; a fixed engine must
    # answer the first two correctly and refuse the third
    depth = 3000
    reqs.append(Request(["parse", "(" * depth + "S2" + ")" * depth], dict(tree=sphere(2), defect="RecursionError")))
    dims = [2 + i % 5 for i in range(1200)]
    reqs.append(Request(["rho", " v ".join(f"S{d}" for d in dims)],
                        dict(tree=chain("v", [sphere(d) for d in dims]), defect="RecursionError")))
    reqs.append(Request(["cofiber", "--file", MISSING_FILE, "--inert", "assumed"],
                        dict(defect="FileNotFoundError", error="validation-error", exit=1)))
    return reqs


WORKLOADS = {
    "product-poles": product_poles,
    "inert-verdicts": inert_verdicts,
    "hochschild": hochschild,
    "quick-queries": quick_queries,
}


def build(name: str, seed: int) -> list:
    """The request list of a workload; the same seed gives the same list."""
    rng = random.Random(f"{name}:{seed}")
    reqs = WORKLOADS[name](rng)
    rng.shuffle(reqs)
    return reqs
