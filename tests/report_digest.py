"""Digest of the CLI's report for every benchmark and golden argv.

Prints one line `sha256 exit argv` per distinct argv: every request that
`loopbench/workloads.py` builds for seeds 1-3 of each workload, every case of
`golden_cli.json`, then a seeded random family of `rho`, `loop-series`,
`log-index`, `cofiber`, `connsum` and `yclass` argvs over expressions of depth
at most 3 and spheres up to S60, with repeated factors and wedges of
products, and last a `parse` and a `rho` argv for every text of
`test_space.FROZEN_ERRORS`, so each parse error's offset, message and
expected tokens sit in its report. The sha256 is over stdout. Two checkouts print the
same reports byte for byte, with the same exit codes, exactly when their
digests are equal, so checking that is one diff:

    python tests/report_digest.py > after.txt
    (in the other checkout) python tests/report_digest.py > before.txt
    diff before.txt after.txt

The script puts its own checkout's src/ on the path, so each checkout digests
its own library.

The name keeps pytest from collecting it.
"""

import hashlib
import json
import os
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "loopbench")]

import workloads  # noqa: E402
from test_golden import cases, run_case  # noqa: E402
from test_space import FROZEN_ERRORS  # noqa: E402

SEEDS = (1, 2, 3)
RANDOM_SEED = 11
RANDOM_ARGVS = 300


def expression(rng, depth: int) -> str:
    """A random expression of at most this depth over S2..S60.

    A product or wedge repeats its left operand a fifth of the time, so
    denominators with repeated factors and wedges of products both occur.
    """
    if depth == 0 or rng.random() < 0.3:
        return f"S{rng.randint(2, 60)}"
    op = rng.choice(["v", "x", "x", "^", "Susp"])
    left = expression(rng, depth - 1)
    if op == "Susp":
        return f"Susp({left})"
    right = left if op != "^" and rng.random() < 0.2 else expression(rng, depth - 1)
    return f"({left} {op} {right})"


def random_argvs() -> list:
    """RANDOM_ARGVS seeded argvs of the expression and presentation commands."""
    rng = random.Random(RANDOM_SEED)
    out = []
    for _ in range(RANDOM_ARGVS):
        command = rng.choice(["rho", "loop-series", "log-index", "cofiber", "connsum", "yclass"])
        if command == "rho":
            argv = [command, expression(rng, 3)]
        elif command in ("loop-series", "log-index"):
            argv = [command, expression(rng, 3), "--max-degree", str(rng.randint(0, 60))]
            if command == "log-index":
                argv += ["--k-min", str(rng.randint(1, 30))]
        else:
            if command == "cofiber":
                argv = [command, "--A", expression(rng, 2), "--Z", expression(rng, 3)]
            elif command == "connsum":
                argv = [command, "--A", expression(rng, 2), "--M", expression(rng, 2),
                        "--N", expression(rng, 2)]
            else:
                m = rng.randint(2, 4)
                argv = [command, "--m", str(m), "--n", str(rng.randint(2 * m, 2 * m + 4)),
                        "--J", expression(rng, 2)]
            argv += ["--inert", "assumed", "--max-degree", str(rng.randint(0, 30))]
        out.append(argv)
    return out


def argvs() -> list:
    """Distinct argvs in first-seen order: the workloads, the golden cases, the random family,
    the frozen parse errors."""
    seen = {}
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            for req in workloads.build(name, seed):
                seen.setdefault(json.dumps(req.argv), req.argv)
    for _, argv in cases():
        seen.setdefault(json.dumps(argv), argv)
    for argv in random_argvs():
        seen.setdefault(json.dumps(argv), argv)
    for text, *_ in FROZEN_ERRORS:
        for command in ("parse", "rho"):
            seen.setdefault(json.dumps([command, text]), [command, text])
    return list(seen.values())


def main() -> None:
    os.chdir(ROOT)  # workload file paths are relative to the repository root
    with tempfile.TemporaryDirectory() as tmp:
        for argv in argvs():
            code, stdout = run_case(argv, tmp)
            digest = hashlib.sha256(stdout.encode()).hexdigest()
            print(digest, code, json.dumps(argv))


if __name__ == "__main__":
    main()
