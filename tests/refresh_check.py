"""Check a refresh of printed radius cells between two checkouts.

A change to the pole grid may move the printed isolating interval of an
irrational pole to another cell of the same pole, and with it the log index
midpoint and halfwidth, while the rest of each report must stay byte for
byte. This script runs every argv of `report_digest.py` (workloads, golden
cases and the seeded random family), plus `rho` of each `log-index`
expression, against one checkout's library and compares two such runs:

    python tests/refresh_check.py dump --src OTHER/src > before.jsonl
    python tests/refresh_check.py dump > after.jsonl
    python tests/refresh_check.py compare before.jsonl after.jsonl

After masking the radius cell, the log index derived from it (free-loop's
target too), the `COMPUTED` radius claims and the presentation trail, the
reports and exit codes must be identical. A radius exact in the first run
must be exact and equal in the second, and every cell that moved must
overlap the first run's cell and pass `Radius.certificate_holds` on the
printed (or, for `rho`, the rebuilt) denominator. A moved free-loop target
must be -ln of the midpoint of a cell that passes it, within 2e-12 / lo
of the first run's target. `compare` prints one line per moved cell
and a summary, and exits 1 on any violation. A recheck grows fast with the
denominator's degree (minutes at degree 3,990); `--recheck-below DEGREE`
lists the cells of that degree or more instead of rechecking them.

The name keeps pytest from collecting it.
"""

import argparse
import json
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MASK = "<masked>"
# the kv-table rows and CSV lines that carry the radius cell or its log index
RADIUS_KEYS = ("rho_lo", "rho_hi", "log_index")


def _argvs():
    import report_digest

    out = []
    for argv in report_digest.argvs():
        out.append(argv)
        if argv[0] == "log-index":
            out.append(["rho", argv[1]])
    return list({json.dumps(a): a for a in out}.values())


def dump(src: str) -> None:
    sys.path[:0] = [src, str(ROOT / "tests"), str(ROOT / "loopbench")]
    from test_golden import run_case

    os.chdir(ROOT)
    with tempfile.TemporaryDirectory() as tmp:
        for argv in _argvs():
            code, stdout = run_case(argv, tmp)
            print(json.dumps({"argv": argv, "exit": code, "stdout": stdout}))


def _masked(stdout: str):
    """(masked text, the printed radius as (lo, hi) Fractions or None, the report or None)."""
    try:
        report = json.loads(stdout)
    except ValueError:
        lines = [MASK if line.split(",")[0] in RADIUS_KEYS else line for line in stdout.split("\n")]
        return "\n".join(lines), None, None
    result = report.get("result")
    rho = None
    if isinstance(result, dict):
        if "rho" in result:
            cell = result["rho"]
            rho = tuple(Fraction(int(cell[k]["num"]), int(cell[k]["den"])) for k in ("lo", "hi"))
            result["rho"] = MASK
        for key in ("log_index", "trail", "target_log_index"):
            if key in result:
                result[key] = MASK
        table = report.get("table", {})
        if table.get("columns") == ["key", "value"]:
            table["rows"] = [[k, MASK if k in RADIUS_KEYS else v] for k, v in table["rows"]]
    for claim in report.get("provenance", []):
        if claim["source"] == "COMPUTED" and "radius" in claim["claim"]:
            claim["claim"] = MASK
    return json.dumps(report, sort_keys=True), rho, report


def _denominator(argv, report):
    from loopgrowth.loop import loop_gf
    from loopgrowth.polynomial import IntPolynomial
    from loopgrowth.space import parse

    series = report["result"].get("series")
    if series is not None:
        den = IntPolynomial(tuple(int(c) for c in series["denominator"]))
    else:
        den = loop_gf(parse(argv[1])).den
    return den if den.leading() > 0 else -den


def _free_loop_target_holds(after, before) -> bool:
    """The moved target is -ln of the midpoint of a certified cell, within 2e-12 / lo of the first."""
    import math

    from loopgrowth.freeloop import GradedAlphabet
    from loopgrowth.series import smallest_positive_pole

    rho = smallest_positive_pole(GradedAlphabet(after["result"]["degrees"]).loop_gf())
    target, first = after["result"]["target_log_index"], before["result"]["target_log_index"]
    holds = rho.certificate_holds() and target == -math.log(rho.midpoint())
    print(f"moved target {'holds' if holds else 'FAILS'}: {after['request']}", flush=True)
    return holds and abs(target - first) <= 2e-12 / rho.lo


def compare(before_path: str, after_path: str, recheck_below=None) -> int:
    sys.path[:0] = [str(ROOT / "src")]
    from loopgrowth.series import Radius

    def load(path):
        return {json.dumps(r["argv"]): r for r in map(json.loads, Path(path).read_text().splitlines())}

    before, after = load(before_path), load(after_path)
    bad, cells = [], []
    moved = changed = 0
    for key, b in before.items():
        a = after.get(key)
        if a is None:
            bad.append(f"missing in the second run: {key}")
            continue
        if a["stdout"] != b["stdout"]:
            changed += 1
        mb, rb, _ = _masked(b["stdout"])
        ma, ra, report = _masked(a["stdout"])
        if a["exit"] != b["exit"] or mb != ma:
            bad.append(f"report differs outside the radius: {key}")
            continue
        if report is not None and report["command"] == "free-loop" and a["stdout"] != b["stdout"]:
            moved += 1
            if not _free_loop_target_holds(json.loads(a["stdout"]), json.loads(b["stdout"])):
                bad.append(f"target log index not from a certified cell of the pole: {key}")
            continue
        if rb is None or ra == rb:
            continue
        if rb[0] == rb[1]:
            bad.append(f"exact radius {rb[0]} became {ra}: {key}")
            continue
        moved += 1
        if max(ra[0], rb[0]) > min(ra[1], rb[1]):
            bad.append(f"moved cell does not overlap the first: {key}")
        cells.append((_denominator(a["argv"], report), ra, key))
    print(f"{len(before)} argvs, {changed} reports changed, {moved} radius cells moved", flush=True)
    for line in bad:
        print("BAD", line, flush=True)
    # a recheck's cost grows fast with degree: the cheap ones report first
    for f, (lo, hi), key in sorted(cells, key=lambda c: c[0].degree()):
        if recheck_below is not None and f.degree() >= recheck_below:
            print(f"moved cell not rechecked (degree {f.degree()}): {key}", flush=True)
            continue
        holds = Radius(lo, hi, False, f).certificate_holds()
        print(f"moved cell {'holds' if holds else 'FAILS'} (degree {f.degree()}): {key}", flush=True)
        if not holds:
            bad.append(f"moved cell does not certify: {key}")
            print("BAD", bad[-1], flush=True)
    print(f"{len(bad)} bad")
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    d = sub.add_parser("dump")
    d.add_argument("--src", default=str(ROOT / "src"))
    c = sub.add_parser("compare")
    c.add_argument("before")
    c.add_argument("after")
    c.add_argument("--recheck-below", type=int, metavar="DEGREE",
                   help="recheck only the moved cells whose denominator has a lower degree")
    args = parser.parse_args()
    if args.mode == "dump":
        dump(args.src)
        return 0
    return compare(args.before, args.after, args.recheck_below)


if __name__ == "__main__":
    sys.exit(main())
