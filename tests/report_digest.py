"""Digest of the CLI's report for every benchmark and golden argv.

Prints one line `sha256 exit argv` per distinct argv: every request that
`loopbench/workloads.py` builds for seeds 1-3 of each workload, then every
case of `golden_cli.json`. The sha256 is over stdout. Two checkouts print the
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
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "loopbench")]

import workloads  # noqa: E402
from test_golden import cases, run_case  # noqa: E402

SEEDS = (1, 2, 3)


def argvs() -> list:
    """Distinct argvs in first-seen order: the workloads, then the golden cases."""
    seen = {}
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            for req in workloads.build(name, seed):
                seen.setdefault(json.dumps(req.argv), req.argv)
    for _, argv in cases():
        seen.setdefault(json.dumps(argv), argv)
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
