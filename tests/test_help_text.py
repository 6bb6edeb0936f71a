"""`--help`, each command's `--help` and `--version`, frozen byte for byte.

argparse writes these texts; the command table builds it only when an argv
needs it. They were captured from fresh processes at COLUMNS=80, before
the table read argv itself. The wording is argparse's and moves between
Python releases, so the texts are checked on the release that printed them.
"""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from loopgrowth.cli import run

HERE = Path(__file__).resolve().parent
FROZEN = json.loads((HERE / "help_text.json").read_text(encoding="utf-8"))
TEXTS = FROZEN["stdout"]

pytestmark = pytest.mark.skipif(
    "%d.%d" % sys.version_info[:2] != FROZEN["python"],
    reason=f"help text frozen on Python {FROZEN['python']}",
)


@pytest.mark.parametrize("line", list(TEXTS))
def test_the_text_is_the_frozen_one(line, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", str(FROZEN["columns"]))
    out = io.StringIO()
    with pytest.raises(SystemExit) as exc:
        run(line.split(), out)
    assert exc.value.code == 0
    assert out.getvalue() == ""
    assert capsys.readouterr().out == TEXTS[line]


@pytest.mark.parametrize("line", ["--help", "rho --help", "--version"])
def test_a_cold_process_prints_the_frozen_text(line, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"), COLUMNS=str(FROZEN["columns"]))
    proc = subprocess.run(
        [sys.executable, "-m", "loopgrowth.cli", *line.split()],
        env=env, cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.decode() == TEXTS[line]
