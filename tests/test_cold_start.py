"""Fresh processes: each command answers from a cold start, and loads only
what its handler reads.

The other test files import every module of the package before they run a
command, so they cannot see a missing function-level import or an error kind
that depends on which modules happen to be loaded. Here every argv runs in a
new `python -m loopgrowth.cli` with only this checkout's src/ on the path,
and must print the same bytes with the same exit code as `cli.run` in this
process. The import checks read `sys.modules`, never a clock.
"""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import loopgrowth
from loopgrowth import cli
from loopgrowth.cli import run
from test_cli import COMMANDS, JUST

SRC = Path(__file__).resolve().parent.parent / "src"

ERRORS = {
    "parse-error": ["rho", "S2 v (S3"],
    "hypothesis-error": ["yclass", "--m", "2", "--n", "3", "--J", "S2", "--inert", JUST],
    "validation-error": ["loop-series", "S2", "--max-degree", "300"],
    "not-expressible": ["loop-series", "(S2 x S2) ^ (S2 x S3)"],
    "usage-error": ["rho", "S2", "--max-degree", "5"],
}

CASES = [(argv[0], argv) for argv in COMMANDS]
CASES += [("csv", ["primes", "--d", "7", "--s", "1", "--format", "csv"])]
CASES += list(ERRORS.items())


def fresh(args, tmp_path, stdout=subprocess.PIPE):
    """Run `python *args` in a new interpreter with only src/ on the path."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *args], env=env, cwd=tmp_path, stdout=stdout, stderr=subprocess.PIPE,
        timeout=60,
    )


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_a_cold_process_prints_the_in_process_report(name, argv, tmp_path):
    out = io.StringIO()
    code = run(argv, out)
    proc = fresh(["-m", "loopgrowth.cli", *argv], tmp_path)
    assert proc.stderr == b""
    assert (proc.returncode, proc.stdout.decode()) == (code, out.getvalue())


def test_a_closed_pipe_exits_1_quietly(tmp_path):
    # the read end is closed before the child starts, so its first write fails
    read, write = os.pipe()
    os.close(read)
    try:
        proc = fresh(["-m", "loopgrowth.cli", "parse", "S2"], tmp_path, stdout=write)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, b"")


def test_a_process_started_with_no_stdout_exits_1_quietly(tmp_path):
    # with descriptor 1 closed before the interpreter starts, sys.stdout is None
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        ["/bin/sh", "-c", 'exec "$0" -m loopgrowth.cli parse S2 >&-', sys.executable],
        env=env, cwd=tmp_path, stderr=subprocess.PIPE, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (1, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_a_full_stdout_exits_1_with_one_line(tmp_path):
    with open("/dev/full", "wb") as full:
        proc = fresh(["-m", "loopgrowth.cli", "parse", "S2"], tmp_path, stdout=full)
    assert proc.returncode == 1
    assert proc.stderr.decode().splitlines() == [
        "loopgrowth: cannot write the report: [Errno 28] No space left on device"
    ]


# site is skipped (-S) so that sys.modules holds only what the probe and
# the package load, on any host
PROBE = """\
import sys
{body}
print(*sorted(sys.modules))
"""


def loaded_after(body, tmp_path) -> set:
    proc = fresh(["-S", "-c", PROBE.format(body=body)], tmp_path)
    assert proc.returncode == 0, proc.stderr.decode()
    return set(proc.stdout.decode().splitlines()[-1].split())


def package_modules(modules) -> set:
    return {m for m in modules if m.split(".")[0] == "loopgrowth"}


HEAVY = {"dataclasses", "inspect", "decimal", "fractions", "csv", "typing"}


def test_parse_loads_only_the_parser(tmp_path):
    modules = loaded_after("from loopgrowth.cli import main\nmain(['parse', 'S2'])", tmp_path)
    assert package_modules(modules) == {"loopgrowth", "loopgrowth.cli", "loopgrowth.space"}
    assert not modules & HEAVY


def test_parse_loads_neither_argparse_nor_the_json_decoder(tmp_path):
    modules = loaded_after("from loopgrowth.cli import main\nmain(['parse', 'S2'])", tmp_path)
    assert not modules & {"argparse", "json", "json.decoder"}


def test_a_cold_usage_error_prints_argparses_message(tmp_path):
    argv = ERRORS["usage-error"]
    proc = fresh(["-m", "loopgrowth.cli", *argv], tmp_path)
    with pytest.raises(cli.UsageError) as exc:
        cli._parsers()[0].parse_args(argv)
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"]["message"] == str(exc.value)
    assert str(exc.value) == "unrecognized arguments: --max-degree 5"


def test_primes_loads_only_the_prime_window(tmp_path):
    body = "from loopgrowth.cli import main\nmain(['primes', '--d', '7', '--s', '1'])"
    modules = loaded_after(body, tmp_path)
    assert package_modules(modules) == {
        "loopgrowth", "loopgrowth.cli", "loopgrowth.torsion", "loopgrowth.arith",
    }


def test_retraction_loads_no_loop_space_module(tmp_path):
    body = "from loopgrowth.cli import main\nmain(['retraction', '--A', 'S2', '--Z', 'S2 x S2'])"
    modules = loaded_after(body, tmp_path)
    assert "loopgrowth.torsion" in modules
    assert not modules & {"loopgrowth.freeloop", "loopgrowth.loop", "loopgrowth.series"}


def test_homology_reads_only_the_polynomial(tmp_path):
    body = "from loopgrowth.cli import main\nmain(['homology', 'S2 x S3'])"
    modules = loaded_after(body, tmp_path)
    assert package_modules(modules) == {
        "loopgrowth", "loopgrowth.cli", "loopgrowth.space", "loopgrowth.polynomial",
    }


def test_the_census_loads_no_loop_space_module(tmp_path):
    body = "from loopgrowth.cli import main\nmain(['hm-census', '--m', '2', '--n', '3'])"
    modules = loaded_after(body, tmp_path)
    assert "loopgrowth.freeloop" in modules
    assert "loopgrowth.loop" not in modules


# records are slot classes, so no command builds a dataclass or a NamedTuple
@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
def test_no_command_loads_the_dataclass_machinery(argv, tmp_path):
    body = f"from loopgrowth.cli import main\nmain({argv!r})"
    modules = loaded_after(body, tmp_path)
    assert not modules & {"dataclasses", "inspect", "typing"}


def test_importing_the_package_loads_no_module_of_it(tmp_path):
    assert package_modules(loaded_after("import loopgrowth", tmp_path)) == {"loopgrowth"}


def test_a_public_name_loads_its_home_module(tmp_path):
    modules = loaded_after("import loopgrowth\nloopgrowth.parse('S2')", tmp_path)
    assert package_modules(modules) == {"loopgrowth", "loopgrowth.space"}


def test_a_submodule_imports_by_name_from_a_cold_package(tmp_path):
    body = "from loopgrowth import polynomial\nprint(polynomial.__name__)"
    proc = fresh(["-S", "-c", body], tmp_path)
    assert proc.stdout == b"loopgrowth.polynomial\n", proc.stderr.decode()


# -- the lazy package namespace ------------------------------------------------


def test_a_public_name_is_the_object_its_home_module_defines():
    for name in loopgrowth.__all__:
        value = getattr(loopgrowth, name)
        home = sys.modules[value.__module__]
        assert home.__name__.startswith("loopgrowth."), name
        assert getattr(home, name) is value, name


def test_dir_lists_every_public_name():
    assert set(loopgrowth.__all__) <= set(dir(loopgrowth))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from loopgrowth import *", namespace)
    assert set(loopgrowth.__all__) <= set(namespace)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'lyndon_words'"):
        loopgrowth.lyndon_words
    assert not hasattr(loopgrowth, "no_such_name")
