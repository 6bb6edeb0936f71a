"""A wall-clock limit on every test of the suite.

`pytest-timeout` is not a dependency, so each test runs under the standard
library's faulthandler watchdog instead: a test still running after
TEST_TIME_LIMIT_S seconds (say, a root search that never ends) prints every
thread's traceback to stderr and ends the run with exit status 1, where it
would otherwise hang the suite. The limit is far above the slowest test,
which takes about 4 s on a 2-core host.

The watchdog writes to a copy of file descriptor 2 taken between test
phases, when pytest's capture has handed it back to the terminal.
"""

import faulthandler
import os

import pytest

TEST_TIME_LIMIT_S = 300


@pytest.hookimpl(wrapper=True)
def pytest_runtest_protocol(item, nextitem):
    stderr = os.dup(2)
    faulthandler.dump_traceback_later(TEST_TIME_LIMIT_S, exit=True, file=stderr)
    try:
        return (yield)
    finally:
        faulthandler.cancel_dump_traceback_later()
        os.close(stderr)
