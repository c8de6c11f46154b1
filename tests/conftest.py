"""Shared fixtures: expensive solver outputs computed once per session."""

import pytest

from commoninfo import fixtures
from commoninfo.ci_solver import wyner_ci


@pytest.fixture(scope="session")
def dsbs_pi():
    return fixtures.dsbs(0.1)


@pytest.fixture(scope="session")
def dsbs_ci(dsbs_pi):
    return wyner_ci(dsbs_pi)


def pytest_terminal_summary(terminalreporter):
    import sys
    test_acceptance = (sys.modules.get("test_acceptance")
                       or sys.modules.get("tests.test_acceptance"))
    if test_acceptance is not None and test_acceptance.VERDICT_LINES:
        terminalreporter.section("acceptance criteria")
        for line in test_acceptance.VERDICT_LINES:
            terminalreporter.write_line(line)
