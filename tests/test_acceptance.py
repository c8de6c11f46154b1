"""Acceptance gate: one test per criterion, each printing its pass/fail line,
and a check that criterion 2's closed-form reference catches a wrong value.

The lines are also collected and re-echoed in the terminal summary (see
conftest.py) so the verdicts survive pytest's output capture.
"""

import dataclasses

import numpy as np
import pytest

from commoninfo import acceptance

VERDICT_LINES: list[str] = []


@pytest.mark.parametrize("number", range(1, len(acceptance.CRITERIA) + 1))
def test_criterion(number):
    rep = acceptance.run_all(only=[number])[0]
    line = rep.line()
    print(line)
    VERDICT_LINES.append(line)
    assert rep.passed, line


def test_criterion_2_fails_on_a_shifted_dsbs_value(monkeypatch):
    real = acceptance.wyner_ci

    def shifted(pi, **kw):
        sol = real(pi, **kw)
        m = pi.mass
        is_dsbs = (m.shape == (2, 2) and m[0, 1] > 0
                   and m[0, 1] == m[1, 0] and m[0, 0] == m[1, 1])
        if is_dsbs:
            return dataclasses.replace(sol, value=sol.value + 2e-3)
        return sol

    monkeypatch.setattr(acceptance, "wyner_ci", shifted)
    rep = acceptance.run_all(only=[2])[0]
    first_p = float(np.random.default_rng(0).uniform(0.02, 0.45))
    assert not rep.passed
    assert f"p={first_p:.4f}" in rep.detail


def test_criterion_2_fails_on_a_shifted_dsbes_value(monkeypatch):
    real = acceptance.wyner_ci

    def shifted(pi, **kw):
        sol = real(pi, **kw)
        m = pi.mass
        is_dsbes = (m.shape == (2, 3) and m[0, 1] == 0 and m[1, 0] == 0
                    and m[0, 0] == m[1, 1] and m[0, 2] == m[1, 2])
        if is_dsbes:
            return dataclasses.replace(sol, value=sol.value + 2e-3)
        return sol

    monkeypatch.setattr(acceptance, "wyner_ci", shifted)
    rep = acceptance.run_all(only=[2])[0]
    assert not rep.passed
    assert f"DSBES at e={acceptance.CI_DSBES_ES[0]:g}" in rep.detail
