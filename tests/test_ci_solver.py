"""Common-information solver against Wyner's closed form for the doubly
symmetric binary source and the exact values of the product and copy
sources."""

import math

import numpy as np
import pytest

from commoninfo import fixtures
from commoninfo.ci_solver import wyner_ci
from commoninfo.probability import (FinitePmf, JointPmf, induced_joint,
                                    mutual_information)

# analytic value for DSBS with crossover 0.1: with a = (1 - sqrt(1-2p))/2,
# C = 1 bit of W plus two BSC(a) channels' worth of negative conditional entropy
DSBS01_CI = 0.6049515261814264


def _h2(a):
    return -a * math.log(a) - (1 - a) * math.log(1 - a)


def _dsbs_closed_form(p):
    # log 2 + h2(p) - 2 h2(a), 1 - 2p = (1 - 2a)^2 (Wyner 1975)
    a = (1.0 - math.sqrt(1.0 - 2.0 * p)) / 2.0
    return math.log(2.0) + _h2(p) - 2.0 * _h2(a)


@pytest.mark.parametrize("p", [0.02, 0.1, 0.2, 0.45])
def test_dsbs_analytic_constant_is_right(p):
    # the optimal coupling, criterion 2's reference, reproduces DSBS(p) and
    # its I(XY;W) is the closed form
    c = fixtures.dsbs_optimal_coupling(p)
    assert np.allclose(c.xy_marginal().mass, fixtures.dsbs(p).mass,
                       rtol=0.0, atol=1e-15)
    w_xy = induced_joint(c).mass.reshape(c.nw, c.nx * c.ny)
    assert mutual_information(JointPmf(w_xy)) == pytest.approx(
        _dsbs_closed_form(p), abs=1e-12)
    if p == 0.1:
        assert _dsbs_closed_form(p) == pytest.approx(DSBS01_CI, abs=1e-12)


def test_wyner_ci_dsbs(dsbs_pi, dsbs_ci):
    assert dsbs_ci.value == pytest.approx(DSBS01_CI, abs=1e-6)
    assert dsbs_ci.constraint_residual < 1e-8
    # the reported coupling reproduces the source
    joint = induced_joint(dsbs_ci.argmin)
    assert np.allclose(joint.marginal((1, 2)).mass, dsbs_pi.mass, atol=1e-8)


def test_oracle_on_second_symmetric_source():
    # a second crossover, with its own solver seed, against the exact
    # reference: Wyner's closed form
    sol = wyner_ci(fixtures.dsbs(0.2), restarts=8, seed=3)
    assert sol.value == pytest.approx(_dsbs_closed_form(0.2), abs=1e-6)


def test_wyner_ci_product_is_zero():
    sol = wyner_ci(fixtures.product_source(), restarts=4, seed=1)
    assert sol.value == pytest.approx(0.0, abs=1e-7)


def test_wyner_ci_copy_is_entropy():
    pi = fixtures.copy_source()
    sol = wyner_ci(pi, restarts=8, seed=2)
    assert sol.value == pytest.approx(pi.entropy(), abs=1e-4)


def test_wyner_ci_never_above_min_marginal_entropy():
    # a random 3x3 joint on which 16 restarts alone stop at 1.4407, feasible
    # but above min(H(X), H(Y)) = 0.7838; W = Y is exactly feasible
    pi = JointPmf(np.random.default_rng(1).dirichlet(np.ones(9)).reshape(3, 3))
    h_min = min(FinitePmf(pi.mass.sum(axis=1)).entropy(),
                FinitePmf(pi.mass.sum(axis=0)).entropy())
    sol = wyner_ci(pi, restarts=16, seed=0)
    assert mutual_information(pi) <= sol.value <= h_min + 1e-12
    assert sol.constraint_residual < 1e-12
    joint = induced_joint(sol.argmin)
    assert np.allclose(joint.marginal((1, 2)).mass, pi.mass, rtol=0.0,
                       atol=1e-15)
