"""Common-information solver against Wyner's closed form for the doubly
symmetric binary source, the exact values of the product and copy sources,
the common-part split and the rectangle masks on the support of pi."""

import itertools
import math

import numpy as np
import pytest

from commoninfo import ci_solver, fixtures
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
    _assert_argmin_reproduces(dsbs_ci, dsbs_pi)


def test_oracle_on_second_symmetric_source():
    # a second crossover, with its own solver seed, against the exact
    # reference: Wyner's closed form
    sol = wyner_ci(fixtures.dsbs(0.2), restarts=8, seed=3)
    assert sol.value == pytest.approx(_dsbs_closed_form(0.2), abs=1e-6)
    _assert_argmin_reproduces(sol, fixtures.dsbs(0.2))


def _forbid_solves(monkeypatch):
    def solve(*args, **kwargs):
        raise AssertionError("wyner_ci ran a solve on an exact block")
    monkeypatch.setattr(ci_solver, "minimize", solve)


def _assert_argmin_reproduces(sol, pi):
    # the argmin reproduces pi, with few enough symbols for the exponent
    # engine to lift it as a start (|W| <= |X||Y|)
    assert np.allclose(sol.argmin.xy_marginal().mass, pi.mass, rtol=0.0,
                       atol=1e-8)
    assert sol.argmin.nw <= pi.mass.size


def test_wyner_ci_product_is_zero(monkeypatch):
    # a rank-1 block is exact: no solve, one symbol, value 0.0
    _forbid_solves(monkeypatch)
    pi = fixtures.product_source()
    sol = wyner_ci(pi, restarts=4, seed=1)
    assert sol.value == 0.0 and sol.argmin.nw == 1
    assert sol.restarts_used == 0 and sol.converged
    _assert_argmin_reproduces(sol, pi)
    # a zero row drops out before the rank-1 test
    mass = np.insert(pi.mass, 1, 0.0, axis=0)
    sol = wyner_ci(JointPmf(mass), restarts=4, seed=1)
    assert sol.value == 0.0
    _assert_argmin_reproduces(sol, JointPmf(mass))


def test_wyner_ci_copy_is_entropy(monkeypatch):
    # two single-cell blocks: C = H(K) = H(X) with no solve
    _forbid_solves(monkeypatch)
    pi = fixtures.copy_source()
    sol = wyner_ci(pi, restarts=8, seed=2)
    assert sol.value == FinitePmf(pi.mass.sum(axis=1)).entropy()
    _assert_argmin_reproduces(sol, pi)


def test_block_diagonal_joint_splits_into_its_common_part():
    # DSBS(0.1) with mass 0.3 and DSBS(0.3) with mass 0.7, with rows and
    # columns shuffled so that the blocks interleave
    mass = np.zeros((4, 4))
    mass[:2, :2] = 0.3 * fixtures.dsbs(0.1).mass
    mass[2:, 2:] = 0.7 * fixtures.dsbs(0.3).mass
    pi = JointPmf(mass[[2, 0, 3, 1]][:, [1, 3, 0, 2]])
    blocks = ci_solver._common_part_blocks(pi.mass > 0)
    assert [(r.tolist(), c.tolist()) for r, c in blocks] == [
        ([0, 2], [1, 3]), ([1, 3], [0, 2])]
    sol = wyner_ci(pi, restarts=8, seed=0)
    exact = (FinitePmf(np.array([0.3, 0.7])).entropy()
             + 0.3 * _dsbs_closed_form(0.1) + 0.7 * _dsbs_closed_form(0.3))
    assert sol.value == pytest.approx(exact, abs=1e-6)
    assert sol.restarts_used == 16
    _assert_argmin_reproduces(sol, pi)


def _brute_force_rectangles(supp):
    nx, ny = supp.shape

    def subsets(k):
        return [np.array(b, dtype=bool)
                for b in itertools.product((False, True), repeat=k) if any(b)]

    inside = [(s, t) for s in subsets(nx) for t in subsets(ny)
              if supp[np.ix_(s, t)].all()]
    return {(tuple(s), tuple(t)) for s, t in inside
            if not any((s <= s2).all() and (t <= t2).all()
                       and ((s < s2).any() or (t < t2).any())
                       for s2, t2 in inside)}


def test_maximal_rectangles_match_brute_force():
    patterns = [fixtures.dsbes(0.4).mass > 0, fixtures.dsbes(0.4).mass.T > 0]
    patterns += [np.array(b, dtype=bool).reshape(3, 3)
                 for b in itertools.product((False, True), repeat=9)
                 if any(b)]
    rng = np.random.default_rng(5)
    patterns += [rng.random(shape) < 0.6 for shape in ((2, 4), (4, 3)) * 5]
    for supp in patterns:
        if not supp.any():
            continue
        got = [(tuple(s), tuple(t))
               for s, t in ci_solver._maximal_rectangles(supp)]
        assert len(got) == len(set(got))
        assert set(got) == _brute_force_rectangles(supp), supp


def test_dsbes_on_its_rectangles_matches_the_closed_form():
    # C = ln 2 for e <= 1/2, h(e) above (Cuff, Permuter and Cover 2010);
    # three thin rectangles, so three symbols with exact structural zeros
    for e in (0.2, 0.4, 0.6, 0.8):
        exact = math.log(2.0) if e <= 0.5 else _h2(e)
        pi = fixtures.dsbes(e)
        for seed in range(4):
            sol = wyner_ci(pi, restarts=8, seed=seed)
            assert sol.value == pytest.approx(exact, abs=1e-4), (e, seed)
            assert sol.constraint_residual < 1e-8
            _assert_argmin_reproduces(sol, pi)


def test_common_part_joint_matches_the_closed_form():
    q, p = 0.6, 0.2
    pi = fixtures.common_part_source(q, p)
    sol = wyner_ci(pi, restarts=8, seed=0)
    assert sol.value == pytest.approx(_h2(q) + q * _dsbs_closed_form(p),
                                      abs=1e-6)
    _assert_argmin_reproduces(sol, pi)


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
