"""Probability primitives: construction, information quantities,
and the plain-text joint format."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commoninfo.ci_solver import _copy_start
from commoninfo.errors import ConfigError
from commoninfo.probability import (FinitePmf, JointPmf, MarkovCoupling,
                                    coupling_information, induced_joint,
                                    load_joint_text, mutual_information_mass)
from commoninfo import fixtures


def random_joint(rng, nx, ny):
    m = rng.dirichlet(np.ones(nx * ny)).reshape(nx, ny)
    return JointPmf(m / m.sum())


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_pmf_rejects_bad_mass():
    with pytest.raises(ConfigError):
        FinitePmf([0.5, 0.6])                      # not normalized
    with pytest.raises(ConfigError):
        FinitePmf([1.2, -0.2])                     # negative
    with pytest.raises(ConfigError):
        FinitePmf([np.nan, 1.0])                   # non-finite
    with pytest.raises(ConfigError):
        JointPmf(np.ones((2, 2)))                  # sums to 4
    # wyner_ci and the exponent engine read a JointPmf as the (X, Y) joint
    # with no axis check of their own
    with pytest.raises(ConfigError, match="mass must have 2 axes, got 3"):
        JointPmf(np.full((2, 2, 2), 0.125))


def test_pmf_is_immutable():
    p = FinitePmf([0.25, 0.75])
    with pytest.raises(ValueError):
        p.mass[0] = 1.0


def test_point_mass_and_uniform():
    assert FinitePmf([0.0, 1.0, 0.0]).entropy() == 0.0
    u = FinitePmf(np.full(4, 0.25))
    assert u.entropy() == pytest.approx(math.log(4), abs=1e-14)


# ---------------------------------------------------------------------------
# information quantities
# ---------------------------------------------------------------------------

def test_mutual_information_entropy_decomposition():
    # oracle: I(X;Y) = H(X) + H(Y) - H(XY)
    rng = np.random.default_rng(2)
    for _ in range(20):
        j = random_joint(rng, 3, 3)
        oracle = (FinitePmf(j.mass.sum(axis=1)).entropy()
                  + FinitePmf(j.mass.sum(axis=0)).entropy() - j.entropy())
        assert mutual_information_mass(j.mass) == pytest.approx(oracle,
                                                                abs=1e-12)


def test_mutual_information_product_is_zero():
    p = np.outer([0.3, 0.7], [0.6, 0.4])
    assert mutual_information_mass(p) == pytest.approx(0.0, abs=1e-15)


def test_copy_coupling_mi_equals_joint_entropy(dsbs_pi):
    # the Wyner solver's copy start on one full rectangle is W = (X, Y)
    nx, ny = dsbs_pi.dims
    q_w, q_x, q_y = _copy_start(
        dsbs_pi.mass, np.ones((nx * ny, nx)), np.ones((nx * ny, ny)),
        {(x, y): x * ny + y for x in range(nx) for y in range(ny)})
    c = MarkovCoupling(FinitePmf(q_w), q_x, q_y)
    joint = induced_joint(c)
    assert np.allclose(joint.sum(axis=0), dsbs_pi.mass, atol=1e-14)
    assert coupling_information(c) == pytest.approx(dsbs_pi.entropy(),
                                                     abs=1e-12)


def test_induced_joint_matches_manual_product():
    c = fixtures.dsbs_optimal_coupling(0.1)
    j = induced_joint(c)
    manual = np.einsum("w,wx,wy->wxy", c.q_w.mass, c.q_x_given_w,
                       c.q_y_given_w)
    assert j.shape == (c.nw, c.nx, c.ny)
    assert np.allclose(j, manual / manual.sum(), atol=1e-15)
    # and the coupling really reproduces the DSBS source
    assert np.allclose(c.xy_marginal().mass, fixtures.dsbs(0.1).mass,
                       atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.01, 10.0), min_size=4, max_size=4))
def test_mutual_information_nonnegative(weights):
    m = np.array(weights).reshape(2, 2)
    j = JointPmf(m / m.sum())
    mi = mutual_information_mass(j.mass)
    assert 0.0 <= mi <= min(FinitePmf(j.mass.sum(axis=1)).entropy(),
                            FinitePmf(j.mass.sum(axis=0)).entropy()) + 1e-12


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_joint_text_round_trip(dsbs_pi):
    text = "".join(" ".join(format(v, ".17g") for v in row) + "\n"
                   for row in dsbs_pi.mass)
    again = load_joint_text(text)
    assert np.allclose(again.mass, dsbs_pi.mass, atol=0)


def test_load_ignores_comments_and_blank_lines():
    text = "# a joint\n\n0.4 0.1\n# middle\n0.1 0.4\n"
    j = load_joint_text(text)
    assert j.dims == (2, 2)
    assert j.mass[1, 1] == 0.4


def test_load_rejects_ragged_and_unnormalized():
    with pytest.raises(ConfigError):
        load_joint_text("0.5 0.5\n0.3\n")
    with pytest.raises(ConfigError):
        load_joint_text("0.5 0.6\n")


def test_markov_coupling_validates_rows():
    q_w = FinitePmf([0.5, 0.5])
    good = np.array([[0.9, 0.1], [0.1, 0.9]])
    bad = np.array([[0.9, 0.2], [0.1, 0.9]])
    MarkovCoupling(q_w, good, good)
    with pytest.raises(ConfigError):
        MarkovCoupling(q_w, bad, good)
