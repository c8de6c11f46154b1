"""Divergences: special cases against hand computations, order conventions,
and the divergence-vs-TV lower-bound family."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import xlogy

from commoninfo.divergences import (pinsker_lb, renyi, sason_closed_lb,
                                    sason_inf, tv)
from commoninfo.errors import ConfigError
from commoninfo.probability import FinitePmf


def pmf_pair(rng, k):
    return rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(k))


def binary_renyi(p, q, s):
    """D_{1+s}(Bern(p) || Bern(q))."""
    return renyi([p, 1.0 - p], [q, 1.0 - q], s)


# ---------------------------------------------------------------------------
# KL and Renyi special cases
# ---------------------------------------------------------------------------

def test_kl_hand_value():
    p, q = [0.25, 0.75], [0.5, 0.5]
    oracle = 0.25 * math.log(0.5) + 0.75 * math.log(1.5)
    assert renyi(p, q, 0.0) == pytest.approx(oracle, abs=1e-14)


def test_renyi_s1_is_log_chi_square_plus_one():
    # D_2(p||q) = log sum p^2/q
    p, q = np.array([0.2, 0.8]), np.array([0.6, 0.4])
    oracle = math.log(0.04 / 0.6 + 0.64 / 0.4)
    assert renyi(p, q, 1.0) == pytest.approx(oracle, abs=1e-14)


def test_renyi_d0_is_neg_log_support_mass():
    p = np.array([1.0, 0.0])
    q = np.array([0.3, 0.7])
    assert renyi(p, q, -1.0) == pytest.approx(-math.log(0.3), abs=1e-14)
    # full coverage gives exactly 0, never a negative rounding artifact
    assert renyi([0.5, 0.5], [0.5, 0.5], -1.0) == 0.0


def test_renyi_identical_zero_and_self_consistency():
    rng = np.random.default_rng(3)
    for s in (-1.0, -0.5, 0.0, 0.5, 1.0):
        p, _ = pmf_pair(rng, 4)
        assert renyi(p, p, s) == pytest.approx(0.0, abs=1e-12)


def test_renyi_infinite_when_support_escapes():
    p = np.array([0.5, 0.5])
    q = np.array([1.0, 0.0])
    assert renyi(p, q, 0.0) == math.inf
    assert renyi(p, q, 0.5) == math.inf
    # for s in (-1, 0) the divergence stays finite unless supports are disjoint
    assert renyi(p, q, -0.5) < math.inf
    assert renyi([1.0, 0.0], [0.0, 1.0], -0.5) == math.inf


def test_renyi_accepts_pmf_objects():
    p = FinitePmf([0.25, 0.75])
    q = FinitePmf([0.5, 0.5])
    assert renyi(p, q, 0.0) == pytest.approx(renyi([0.25, 0.75], [0.5, 0.5],
                                                   0.0))


def test_renyi_rejects_bad_order_and_shapes():
    with pytest.raises(ConfigError):
        renyi([1.0], [1.0], -1.5)
    # every branch test is false at NaN, so it used to return nan
    with pytest.raises(ConfigError, match="s must be >= -1"):
        renyi([0.5, 0.5], [0.25, 0.75], math.nan)
    with pytest.raises(ConfigError):
        renyi([0.5, 0.5], [1.0], 0.0)


def test_renyi_at_subnormal_orders_is_kl():
    # s * log(p/q) underflows to a subnormal here; it read 0.0 at s = 5e-324
    p, q = [0.5, 0.5], [0.75, 0.25]
    for s in (5e-324, -5e-324, 1e-322, 1e-310):
        assert renyi(p, q, s) == pytest.approx(renyi(p, q, 0.0), rel=1e-14)
    assert renyi([0.5, 0.5], [1.0, 0.0], -5e-324) == math.inf


@settings(max_examples=60, deadline=None)
@given(st.floats(0.05, 0.95), st.floats(0.05, 0.95),
       st.floats(-0.99, 1.0), st.floats(-0.99, 1.0))
def test_renyi_monotone_in_order(p, q, s1, s2):
    lo, hi = sorted((s1, s2))
    assert binary_renyi(p, q, lo) <= binary_renyi(p, q, hi) + 1e-10


@settings(max_examples=40, deadline=None)
@given(st.floats(0.02, 0.98), st.floats(0.02, 0.98))
def test_kl_vs_pinsker(p, q):
    # classic Pinsker: D >= 2 * tv^2 (s = 1 variant of pinsker_lb at order 1)
    d = binary_renyi(p, q, 0.0)
    t = abs(p - q)
    assert d >= 2 * t * t / 2 * (1 + 0) - 1e-12
    assert d >= pinsker_lb(t, 0.0) - 1e-12


# ---------------------------------------------------------------------------
# total variation
# ---------------------------------------------------------------------------

def test_tv_hand_value_and_range():
    assert tv([0.2, 0.8], [0.5, 0.5]) == pytest.approx(0.3, abs=1e-15)
    assert tv([1.0, 0.0], [0.0, 1.0]) == 1.0
    assert tv([0.5, 0.5], [0.5, 0.5]) == 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_tv_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    p, q = pmf_pair(rng, 5)
    r = rng.dirichlet(np.ones(5))
    assert tv(p, q) <= tv(p, r) + tv(r, q) + 1e-12


# ---------------------------------------------------------------------------
# lower bounds relating divergence to TV
# ---------------------------------------------------------------------------

def test_sason_inf_zero_cases_and_boundary():
    assert sason_inf(0.0, 0.7) == 0.0
    assert sason_inf(0.6, -1.0) == 0.0          # D_0 infimum vanishes
    assert sason_inf(1.0, 0.5) == math.inf


def test_sason_inf_brute_force_oracle():
    # independent scan over Bernoulli pairs at fixed TV
    eps, s = 0.55, 0.8
    qs = np.linspace(0.0, 1.0 - eps, 101)
    vals = [binary_renyi(float(q + eps), float(q), s) for q in qs]
    assert sason_inf(eps, s) <= min(vals) + 1e-9


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _binary_renyi_grid(p, q, s):
    """Reference: binary_renyi elementwise on arrays."""
    with np.errstate(divide="ignore", invalid="ignore"):
        if s == 0:
            out = (xlogy(p, p / q) + xlogy(1 - p, (1 - p) / (1 - q)))
            out = np.where(((p > 0) & (q == 0)) | ((p < 1) & (q == 1)),
                           np.inf, out)
        else:
            t1 = np.where(p > 0, np.exp((1 + s) * np.log(np.where(p > 0, p, 1))
                                        - s * np.log(q)), 0.0)
            t2 = np.where(p < 1, np.exp((1 + s) * np.log(np.where(p < 1, 1 - p, 1))
                                        - s * np.log(1 - q)), 0.0)
            out = np.log(t1 + t2) / s
    return np.maximum(np.nan_to_num(out, nan=np.inf, posinf=np.inf), 0.0)


def _grid_golden_sason_inf(eps, s):
    """Reference: a dense grid over q, then golden-section refinement to
    width 1e-10 around the best grid point."""
    if eps == 0.0 or s <= -1:
        return 0.0
    if eps == 1.0:
        return math.inf

    def obj(q):
        return binary_renyi(q + eps, q, s)

    qs = np.linspace(0.0, 1.0 - eps, 10_001)
    vals = _binary_renyi_grid(qs + eps, qs, s)
    i = int(np.argmin(vals))
    a, b = qs[max(i - 1, 0)], qs[min(i + 1, qs.size - 1)]
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    fc, fd = obj(c), obj(d)
    while b - a > 1e-10:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = obj(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = obj(d)
    return float(max(min(vals[i], fc, fd), 0.0))


def test_sason_inf_matches_the_grid_and_golden_reference():
    rng = np.random.default_rng(2026)
    endpoint_minima = 0
    for _ in range(2000):
        eps, s = float(rng.uniform(0.0, 1.0)), float(rng.uniform(-0.99, 1.0))
        value = sason_inf(eps, s)
        assert value == pytest.approx(_grid_golden_sason_inf(eps, s),
                                      rel=0.0, abs=1e-9)
        ends = (binary_renyi(eps, 0.0, s), binary_renyi(1.0, 1.0 - eps, s))
        endpoint_minima += value in ends
    assert endpoint_minima >= 100


@pytest.mark.parametrize("eps, s, value", [
    (0.9, 1.0, math.log(10.0)),      # q = 1 - eps: D_2(Bern(1) || Bern(0.1))
    (0.5, 1.0, math.log(2.0)),       # D_2(Bern(1) || Bern(1/2))
    (0.99, 0.5, 2.0 * math.log(10.0)),
])
def test_sason_inf_scores_an_endpoint_minimum(eps, s, value):
    assert sason_inf(eps, s) == binary_renyi(1.0, 1.0 - eps, s)
    assert sason_inf(eps, s) == pytest.approx(value, rel=1e-14)
    assert sason_inf(eps, s) == pytest.approx(_grid_golden_sason_inf(eps, s),
                                              rel=0.0, abs=1e-9)


def test_sason_inf_never_above_the_reference_near_eps_one():
    # for s < 0 the minimum can sit within 1e-11 of q = 1 - eps, inside a
    # dip the reference's 1e-10 golden width may miss; the search must not
    # miss it by more than the reference does
    rng = np.random.default_rng(2027)
    for _ in range(300):
        eps = float(1.0 - 10.0 ** rng.uniform(-4.0, 0.0))
        s = float(rng.uniform(-0.99, 1.0))
        assert sason_inf(eps, s) <= _grid_golden_sason_inf(eps, s) + 1e-12


def test_sason_inf_dominates_closed_forms():
    for eps in (0.2, 0.5, 0.7, 0.9, 0.99):
        for s in (-0.9, -0.75, -0.5, -0.4, -0.1, 0.0, 0.5, 1.0):
            assert sason_inf(eps, s) >= sason_closed_lb(eps, s) - 1e-9


def test_sason_closed_lb_hand_values():
    # log 1/(4(1-eps)) at eps = 0.9 -> log(2.5)
    assert sason_closed_lb(0.9, 1.0) == pytest.approx(math.log(2.5),
                                                      abs=1e-14)
    # the same form from order 1/2 up, KL included
    for s in (-0.5, -0.25, 0.0, 3.0):
        assert sason_closed_lb(0.9, s) == sason_closed_lb(0.9, 1.0)
    # clipped to zero when 4(1-eps) >= 1
    assert sason_closed_lb(0.5, 1.0) == 0.0
    # orders below 1/2, eps > 1/2 (positive part)
    t, eps = 0.75, 0.99
    oracle = (1 - t) / t * (-math.log1p(-eps)) - math.log(2.0) / t
    assert oracle > 0
    assert sason_closed_lb(eps, -t) == pytest.approx(oracle, abs=1e-14)
    # the basic bound min{1, (1-t)/t} log 1/(1-eps) - (1/t) log 2 is the same
    # expression there, and below the order-1/2 form above it
    assert sason_closed_lb(eps, -t) == max(
        min(1.0, (1 - t) / t) * (-math.log1p(-eps)) - math.log(2.0) / t, 0.0)
    assert sason_closed_lb(0.999, -0.25) > max(
        -math.log1p(-0.999) - math.log(2.0) / 0.25, 0.0)
    # clipped at zero when the raw expression is negative
    assert sason_closed_lb(0.9, -0.75) == 0.0
    assert sason_closed_lb(0.4, -0.75) == 0.0
    assert sason_closed_lb(1.0, 0.5) == math.inf
    assert sason_closed_lb(1.0, -0.9) == math.inf
    # the D_0 infimum vanishes, at eps = 1 too
    assert sason_closed_lb(0.9, -1.0) == sason_closed_lb(1.0, -1.0) == 0.0


def test_pinsker_lb_validation():
    assert pinsker_lb(0.0, -0.5) == 0.0 and pinsker_lb(1.0, 1.0) == 1.0
    for eps, s in ((0.5, math.nan), (1.5, 0.0), (-0.5, 0.0), (math.nan, 0.0),
                   (0.5, -1.0)):
        with pytest.raises(ConfigError):
            pinsker_lb(eps, s)


def test_sason_closed_lb_validation():
    for eps, s in ((0.5, -1.5), (0.5, math.nan), (1.5, 0.5), (-0.1, -0.5)):
        with pytest.raises(ConfigError):
            sason_closed_lb(eps, s)
