"""Exponent machinery: the omega statistic, inner minimizations, the rate
function F(R), and the small-theta limit."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import logsumexp

import oracles
from commoninfo import descent, exponents, fixtures
from commoninfo.ci_solver import wyner_ci
from commoninfo.errors import ConfigError
from commoninfo.exponents import (ExponentPoint, _SupportGrid,
                                  _THETA_MIN, _omega_alpha_slope,
                                  _omega_objective, _omega_ray_slope,
                                  _r_alpha_objective, _softmax_flat,
                                  big_omega_min, f_point, f_rate,
                                  r_alpha_min, r_sh, tabulate_omega,
                                  theta_limit_check)
from commoninfo.probability import FinitePmf, JointPmf, MarkovCoupling

DSBS01_CI = 0.6049515261814264
#: a 3 x 3 joint of full support and no common part, C = 0.3531663537
DIRICHLET_3X3 = JointPmf(
    np.random.default_rng(11).dirichlet(np.ones(9)).reshape(3, 3))


def random_aug_joint(rng, pi, nu):
    """A random augmented joint on supp(pi) x U, as its |X| x |Y| x |U|
    array."""
    q = np.zeros(pi.dims + (nu,))
    supp = pi.mass > 0
    q[supp] = rng.dirichlet(np.ones(supp.sum() * nu)).reshape(-1, nu)
    return q


def _lifted(pi, ci):
    """The warm logits that start a solve from the lifted CI argmin."""
    return [exponents._ci_lift_logits(_SupportGrid(pi), ci)]


def test_exponent_point_validation():
    ExponentPoint(0.5, 0.0)
    ExponentPoint(1.0, 10.0)
    with pytest.raises(ConfigError):
        ExponentPoint(1.2, 0.1)
    with pytest.raises(ConfigError):
        ExponentPoint(0.5, -0.1)
    with pytest.raises(ConfigError):
        ExponentPoint(0.5, 11.0)


def test_omega_expectation_equals_r_alpha(dsbs_pi):
    # E_Q[omega] summed cell by cell matches the KL combination R^(alpha)(Q),
    # at a |U| the kernel never uses and at the kernel's |U| = |X||Y|, where
    # the kernel's R^(alpha) objective reads the same value
    rng = np.random.default_rng(5)
    alpha = 0.4
    for nu in (3, 4):
        q = random_aug_joint(rng, dsbs_pi, nu)
        om = oracles.omega(q, dsbs_pi, alpha)
        r = oracles.r_alpha(q, dsbs_pi, alpha)
        assert (q * om).sum() == pytest.approx(r, abs=1e-10)
    z = np.log(q[dsbs_pi.mass > 0]).ravel()
    f, _ = _r_alpha_objective(z, _SupportGrid(dsbs_pi), alpha)
    assert f == pytest.approx(r, abs=1e-10)


def test_big_omega_jensen_upper_bound(dsbs_pi):
    # -log E[e^{-theta omega}] <= theta E[omega]
    rng = np.random.default_rng(6)
    for _ in range(10):
        q = random_aug_joint(rng, dsbs_pi, nu=4)
        alpha = rng.uniform(0.0, 1.0)
        theta = rng.uniform(0.0, 2.0)
        lhs = oracles.big_omega(q, dsbs_pi, alpha, theta)
        rhs = theta * oracles.r_alpha(q, dsbs_pi, alpha)
        assert lhs <= rhs + 1e-10


def test_big_omega_zero_theta(dsbs_pi):
    rng = np.random.default_rng(7)
    q = random_aug_joint(rng, dsbs_pi, nu=4)
    assert oracles.big_omega(q, dsbs_pi, 0.7, 0.0) == pytest.approx(
        0.0, abs=1e-12)
    res = big_omega_min(dsbs_pi, ExponentPoint(0.7, 0.0))
    assert res.value == 0.0


def test_objective_gradients_match_finite_differences(dsbs_pi):
    grid = _SupportGrid(dsbs_pi)
    rng = np.random.default_rng(8)
    z = rng.normal(size=grid.n_supp * grid.nu)
    h = 1e-6
    for fn, args in ((_omega_objective, (grid, 0.4, 0.6)),
                     (_r_alpha_objective, (grid, 0.4))):
        f0, g = fn(z, *args)
        for i in range(z.size):
            zp = z.copy(); zp[i] += h
            zm = z.copy(); zm[i] -= h
            fd = (fn(zp, *args)[0] - fn(zm, *args)[0]) / (2 * h)
            assert g[i] == pytest.approx(fd, abs=5e-6)


def _omega_reference(z, grid, alpha, theta):
    """omega from `oracles.omega`, and the Omega objective and its gradient
    as first written on the oracle's marginals, normalized by scipy's
    logsumexp.  Every cell of supp(pi) x U is summed, each marginal clipped
    at `oracles.TINY` as the kernel clips it.  Also the sizes of the terms
    each is summed from, which rounding is measured against: at small theta
    the log-weights cancel down to a value and a gradient of order theta,
    and omega is a sum of logs that can reach log 1e-300; a log-weight off
    by d moves the tilted law by the factor e^d."""
    q = _softmax_flat(z).reshape(grid.n_supp, grid.nu)
    xs, ys = grid.x_of_s, grid.y_of_s
    full = np.zeros((grid.nx, grid.ny, grid.nu))
    full[xs, ys, :] = q
    m = oracles.marginals(full)[:, xs, ys, :]
    q_xy, q_u, q_xu, q_yu = m[1:]
    log_q, log_xy, log_u, log_xu, log_yu = np.log(m)
    log_pi = np.log(grid.pi.mass[xs, ys])[:, None]
    om = oracles.omega(full, grid.pi, alpha)[xs, ys, :]
    om_scale = sum(np.abs(v) for v in (log_q, log_xy, log_u, log_xu, log_yu,
                                       log_pi))
    a = theta * (1.0 - alpha)
    b = theta * alpha
    terms = ((1.0 - a - b) * log_q, -a * log_xy, (b - a) * log_u,
             a * log_xu, a * log_yu, (a + b) * log_pi)
    log_t = sum(terms)
    L = logsumexp(log_t)
    t_norm = np.exp(log_t - L)
    # 1 + the size of L and the mean size under t of the log-weight terms
    t_scale = 1.0 + abs(L) + (t_norm * sum(np.abs(v) for v in terms)).sum()
    t_full = np.zeros_like(full)
    t_full[xs, ys, :] = t_norm
    u1 = -((1.0 - a - b) * t_norm
           - a * q / q_xy * t_norm.sum(axis=1, keepdims=True)
           + (b - a) * q / q_u * t_norm.sum(axis=0, keepdims=True)
           + a * q / q_xu * t_full.sum(axis=1)[xs]
           + a * q / q_yu * t_full.sum(axis=0)[ys])
    return dict(q=q, omega=om, omega_scale=om_scale, t=t_norm, t_scale=t_scale,
                f=-float(L), f_scale=abs(log_t.max()),
                grad=(u1 - q * u1.sum()).ravel(), grad_scale=np.abs(u1).max())


KERNEL_GRIDS = [_SupportGrid(fixtures.dsbs(0.1)),
                _SupportGrid(fixtures.dsbes(0.6)),     # 2x3, structural zeros
                _SupportGrid(fixtures.common_part_source())]       # 3x3


def test_omega_objective_matches_logsumexp_reference():
    for grid in KERNEL_GRIDS:
        rng = np.random.default_rng(9)
        k = grid.n_supp * grid.nu
        logits = [rng.normal(size=k) for _ in range(4)]
        # spread wide enough that some softmax cells underflow to exactly 0
        wide = [30.0 * rng.normal(scale=10.0, size=k) for _ in range(4)]
        assert any((_softmax_flat(z) == 0.0).any() for z in wide)
        for z in logits + wide:
            for alpha in (0.0, 0.4, 1.0):
                _check_kernel(z, grid, alpha)


def _check_kernel(z, grid, alpha):
    """The three objectives at one point against `_omega_reference`, each
    within 1e-12 of the terms it is summed from."""
    ref = _omega_reference(z, grid, alpha, 0.0)
    q, om = ref["q"], ref["omega"]
    f, g = _r_alpha_objective(z, grid, alpha)
    f_ref = (q * om).sum()
    scale = (q * ref["omega_scale"]).sum()
    assert abs(f - f_ref) <= 1e-12 * scale
    assert np.max(np.abs(g - (q * (om - f_ref)).ravel())) <= (
        1e-12 * np.max(q * (ref["omega_scale"] + scale)))
    for theta in (1e-4, 0.6, 10.0):
        ref = _omega_reference(z, grid, alpha, theta)
        f, g = _omega_objective(z, grid, alpha, theta)
        assert abs(f - ref["f"]) <= 1e-12 * max(abs(ref["f"]), ref["f_scale"])
        assert np.max(np.abs(g - ref["grad"])) <= 1e-12 * ref["grad_scale"]
        slope = _omega_ray_slope(z, grid, alpha, theta)
        t = ref["t"]
        assert abs(slope - (t * om).sum()) <= 1e-12 * (
            t * (ref["omega_scale"] + ref["t_scale"] * np.abs(om))).sum()


def test_r_alpha_min_frozen_values(dsbs_pi, dsbs_ci):
    # regression pins for the inner minimization on the standard source
    lifted = _lifted(dsbs_pi, dsbs_ci)
    res = r_alpha_min(dsbs_pi, 0.25, warm_logits=lifted)
    assert res.value == pytest.approx(0.13799680636827233, abs=1e-7)
    res = r_alpha_min(dsbs_pi, 0.5, warm_logits=lifted)
    assert res.value == pytest.approx(0.14004710212025745, abs=1e-7)


def _one_call_per_start(fun, starts, **settings):
    """``descent.lbfgsb`` on each start alone, one call per start."""
    return [result for z0 in starts
            for result in descent.lbfgsb(fun, [z0], **settings)]


LOCKSTEP_JOINTS = {"dsbs01": fixtures.dsbs(0.1),
                   "copy": fixtures.copy_source(),
                   "dsbes06": fixtures.dsbes(0.6),
                   "dirichlet3x3": DIRICHLET_3X3}


@pytest.mark.parametrize("name", sorted(LOCKSTEP_JOINTS))
def test_inner_solves_match_one_descent_call_per_start(name, monkeypatch):
    # big_omega_min and r_alpha_min hand all their starts to one lbfgsb
    # call; the value, the logits and the flag are those of one call per
    # start, at both ends of alpha, at the wall and from a warm start
    pi = LOCKSTEP_JOINTS[name]
    grid = _SupportGrid(pi)
    lifted = exponents._ci_lift_logits(grid, wyner_ci(pi))
    wall = grid.theta_wall(0.5)

    def solves():
        out = []
        for alpha, theta in ((0.0, 1e-4), (0.5, wall), (1.0, 1e-4)):
            out.append(big_omega_min(pi, ExponentPoint(alpha, theta),
                                     warm_logits=[lifted], grid=grid))
            out.append(r_alpha_min(pi, alpha, warm_logits=[lifted],
                                   grid=grid))
        # warm from the solves at the wall and at alpha = 1
        out.append(big_omega_min(pi, ExponentPoint(0.5, 0.5 * wall),
                                 warm_logits=[out[2].logits, lifted],
                                 grid=grid))
        out.append(r_alpha_min(pi, 0.5, warm_logits=[out[5].logits, lifted],
                               grid=grid))
        return out

    lockstep = solves()
    monkeypatch.setattr(exponents, "lbfgsb", _one_call_per_start)
    for got, want in zip(lockstep, solves(), strict=True):
        assert np.float64(got.value).tobytes() == \
            np.float64(want.value).tobytes()
        assert got.logits.tobytes() == want.logits.tobytes()
        assert got.converged is want.converged


def test_r_alpha_min_product_source_is_zero():
    pi = fixtures.product_source()
    res = r_alpha_min(pi, 0.5)
    assert res.value == pytest.approx(0.0, abs=1e-8)


def test_ci_lift_keeps_the_heaviest_symbols_of_a_wide_argmin():
    # the 4-symbol argmin of this 3x3 joint with each symbol split in
    # three, two of weight 1e-8: 12 symbols, more than |U| = 9.  The lift
    # keeps the 9 heaviest instead of dropping the warm start.
    rng = np.random.default_rng(3)
    mass = rng.dirichlet(np.ones(9)).reshape(3, 3)
    mass[0, 2] = 0.0
    pi = JointPmf(mass / mass.sum())
    ci = wyner_ci(pi)
    found = ci.argmin
    ci = dataclasses.replace(ci, argmin=MarkovCoupling(
        FinitePmf(np.kron(found.q_w.mass, [1.0 - 2e-8, 1e-8, 1e-8])),
        np.repeat(found.q_x_given_w, 3, axis=0),
        np.repeat(found.q_y_given_w, 3, axis=0)))
    grid = _SupportGrid(pi)
    assert ci.argmin.nw > grid.nu
    q_su = np.exp(exponents._ci_lift_logits(grid, ci)).reshape(grid.n_supp,
                                                              grid.nu)
    assert np.allclose(q_su.sum(axis=1), pi.mass[grid.x_of_s, grid.y_of_s],
                       rtol=0.0, atol=1e-6)
    heaviest = np.sort(ci.argmin.q_w.mass)[::-1][:grid.nu]
    assert np.allclose(np.sort(q_su.sum(axis=0))[::-1], heaviest, rtol=0.0,
                       atol=1e-6)


def test_r_sh_matches_common_information(dsbs_pi, dsbs_ci):
    val = r_sh(dsbs_pi, ci=dsbs_ci)
    assert val == pytest.approx(DSBS01_CI, abs=2e-3)
    assert val <= dsbs_ci.value + 1e-6


def test_r_sh_is_the_max_of_the_old_alpha_sweep(dsbs_pi, dsbs_ci):
    # R^(alpha)(Q)/alpha does not increase in alpha, so the first point of
    # the old warm-started 25-point sweep was its maximum
    grid = _SupportGrid(dsbs_pi)
    lifted = exponents._ci_lift_logits(grid, dsbs_ci)
    best, warm = 0.0, []
    for alpha in np.geomspace(1e-3, 1.0, 25):
        res = r_alpha_min(dsbs_pi, float(alpha),
                          warm_logits=[*warm, lifted], grid=grid)
        warm = [res.logits]
        best = max(best, res.value / float(alpha))
    assert r_sh(dsbs_pi, ci=dsbs_ci) == best


def test_r_sh_reports_a_negative_solve_unclamped(dsbs_pi, dsbs_ci,
                                                monkeypatch):
    # no clamp at 0: a solve that reads below 0 reaches the caller
    def negative(pi, alpha, **kwargs):
        return exponents.InnerMinResult(-3e-7, np.zeros(1), True)

    monkeypatch.setattr(exponents, "r_alpha_min", negative)
    assert r_sh(dsbs_pi, ci=dsbs_ci) == -3e-7 / exponents._R_SH_ALPHA


@pytest.mark.parametrize("rate", [math.nan, -0.1, math.inf])
def test_f_rate_rejects_a_nan_or_negative_rate(dsbs_pi, dsbs_ci, rate):
    # R = inf read F = 0 after every ray formed inf - inf
    with pytest.raises(ConfigError, match="nonnegative"):
        f_rate(dsbs_pi, rate, ci=dsbs_ci)


@pytest.mark.parametrize("alpha", [2.0, -1.0, math.nan])
def test_r_alpha_min_takes_the_alphas_of_an_exponent_point(dsbs_pi, alpha):
    # alpha = 2 read -0.5878 and alpha = -1 read 0.3140
    with pytest.raises(ConfigError, match="alpha must lie in"):
        r_alpha_min(dsbs_pi, alpha)


def test_theta_limit_check_needs_a_theta(dsbs_pi, dsbs_ci):
    # an empty grid built a report whose final_gap raised IndexError
    with pytest.raises(ConfigError, match="thetas"):
        theta_limit_check(dsbs_pi, 0.5, (), ci=dsbs_ci)


@pytest.mark.parametrize("other", [fixtures.dsbes(0.3), fixtures.dsbs(0.2)],
                         ids=["dsbes03", "dsbs02"])
def test_f_rate_rejects_the_ci_of_another_joint(dsbs_pi, other):
    # a 2x3 argmin has the wrong shape; a DSBS(0.2) argmin is 0.1 from
    # DSBS(0.1) in TV.  Either would warm-start the solves on the wrong joint.
    sol = wyner_ci(other)
    with pytest.raises(ConfigError, match="CI argmin"):
        f_rate(dsbs_pi, 0.3, ci=sol)
    with pytest.raises(ConfigError, match="CI argmin"):
        theta_limit_check(dsbs_pi, 0.5, (1e-2,), ci=sol)
    with pytest.raises(ConfigError, match="CI argmin"):
        tabulate_omega(dsbs_pi, ci=sol, n_alpha=2, n_theta=2)


@pytest.fixture
def lifts(monkeypatch):
    calls = []
    lift = exponents._ci_lift_logits

    def counted(grid, ci):
        calls.append(ci)
        return lift(grid, ci)

    monkeypatch.setattr(exponents, "_ci_lift_logits", counted)
    return calls


def test_the_ci_argmin_is_lifted_once_per_call(dsbs_pi, dsbs_ci, lifts):
    theta_limit_check(dsbs_pi, 0.5, (1e-2, 1e-3, 1e-4), ci=dsbs_ci)
    assert len(lifts) == 1
    tabulate_omega(dsbs_pi, ci=dsbs_ci, n_alpha=3, n_theta=5)
    assert len(lifts) == 2
    r_sh(dsbs_pi, ci=dsbs_ci)
    assert len(lifts) == 3


def test_the_exponent_engine_draws_no_random_numbers(dsbs_pi, dsbs_ci,
                                                     monkeypatch):
    # every solve runs from the starts it is given: warm, lifted CI, product
    def no_rng(*args, **kwargs):
        raise AssertionError("a random generator was built")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    monkeypatch.setattr(np.random, "SeedSequence", no_rng)
    assert f_rate(dsbs_pi, 0.5 * dsbs_ci.value, ci=dsbs_ci) > 1e-3
    assert r_sh(dsbs_pi, ci=dsbs_ci) == pytest.approx(DSBS01_CI, abs=2e-3)
    theta_limit_check(dsbs_pi, 0.5, (1e-2, 1e-4), ci=dsbs_ci)
    og = tabulate_omega(dsbs_pi, ci=dsbs_ci, n_alpha=9, n_theta=17)
    assert og.values.shape == (9, 17)


def _golden_max(fun, lo, hi, tol):
    """Golden-section search for the maximum of ``fun`` on [lo, hi]."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fun(d)
    return max([(fc, c), (fd, d)])


def reference_f_rate(pi, R, omega_grid, ci, refine=True, refine_tol=1e-6):
    """F(R) as the grid path computed it: the best cell of an Omega grid,
    then three rounds of coordinatewise golden-section search in theta and
    alpha over the neighbouring cells, clamped at 0.  `big_omega_min` gives
    -inf past the wall, so this is the domain-restricted grid path."""
    A, T = np.meshgrid(omega_grid.alphas, omega_grid.thetas, indexing="ij")
    with np.errstate(invalid="ignore"):
        F = (omega_grid.values - T * A * R) / (1.0 + (5.0 - 3.0 * A) * T)
    best = float(np.nanmax(F))
    if best <= 0.0 or not refine:
        return max(best, 0.0)
    i, j = np.unravel_index(int(np.nanargmax(F)), F.shape)
    grid = _SupportGrid(pi)
    lifted = exponents._ci_lift_logits(grid, ci)
    warm = [omega_grid.logits[i, j]]

    def f_at(alpha, theta):
        pt = ExponentPoint(float(alpha), float(theta))
        res = big_omega_min(pi, pt, warm_logits=[*warm, lifted], grid=grid)
        warm.append(res.logits)
        del warm[:-2]
        return f_point(R, pt, res.value)

    alphas, thetas = omega_grid.alphas, omega_grid.thetas
    a_lo, a_hi = alphas[max(i - 1, 0)], alphas[min(i + 1, len(alphas) - 1)]
    t_lo, t_hi = thetas[max(j - 1, 0)], thetas[min(j + 1, len(thetas) - 1)]
    alpha_star, theta_star = alphas[i], thetas[j]
    for _ in range(3):
        fb, theta_star = _golden_max(lambda t: f_at(alpha_star, t),
                                     t_lo, t_hi, refine_tol)
        fb2, alpha_star = _golden_max(lambda a: f_at(a, theta_star),
                                      a_lo, a_hi, refine_tol)
        best = max(best, fb, fb2)
    return max(best, 0.0)


def test_f_rate_signs_coarse(dsbs_pi, dsbs_ci):
    # the grid path without refinement, on a coarse grid
    og = tabulate_omega(dsbs_pi, ci=dsbs_ci, n_alpha=9, n_theta=17)
    f_lo = reference_f_rate(dsbs_pi, 0.5 * dsbs_ci.value, og, ci=dsbs_ci,
                            refine=False)
    f_hi = reference_f_rate(dsbs_pi, 1.5 * dsbs_ci.value, og, ci=dsbs_ci,
                            refine=False)
    assert f_lo == pytest.approx(0.010347540578196373, abs=1e-6)
    assert f_lo > 1e-3
    assert 0.0 <= f_hi <= 1e-8
    # monotone: the exponent cannot increase with the rate
    assert f_hi <= f_lo + 1e-12


def test_f_point_formula(dsbs_pi, dsbs_ci):
    # F at a specific (alpha, theta) equals (Omega - theta alpha R)/(1+(5-3a)t)
    pt = ExponentPoint(0.5, 0.2)
    R = 0.3
    res = big_omega_min(dsbs_pi, pt, warm_logits=_lifted(dsbs_pi, dsbs_ci))
    expected = (res.value - pt.theta * pt.alpha * R) / \
        (1.0 + (5.0 - 3.0 * pt.alpha) * pt.theta)
    assert f_point(R, pt, res.value) == pytest.approx(expected, abs=1e-9)


def test_theta_limit_gap_shrinks(dsbs_pi, dsbs_ci):
    rep = theta_limit_check(dsbs_pi, 0.5, thetas=[1e-2, 1e-3, 1e-4],
                            ci=dsbs_ci)
    # Omega/theta approaches min R^(alpha) from below as theta -> 0
    assert rep.final_gap < 1e-4
    assert abs(rep.gaps[-1]) <= abs(rep.gaps[0]) + 1e-12


# ---------------------------------------------------------------------------
# the domain of Omega and F(R) over it
# ---------------------------------------------------------------------------

def _dsbes(e):
    # X a fair bit, Y = X erased with probability e (middle column)
    return JointPmf(np.array([[(1 - e) / 2, e / 2, 0.0],
                              [0.0, e / 2, (1 - e) / 2]]))


def _q_family(pi, cells, eps):
    """An augmented joint with mass eps at the first (x, y, u) of ``cells``
    and equal shares of the rest at the others."""
    mass = np.zeros(pi.dims + (pi.dims[0] * pi.dims[1],))
    mass[cells[0]] = eps
    for cell in cells[1:]:
        mass[cell] = (1.0 - eps) / (len(cells) - 1)
    return mass


# (name, joint, alpha, closed-form wall, cells of a diverging family): the
# first cell shrinks; it keeps a row-mate and/or a column-mate at the same u
# where it has one, and shares u with another cell or keeps it alone.
DOMAIN_CASES = [
    ("dsbs01, both mates", fixtures.dsbs(0.1), 0.5, 1.0 / 1.5,
     [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 1)]),
    ("dsbes03, both mates", _dsbes(0.3), 0.3, 1.0 / 1.7,
     [(0, 1, 0), (0, 0, 0), (1, 1, 0), (1, 2, 1)]),
    ("one-sided mates", JointPmf(np.array([[0.3, 0.3, 0.0],
                                           [0.0, 0.0, 0.4]])), 0.5, 1.0,
     [(0, 0, 0), (0, 1, 0), (1, 2, 1)]),
    ("copy, shared u", fixtures.copy_source(), 0.8, 1.0 / 0.8,
     [(0, 0, 0), (1, 1, 0)]),
    ("copy, own u", fixtures.copy_source(), 0.2, 1.0 / 0.8,
     [(0, 0, 0), (1, 1, 1)]),
]


@pytest.mark.parametrize("name, pi, alpha, wall, cells", DOMAIN_CASES,
                         ids=[c[0] for c in DOMAIN_CASES])
def test_omega_domain_walls(name, pi, alpha, wall, cells):
    assert _SupportGrid(pi).theta_wall(alpha) == pytest.approx(wall,
                                                               rel=1e-15)
    epss = (1e-4, 1e-8, 1e-12, 1e-16)
    past = [oracles.big_omega(_q_family(pi, cells, e), pi, alpha,
                              1.05 * wall) for e in epss]
    inside = [oracles.big_omega(_q_family(pi, cells, e), pi, alpha,
                                0.95 * wall) for e in epss]
    # past the wall the shrinking cell's term grows like eps^(-0.05): Omega
    # falls by 0.05 ln(10^4) = 0.46 per four decades, without bound
    assert all(b < a for a, b in zip(past, past[1:]))
    assert past[-1] - past[1] < -0.4
    # inside it the term shrinks like eps^0.05 and Omega rises to a limit
    assert all(b >= a for a, b in zip(inside, inside[1:]))


def test_omega_past_the_wall_at_large_theta():
    # the point the grid read F(0.5C) on copy from: (alpha, theta) = (0.5, 10)
    pi = fixtures.copy_source()
    vals = [oracles.big_omega(_q_family(pi, [(0, 0, 0), (1, 1, 1)], e), pi,
                              0.5, 10.0) for e in (1e-4, 1e-8)]
    assert vals[1] < -60 and vals[1] < vals[0]


def test_no_solve_past_the_wall(dsbs_pi, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("an inner solve ran past the wall")

    wall = _SupportGrid(dsbs_pi).theta_wall(0.5)
    monkeypatch.setattr(exponents, "_multistart_min", no_solve)
    pt = ExponentPoint(0.5, wall * (1 + 1e-9))
    past = big_omega_min(dsbs_pi, pt).value
    assert past == -math.inf
    assert f_point(0.3, pt, past) == -math.inf
    monkeypatch.undo()
    on_wall = big_omega_min(dsbs_pi, ExponentPoint(0.5, wall))
    assert math.isfinite(on_wall.value)


def test_omega_ray_slope_is_the_theta_derivative(dsbs_pi):
    grid = _SupportGrid(dsbs_pi)
    rng = np.random.default_rng(10)
    k = grid.n_supp * grid.nu
    h = 1e-6
    for z in [rng.normal(size=k) for _ in range(3)]:
        for alpha in (0.0, 0.4, 1.0):
            for theta in (1e-4, 0.3, 0.6):
                slope = _omega_ray_slope(z, grid, alpha, theta)
                fd = (_omega_objective(z, grid, alpha, theta + h)[0]
                      - _omega_objective(z, grid, alpha, theta - h)[0]) / (2 * h)
                assert slope == pytest.approx(fd, abs=1e-7)


@pytest.mark.parametrize("pi", [fixtures.dsbs(0.1), fixtures.dsbes(0.6),
                                DIRICHLET_3X3],
                         ids=["dsbs01", "dsbes06", "dirichlet3x3"])
def test_omega_alpha_slope_is_the_alpha_derivative(pi):
    grid = _SupportGrid(pi)
    rng = np.random.default_rng(12)
    k = grid.n_supp * grid.nu
    h = 1e-6
    for z in [rng.normal(size=k) for _ in range(3)]:
        for alpha in (0.0, 0.3, 0.8):
            for theta in (1e-4, 0.5, 1.0):
                slope = _omega_alpha_slope(z, grid, alpha, theta)
                fd = (_omega_objective(z, grid, alpha + h, theta)[0]
                      - _omega_objective(z, grid, alpha - h, theta)[0]) / (2 * h)
                assert slope == pytest.approx(fd, abs=1e-7)


@pytest.fixture
def omega_solves(monkeypatch):
    calls = []
    solve = exponents.big_omega_min

    def counted(pi, pt, **kwargs):
        calls.append(pt)
        return solve(pi, pt, **kwargs)

    monkeypatch.setattr(exponents, "big_omega_min", counted)
    return calls


@pytest.fixture
def omega_evals(monkeypatch):
    calls = []                               # (alpha, theta) of each
    objective = exponents._omega_objective

    def counted(*args):
        calls.append(args[2:])
        return objective(*args)

    monkeypatch.setattr(exponents, "_omega_objective", counted)
    return calls


def test_f_rate_above_c_is_a_certified_zero(dsbs_pi, dsbs_ci, omega_solves):
    # one solve, at (0, theta_min), and none at theta = 0
    assert f_rate(dsbs_pi, 1.1 * dsbs_ci.value, ci=dsbs_ci) == 0.0
    assert omega_solves == [ExponentPoint(0.0, _THETA_MIN)]


def test_f_rate_work_is_pinned(dsbs_pi, dsbs_ci, omega_solves, lifts,
                               omega_evals):
    # the exponent cells of paper_suite, counted where no clock can move
    # them: one CI lift per f_rate call, 53 or 54 solves and at most
    # 1 810 objective evaluations (1 746 and 1 682 at one and two BLAS
    # threads; the bound adds that spread to the larger).
    # 52 solves are the rounds at 0.5C and 0.9C and one is the certified
    # zero at 1.1C.  The 54th solve is the probe a step inside the wall on
    # the 0.5C round's alpha = 0.381966 ray; whether it runs rests on the
    # sign of the slope at the wall, which is decided at rounding level.
    for mult in (0.5, 0.9, 1.1):
        f_rate(dsbs_pi, mult * dsbs_ci.value, ci=dsbs_ci)
    assert len(lifts) == 3
    assert 53 <= len(omega_solves) <= 54
    assert len(omega_evals) <= 1810


@pytest.mark.parametrize("pi", [fixtures.copy_source(), _dsbes(0.3)],
                         ids=["copy", "dsbes03"])
def test_f_rate_at_c_is_bounded_work(pi, omega_solves):
    sol = wyner_ci(pi)
    assert 0.0 <= f_rate(pi, sol.value, ci=sol) <= 1e-8
    assert len(omega_solves) <= 80


def test_f_rate_finds_an_interior_maximum_by_brentq(monkeypatch):
    # on DSBES(0.6) at 0.9C one ray's slope h is negative both on the wall
    # and one tolerance inside it, so brentq finds its root.  F(R) itself is
    # on the wall at alpha = 0.1423, where it equals the minimum of Omega over
    # 40 random starts.  The grid reference is no check here: at that point
    # a solve without warm logits stops above the minimum (F = 0.001417),
    # and the refined grid reads 0.001537.
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return brentq(*args, **kwargs)

    monkeypatch.setattr(exponents, "brentq", counted)
    pi = fixtures.dsbes(0.6)
    sol = wyner_ci(pi)
    assert f_rate(pi, 0.9 * sol.value, ci=sol) == pytest.approx(
        0.0011862784, abs=1e-7)
    assert calls


REFERENCE_SOURCES = {"dsbs01": fixtures.dsbs(0.1),
                     "copy": fixtures.copy_source(),
                     "dsbes03": _dsbes(0.3)}


@pytest.mark.parametrize("name", sorted(REFERENCE_SOURCES))
def test_f_rate_matches_the_grid_reference(name):
    # the domain-restricted 33 x 65 grid plus golden refinement: below C the
    # new path may only be higher (it reaches the wall, the grid does not)
    # and must agree to 2e-6; above C it is exactly 0, where the grid reads
    # solver noise at alpha = 0
    pi = REFERENCE_SOURCES[name]
    sol = wyner_ci(pi)
    og = tabulate_omega(pi, ci=sol)
    for mult in (0.5, 0.9):
        r = mult * sol.value
        ref = reference_f_rate(pi, r, og, ci=sol)
        new = f_rate(pi, r, ci=sol)
        assert ref - 1e-9 <= new <= ref + 2e-6
    r = 1.1 * sol.value
    assert f_rate(pi, r, ci=sol) == 0.0
    assert reference_f_rate(pi, r, og, ci=sol, refine=False) <= 1e-8


@pytest.mark.parametrize("mult", [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99])
def test_f_rate_on_the_copy_source_is_a_closed_form(mult):
    # observed, not yet derived: on the copy source, C = ln 2 and the solved
    # F(R) reads (ln 2 - R) / 8 at every rate below C, residual -1.4e-17
    pi = fixtures.copy_source()
    sol = wyner_ci(pi)
    r = mult * sol.value
    assert f_rate(pi, r, ci=sol) == pytest.approx((math.log(2.0) - r) / 8.0,
                                                  abs=1e-12)


@pytest.mark.parametrize("mult, solves", [(0.5, 22), (1.1, 1), (1.5, 1)])
def test_f_rate_on_a_3x3_joint_within_a_solve_budget(mult, solves,
                                                     omega_solves):
    # the engine's only non-binary exponent check: F > 0 below C and a
    # certified 0 above it, each within the inner solves counted when it
    # was pinned (F(0.5C) read 0.0026246107 then); above C the certificate
    # is its one solve.  R = 0 is left out, as it takes 156 solves
    sol = wyner_ci(DIRICHLET_3X3)
    assert sol.value == pytest.approx(0.3531663537, abs=1e-9)
    f = f_rate(DIRICHLET_3X3, mult * sol.value, ci=sol)
    assert f > 0.0 if mult < 1.0 else f == 0.0
    assert 0 < len(omega_solves) <= solves


CERTIFIED_SOURCES = {"dsbs01": fixtures.dsbs(0.1),
                     "copy": fixtures.copy_source(),
                     "dsbes03": fixtures.dsbes(0.3),
                     "dsbes06": fixtures.dsbes(0.6),
                     "dirichlet3x3": DIRICHLET_3X3}


def _f_rate_work(pi, r, sol, solves, evals):
    """F(r) and the (alpha, theta) of its solves and of its objective
    evaluations, from counters that start empty."""
    del solves[:], evals[:]
    return f_rate(pi, r, ci=sol), list(solves), list(evals)


@pytest.mark.parametrize("name", sorted(CERTIFIED_SOURCES))
def test_the_certified_zero_is_the_full_search_answer(name, omega_solves,
                                                      omega_evals,
                                                      monkeypatch):
    # the full search is f_rate with its certificate turned off.  Below C
    # the certificate is not tried, so value and work are the search's; at
    # and above C it fires on every source here, in its one solve.  On
    # DSBES(0.3) and (0.6) its alpha = 0 end reads N0 ~ 4.6e-12 of solver
    # noise, a ceiling of 9.1e-9 to 9.4e-9 against _F_TOL = 1e-8.
    pi = CERTIFIED_SOURCES[name]
    sol = wyner_ci(pi)
    grid = _SupportGrid(pi)
    certify = exponents._zero_certified
    for mult in (0.5, 0.9, 0.99, 1.0, 1.01, 1.1, 1.5):
        r = mult * sol.value
        monkeypatch.setattr(exponents, "_zero_certified", lambda *a: False)
        full = _f_rate_work(pi, r, sol, omega_solves, omega_evals)
        # the search solves no point past the wall, and none at theta = 0
        assert all(0 < pt.theta <= grid.theta_wall(pt.alpha)
                   for pt in full[1])
        monkeypatch.setattr(exponents, "_zero_certified", certify)
        f, solves, evals = _f_rate_work(pi, r, sol, omega_solves, omega_evals)
        assert f.hex() == full[0].hex()
        if mult < 1.0:
            assert f > 0.0
            assert (solves, evals) == full[1:]
        else:
            assert f == 0.0
            assert solves == [ExponentPoint(0.0, _THETA_MIN)]


def test_a_refused_certificate_falls_back_to_the_full_search(omega_solves,
                                                             omega_evals,
                                                             monkeypatch):
    # N0 raised by twice the slack, 5 theta_min _F_TOL, makes the
    # certificate refuse; its solve stays out of the search's warm starts, so the
    # search that follows is the full search in value and in work
    pi = fixtures.dsbes(0.6)
    sol = wyner_ci(pi)
    r = 1.1 * sol.value
    certify = exponents._zero_certified
    monkeypatch.setattr(exponents, "_zero_certified", lambda *a: False)
    full = _f_rate_work(pi, r, sol, omega_solves, omega_evals)
    monkeypatch.setattr(exponents, "_zero_certified", certify)
    solve = exponents.big_omega_min          # the counted solve

    def raised(pi, pt, **kwargs):
        res = solve(pi, pt, **kwargs)
        if pt.alpha == 0.0:
            res.value += 10.0 * _THETA_MIN * exponents._F_TOL
        return res

    monkeypatch.setattr(exponents, "big_omega_min", raised)
    f, solves, evals = _f_rate_work(pi, r, sol, omega_solves, omega_evals)
    assert f.hex() == full[0].hex() == (0.0).hex()
    cert_evals = len(evals) - len(full[2])
    assert solves == [ExponentPoint(0.0, _THETA_MIN), *full[1]]
    assert cert_evals > 0 and evals[cert_evals:] == full[2]
