"""The L-BFGS-B and SLSQP drivers against ``scipy.optimize.minimize``, bit
for bit, on the objectives and settings of every solver that uses them.  The
drivers run scipy's private ``setulb`` and ``slsqp`` loops, so this is the
test that catches a change in those loops or in their signatures."""

import collections

import numpy as np
import pytest
from scipy.optimize import minimize

from commoninfo import ci_solver, exponents, fixtures
from commoninfo.ci_solver import wyner_ci
from commoninfo.descent import lbfgsb, slsqp
from commoninfo.exponents import ExponentPoint, _SupportGrid
from commoninfo.probability import JointPmf

CI_SETTINGS = {"maxiter": ci_solver._MAXITER, "ftol": ci_solver._OBJ_TOL}
INNER_SETTINGS = {"maxiter": exponents._INNER_MAXITER,
                  "ftol": exponents._INNER_FTOL, "gtol": 1e-12}


def _counted(fun):
    calls = []

    def counted(x, *args):
        calls.append(1)
        return fun(x, *args)
    return counted, calls


def _one_row(kernel):
    """A ci_solver block kernel as ``fun(z, lam) -> (f, grad)``: its batch
    of the one row ``z``."""
    def fun(z, lam):
        (f,), (grad,) = kernel.batch(z[None], lam)
        return f, grad
    return fun


def _one_descent(fun, x0, args, settings):
    """(x, f, converged) of the driver's descent from ``x0`` alone, with
    ``fun(x, *args) -> (f, grad)`` run on each row as the exponent engine
    runs it."""
    [result] = lbfgsb(lambda xs: zip(*(fun(x, *args) for x in xs)), [x0],
                      **settings)
    return result


def _assert_same_descent(fun, x0, args, settings):
    """Driver and ``minimize`` agree on x (bytes), f, the success flag and
    the number of evaluations; returns the reference result."""
    ref_fun, ref_calls = _counted(fun)
    ref = minimize(ref_fun, x0, args=args, jac=True, method="L-BFGS-B",
                   options=settings)
    new_fun, new_calls = _counted(fun)
    x, f, converged = _one_descent(new_fun, x0, args, settings)
    assert x.tobytes() == ref.x.tobytes()
    assert f == ref.fun
    assert converged is bool(ref.success)
    assert len(new_calls) == len(ref_calls) == ref.nfev
    return ref


CI_JOINTS = {
    "dsbs01": fixtures.dsbs(0.1),
    "dsbes06": fixtures.dsbes(0.6),
    "dirichlet3x3": JointPmf(np.random.default_rng(1).dirichlet(np.ones(9))
                             .reshape(3, 3)),
}


@pytest.mark.parametrize("name", sorted(CI_JOINTS))
def test_driver_matches_minimize_on_the_ci_kernel(name):
    # the penalty schedule, each weight from where the one before ended as
    # in _solve_block, from the copy start and from one random start; the
    # extra lam = 1e8 descent is more coverage of the driver on a stiffer
    # objective
    pi_mass = CI_JOINTS[name].mass
    mask_x, mask_y, cell_symbol = ci_solver._rectangle_layout(pi_mass > 0)
    kernel = ci_solver._BlockKernel(pi_mass, mask_x, mask_y)
    rng = np.random.default_rng(5)
    nw, nx, ny = mask_x.shape[0], pi_mass.shape[0], pi_mass.shape[1]
    starts = [
        kernel.logits(*ci_solver._copy_start(pi_mass, mask_x, mask_y,
                                             cell_symbol)),
        kernel.logits(rng.dirichlet(np.ones(nw)),
                      rng.dirichlet(np.ones(nx), size=nw),
                      rng.dirichlet(np.ones(ny), size=nw)),
    ]
    for z in starts:
        for lam in (*ci_solver._PENALTY_SCHEDULE, 1e8):
            z = _assert_same_descent(_one_row(kernel), z, (lam,),
                                     CI_SETTINGS).x


@pytest.mark.parametrize("maxiter", [ci_solver._MAXITER, 12])
@pytest.mark.parametrize("name", sorted(CI_JOINTS))
def test_lockstep_matches_sequential_descents(name, maxiter):
    # the four starts of _solve_block through the penalty schedule and one
    # stiffer weight, one lockstep call per weight, against one one-start
    # call per start and weight; each descent's x is the buffer its
    # evaluations were asked at, so its id counts them.  At maxiter = 12
    # some descents are cut off; on the 3x3 joint one descent ends
    # unconverged at any maxiter.
    pi_mass = CI_JOINTS[name].mass
    mask_x, mask_y, cell_symbol = ci_solver._rectangle_layout(pi_mass > 0)
    kernel = ci_solver._BlockKernel(pi_mass, mask_x, mask_y)
    zs = [kernel.logits(*start) for start in ci_solver._mixed_starts(
        pi_mass, mask_x, mask_y, cell_symbol)]
    refs = list(zs)
    settings = dict(CI_SETTINGS, maxiter=maxiter)
    flags, totals = set(), np.zeros(len(zs), dtype=int)
    for lam in (*ci_solver._PENALTY_SCHEDULE, 1e8):
        asked = collections.Counter()

        def batch(rows):
            asked.update(id(z) for z in rows)
            return kernel.batch(np.array(rows), lam)

        results = lbfgsb(batch, zs, **settings)
        assert len(results) == len(zs)
        for i, (x, f, converged) in enumerate(results):
            fun, calls = _counted(_one_row(kernel))
            refs[i], f_ref, converged_ref = _one_descent(fun, refs[i], (lam,),
                                                         settings)
            assert x.tobytes() == refs[i].tobytes()
            assert f == f_ref and converged is converged_ref
            assert asked[id(x)] == len(calls)
            totals[i] += len(calls)
            flags.add(converged)
        zs = [x for x, _, _ in results]
    assert len(set(totals)) > 1            # the starts finish at other steps
    assert (False in flags) is (maxiter == 12 or name == "dirichlet3x3")


POLISH_SETTINGS = {"maxiter": ci_solver._POLISH_MAXITER,
                   "ftol": ci_solver._POLISH_FTOL}
POLISH_JOINTS = {
    "dsbs01": fixtures.dsbs(0.1),
    "dsbes06": fixtures.dsbes(0.6),
    "common_part_3x3": fixtures.common_part_source(0.6, 0.2),
    "dirichlet3x3": CI_JOINTS["dirichlet3x3"],
}


def _polish_problems(pi, monkeypatch):
    """(values, gradients, x0, bounds) of every polish ``wyner_ci(pi)``
    runs, one per restored descent."""
    problems = []

    def recording(values, gradients, x0, bounds, **settings):
        problems.append((values, gradients, x0.copy(), bounds))
        return slsqp(values, gradients, x0, bounds, **settings)

    monkeypatch.setattr(ci_solver, "slsqp", recording)
    wyner_ci(pi)
    return problems


def _assert_same_polish(values, gradients, x0, bounds, settings):
    """Driver and ``minimize(method="SLSQP")``, on the problem's values and
    gradients wrapped into one ``fun`` and a constraint, agree on x (bytes),
    f, the iteration count and the exit mode; values run as often as
    minimize evaluates f, and gradients as often as it evaluates g.
    Returns the reference result."""
    def fun(x):
        f, _ = values(x)
        return f, gradients(x)[0]

    def eq(x):
        return values(x)[1]

    def eq_jac(x):
        values(x)
        return gradients(x)[1]

    ref = minimize(fun, x0, jac=True, method="SLSQP",
                   bounds=[bounds] * x0.size,
                   constraints={"type": "eq", "fun": eq, "jac": eq_jac},
                   options=settings)
    counted_values, values_calls = _counted(values)
    counted_gradients, gradients_calls = _counted(gradients)
    x, f, nit, mode = slsqp(counted_values, counted_gradients, x0, bounds,
                            **settings)
    assert x.tobytes() == ref.x.tobytes()
    assert f == ref.fun
    assert nit == ref.nit and mode == ref.status
    assert len(values_calls) == ref.nfev
    assert len(gradients_calls) == ref.njev
    return ref


@pytest.mark.parametrize("name", sorted(POLISH_JOINTS))
def test_slsqp_matches_minimize_on_every_polish(name, monkeypatch):
    problems = _polish_problems(POLISH_JOINTS[name], monkeypatch)
    assert len(problems) == 4               # one solved block, four starts
    for problem in problems:
        ref = _assert_same_polish(*problem, POLISH_SETTINGS)
        # the core asks for g at fewer points than for f
        assert ref.njev < ref.nfev


def test_slsqp_matches_minimize_when_cut_off_by_maxiter(dsbs_pi, monkeypatch):
    problem = _polish_problems(dsbs_pi, monkeypatch)[0]
    ref = _assert_same_polish(*problem, dict(POLISH_SETTINGS, maxiter=3))
    assert ref.status == 9 and ref.nit == 3


def _inner_starts(pi, ci):
    grid = _SupportGrid(pi)
    return grid, [exponents._ci_lift_logits(grid, ci),
                  exponents._product_logits(grid)]


@pytest.mark.parametrize("alpha, theta", [(0.3, 0.2), (0.8, 0.45)])
def test_driver_matches_minimize_on_omega(dsbs_pi, dsbs_ci, alpha, theta):
    grid, starts = _inner_starts(dsbs_pi, dsbs_ci)
    for z0 in starts:
        _assert_same_descent(exponents._omega_objective, z0,
                             (grid, alpha, theta), INNER_SETTINGS)


def test_driver_matches_minimize_on_omega_at_the_copy_boundary():
    # U = X is optimal on the simplex boundary, where the descent stops on
    # its ftol near theta = 0
    pi = fixtures.copy_source()
    grid, starts = _inner_starts(pi, wyner_ci(pi))
    for alpha in (0.1343, 0.3):
        for z0 in starts:
            _assert_same_descent(exponents._omega_objective, z0,
                                 (grid, alpha, 1e-4), INNER_SETTINGS)


def test_driver_matches_minimize_on_r_alpha(dsbs_pi, dsbs_ci):
    grid, starts = _inner_starts(dsbs_pi, dsbs_ci)
    for z0 in starts:
        _assert_same_descent(exponents._r_alpha_objective, z0,
                             (grid, exponents._R_SH_ALPHA), INNER_SETTINGS)


def test_driver_matches_minimize_when_cut_off_by_maxiter(dsbs_pi, dsbs_ci):
    grid, (z0, _) = _inner_starts(dsbs_pi, dsbs_ci)
    settings = dict(INNER_SETTINGS, maxiter=3)
    ref = _assert_same_descent(exponents._omega_objective, z0,
                               (grid, 0.5, 0.3), settings)
    assert not ref.success and ref.nit == 3


def _ascent_gradient(x):
    return float(x @ x), -2.0 * x


def _l1(x):
    return float(np.abs(x).sum()), np.sign(x)


@pytest.mark.parametrize("fun", [_ascent_gradient, _l1],
                         ids=["abnormal", "repeated-x"])
def test_driver_matches_minimize_off_the_smooth_path(fun):
    # a gradient that points uphill makes both line searches fail (setulb
    # restores g in place, then stops ABNORMAL); |x| makes setulb ask twice
    # for f and g at one x, which scipy's ScalarFunction answers from its
    # cache without an evaluation
    ref = _assert_same_descent(fun, np.linspace(-1.0, 2.0, 5), (),
                               CI_SETTINGS)
    assert ref.success is (fun is _l1)


def test_multistart_reports_the_flag_of_the_start_it_returns(dsbs_pi, dsbs_ci,
                                                             monkeypatch):
    # the lifted argmin's descent ends lowest, or tied with the product
    # start, but fails; the product start succeeds.  The first lowest start
    # in order is returned, with its own flag.
    descent = exponents.lbfgsb
    returned = []

    def rigged(fun, starts, **settings):
        results = descent(fun, starts, **settings)
        first_f = results[0][1]
        returned[:] = [(x, first_f + gap * i, i > 0)
                       for i, (x, _, _) in enumerate(results)]
        return returned

    monkeypatch.setattr(exponents, "lbfgsb", rigged)
    lifted = exponents._ci_lift_logits(exponents._SupportGrid(dsbs_pi),
                                       dsbs_ci)
    for gap in (1.0, 0.0):
        res = exponents.big_omega_min(dsbs_pi, ExponentPoint(0.5, 0.3),
                                      warm_logits=[lifted])
        assert len(returned) == 2 and res.value == returned[0][1]
        assert res.logits.tobytes() == returned[0][0].tobytes()
        assert res.converged is False
