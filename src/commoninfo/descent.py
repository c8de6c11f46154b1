"""The quasi-Newton loops of the solvers, on scipy's compiled cores.

``lbfgsb``, one unbounded L-BFGS-B descent, is the loop of
``scipy.optimize._lbfgsb_py._minimize_lbfgsb`` on the same compiled core,
``scipy.optimize._lbfgsb.setulb`` with its scipy >= 1.15 signature, at the
settings ``minimize(fun, x0, args, method="L-BFGS-B", jac=True,
options={"maxiter", "ftol", "gtol"})`` uses: no bounds (``nbd`` = 0),
``m`` = 10, ``maxls`` = 20, ``factr`` = ftol / eps and ``maxfun`` = 15000.
``maxfun`` is kept, one comparison per iteration: a failed line search
restarts within its iteration, so an iteration can take up to 2 * maxls
evaluations, and 500 of them could in principle pass 15000.

``slsqp``, one SLSQP solve under equality constraints and box bounds, is the
loop of ``scipy.optimize._slsqp_py._minimize_slsqp`` on the same compiled
core, ``scipy.optimize._slsqplib.slsqp`` (scipy >= 1.16), at the settings
``minimize(fun, x0, method="SLSQP", jac=True, bounds=..., constraints={"type":
"eq", "fun", "jac"}, options={"maxiter", "ftol"})`` uses: x0 clipped into the
bounds, the same state dict (``acc`` = ftol, ``tol`` = 10 ftol), the same
workspace sizes, f and the constraint values written on mode 1, g and the
constraint Jacobian on mode -1.

Both hand their core the same f, g and x sequence as scipy does, so every
iterate is the same float, and ``fun`` is called as often: a request at the x
of the previous evaluation (compared by bytes) reuses its f and g, as scipy's
``ScalarFunction`` does, and the core, which may write into g, gets a copy.
Left out is what the callers never read: the rest of ``ScalarFunction`` (a
copy, a type check and an ``array_equal`` per evaluation), ``MemoizeJac``,
``OptimizeResult``, the inverse-Hessian operator of L-BFGS-B, and SLSQP's
inequality constraints, callback, printing and ``atleast_1d``/``hstack``
constraint plumbing.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import _lbfgsb, _slsqplib

_M = 10                              # correction pairs kept (maxcor)
_MAXLS = 20                          # evaluations per line search
_MAXFUN = 15000                      # scipy's default evaluation cap
_FG, _NEW_X, _CONVERGENCE, _STOP = 3, 1, 4, 5
_STOP_MAXFUN, _STOP_MAXITER = 502, 504


def lbfgsb(fun, x0, args, maxiter, ftol, gtol=1e-5):
    """(x, f, converged) of one descent of ``fun(x, *args) -> (f, grad)``
    from ``x0``; ``converged`` is scipy's ``success``.  ``gtol`` defaults to
    scipy's value."""
    x = np.array(x0, dtype=np.float64).ravel()
    n = x.size
    bound = np.zeros(n)                  # l and u, unread with nbd = 0
    nbd = np.zeros(n, np.int32)
    f, g = 0.0, np.zeros(n)
    wa = np.zeros(2 * _M * n + 5 * n + 11 * _M * _M + 8 * _M)
    iwa = np.zeros(3 * n, np.int32)
    task = np.zeros(2, np.int32)
    ln_task = np.zeros(2, np.int32)
    lsave = np.zeros(4, np.int32)
    isave = np.zeros(44, np.int32)
    dsave = np.zeros(29)
    factr = ftol / np.finfo(float).eps
    nfev = nit = 0
    last = None
    while True:
        _lbfgsb.setulb(_M, x, bound, bound, nbd, f, g, factr, gtol, wa, iwa,
                       task, lsave, isave, dsave, _MAXLS, ln_task)
        if task[0] == _FG:
            key = x.tobytes()
            if key != last:
                last = key
                f, g_at_last = fun(x, *args)
                nfev += 1
            g = g_at_last.copy()
        elif task[0] == _NEW_X:
            nit += 1
            if nit >= maxiter:
                task[:] = _STOP, _STOP_MAXITER
            elif nfev > _MAXFUN:
                task[:] = _STOP, _STOP_MAXFUN
        else:
            return x, f, bool(task[0] == _CONVERGENCE)


def slsqp(fun, x0, eq, eq_jac, bounds, maxiter, ftol):
    """(x, f, nit, mode) of one SLSQP solve of ``fun(x) -> (f, grad)`` from
    ``x0`` subject to ``eq(x) = 0`` (one or more values, Jacobian
    ``eq_jac(x)``) and ``lo <= x <= hi`` for every variable, ``bounds`` =
    (lo, hi); ``mode`` is scipy's exit mode, 0 on success and 9 when
    ``maxiter`` iterations ran out."""
    lo, hi = bounds
    x = np.clip(np.array(x0, dtype=np.float64).ravel(), lo, hi)
    n = x.size
    xl, xu = np.full(n, float(lo)), np.full(n, float(hi))
    f_at_last, g_at_last = fun(x)
    f, g = f_at_last, g_at_last.copy()
    last = x.tobytes()
    d = np.array(eq(x), dtype=np.float64)
    m = meq = d.size
    C = np.zeros((m, n), order="F")
    C[:] = eq_jac(x)
    state = {"acc": ftol, "alpha": 0.0, "f0": 0.0, "gs": 0.0, "h1": 0.0,
             "h2": 0.0, "h3": 0.0, "h4": 0.0, "t": 0.0, "t0": 0.0,
             "tol": 10.0 * ftol, "exact": 0, "inconsistent": 0, "reset": 0,
             "iter": 0, "itermax": int(maxiter), "line": 0, "m": m,
             "meq": meq, "mode": 0, "n": n}
    # scipy's worst-case workspace with no inequality constraints
    buffer = np.zeros(n * (n + 1) // 2 + 3 * m * n - (m + 5 * n + 7) * meq
                      + 9 * m + 8 * n * n + 35 * n + meq * meq + 28
                      + 2 * n * (n + 1))
    indices = np.zeros(m + 2 * n + 2, np.int32)
    mult = np.zeros(m + 2 * n + 2)
    while True:
        _slsqplib.slsqp(state, f, g, C, d, x, mult, xl, xu, buffer, indices)
        mode = state["mode"]
        if abs(mode) != 1:
            return x, f, state["iter"], mode
        key = x.tobytes()
        if key != last:
            last = key
            f_at_last, g_at_last = fun(x)
        if mode == 1:
            f = f_at_last
            d[:] = eq(x)
        else:
            g = g_at_last.copy()
            C[:] = eq_jac(x)
