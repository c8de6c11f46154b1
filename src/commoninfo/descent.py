"""One unbounded L-BFGS-B descent, the quasi-Newton step of every solver.

``lbfgsb`` is the loop of ``scipy.optimize._lbfgsb_py._minimize_lbfgsb`` on
the same compiled core, ``scipy.optimize._lbfgsb.setulb`` with its
scipy >= 1.15 signature, at the settings ``minimize(fun, x0, args,
method="L-BFGS-B", jac=True, options={"maxiter", "ftol", "gtol"})`` uses:
no bounds (``nbd`` = 0), ``m`` = 10, ``maxls`` = 20, ``factr`` = ftol / eps
and ``maxfun`` = 15000.  ``setulb`` is handed the same f, g and x sequence,
so every iterate is the same float, and ``fun`` is called as often: a
request at the x of the previous evaluation (compared by bytes) reuses its
f and g, as scipy's ``ScalarFunction`` does, and ``setulb``, which may write
into g, gets a copy.  Left out is what the callers never read: the rest of
``ScalarFunction`` (a copy, a type check and an ``array_equal`` per
evaluation), ``OptimizeResult`` and the inverse-Hessian operator.
``maxfun`` is kept, one comparison per iteration: a failed line search
restarts within its iteration, so an iteration can take up to 2 * maxls
evaluations, and 500 of them could in principle pass 15000.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import _lbfgsb

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
