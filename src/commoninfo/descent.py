"""The quasi-Newton loops of the solvers, on scipy's compiled cores.

``lbfgsb`` runs unbounded L-BFGS-B descents from one or more starts in
lockstep.  Each descent is the loop of
``scipy.optimize._lbfgsb_py._minimize_lbfgsb`` on the same compiled core,
``scipy.optimize._lbfgsb.setulb`` with its scipy >= 1.15 signature, at the
settings ``minimize(fun, x0, method="L-BFGS-B", jac=True,
options={"maxiter", "ftol", "gtol"})`` uses, with its own core state: no
bounds (``nbd`` = 0), ``m`` = 10, ``maxls`` = 20, ``factr`` = ftol / eps and
``maxfun`` = 15000.  ``maxfun`` is kept, one comparison per iteration: a
failed line search restarts within its iteration, so an iteration can take
up to 2 * maxls evaluations, and 500 of them could in principle pass 15000.
At each step every descent that asks for f and g at a new x hands it to one
call of the caller's function, so ``wyner_ci`` evaluates a block's four
starts as the rows of one batch and the exponent engine its starts in one
row loop; a descent's floats do not depend on which others share its steps.

``slsqp``, one SLSQP solve under equality constraints and box bounds, is the
loop of ``scipy.optimize._slsqp_py._minimize_slsqp`` on the same compiled
core, ``scipy.optimize._slsqplib.slsqp`` (scipy >= 1.16), at the settings
``minimize(fun, x0, method="SLSQP", jac=True, bounds=..., constraints={"type":
"eq", "fun", "jac"}, options={"maxiter", "ftol"})`` uses: x0 clipped into the
bounds, the same state dict (``acc`` = ftol, ``tol`` = 10 ftol), the same
workspace sizes, f and the constraint values written on mode 1, g and the
constraint Jacobian on mode -1.  The caller's problem comes split in two:
``values`` gives f and the constraint values, and ``gradients`` g and the
Jacobian, each called only where the core asks for it.  The core asks for
gradients at the x of its last values request and never twice at one x, so
``values`` runs as often as ``minimize`` counts ``nfev`` and ``gradients``
as often as it counts ``njev``: 188 and 82 times on the first polish of
DSBS(0.1), where one ``fun`` would compute g at all 188 points.

Both hand their core the same f, g and x sequence as scipy does, so every
iterate is the same float.  An L-BFGS-B request at the x of the previous
evaluation (compared by bytes) reuses its f and g, as scipy's
``ScalarFunction`` does, so a descent hands ``fun`` as many x as ``nfev``
counts, and the core, which may write into g, gets a copy.  Left out is
what the callers never read: the rest of ``ScalarFunction`` (a copy, a type
check and an ``array_equal`` per evaluation), ``MemoizeJac``,
``OptimizeResult``, the inverse-Hessian operator of L-BFGS-B, and SLSQP's
inequality constraints, callback, printing and ``atleast_1d``/``hstack``
constraint plumbing.

Importing this module sets the OpenBLAS builds bundled with numpy and scipy
to one thread, whatever ``OPENBLAS_NUM_THREADS`` says, so every entry point
(the CLI, ``import commoninfo``, a submodule import) solves on one thread:
the solvers make many small BLAS calls, a second OpenBLAS thread spins
beside the first, and on more than one thread scipy's copy moves the last
digits of ``slsqp``, so ``wyner_ci``'s polish and the rows that read it
would depend on the thread count.
"""

from __future__ import annotations

import ctypes
import glob
import importlib
import os

import numpy as np
from scipy.optimize import _lbfgsb, _slsqplib

_M = 10                              # correction pairs kept (maxcor)
_MAXLS = 20                          # evaluations per line search
_MAXFUN = 15000                      # scipy's default evaluation cap
_FG, _NEW_X, _CONVERGENCE, _STOP = 3, 1, 4, 5
_STOP_MAXFUN, _STOP_MAXITER = 502, 504

#: the OpenBLAS that each package's Linux wheel bundles in ``<package>.libs``
#: and the symbol that sets its thread count; scipy's own BLAS and LAPACK
#: calls go to its copy, numpy's to the 64-bit-index one
_BUNDLED_OPENBLAS = (
    ("numpy", "libscipy_openblas64_*.so", "scipy_openblas_set_num_threads64_"),
    ("scipy", "libscipy_openblas-*.so", "scipy_openblas_set_num_threads"),
)


def _one_blas_thread() -> None:
    """Set every bundled OpenBLAS to one thread.  A numpy or scipy without a
    bundled OpenBLAS is left as it is."""
    for package, pattern, setter in _BUNDLED_OPENBLAS:
        site = os.path.dirname(os.path.dirname(
            importlib.import_module(package).__file__))
        for path in glob.glob(os.path.join(site, package + ".libs", pattern)):
            set_threads = getattr(ctypes.CDLL(path), setter, None)
            if set_threads is not None:
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                set_threads(1)


_one_blas_thread()


def _descent(x0, maxiter, ftol, gtol):
    """One descent from ``x0`` as a generator: it yields each x where the
    core asks for f and g, is sent (f, grad) back, and returns (x, f,
    converged)."""
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
                f, g_at_last = yield x
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


def lbfgsb(fun, starts, maxiter, ftol, gtol=1e-5):
    """The descents from every start in ``starts``, run in lockstep: each
    step hands every start that asks for an evaluation to one call
    ``fun(xs) -> (fs, grads)``, with ``xs`` the list of their x.  Returns
    each start's (x, f, converged); ``converged`` is scipy's ``success``.
    ``gtol`` defaults to scipy's value."""
    descents = [_descent(x0, maxiter, ftol, gtol) for x0 in starts]
    done = [None] * len(descents)

    def ask(i, sent):
        """Descent i's next (i, x) request, or None once it is done."""
        try:
            return i, descents[i].send(sent)
        except StopIteration as stop:
            done[i] = stop.value
            return None

    asks = [a for i in range(len(descents)) if (a := ask(i, None))]
    while asks:
        rows, xs = zip(*asks)
        fs, grads = fun(list(xs))
        asks = [a for i, f, g in zip(rows, fs, grads) if (a := ask(i, (f, g)))]
    return done


def slsqp(values, gradients, x0, bounds, maxiter, ftol):
    """(x, f, nit, mode) of one SLSQP solve that minimizes f from ``x0``
    subject to eq(x) = 0 (one or more values) and ``lo <= x <= hi`` for
    every variable, ``bounds`` = (lo, hi); ``mode`` is scipy's exit mode, 0
    on success and 9 when ``maxiter`` iterations ran out.  ``values(x) ->
    (f, eq)`` is called where the core asks for f and the constraint values,
    and ``gradients(x) -> (grad, eq_jac)``, a fresh grad and the Jacobian of
    eq, where it asks for them, always at the x of the last values call."""
    lo, hi = bounds
    x = np.clip(np.array(x0, dtype=np.float64).ravel(), lo, hi)
    n = x.size
    xl, xu = np.full(n, float(lo)), np.full(n, float(hi))
    f, d = values(x)
    d = np.array(d, dtype=np.float64)
    g, jac = gradients(x)
    m = meq = d.size
    C = np.zeros((m, n), order="F")
    C[:] = jac
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
        if mode == 1:
            f, d[:] = values(x)
        elif mode == -1:
            g, C[:] = gradients(x)
        else:
            return x, f, state["iter"], mode
