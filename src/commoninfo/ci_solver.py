"""Wyner common information solver.

Computes C = min I(XY;W) over couplings (Q_W, Q_{X|W}, Q_{Y|W}) whose induced
XY-marginal equals the target joint, with |W| = |X||Y|, which is sufficient
for the minimum.

The feasible set is non-convex in this parameterization, so the solver runs a
deterministic multi-start quasi-Newton descent on an exact-penalty objective
with an increasing weight schedule, followed by an alternating feasibility
restoration that drives the marginal residual below tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import ConfigError
from .probability import (FinitePmf, JointPmf, MarkovCoupling, copy_coupling,
                          mutual_information)

_PENALTY_SCHEDULE = (1e2, 1e4, 1e6)
_FEAS_TOL = 1e-8                         # marginal residual of a feasible result
_OBJ_TOL = 1e-9                          # L-BFGS-B relative objective tolerance
_LOG_FLOOR = 1e-300


@dataclass(frozen=True)
class CiSolution:
    """Best feasible coupling found and its mutual information value (nats)."""

    value: float
    argmin: MarkovCoupling
    constraint_residual: float
    restarts_used: int
    converged: bool


def _softmax(z: np.ndarray, axis=-1) -> np.ndarray:
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def _unpack(z: np.ndarray, nw: int, nx: int, ny: int):
    a = z[:nw]
    b = z[nw:nw + nw * nx].reshape(nw, nx)
    c = z[nw + nw * nx:].reshape(nw, ny)
    return _softmax(a), _softmax(b), _softmax(c)


def _objective_and_grad(z, pi_mass, nw, nx, ny, lam):
    """Penalized objective I(XY;W) + lam * ||Q_XY - pi||^2 with its gradient
    in the softmax logits."""
    qw, A, C = _unpack(z, nw, nx, ny)
    J = np.einsum("w,wx,wy->wxy", qw, A, C)
    Q = J.sum(axis=0)

    logQ = np.log(np.maximum(Q, _LOG_FLOOR))
    logA = np.log(np.maximum(A, _LOG_FLOOR))
    logC = np.log(np.maximum(C, _LOG_FLOOR))
    a_ent = (A * logA).sum(axis=1)            # -H(X|W=w)
    c_ent = (C * logC).sum(axis=1)
    diff = Q - pi_mass
    f = float(-(Q * logQ).sum() + qw @ (a_ent + c_ent) + lam * (diff * diff).sum())

    G = -(logQ + 1.0) + 2.0 * lam * diff       # df/dQ(x,y)
    g_qw = np.einsum("xy,wx,wy->w", G, A, C) + a_ent + c_ent
    g_A = qw[:, None] * (np.einsum("xy,wy->wx", G, C) + logA + 1.0)
    g_C = qw[:, None] * (np.einsum("xy,wx->wy", G, A) + logC + 1.0)

    def chain(p, g, axis):
        return p * (g - (p * g).sum(axis=axis, keepdims=True))

    grad = np.concatenate([
        chain(qw, g_qw, 0),
        chain(A, g_A, 1).ravel(),
        chain(C, g_C, 1).ravel(),
    ])
    return f, grad


def _restore_feasibility(qw, A, C, pi_mass, max_sweeps=500, tol=1e-10):
    """Alternate between fixing the XY-marginal exactly and projecting back to
    conditional independence of X and Y given W."""
    for _ in range(max_sweeps):
        J = np.einsum("w,wx,wy->wxy", qw, A, C)
        Q = J.sum(axis=0)
        residual = 0.5 * np.abs(Q - pi_mass).sum()
        if residual <= tol:
            break
        safe_Q = np.where(Q > 0, Q, 1.0)
        T = np.where(Q[None] > 0, J / safe_Q[None], qw[:, None, None])
        J2 = pi_mass[None] * T
        qw_new = J2.sum(axis=(1, 2))
        keep = qw_new > 1e-15
        qw_safe = np.where(keep, qw_new, 1.0)
        A = np.where(keep[:, None], J2.sum(axis=2) / qw_safe[:, None], A)
        C = np.where(keep[:, None], J2.sum(axis=1) / qw_safe[:, None], C)
        A /= A.sum(axis=1, keepdims=True)
        C /= C.sum(axis=1, keepdims=True)
        qw = qw_new / qw_new.sum()
    J = np.einsum("w,wx,wy->wxy", qw, A, C)
    residual = 0.5 * np.abs(J.sum(axis=0) - pi_mass).sum()
    return qw, A, C, residual


def _coupling_value(qw, A, C) -> float:
    """I(XY;W) of the induced joint, (XY) treated as one super-symbol."""
    J = np.einsum("w,wx,wy->wxy", qw, A, C)
    nw = qw.shape[0]
    flat = JointPmf(J.reshape(nw, -1) / J.sum())
    return mutual_information(flat)


def _logits_for(qw, A, C):
    return np.concatenate([
        np.log(np.maximum(qw, 1e-12)),
        np.log(np.maximum(A, 1e-12)).ravel(),
        np.log(np.maximum(C, 1e-12)).ravel(),
    ])


def _marginal_couplings(pi_mass: np.ndarray):
    """W = X and W = Y as (Q_W, Q_{X|W}, Q_{Y|W}): exactly feasible, with
    I(XY;W) = H(X) and H(Y).  Rows of a zero-mass W symbol are uniform."""
    def given(rows, marg):
        safe = np.where(marg > 0, marg, 1.0)[:, None]
        return np.where(marg[:, None] > 0, rows / safe, 1.0 / rows.shape[1])

    px, py = pi_mass.sum(axis=1), pi_mass.sum(axis=0)
    yield px, np.eye(px.size), given(pi_mass, px)
    yield py, given(pi_mass.T, py), np.eye(py.size)


def wyner_ci(pi: JointPmf, restarts: int = 64, seed: int = 0) -> CiSolution:
    """Multi-start constrained minimization of I(XY;W) subject to the induced
    XY-marginal matching ``pi`` and X, Y conditionally independent given W.

    The auxiliary alphabet has |W| = |X||Y| symbols.  The first start is the
    copy coupling W = (X, Y); seeded random starts make up the rest of the
    ``restarts``.  The couplings W = X and W = Y are scored, not optimised:
    one replaces the optimizer's answer when it is lower by more than
    ``_OBJ_TOL``, so the answer is never above min(H(X), H(Y)).
    """
    if pi.ndim != 2:
        raise ConfigError("wyner_ci needs a 2-axis target joint")
    nx, ny = pi.dims
    nw = nx * ny
    pi_mass = pi.mass
    rng = np.random.default_rng(np.random.SeedSequence([seed, nx, ny, nw]))

    cc = copy_coupling(pi)
    starts = [_logits_for(cc.q_w.mass, cc.q_x_given_w, cc.q_y_given_w)]
    while len(starts) < restarts:
        qw0 = rng.dirichlet(np.ones(nw))
        A0 = rng.dirichlet(np.ones(nx), size=nw)
        C0 = rng.dirichlet(np.ones(ny), size=nw)
        starts.append(_logits_for(qw0, A0, C0))

    best = None
    converged = False
    for z0 in starts:
        z = z0
        for lam in _PENALTY_SCHEDULE:
            res = minimize(_objective_and_grad, z, jac=True, method="L-BFGS-B",
                           args=(pi_mass, nw, nx, ny, lam),
                           options={"maxiter": 500, "ftol": _OBJ_TOL})
            z = res.x
        qw, A, C = _unpack(z, nw, nx, ny)
        qw, A, C, residual = _restore_feasibility(qw, A, C, pi_mass)
        if residual > _FEAS_TOL:
            # one more polish from the restored point at a stiffer penalty
            z = _logits_for(qw, A, C)
            res = minimize(_objective_and_grad, z, jac=True, method="L-BFGS-B",
                           args=(pi_mass, nw, nx, ny, 1e8),
                           options={"maxiter": 500, "ftol": _OBJ_TOL})
            qw, A, C = _unpack(res.x, nw, nx, ny)
            qw, A, C, residual = _restore_feasibility(qw, A, C, pi_mass)
        value = _coupling_value(qw, A, C)
        feasible = residual <= _FEAS_TOL
        converged = converged or feasible
        key = (not feasible, value)  # feasible solutions first, then by value
        if best is None or key < best[0]:
            best = (key, value, qw, A, C, residual)

    for qw, A, C in _marginal_couplings(pi_mass):
        value = _coupling_value(qw, A, C)
        if value < best[1] - _OBJ_TOL:
            J = np.einsum("w,wx,wy->xy", qw, A, C)
            residual = 0.5 * np.abs(J - pi_mass).sum()
            best = ((False, value), value, qw, A, C, residual)

    _, value, qw, A, C, residual = best
    argmin = MarkovCoupling(FinitePmf(qw / qw.sum()),
                            A / A.sum(axis=1, keepdims=True),
                            C / C.sum(axis=1, keepdims=True))
    return CiSolution(value=value, argmin=argmin, constraint_residual=residual,
                      restarts_used=len(starts), converged=converged)
