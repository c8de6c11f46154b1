"""Wyner common information solver.

Computes C = min I(XY;W) over couplings (Q_W, Q_{X|W}, Q_{Y|W}) whose induced
XY-marginal equals the target joint pi, on the support of pi:

* Common part.  Zero rows and columns drop out, and pi splits into its
  Gacs-Korner blocks, the connected components of the bipartite support
  graph.  The block index K is a function of X and of Y, hence of W for any
  X - W - Y, and W = (K, W_k) is feasible, so C = H(K) + sum_k P(k) C(pi_k).
  A rank-1 block (a single cell among them) has C = 0 exactly and needs no
  solve.
* Rectangle masks.  A symbol w of a feasible coupling puts mass on
  supp Q_{X|W=w} x supp Q_{Y|W=w}, a rectangle inside supp(pi_k), so it lies
  in a maximal support rectangle S x T.  When |S| = 1 or |T| = 1 the symbols
  of that rectangle share a point-mass row and merge into one (H is concave,
  so merging does not raise I(XY;W)); otherwise the support lemma inside the
  rectangle leaves |S||T| symbols.  Each symbol carries logits only on S and
  T, so the structural zeros of pi are exact, not approached through the
  penalty.  A full-support block is one rectangle of |X||Y| symbols with
  every mask true, the classical |W| = |X||Y|.

The feasible set is non-convex in this parameterization, so each remaining
block runs a deterministic multi-start quasi-Newton descent on an
exact-penalty objective with an increasing weight schedule, followed by an
alternating feasibility restoration that drives the marginal residual below
tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import ConfigError
from .probability import FinitePmf, JointPmf, MarkovCoupling, mutual_information

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


def _common_part_blocks(supp: np.ndarray):
    """The connected components of the bipartite support graph, as (rows,
    cols) index arrays ordered by their first row; zero rows and columns
    belong to none."""
    free = supp.any(axis=1)
    blocks = []
    while free.any():
        rows = np.zeros_like(free)
        rows[np.argmax(free)] = True
        while True:
            cols = supp[rows].any(axis=0)
            grown = supp[:, cols].any(axis=1)
            if np.array_equal(grown, rows):
                break
            rows = grown
        blocks.append((np.flatnonzero(rows), np.flatnonzero(cols)))
        free &= ~rows
    return blocks


def _maximal_rectangles(supp: np.ndarray):
    """Every maximal S x T inside ``supp`` as (row mask, column mask) pairs,
    in a fixed order.  T(S) is the set of columns full on the rows S, and S x
    T(S) is maximal exactly when no other row is full on T(S); the subsets of
    the shorter side are enumerated."""
    nx, ny = supp.shape
    if nx > ny:
        return [(s, t) for t, s in _maximal_rectangles(supp.T)]
    found = set()
    for bits in range(1, 2 ** nx):
        rows = ((bits >> np.arange(nx)) & 1).astype(bool)
        cols = supp[rows].all(axis=0)
        if cols.any():
            found.add((tuple(supp[:, cols].all(axis=1)), tuple(cols)))
    return [(np.array(s), np.array(t)) for s, t in sorted(found, reverse=True)]


def _rectangle_layout(supp: np.ndarray):
    """Symbol masks (mask_x, mask_y) of a connected block, one row per
    symbol: |S||T| symbols on a maximal rectangle S x T with |S|, |T| >= 2,
    one on a thin one.  Also every support cell's symbol for the copy start,
    in the first rectangle that holds it: the cell's own symbol there, or
    the thin rectangle's one symbol."""
    mask_x, mask_y, cell_symbol = [], [], {}
    for s, t in _maximal_rectangles(supp):
        cells = [(x, y) for x in np.flatnonzero(s) for y in np.flatnonzero(t)]
        thin = s.sum() == 1 or t.sum() == 1
        for i, cell in enumerate(cells):
            cell_symbol.setdefault(cell, len(mask_x) + (0 if thin else i))
        k = 1 if thin else len(cells)
        mask_x += [s] * k
        mask_y += [t] * k
    return np.array(mask_x), np.array(mask_y), cell_symbol


def _softmax(z: np.ndarray, axis=-1) -> np.ndarray:
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def _unpack(z: np.ndarray, mask_x: np.ndarray, mask_y: np.ndarray):
    """(Q_W, Q_{X|W}, Q_{Y|W}) from the logits of Q_W and of the unmasked
    entries; a masked entry is exactly 0."""
    nw = mask_x.shape[0]
    nb = nw + np.count_nonzero(mask_x)
    b = np.full(mask_x.shape, -np.inf)
    b[mask_x] = z[nw:nb]
    c = np.full(mask_y.shape, -np.inf)
    c[mask_y] = z[nb:]
    return _softmax(z[:nw]), _softmax(b), _softmax(c)


def _objective_and_grad(z, pi_mass, mask_x, mask_y, lam):
    """Penalized objective I(XY;W) + lam * ||Q_XY - pi||^2 with its gradient
    in the softmax logits."""
    qw, A, C = _unpack(z, mask_x, mask_y)
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
        chain(A, g_A, 1)[mask_x],
        chain(C, g_C, 1)[mask_y],
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


def _logits_for(qw, A, C, mask_x, mask_y):
    return np.concatenate([
        np.log(np.maximum(qw, 1e-12)),
        np.log(np.maximum(A, 1e-12))[mask_x],
        np.log(np.maximum(C, 1e-12))[mask_y],
    ])


def _copy_start(pi_mass, mask_x, mask_y, cell_symbol):
    """The copy coupling on the masks: each support cell's mass goes to its
    symbol, whose rows are the conditionals of the cells it holds; a symbol
    that holds none is uniform on its masks with zero weight.  With one
    full rectangle this is W = (X, Y)."""
    qw = np.zeros(mask_x.shape[0])
    A = np.zeros(mask_x.shape)
    C = np.zeros(mask_y.shape)
    for (x, y), w in cell_symbol.items():
        m = pi_mass[x, y]
        qw[w] += m
        A[w, x] += m
        C[w, y] += m

    def rows(r, mask):
        total = r.sum(axis=1, keepdims=True)
        return np.where(total > 0, r / np.where(total > 0, total, 1.0),
                        mask / mask.sum(axis=1, keepdims=True))

    return qw / pi_mass.sum(), rows(A, mask_x), rows(C, mask_y)


def _marginal_couplings(pi_mass: np.ndarray):
    """W = X and W = Y as (Q_W, Q_{X|W}, Q_{Y|W}): exactly feasible, with
    I(XY;W) = H(X) and H(Y).  Rows of a zero-mass W symbol are uniform."""
    def given(rows, marg):
        safe = np.where(marg > 0, marg, 1.0)[:, None]
        return np.where(marg[:, None] > 0, rows / safe, 1.0 / rows.shape[1])

    px, py = pi_mass.sum(axis=1), pi_mass.sum(axis=0)
    yield px, np.eye(px.size), given(pi_mass, px)
    yield py, given(pi_mass.T, py), np.eye(py.size)


def _solve_block(pi_mass: np.ndarray, restarts: int, seed: int):
    """(value, Q_W, Q_{X|W}, Q_{Y|W}, residual, restarts used, converged) of
    one connected block.  A rank-1 block, a product coupling within
    ``_FEAS_TOL``, takes the one-symbol coupling with value 0 and no solve."""
    nx, ny = pi_mass.shape
    px, py = pi_mass.sum(axis=1), pi_mass.sum(axis=0)
    residual = 0.5 * np.abs(np.outer(px, py) - pi_mass).sum()
    if residual <= _FEAS_TOL:
        return 0.0, np.ones(1), px[None], py[None], residual, 0, True

    mask_x, mask_y, cell_symbol = _rectangle_layout(pi_mass > 0)
    nw = mask_x.shape[0]
    rng = np.random.default_rng(np.random.SeedSequence([seed, nx, ny, nw]))
    starts = [_logits_for(*_copy_start(pi_mass, mask_x, mask_y, cell_symbol),
                          mask_x, mask_y)]
    while len(starts) < restarts:
        qw0 = rng.dirichlet(np.ones(nw))
        A0 = rng.dirichlet(np.ones(nx), size=nw)
        C0 = rng.dirichlet(np.ones(ny), size=nw)
        starts.append(_logits_for(qw0, A0, C0, mask_x, mask_y))

    best = None
    converged = False
    for z0 in starts:
        z = z0
        for lam in _PENALTY_SCHEDULE:
            res = minimize(_objective_and_grad, z, jac=True, method="L-BFGS-B",
                           args=(pi_mass, mask_x, mask_y, lam),
                           options={"maxiter": 500, "ftol": _OBJ_TOL})
            z = res.x
        qw, A, C = _unpack(z, mask_x, mask_y)
        qw, A, C, residual = _restore_feasibility(qw, A, C, pi_mass)
        if residual > _FEAS_TOL:
            # one more polish from the restored point at a stiffer penalty
            z = _logits_for(qw, A, C, mask_x, mask_y)
            res = minimize(_objective_and_grad, z, jac=True, method="L-BFGS-B",
                           args=(pi_mass, mask_x, mask_y, 1e8),
                           options={"maxiter": 500, "ftol": _OBJ_TOL})
            qw, A, C = _unpack(res.x, mask_x, mask_y)
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
    return value, qw, A, C, residual, len(starts), converged


def wyner_ci(pi: JointPmf, restarts: int = 64, seed: int = 0) -> CiSolution:
    """Multi-start constrained minimization of I(XY;W) subject to the induced
    XY-marginal matching ``pi`` and X, Y conditionally independent given W.

    ``pi`` splits into its common-part blocks (module docstring); C is
    H(K) + sum_k P(k) C(pi_k).  A rank-1 block adds 0 without a solve.  Every
    other block is solved on its rectangle masks: the first start is the
    copy coupling on the masks, and seeded random starts make up the rest of
    the ``restarts``.  The block's couplings W = X and W = Y are scored, not
    optimised: one replaces the optimizer's answer when it is lower by more
    than ``_OBJ_TOL``, so the answer is never above min(H(X), H(Y)).  The
    argmin stacks the symbols of all blocks; ``restarts_used`` counts the
    starts of every solved block.
    """
    if pi.ndim != 2:
        raise ConfigError("wyner_ci needs a 2-axis target joint")
    nx, ny = pi.dims
    blocks = _common_part_blocks(pi.mass > 0)
    masses = [pi.mass[np.ix_(r, c)] for r, c in blocks]
    if len(blocks) == 1:
        # pi's own floats, not renormalised: a full-support joint is solved
        # on exactly the input it was given
        weights = [1.0]
        h_k = 0.0
    else:
        weights = [float(m.sum()) for m in masses]
        masses = [m / w for m, w in zip(masses, weights)]
        h_k = FinitePmf(np.array(weights)).entropy()

    value, residual, used, converged = h_k, 0.0, 0, True
    q_w, q_x, q_y = [], [], []
    for (rows, cols), mass, weight in zip(blocks, masses, weights):
        v, qw, A, C, r, n, ok = _solve_block(mass, restarts, seed)
        value += weight * v
        residual += weight * r
        used += n
        converged = converged and ok
        q_w.append(weight * (qw / qw.sum()))
        q_x.append(np.zeros((qw.size, nx)))
        q_x[-1][:, rows] = A / A.sum(axis=1, keepdims=True)
        q_y.append(np.zeros((qw.size, ny)))
        q_y[-1][:, cols] = C / C.sum(axis=1, keepdims=True)
    argmin = MarkovCoupling(FinitePmf(np.concatenate(q_w)), np.vstack(q_x),
                            np.vstack(q_y))
    return CiSolution(value=value, argmin=argmin, constraint_residual=residual,
                      restarts_used=used, converged=converged)
