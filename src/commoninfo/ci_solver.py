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
block runs a deterministic multi-start quasi-Newton descent (the L-BFGS-B
driver ``descent.lbfgsb``) on an exact-penalty objective with an increasing
weight schedule, followed by an alternating feasibility restoration that
drives the marginal residual below tolerance.  The objective and its
gradient are one kernel per solved block, ``_BlockKernel``, built once from
the block's masks: Q_{X|W} and Q_{Y|W} are the rows of one -inf-padded
matrix at fixed flat positions, so one row softmax gives both, one
contraction Q_XY, two contractions with dI/dQ_XY the conditional gradients,
and one chain-rule pass and one gather the gradient in their free logits.
Every sum runs in the order of a per-term evaluation (the einsum reference
in tests/test_ci_solver.py), so the value and gradient match it bit for bit
and the descent takes the same path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .descent import lbfgsb
from .errors import ConfigError
from .probability import (FinitePmf, JointPmf, MarkovCoupling,
                          mutual_information_mass)

_PENALTY_SCHEDULE = (1e2, 1e4, 1e6)
_FEAS_TOL = 1e-8                         # marginal residual of a feasible result
_OBJ_TOL = 1e-9                          # L-BFGS-B relative objective tolerance
_MAXITER = 500                           # L-BFGS-B iterations per descent
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


class _BlockKernel:
    """The penalty objective of one block on its logit layout, the only
    place that knows that layout.

    The free logits are those of Q_W, then those of Q_{X|W} on ``mask_x``
    and of Q_{Y|W} on ``mask_y`` in row-major order.  The conditionals are
    the rows of one (2|W|, max(|X|, |Y|)) matrix padded with -inf, and
    ``_pos`` holds the flat positions of their logits, so one row softmax
    gives both with a masked entry exactly 0.  Q_W keeps its own vector so
    that no row is padded past max(|X|, |Y|): numpy sums a row of 8 or more
    cells in another order, and the value and gradient would then differ
    in the last bits from those of the unpadded rows.  The contractions are
    einsums, not BLAS products, for the same reason."""

    def __init__(self, pi_mass, mask_x, mask_y):
        nw, nx = mask_x.shape
        ny = mask_y.shape[1]
        free = np.zeros((2 * nw, max(nx, ny)), dtype=bool)
        free[:nw, :nx] = mask_x
        free[nw:, :ny] = mask_y
        self._pos = np.flatnonzero(free)
        self.n_logits = nw + self._pos.size
        self._pi_mass = pi_mass
        self._blank = np.where(free, 0.0, -np.inf)
        self._shape = (nw, nx, ny)

    def _softmax(self, z):
        """Q_W and the row softmax of the conditional logit matrix, both
        fresh arrays."""
        nw = self._shape[0]
        zw = z[:nw]
        qw = np.exp(zw - zw.max())
        qw /= qw.sum()
        P = self._blank.copy()
        P.put(self._pos, z[nw:])
        P -= P.max(axis=1, keepdims=True)
        np.exp(P, out=P)
        P /= P.sum(axis=1, keepdims=True)
        return qw, P

    def unpack(self, z):
        """(Q_W, Q_{X|W}, Q_{Y|W}) of the logits ``z``."""
        nw, nx, ny = self._shape
        qw, P = self._softmax(z)
        return qw, P[:nw, :nx], P[nw:, :ny]

    def logits(self, qw, A, C):
        """The free logits of a coupling, floored at 1e-12."""
        nw, nx, ny = self._shape
        M = np.zeros(self._blank.shape)
        M[:nw, :nx] = A
        M[nw:, :ny] = C
        return np.log(np.maximum(np.concatenate((qw, M.take(self._pos))),
                                 1e-12))

    def __call__(self, z, lam):
        """Penalized objective I(XY;W) + lam * ||Q_XY - pi||^2 with its
        gradient in the free logits."""
        nw, nx, ny = self._shape
        qw, P = self._softmax(z)
        A, C = P[:nw, :nx], P[nw:, :ny]
        Q = np.einsum("w,wx,wy->xy", qw, A, C)
        logP = np.log(np.maximum(P, _LOG_FLOOR))
        ent = (P * logP).sum(axis=1)
        a_ent, c_ent = ent[:nw], ent[nw:]          # -H(X|W=w), -H(Y|W=w)
        logQ = np.log(np.maximum(Q, _LOG_FLOOR))
        diff = Q - self._pi_mass
        f = float(-(Q * logQ).sum() + qw @ (a_ent + c_ent)
                  + lam * (diff * diff).sum())

        # G = df/dQ(x,y); df/dQ_W(w) = sum A C G - H(X|W=w) - H(Y|W=w) and
        # df/dQ(x|w) = qw (C G^T + log A + 1)(w, x), likewise for Y, then
        # the softmax chain rule p * (g - <p, g>) row by row
        G = -(logQ + 1.0) + 2.0 * lam * diff
        g_qw = np.einsum("xy,wx,wy->w", G, A, C) + a_ent + c_ent
        D = logP                                   # in place, no longer read
        D[:nw, :nx] += np.einsum("xy,wy->wx", G, C)
        D[nw:, :ny] += np.einsum("xy,wx->wy", G, A)
        D += 1.0
        cond_rows = D.reshape(2, nw, -1)
        cond_rows *= qw[:, None]
        D -= (P * D).sum(axis=1, keepdims=True)
        D *= P
        return f, np.concatenate((qw * (g_qw - (qw * g_qw).sum()),
                                  D.take(self._pos)))


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
    return mutual_information_mass(J.reshape(qw.shape[0], -1) / J.sum())


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
    kernel = _BlockKernel(pi_mass, mask_x, mask_y)
    rng = np.random.default_rng(np.random.SeedSequence([seed, nx, ny, nw]))
    starts = [kernel.logits(*_copy_start(pi_mass, mask_x, mask_y,
                                         cell_symbol))]
    while len(starts) < restarts:
        qw0 = rng.dirichlet(np.ones(nw))
        A0 = rng.dirichlet(np.ones(nx), size=nw)
        C0 = rng.dirichlet(np.ones(ny), size=nw)
        starts.append(kernel.logits(qw0, A0, C0))

    best = None
    converged = False
    for z0 in starts:
        z = z0
        for lam in _PENALTY_SCHEDULE:
            z, _, _ = lbfgsb(kernel, z, (lam,), maxiter=_MAXITER,
                             ftol=_OBJ_TOL)
        qw, A, C = kernel.unpack(z)
        qw, A, C, residual = _restore_feasibility(qw, A, C, pi_mass)
        if residual > _FEAS_TOL:
            # one more polish from the restored point at a stiffer penalty
            z, _, _ = lbfgsb(kernel, kernel.logits(qw, A, C), (1e8,),
                             maxiter=_MAXITER, ftol=_OBJ_TOL)
            qw, A, C = kernel.unpack(z)
            qw, A, C, residual = _restore_feasibility(qw, A, C, pi_mass)
        value = _coupling_value(qw, A, C)
        feasible = residual <= _FEAS_TOL
        converged = converged or feasible
        key = (not feasible, value)  # feasible solutions first, then by value
        if best is None or key < best[0]:
            best = (key, value, qw, A, C, residual)

    for qw, A, C in _marginal_couplings(pi_mass):
        value = _coupling_value(qw, A, C)
        # exactly feasible, so ahead of a rejected start at any value
        if best[0][0] or value < best[1] - _OBJ_TOL:
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
    than ``_OBJ_TOL`` or when every start was rejected as infeasible, so the
    answer is never above min(H(X), H(Y)).  The argmin stacks the symbols of
    all blocks; ``restarts_used`` counts the starts of every solved block.
    """
    if pi.ndim != 2:
        raise ConfigError("wyner_ci needs a 2-axis target joint")
    if restarts < 1:
        raise ConfigError(f"wyner_ci needs restarts >= 1, got {restarts}")
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
