"""Wyner common information solver.

Computes C = min I(XY;W) over couplings (Q_W, Q_{X|W}, Q_{Y|W}) whose induced
XY-marginal equals the target joint pi, on the support of pi:

* Common part.  Zero rows and columns drop out, and pi splits into its
  Gacs-Korner blocks, the connected components of the bipartite support
  graph.  The block index K is a function of X and of Y, hence of W for any
  X - W - Y, and W = (K, W_k) is feasible, so C = H(K) + sum_k P(k) C(pi_k).
  A rank-1 block (a single cell among them) has C = 0 and needs no solve.
* Rectangle masks.  A symbol w of a feasible coupling puts mass on
  supp Q_{X|W=w} x supp Q_{Y|W=w}, inside a maximal support rectangle S x T
  of supp(pi_k).  When |S| = 1 or |T| = 1 its symbols share a point-mass row
  and merge into one (H is concave, so merging does not raise I(XY;W));
  otherwise the support lemma inside it leaves |S||T| symbols.  Each symbol
  carries logits only on S and T, so the structural zeros of pi are exact,
  not approached through the penalty; a full-support block is one rectangle
  of |X||Y| symbols, the classical |W| = |X||Y|.

The feasible set is non-convex in this parameterization.  Each remaining
block runs the same four starts, so C is a function of pi alone: the copy
coupling on the masks and its mixtures with the uniform Q_W whose rows are
p_X and p_Y on each symbol's masks, at weights 1/4, 1/2 and 3/4.  Each start
takes a quasi-Newton descent on an exact-penalty objective at each weight
of an increasing schedule, from where the one before ended; at each weight
the four run in lockstep (one ``descent.lbfgsb`` call), and each step
evaluates every start that asks as one row of one batched kernel call at
that weight.  Then, one start after another: an alternating feasibility
restoration that drives the marginal residual below tolerance, one SLSQP
polish (the SLSQP loop ``descent.slsqp``) on the exact feasible set in the
bilinear parameters a_wx = Q_W(w) Q(x|w) and Q(y|w), and a second
restoration, whose coupling is the start's one candidate.  The polish
computes f and the constraint values at every SLSQP point, and g and the
constraint Jacobian, one fixed matrix with its bilinear entries written by
one scatter, only where the core asks for them.  The lowest feasible
candidate is kept, W = X and W = Y are scored beside it, and the answer's
symbols are canonical: negligible weights drop out and equal rows merge, so
the argmin the exponent engine lifts has no duplicates.

Each stage changes some answer (tests/test_ci_solver.py pins them).  Without
the penalty descent a sparse joint reads 1.6e-3 higher, and a 3x3 one 1.1e-5
higher if the raw starts are polished.  Without the first restoration a 3x3
joint reads 1.2e-5 higher.  Without the second another reads 1.6e-4 higher.
Each start is the only best one on some block.  The first restoration's
coupling is no candidate: at a residual near 1e-10 it read up to 1.4e-10
below Wyner's closed form on DSBS(p).

The penalty objective and its gradient are one kernel per solved block,
``_BlockKernel``, evaluated on a batch of logit rows.  Each row's sums run
in the order of the per-term einsum reference in tests/test_ci_solver.py,
whatever the other rows, so each start's value and gradient, and with them
its descent, are those of a solve on that start alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .descent import lbfgsb, slsqp
from .divergences import tv
from .probability import (FinitePmf, JointPmf, MarkovCoupling,
                          mutual_information_mass)

_PENALTY_SCHEDULE = (1e2, 1e4, 1e6)
_FEAS_TOL = 1e-8                         # marginal residual of a feasible result
_RESTORE_TOL = 1e-10                     # residual that ends a restoration
_RESTORE_SWEEPS = 500                    # sweeps per restoration
_OBJ_TOL = 1e-9                          # L-BFGS-B relative objective tolerance
_MAXITER = 500                           # L-BFGS-B iterations per descent
_LOG_FLOOR = 1e-300
_START_MIX = (0.25, 0.5, 0.75)           # weights of U in the mixed starts
_LIVE_WEIGHT = 1e-12                     # Q_W below this is not polished
_POLISH_FTOL = 1e-15                     # SLSQP objective tolerance
_POLISH_MAXITER = 500                    # SLSQP iterations per polish
_MERGE_TOL = 1e-6                        # rows this close are one symbol


@dataclass(frozen=True)
class CiSolution:
    """Best feasible coupling found and its mutual information value (nats).

    ``restarts_used`` is the number of descents run, four per solved block.
    ``converged`` is True when every solved block's answer is a start's
    polished coupling whose closing restoration ended within ``_FEAS_TOL``,
    and False when some block fell back to W = X or W = Y."""

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
    place that knows that layout, on a batch of logit rows (the lockstep
    starts) at one penalty weight.

    The free logits are those of Q_W, then those of Q_{X|W} on ``mask_x``
    and of Q_{Y|W} on ``mask_y`` in row-major order.  The conditionals are
    the rows of one (2|W|, max(|X|, |Y|)) matrix padded with -inf, and
    ``_pos`` holds the flat positions of their logits, so one row softmax
    gives both with a masked entry exactly 0.  Q_W keeps its own vector so
    that no row is padded past max(|X|, |Y|): numpy sums a row of 8 or more
    cells in another order, and the value and gradient would then differ
    in the last bits from those of the unpadded rows.  The contractions are
    einsums, not BLAS products, for the same reason.  The batch is a
    leading axis on every array: each contraction and each reduction runs
    within a row in the einsum reference's order, and the one dot product,
    Q_W against the conditional entropies, is the per-row dot of a batched
    matmul, so a row's floats are those of a one-row batch."""

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

    def _softmax(self, Z):
        """Q_W and the row softmax of the conditional logit matrix of each
        row of ``Z``, both fresh arrays."""
        nw = self._shape[0]
        zw = Z[:, :nw]
        qw = np.exp(zw - zw.max(axis=1, keepdims=True))
        qw /= qw.sum(axis=1, keepdims=True)
        P = np.repeat(self._blank[None], Z.shape[0], axis=0)
        P.reshape(Z.shape[0], -1)[:, self._pos] = Z[:, nw:]
        P -= P.max(axis=2, keepdims=True)
        np.exp(P, out=P)
        P /= P.sum(axis=2, keepdims=True)
        return qw, P

    def unpack(self, z):
        """(Q_W, Q_{X|W}, Q_{Y|W}) of the logits ``z``."""
        nw, nx, ny = self._shape
        qw, P = self._softmax(z[None])
        return qw[0], P[0, :nw, :nx], P[0, nw:, :ny]

    def logits(self, qw, A, C):
        """The free logits of a coupling, floored at 1e-12."""
        nw, nx, ny = self._shape
        M = np.zeros(self._blank.shape)
        M[:nw, :nx] = A
        M[nw:, :ny] = C
        return np.log(np.maximum(np.concatenate((qw, M.take(self._pos))),
                                 1e-12))

    def batch(self, Z, lam):
        """The penalized objective and gradient of each row of ``Z`` at the
        weight ``lam``, as (f, grad) arrays of k and (k, n_logits)."""
        nw, nx, ny = self._shape
        k = Z.shape[0]
        qw, P = self._softmax(Z)
        A, C = P[:, :nw, :nx], P[:, nw:, :ny]
        Q = np.einsum("kw,kwx,kwy->kxy", qw, A, C)
        logP = np.log(np.maximum(P, _LOG_FLOOR))
        ent = (P * logP).sum(axis=2)
        a_ent, c_ent = ent[:, :nw], ent[:, nw:]    # -H(X|W=w), -H(Y|W=w)
        logQ = np.log(np.maximum(Q, _LOG_FLOOR))
        diff = Q - self._pi_mass
        f = (-(Q * logQ).reshape(k, -1).sum(axis=1)
             + np.matmul(qw[:, None], (a_ent + c_ent)[:, :, None])[:, 0, 0]
             + lam * (diff * diff).reshape(k, -1).sum(axis=1))

        # G = df/dQ(x,y); df/dQ_W(w) = sum A C G - H(X|W=w) - H(Y|W=w) and
        # df/dQ(x|w) = qw (C G^T + log A + 1)(w, x), likewise for Y, then
        # the softmax chain rule p * (g - <p, g>) row by row
        G = -(logQ + 1.0) + 2.0 * lam * diff
        g_qw = np.einsum("kxy,kwx,kwy->kw", G, A, C) + a_ent + c_ent
        D = logP                                   # in place, no longer read
        D[:, :nw, :nx] += np.einsum("kxy,kwy->kwx", G, C)
        D[:, nw:, :ny] += np.einsum("kxy,kwx->kwy", G, A)
        D += 1.0
        cond_rows = D.reshape(k, 2, nw, -1)
        cond_rows *= qw[:, None, :, None]
        D -= (P * D).sum(axis=2, keepdims=True)
        D *= P
        g_w = qw * (g_qw - (qw * g_qw).sum(axis=1, keepdims=True))
        return f, np.concatenate((g_w, D.reshape(k, -1)[:, self._pos]),
                                 axis=1)


def _restore_feasibility(qw, A, C, pi_mass):
    """Alternate between fixing the XY-marginal exactly and projecting back to
    conditional independence of X and Y given W."""
    for _ in range(_RESTORE_SWEEPS):
        J = np.einsum("w,wx,wy->wxy", qw, A, C)
        Q = J.sum(axis=0)
        residual = tv(Q, pi_mass)
        if residual <= _RESTORE_TOL:
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
    else:
        J = np.einsum("w,wx,wy->wxy", qw, A, C)
        residual = tv(J.sum(axis=0), pi_mass)
    return qw, A, C, residual


def _coupling_value(qw, A, C) -> float:
    """I(XY;W) of the induced joint, (XY) treated as one super-symbol."""
    J = np.einsum("w,wx,wy->wxy", qw, A, C)
    return mutual_information_mass(J.reshape(qw.shape[0], -1) / J.sum())


def _normalized_rows(r, mask):
    """Each row of ``r`` divided by its sum; a row that sums to 0 is
    uniform on the same row of ``mask``."""
    total = r.sum(axis=1, keepdims=True)
    return np.where(total > 0, r / np.where(total > 0, total, 1.0),
                    mask / mask.sum(axis=1, keepdims=True))


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
    return (qw / pi_mass.sum(), _normalized_rows(A, mask_x),
            _normalized_rows(C, mask_y))


def _marginal_couplings(pi_mass: np.ndarray):
    """W = X and W = Y as (Q_W, Q_{X|W}, Q_{Y|W}): exactly feasible, with
    I(XY;W) = H(X) and H(Y).  Rows of a zero-mass W symbol are uniform."""
    everywhere = np.ones(pi_mass.shape, dtype=bool)
    yield (pi_mass.sum(axis=1), np.eye(pi_mass.shape[0]),
           _normalized_rows(pi_mass, everywhere))
    yield (pi_mass.sum(axis=0), _normalized_rows(pi_mass.T, everywhere.T),
           np.eye(pi_mass.shape[1]))


def _mixed_starts(pi_mass, mask_x, mask_y, cell_symbol):
    """The copy start and its mixtures (1 - t) copy + t U, t = 1/4, 1/2 and
    3/4, with U the uniform Q_W whose rows are p_X and p_Y restricted to
    each symbol's masks and renormalised; every symbol of a mixture has
    positive weight."""
    copy = _copy_start(pi_mass, mask_x, mask_y, cell_symbol)
    uniform = (np.full(mask_x.shape[0], 1.0 / mask_x.shape[0]),
               _normalized_rows(mask_x * pi_mass.sum(axis=1), mask_x),
               _normalized_rows(mask_y * pi_mass.sum(axis=0), mask_y))
    yield copy
    for t in _START_MIX:
        yield tuple((1.0 - t) * c + t * u for c, u in zip(copy, uniform))


def _polish(qw, A, C, pi_mass, mask_x, mask_y):
    """One SLSQP solve on the exact feasible set from (Q_W, Q_{X|W},
    Q_{Y|W}), over the symbols with Q_W > ``_LIVE_WEIGHT``.

    The variables are a_wx = Q_W(w) Q(x|w) on the symbol's X mask and
    c_wy = Q(y|w) on its Y mask.  Since H(Q_XY) = H(pi) on the
    feasible set, it minimises -H(XY|W) = sum a log(a / q) + sum_w q_w
    sum_y c log c, q_w = sum_x a_wx, subject to sum_w a_wx c_wy = pi(x, y)
    on supp pi and sum_y c_wy = 1, with the analytic gradient and
    constraint Jacobian.  A values pass at each SLSQP point computes f and
    the constraints from one log over the variables; the gradients pass,
    run where the core asks, reuses that pass's logs.  Returns the coupling
    of the final iterate; its residual is for the caller to check."""
    live = qw > _LIVE_WEIGHT
    a0 = qw[live, None] * A[live]
    c0 = C[live]
    aw, ax = np.nonzero(mask_x[live])
    cw, cy = np.nonzero(mask_y[live])
    sx, sy = np.nonzero(pi_mass > 0)
    target = pi_mass[sx, sy]
    na, nw, ns = aw.size, c0.shape[0], sx.size
    # the bilinear Jacobian entries: d/da_wx of sum_w a_wx c_wy at the cell
    # (x, y) is c_wy and d/dc_wy is a_wx, one pair for each symbol w that
    # has both variables, each entry one variable v[src].  The rows
    # sum_y c_wy = 1 are constant.
    a_index = np.full(a0.shape, -1)
    a_index[aw, ax] = np.arange(na)
    c_index = np.full(c0.shape, -1)
    c_index[cw, cy] = na + np.arange(cw.size)
    w, cell = np.nonzero((a_index[:, sx] >= 0) & (c_index[:, sy] >= 0))
    ia, ic = a_index[w, sx[cell]], c_index[w, sy[cell]]
    rows = np.concatenate((cell, cell))
    cols = np.concatenate((ia, ic))
    src = np.concatenate((ic, ia))
    J = np.zeros((ns + nw, na + cw.size))
    J[ns:, na:] = np.arange(nw)[:, None] == cw[None, :]

    # the values pass writes the dense a and c in place and keeps q, the
    # logs and the per-symbol sums for the gradients pass at its point
    a, c = np.zeros(a0.shape), np.zeros(c0.shape)
    point = None

    def dense(v):
        a[aw, ax] = v[:na]
        c[cw, cy] = v[na:]

    def values(v):
        nonlocal point
        dense(v)
        q = np.bincount(aw, weights=v[:na], minlength=nw)
        lv = np.log(np.maximum(v, _LOG_FLOOR))
        la, lc = lv[:na], lv[na:]
        lq = np.log(np.maximum(q, _LOG_FLOOR))
        hc = np.bincount(cw, weights=v[na:] * lc, minlength=nw)
        point = q, la, lc, lq, hc
        f = v[:na] @ la - q @ lq + q @ hc
        return float(f), np.concatenate(((a.T @ c)[sx, sy] - target,
                                         c.sum(axis=1) - 1.0))

    def gradients(v):
        q, la, lc, lq, hc = point
        J[rows, cols] = v[src]
        return np.concatenate((la - lq[aw] + hc[aw], q[cw] * (lc + 1.0))), J

    x, _, _, _ = slsqp(values, gradients,
                       np.concatenate((a0[aw, ax], c0[cw, cy])), (0.0, 1.0),
                       maxiter=_POLISH_MAXITER, ftol=_POLISH_FTOL)
    dense(np.clip(x, 0.0, 1.0))
    q, c_sum = a.sum(axis=1), c.sum(axis=1)
    keep = (q > 0) & (c_sum > 0)
    return (q[keep] / q[keep].sum(), a[keep] / q[keep, None],
            c[keep] / c_sum[keep, None])


def _canonical(qw, A, C):
    """The coupling without symbols of weight at most ``_LIVE_WEIGHT``, and
    with symbols whose conditional rows agree within ``_MERGE_TOL`` merged:
    their weights add and their rows average by weight, which leaves
    I(XY;W) as it is."""
    out = []
    for w in np.flatnonzero(qw > _LIVE_WEIGHT):
        for m in out:
            if (np.abs(A[w] - m[1]).max() <= _MERGE_TOL
                    and np.abs(C[w] - m[2]).max() <= _MERGE_TOL):
                total = m[0] + qw[w]
                m[1] = (m[0] * m[1] + qw[w] * A[w]) / total
                m[2] = (m[0] * m[2] + qw[w] * C[w]) / total
                m[0] = total
                break
        else:
            out.append([qw[w], A[w].copy(), C[w].copy()])
    qw, A, C = (np.array(v) for v in zip(*out))
    return qw / qw.sum(), A, C


def _solve_block(pi_mass: np.ndarray):
    """(value, Q_W, Q_{X|W}, Q_{Y|W}, residual, descents run, converged) of
    one connected block.  A rank-1 block, a product coupling within
    ``_FEAS_TOL``, takes the one-symbol coupling with value 0 and no solve."""
    px, py = pi_mass.sum(axis=1), pi_mass.sum(axis=0)
    residual = tv(np.outer(px, py), pi_mass)
    if residual <= _FEAS_TOL:
        return 0.0, np.ones(1), px[None], py[None], residual, 0, True

    mask_x, mask_y, cell_symbol = _rectangle_layout(pi_mass > 0)
    kernel = _BlockKernel(pi_mass, mask_x, mask_y)
    zs = [kernel.logits(*start) for start in
          _mixed_starts(pi_mass, mask_x, mask_y, cell_symbol)]
    for lam in _PENALTY_SCHEDULE:
        zs = [z for z, _, _ in lbfgsb(
            lambda rows: kernel.batch(np.array(rows), lam), zs,
            maxiter=_MAXITER, ftol=_OBJ_TOL)]
    best = None
    for z in zs:
        qw, A, C, _ = _restore_feasibility(*kernel.unpack(z), pi_mass)
        qw, A, C, residual = _restore_feasibility(
            *_polish(qw, A, C, pi_mass, mask_x, mask_y), pi_mass)
        if residual <= _FEAS_TOL:
            value = _coupling_value(qw, A, C)
            if best is None or value < best[0]:
                best = (value, qw, A, C)
    converged = best is not None

    for qw, A, C in _marginal_couplings(pi_mass):
        value = _coupling_value(qw, A, C)
        # exactly feasible, so the answer when no descent ended feasible
        if best is None or value < best[0] - _OBJ_TOL:
            best = (value, qw, A, C)
            converged = False

    qw, A, C = _canonical(*best[1:])
    residual = tv(np.einsum("w,wx,wy->xy", qw, A, C), pi_mass)
    return (_coupling_value(qw, A, C), qw, A, C, residual, len(zs),
            converged)


def wyner_ci(pi: JointPmf) -> CiSolution:
    """Constrained minimization of I(XY;W) subject to the induced XY-marginal
    matching ``pi`` and X, Y conditionally independent given W; a function
    of ``pi`` alone.

    C is H(K) + sum_k P(k) C(pi_k) over the common-part blocks, each solved
    as the module docstring says.  The block's couplings W = X and W = Y
    are scored, not optimised: one replaces the starts' answer when it is
    lower by more than ``_OBJ_TOL`` or when no start ended feasible, so the
    answer is never above min(H(X), H(Y)).  The argmin stacks the canonical
    symbols of all blocks.
    """
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
        v, qw, A, C, r, n, ok = _solve_block(mass)
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
