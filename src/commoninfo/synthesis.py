"""Truncated-typical distributed source synthesis codes.

Builds the constructive code: codewords W^n drawn from the product law
truncated to the eps'-typical set, and coordinates X^n, Y^n drawn from the
conditional product laws truncated to conditional eps-typical shells.  Exact
induced joints at tiny block lengths, Monte-Carlo estimators beyond, and
verifiers for the one-shot achievability bound, the truncation domination
chain, and the single-letter rate bound.

One object, ``_CondLaw``, is the truncated product law: the codeword law
(Q_W^n truncated to the eps'-typical set, a one-row conditional given the
constant sequence 0^n) and the conditional laws of X^n and Y^n given a
codeword.  It is built afresh for each call, at that call's block length,
and takes its count windows and shell-mass table from one typicality call
when it is made.  It evaluates the law for a whole block of codewords at
once, reading both the product law and the shell test off the joint count
matrices N_ab(w^n, x^n) (exact float32 products), and tests a count window
only where it can bind, so a law where none binds builds no mask; its
normalizers (the shell masses) are read exactly, in one gather, off that
table of per-symbol block masses.  It samples the law by rejection, in
rounds that draw one candidate per pending row and test every candidate
against the same count windows.

The induced law P(x^n, y^n) = (1/m) sum_w c_w P(x^n|w) P(y^n|w) is
evaluated over the distinct codewords w, in order of first occurrence,
weighted by their multiplicities c_w; their one-hot block and shell masses
are built once per call.  The dense induced joint is capped by
``MAX_JOINT_CELLS``.  The exact order-2 divergence of an untruncated code
builds no joint: it contracts the |W|^n tensor of codeword counts, which
has its own budget (|W|^n entries within ``MAX_JOINT_CELLS``), so it also
serves past the dense cap (dsbs01 at n = 12 and m = 6072: 0.15 ms of
process time on one core of a 2-core Xeon, where the Monte-Carlo estimate
took 25 ms).  At sampled pairs the shell test runs before the density: in
each sample chunk of at most about ``_CHUNK_CELLS`` (distinct codeword,
sample) cells, X's count windows and then Y's, on the codewords X left,
narrow the chunk to the pairs inside both shells, and only those take the
product (both laws sharing the block's one-hot), the exp and the weighted
sum; every other sample reads 0.

The truncation and rate-bound checks are exchangeable in (w^n, x^n, y^n), so
they sum over the (w, x, y) joint types admitted by the windows, each
weighted by its multinomial count; ``typicality.MAX_TYPES`` caps the number
of joint types the windows keep and the candidate count tables of each
W-symbol.  Randomness uses counter-based Philox streams keyed
by (seed, stream label) so results do not depend on scheduling.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .errors import ConfigError, DomainError, ResourceBudgetError, SamplingError
from .probability import (FinitePmf, JointPmf, MarkovCoupling, _validated_rows,
                          coupling_information, induced_joint)
from .divergences import renyi, tv
from . import typicality as typ

MAX_JOINT_CELLS = 2 ** 22
MAX_CODEWORDS = 2 ** 14
MAX_REJECTION_TRIES = 200_000


def _m_count(n: int, rate: float) -> int | None:
    """ceil(e^{nR}), the codeword count of rate R at block length n, or None
    when e^{nR} is past a float or NaN."""
    try:
        return int(math.ceil(math.exp(n * rate) - 1e-9))
    except (OverflowError, ValueError):
        return None


def _rng(seed, *stream) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence([int(seed) & 0xFFFFFFFFFFFFFFFF, *stream])))


@dataclass(frozen=True)
class SynthesisCode:
    """A sampled codebook of truncated-typical W-sequences: ceil(e^{nR})
    codewords of length n, so n and the codeword count m are read off the
    codebook's shape."""

    rate: float
    codebook: np.ndarray                 # (m_count, n) int
    base: MarkovCoupling
    eps: float | None                    # None: untruncated conditionals
    eps_prime: float | None              # None: untruncated codeword law
    seed: int

    def __post_init__(self):
        typ.check_truncation(self.eps, self.eps_prime)
        if self.rate < 0:                # NaN fails the count rule below
            raise ConfigError("rate must be nonnegative")
        book = np.asarray(self.codebook)
        if (book.ndim != 2 or not np.issubdtype(book.dtype, np.integer)
                or book.shape[1] < 1
                or book.shape[0] != _m_count(book.shape[1], self.rate)):
            raise ConfigError(f"codebook of shape {book.shape} is not an "
                              f"integer array of ceil(e^(nR)) rows, n >= 1")
        if (np.any((book < 0) | (book >= self.base.nw))
                or np.any(self.base.q_w.mass[book] == 0)):
            raise ConfigError("codebook uses a symbol outside supp(Q_W)")
        object.__setattr__(self, "codebook", book)

    @property
    def n(self) -> int:
        return self.codebook.shape[1]

    @property
    def m_count(self) -> int:
        return self.codebook.shape[0]


@dataclass(frozen=True)
class DivergenceEstimate:
    point: float
    std_error: float
    method: str                          # "exact" | "monte_carlo"
    samples: int
    seed: int
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# the truncated product law and the codebook
# ---------------------------------------------------------------------------

def _masked_log(p) -> np.ndarray:
    """log p with log 0 read as 0.  Callers multiply it only by counts that
    the typicality windows (or an explicit zero test) keep at 0 wherever
    p = 0, so no 0 * (-inf) is ever formed."""
    p = np.asarray(p, dtype=float)
    return np.log(np.where(p > 0, p, 1.0))


class _Block:
    """A block of u codewords of length n, read once: the (u, |W| n)
    one-hot, column a n + i set where w_i = a, and ``k_max[a]``, the largest
    count of symbol a over the block.  The one-hot is float32, its only
    copy: a product of its 0/1 entries with a 0/1 matrix counts at most n,
    exact in float32 below 2^24, and numpy upcasts it to float64, exactly,
    for the product with float64 log terms."""

    def __init__(self, ws: np.ndarray, nw: int):
        self.n = ws.shape[1]
        self.hot = np.hstack([ws == a for a in range(nw)]).astype(np.float32)
        self.k_max = self.hot.reshape(ws.shape[0], nw, self.n).sum(
            axis=2).max(axis=0)


def _and_into(ok, test: np.ndarray) -> np.ndarray:
    """``test`` as the mask when there is none yet, else anded into ``ok``."""
    if ok is None:
        return test
    ok &= test
    return ok


def _distinct(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct rows of an integer matrix in order of first occurrence,
    how often each occurs, and the index of every row's distinct row; one
    stable lexicographic sort."""
    order = np.lexsort(rows.T[::-1])
    srt = rows[order]
    new = np.ones(rows.shape[0], dtype=bool)
    new[1:] = np.any(srt[1:] != srt[:-1], axis=1)
    start = np.flatnonzero(new)
    keep = np.argsort(order[start])      # sorted groups, by first occurrence
    rank = np.empty_like(keep)
    rank[keep] = np.arange(keep.size)
    inverse = np.empty(rows.shape[0], dtype=int)
    inverse[order] = rank[np.cumsum(new) - 1]
    mult = np.diff(np.append(start, rows.shape[0]))
    return rows[order[start[keep]]], mult[keep], inverse


class _CondLaw:
    """Q_{X|W}^n(. | w^n) (axis "X") or Q_{Y|W}^n(. | w^n) (axis "Y") at
    block length n, truncated to the conditional eps-typical shell of w^n
    and renormalised; ``eps=None`` leaves it untruncated.  Axis "W" is the
    codeword law Q_W^n truncated to the eps-typical set: a one-row
    conditional, Q_W given the constant sequence 0^n, whose count windows
    are ``typicality.count_windows(Q_W, n, eps)``.

    The law is evaluated for a whole block of codewords at once from the
    joint counts N_ab(w^n, x^n), which give both log prod_i Q(x_i|w_i) and
    the shell test.  The shell mass factors over the W-symbols,
    Z(w^n) = prod_a z_a(k_a) with k the type of w^n.  The per-(w, x) count
    bounds ``lo``, ``hi`` and the (|W|, n+1) table ``log_z`` of log z_a(k),
    k = 0..n, are built once, by one ``typicality.cond_shell`` call;
    untruncated, only hi = 0 at structural zeros, and every z_a(k) = 1."""

    def __init__(self, base: MarkovCoupling, eps: float | None, axis: str,
                 n: int):
        if axis == "W":
            self.q_w, self.cond = FinitePmf([1.0]), base.q_w.mass[None, :]
        else:
            self.q_w = base.q_w
            self.cond = base.q_x_given_w if axis == "X" else base.q_y_given_w
        self.log_cond = _masked_log(self.cond)
        # the cdf Generator.choice draws from: normalised, so no symbol
        # past the alphabet is drawn when a row sums to just below 1
        self.cdf = self.cond.cumsum(axis=1)
        self.cdf /= self.cdf[:, -1:]
        self.axis = axis
        if eps is None:
            self.lo = np.zeros(self.cond.shape, dtype=int)
            self.hi = np.where(self.cond > 0, n, 0)
            self.log_z = np.zeros((self.cond.shape[0], n + 1))
        else:
            self.lo, self.hi, self.log_z = typ.cond_shell(self.q_w, self.cond,
                                                          n, eps)

    def _normalizers(self, ws: np.ndarray) -> np.ndarray:
        """Z(w^n) = prod_a z_a(k_a) of every row of ``ws``, k its type: one
        gather from the table; raises if some shell is empty."""
        nw = self.cond.shape[0]
        counts = np.stack([(ws == a).sum(axis=1) for a in range(nw)], axis=1)
        z = np.exp(self.log_z[np.arange(nw), counts].sum(axis=1))
        empty = np.flatnonzero(z <= 0.0)
        if empty.size:
            if self.axis == "W":
                raise DomainError("empty eps'-typical W set at this n")
            raise DomainError(
                f"empty conditional typical shell for {self.axis} given "
                f"w^n = {ws[empty[0]].tolist()} (structural zero at this n)")
        return z

    def log_terms(self, seqs: np.ndarray) -> np.ndarray:
        """The (|W| n, S) matrix of log Q(s_i | a), row a n + i, for every
        row s of ``seqs``: a codeword block's one-hot times it is
        log prod_i Q(s_i | w_i)."""
        return self.log_cond[:, seqs.T].reshape(-1, seqs.shape[0])

    def window_mask(self, block: _Block, seqs: np.ndarray, ok=None):
        """The shell test of every row of ``seqs`` given every codeword of
        ``block``, anded into ``ok``, a (u, S) boolean matrix or None (no
        test yet).  A count window (a, b) is tested only where it can bind,
        lo > 0 or hi below the block's largest k_a, since N_ab <= k_a; its
        counts N_ab for every pair are one float32 product of the block's
        a-columns, exact since N_ab <= n < 2^24.  The first binding test
        becomes the mask; when no window binds, ``ok`` comes back as it
        came, so an untruncated law without structural zeros makes no mask
        and its callers no masking pass.  Every window's counts go to one
        buffer: a fresh (u, S) matrix per window cost page faults that took
        longer than the product."""
        n, lo, hi = block.n, self.lo, self.hi
        c = None
        for a, b in zip(*np.nonzero((lo > 0) | (hi < block.k_max[:, None]))):
            c = np.matmul(block.hot[:, a * n:(a + 1) * n], (seqs == b).T,
                          out=c)
            if lo[a, b] > 0:
                ok = _and_into(ok, c >= int(lo[a, b]))
            if hi[a, b] < block.k_max[a]:
                ok = _and_into(ok, c <= int(hi[a, b]))
        return ok

    def density(self, w_seqs: np.ndarray, seqs: np.ndarray) -> np.ndarray:
        """The law at every row of ``seqs`` given every codeword of
        ``w_seqs`` (one sequence or an (m, n) block), as an (m, S) matrix;
        raises if the shell of some codeword is empty."""
        ws = np.atleast_2d(w_seqs)
        z = self._normalizers(ws)
        block = _Block(ws, self.cond.shape[0])
        p = block.hot @ self.log_terms(seqs)
        np.exp(p, out=p)
        ok = self.window_mask(block, seqs)
        if ok is not None:
            p *= ok
        p /= z[:, None]
        return p

    def sample(self, rng: np.random.Generator, w_seqs: np.ndarray) -> np.ndarray:
        """One draw of the law given every row of ``w_seqs``, an (m, n)
        block, by rejection.  Each round draws one candidate per pending row,
        symbol by symbol as ``Generator.choice`` does, and tests it against
        the count windows ``density`` uses.  The accepted candidates fill the
        earliest pending rows that have the same conditioning sequence, in
        draw order, so rows that share one (every codeword) are the first
        accepted draws of one stream.  A row still pending after
        ``MAX_REJECTION_TRIES`` rounds raises ``SamplingError``; a row whose
        shell is empty raises ``DomainError`` before the first round."""
        ws = np.asarray(w_seqs, dtype=int)
        nw, nx = self.cond.shape
        z = self._normalizers(ws)
        group = _distinct(ws)[2]
        out = np.empty_like(ws)
        pending = np.arange(ws.shape[0])
        for _ in range(MAX_REJECTION_TRIES):
            if pending.size == 0:
                break
            w = ws[pending]
            cand = (rng.random(w.shape)[..., None] >= self.cdf[w]).sum(axis=-1)
            cells = (np.arange(pending.size)[:, None] * nw + w) * nx + cand
            counts = np.bincount(cells.ravel(), minlength=pending.size * nw * nx)
            counts = counts.reshape(-1, nw, nx)
            ok = np.all((counts >= self.lo) & (counts <= self.hi), axis=(1, 2))
            # pending rows by group, each group in draw order
            order = np.argsort(group[pending], kind="stable")
            g = group[pending][order]
            rank = np.arange(g.size) - np.searchsorted(g, g)
            fill = rank < np.bincount(g[ok[order]], minlength=g[-1] + 1)[g]
            out[pending[order][fill]] = cand[order][ok[order]]
            pending = np.sort(pending[order][~fill])
        if pending.size:
            raise SamplingError(
                f"row {pending[0]}: no {self.axis}^n in its shell after "
                f"{MAX_REJECTION_TRIES} tries (exact acceptance probability "
                f"{z[pending[0]]:.3e})")
        return out


def build_code(base: MarkovCoupling, n: int, R: float, eps: float | None,
               eps_prime: float | None, seed: int) -> SynthesisCode:
    """Sample ceil(e^{nR}) independent codewords from Q_W^n truncated to the
    eps'-typical set (``eps_prime=None``: untruncated)."""
    if not R >= 0:
        raise ConfigError("rate must be nonnegative")
    if n < 1:
        raise ConfigError("block length must be >= 1")
    typ.check_truncation(eps, eps_prime)
    m = _m_count(n, R)
    if m is None or m > MAX_CODEWORDS:
        raise ResourceBudgetError(f"m_count ceil(e^{n * R:.6g}) exceeds cap "
                                  f"{MAX_CODEWORDS}")
    codebook = _CondLaw(base, eps_prime, "W", n).sample(
        _rng(seed, 0), np.zeros((m, n), dtype=int))
    return SynthesisCode(rate=R, codebook=codebook, base=base, eps=eps,
                         eps_prime=eps_prime, seed=seed)


# ---------------------------------------------------------------------------
# exact machinery
# ---------------------------------------------------------------------------

def _all_seqs(k: int, n: int) -> np.ndarray:
    return np.array(list(itertools.product(range(k), repeat=n)), dtype=int)


@dataclass(frozen=True)
class InducedJointExact:
    """The dense induced joint P(x^n, y^n), its rows and columns the
    X- and Y-sequences in the lexicographic order of ``_all_seqs``."""

    mass: np.ndarray                     # (|X|^n, |Y|^n)


def _dense_fits(code: SynthesisCode) -> bool:
    """Whether the dense joint fits: ``induced_joint_exact`` stays within
    ``MAX_JOINT_CELLS`` and ``MAX_CODEWORDS``.  It gates that joint alone;
    ``_renyi2_from_counts`` sizes its |W|^n tensor by its own test."""
    cells = float(code.base.nx) ** code.n * float(code.base.ny) ** code.n
    return cells <= MAX_JOINT_CELLS and code.m_count <= MAX_CODEWORDS


def induced_joint_exact(code: SynthesisCode) -> InducedJointExact:
    """P(x^n, y^n) = (1/m) sum_w c_w P(x^n|w) P(y^n|w), dense, over the
    distinct codewords w with multiplicities c_w: each law is one block
    over them, and the Y-rows are scaled by c_w."""
    base, n = code.base, code.n
    if not _dense_fits(code):
        raise ResourceBudgetError(
            f"{float(base.nx * base.ny) ** n:.3g} cells or {code.m_count} "
            f"codewords exceed cap {MAX_JOINT_CELLS} or {MAX_CODEWORDS}")
    ws, mult, _ = _distinct(code.codebook)
    px = _CondLaw(base, code.eps, "X", n).density(ws, _all_seqs(base.nx, n))
    py = _CondLaw(base, code.eps, "Y", n).density(ws, _all_seqs(base.ny, n))
    py *= mult[:, None]
    return InducedJointExact(mass=px.T @ py / code.m_count)


def _renyi2_from_counts(code: SynthesisCode) -> float | None:
    """D_2(P || pi^n) of an untruncated code, log(c^T K^{(x)n} c / m^2): c the
    |W|^n tensor of codeword counts, K(a, b) = sum_{x,y} Q(x|a) Q(y|a) Q(x|b)
    Q(y|b) / pi(x, y), scaled to a largest entry of 1.  Its own budget: None
    (the dense or Monte-Carlo path) when the tensor would pass
    ``MAX_JOINT_CELLS`` entries or the code ``MAX_CODEWORDS`` codewords, and
    unless |W| <= |X||Y| and the rows of Q_{X|W} and Q_{Y|W} of each W-symbol
    in supp Q_W are positive on supp pi_X and supp pi_Y: P > 0 on supp pi^n."""
    base, n = code.base, code.n
    nw = base.nw
    if float(nw) ** n > MAX_JOINT_CELLS or code.m_count > MAX_CODEWORDS:
        return None
    qx, qy = base.q_x_given_w, base.q_y_given_w
    pi = base.xy_marginal().mass
    live = base.q_w.mass > 0
    if (nw > base.nx * base.ny
            or np.any((qx[live] == 0) & (pi.sum(axis=1) > 0))
            or np.any((qy[live] == 0) & (pi.sum(axis=0) > 0))):
        return None
    f = (qx[:, :, None] * qy[:, None, :]).reshape(nw, -1)
    kern = (f / np.where(pi > 0, pi, np.inf).ravel()) @ f.T
    top = kern.max()
    kern /= top
    # the tensor kept flat, position 0 leading: no array of n axes
    counts = np.bincount(code.codebook @ nw ** np.arange(n - 1, -1, -1),
                         minlength=nw ** n).astype(float)
    v = counts
    for _ in range(n):                   # each step moves its axis last
        v = np.dot(v.reshape(nw, -1).T, kern)
    return max(n * math.log(top) + math.log(float(np.vdot(counts, v)))
               - 2.0 * math.log(code.m_count), 0.0)


#: cells of one (distinct codeword x sample) block of induced-law values,
#: the size of one sample chunk of ``_pointwise_p``
_CHUNK_CELLS = 2 ** 20


def _induced_laws(code: SynthesisCode):
    """(law X, law Y, the u distinct codewords w, c_w / (m Z_X(w) Z_Y(w)))
    of ``code``, c_w the multiplicity of w; the first codeword in codebook
    order with an empty shell, X's before Y's, raises ``DomainError``."""
    law_x = _CondLaw(code.base, code.eps, "X", code.n)
    law_y = _CondLaw(code.base, code.eps, "Y", code.n)
    ws, mult, _ = _distinct(code.codebook)
    return law_x, law_y, ws, mult / (code.m_count * law_x._normalizers(ws)
                                     * law_y._normalizers(ws))


def _pointwise_p(laws, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Induced P at sampled pairs (rows of x, y), one kernel over the u
    distinct codewords of ``laws`` (``_induced_laws``), whose one-hot block
    is built once per call.  Each sample chunk of at most about
    ``_CHUNK_CELLS`` (distinct codeword x sample) cells takes the shell test
    before the density: X's binding windows (exact float32 count products)
    first, then the codewords and samples with no admitted pair are
    dropped, then Y's windows run on a block of the surviving codewords,
    which tests only the windows that bind on them, and the survivors are
    narrowed again.  Only the pairs left take the product for
    log P(x|w) P(y|w), both laws sharing the float32 one-hot, one exp, the
    mask and one sum weighted by c_w / (m Z_X(w) Z_Y(w)); every other sample
    reads 0, and a chunk with no survivor does no dense work.  Memory stays
    flat in m and the sample count.  A law with no binding window, as an
    untruncated law without structural zeros, builds no mask and narrows
    nothing."""
    law_x, law_y, ws, weight = laws
    nw, u = law_x.cond.shape[0], ws.shape[0]
    block = _Block(ws, nw)
    step = max(1, _CHUNK_CELLS // u)
    vals = np.zeros(x.shape[0])
    for i in range(0, x.shape[0], step):
        at, rows = np.arange(i, min(i + step, x.shape[0])), np.arange(u)
        sub, ok = block, None
        for law, seqs in ((law_x, x), (law_y, y)):
            ok = law.window_mask(sub, seqs[at], ok)
            if ok is None:
                continue
            keep_w = np.flatnonzero(ok.any(axis=1))
            if keep_w.size == 0:
                break                    # no pair of the chunk is admitted
            keep_s = np.flatnonzero(ok.any(axis=0))
            ok, at, rows = ok[np.ix_(keep_w, keep_s)], at[keep_s], rows[keep_w]
            sub = _Block(ws[rows], nw)
        else:
            p = sub.hot @ (law_x.log_terms(x[at]) + law_y.log_terms(y[at]))
            np.exp(p, out=p)
            if ok is not None:
                p *= ok
            vals[at] = weight[rows] @ p
    return vals


def _p_and_log_pi(code: SynthesisCode, exact: bool, samples: int, rng,
                  from_p: bool) -> tuple[np.ndarray, np.ndarray]:
    """The induced P and log pi^n, dense over every (x^n, y^n) when
    ``exact``, else at ``samples`` pairs drawn from P (``from_p``) or from
    pi^n.  A pair off supp(pi) reads log pi^n = -inf; a codeword with an
    empty shell raises ``DomainError``."""
    pi = code.base.xy_marginal()
    with np.errstate(divide="ignore"):
        log_pi = np.log(pi.mass)
    if exact:
        ex = induced_joint_exact(code)
        # Kronecker sums, one position at a time: the terms of the
        # position-by-position sum, added in the same order
        log_pi_n = log_pi
        for _ in range(1, code.n):
            log_pi_n = (log_pi_n[:, None, :, None]
                        + log_pi[None, :, None, :]).reshape(
                log_pi_n.shape[0] * pi.dims[0], -1)
        return ex.mass, log_pi_n
    laws = _induced_laws(code)           # raises before any draw
    if from_p:
        ws = code.codebook[rng.integers(0, code.m_count, size=samples)]
        xs, ys = (law.sample(rng, ws) for law in laws[:2])
    else:
        idx = rng.choice(pi.mass.size, size=(samples, code.n),
                         p=pi.mass.ravel())
        xs, ys = np.divmod(idx, pi.dims[1])
    return _pointwise_p(laws, xs, ys), log_pi[xs, ys].sum(axis=1)


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def estimate_tv(code: SynthesisCode, samples: int = 4096,
                seed: int = 0) -> DivergenceEstimate:
    """TV between the induced joint and pi^n; exact within the dense budget,
    otherwise the Monte-Carlo estimator E_pi[(1 - P/pi)^+].  A codeword with
    an empty shell reads TV's maximum 1, with a ``structural_zero``
    diagnostic, on both paths, as in ``estimate_renyi``.  A Monte-Carlo
    estimate whose every sample reads 1 carries an ``all_samples_at_max``
    diagnostic: its standard error of 0 does not bound its error.  The
    standard error needs ``samples`` >= 2."""
    if samples < 2:
        raise ConfigError(f"samples must be >= 2, got {samples}")
    exact = _dense_fits(code)
    method = "exact" if exact else "monte_carlo"
    try:
        p, log_pi = _p_and_log_pi(code, exact, samples, _rng(seed, 1), False)
    except DomainError as err:
        return DivergenceEstimate(1.0, 0.0, method, 0, seed,
                                  diagnostics={"structural_zero": str(err)})
    if exact:
        return DivergenceEstimate(tv(p, np.exp(log_pi)), 0.0, method, 0, seed)
    g = np.maximum(1.0 - p / np.exp(log_pi), 0.0)
    # every sample at TV's maximum: the mean reads 1 and the standard error
    # 0, although the exact TV may lie below 1
    diag = {"all_samples_at_max": True} if np.all(g == 1.0) else {}
    return DivergenceEstimate(float(g.mean()),
                              float(g.std(ddof=1) / math.sqrt(samples)),
                              method, samples, seed, diagnostics=diag)


def estimate_renyi(code: SynthesisCode, s: float, samples: int = 4096,
                   seed: int = 0) -> DivergenceEstimate:
    """D_{1+s}(P_{X^nY^n} || pi^n).  The s = 1 value of an untruncated code
    comes first from ``_renyi2_from_counts``, exact wherever its |W|^n
    tensor fits, also past the dense cap; otherwise exact within the dense
    budget, else Monte-Carlo with proposal P for s >= 0, E_P[(P/pi)^s] (the
    mean log-ratio at s = 0), and proposal pi^n for s < 0,
    E_pi[(P/pi)^{1+s}] over supp(P).  A codeword with an empty shell reads
    inf, with a ``structural_zero`` diagnostic, on both paths.  Bad
    arguments are rejected before any path is chosen."""
    if not -1.0 <= s <= 1.0:
        raise ConfigError("s must lie in [-1, 1]")
    if samples < 2:
        raise ConfigError(f"samples must be >= 2, got {samples}")
    if s == 1.0 and code.eps is None:
        val = _renyi2_from_counts(code)
        if val is not None:
            return DivergenceEstimate(val, 0.0, "exact", 0, seed)
    exact = _dense_fits(code)
    method = "exact" if exact else "monte_carlo"
    try:
        p, log_pi = _p_and_log_pi(code, exact, samples, _rng(seed, 2), s >= 0)
    except DomainError as err:
        return DivergenceEstimate(math.inf, 0.0, method, 0, seed,
                                  diagnostics={"structural_zero": str(err)})
    if exact:
        pin = np.exp(log_pi)
        val = renyi(p.ravel(), pin.ravel(), s)
        diag = {}
        if np.any((pin > 0) & (p == 0)):
            diag["pi_support_uncovered"] = True
        return DivergenceEstimate(val, 0.0, method, 0, seed,
                                  diagnostics=diag)
    if s == 0:
        g = np.log(p) - log_pi
    else:
        with np.errstate(divide="ignore"):
            ratio = p / np.exp(log_pi)
        g = np.where(p > 0, ratio ** (s if s > 0 else 1.0 + s), 0.0)
    mean = float(g.mean())
    se = float(g.std(ddof=1) / math.sqrt(samples))
    if s == 0:
        val, val_se = mean, se
    elif mean <= 0:
        return DivergenceEstimate(math.inf, 0.0, method, samples, seed,
                                  diagnostics={"zero_mean_estimate": True})
    else:
        val, val_se = math.log(mean) / s, se / mean / abs(s)
    return DivergenceEstimate(val, val_se, method, samples, seed)


# ---------------------------------------------------------------------------
# one-shot achievability bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OneShotReport:
    lhs: float                           # e^{s D_{1+s}(P_{X|U} || pi | P_U)}
    rhs: float                           # e^{s(cond - R)} + e^{s marg}
    gamma_rhs: float                     # 2 e^{s Gamma}
    m_count: int
    holds: bool
    holds_gamma: bool


def oneshot_bound_verify(p_w: FinitePmf, cond: np.ndarray, pi_x: FinitePmf,
                         s: float, m_count: int) -> OneShotReport:
    """Verify E_U e^{s D_{1+s}(P_{X|U} || pi | P_U)} <= e^{s(D_cond - R)} + e^{s D_marg}
    with R = log m_count, exactly.  The lhs of a codebook U of m_count
    i.i.d. P_W codewords depends on U only through its type k, so it is a
    sum over the types of m_count draws from supp(P_W), each weighted by its
    multinomial probability, of (k @ P_{X|W} / m)^{1+s} @ pi^{-s};
    ``typicality.MAX_TYPES`` caps the number of types."""
    if m_count < 1:
        raise ConfigError("m_count must be >= 1")
    if not 0.0 < s <= 1.0:
        raise ConfigError("s must lie in (0, 1]")
    cond = _validated_rows(cond, p_w.alphabet_size)
    if cond.shape[1] != pi_x.alphabet_size:
        raise ConfigError(f"conditional rows have {cond.shape[1]} symbols, "
                          f"pi has {pi_x.alphabet_size}")
    # D_cond = D_{1+s}(P_W P_{X|W} || P_W pi), with P_W read back off the
    # joint and both joints renormalized
    joint = p_w.mass[:, None] * cond
    pm = joint.ravel()
    qm = (joint.sum(axis=1)[:, None] * pi_x.mass).ravel()
    cond_d = renyi(pm / pm.sum(), qm / qm.sum(), s)
    marg_d = renyi(joint.sum(axis=0), pi_x, s)
    if np.any((cond > 0) & (pi_x.mass[None, :] == 0)):
        raise DomainError("conditional rows put mass outside supp(pi)")
    supp = p_w.mass > 0
    n_supp = int(supp.sum())
    n_types = math.comb(m_count + n_supp - 1, n_supp - 1)
    if n_types > typ.MAX_TYPES:
        raise ResourceBudgetError(
            f"{n_types} codebook types exceed cap {typ.MAX_TYPES}")
    types = _compositions(m_count, n_supp)
    log_weight = (gammaln(m_count + 1) - gammaln(types + 1).sum(axis=1)
                  + types @ np.log(p_w.mass[supp]))
    mix = types @ cond[supp] / m_count
    with np.errstate(divide="ignore"):
        pi_pow = np.where(pi_x.mass > 0, pi_x.mass ** (-s), 0.0)
    lhs = float(np.exp(log_weight) @ (mix ** (1.0 + s) @ pi_pow))
    R = math.log(m_count)
    rhs = math.exp(s * (cond_d - R)) + math.exp(s * marg_d)
    gamma_rhs = 2.0 * math.exp(s * max(cond_d - R, marg_d))
    return OneShotReport(lhs=lhs, rhs=rhs, gamma_rhs=gamma_rhs,
                         m_count=m_count, holds=lhs <= rhs,
                         holds_gamma=lhs <= gamma_rhs)


# ---------------------------------------------------------------------------
# truncation domination and the rate bound
# ---------------------------------------------------------------------------

def _compositions(total: int, parts: int) -> np.ndarray:
    """Every vector of ``parts`` nonnegative integers summing to ``total``,
    one per row (stars and bars)."""
    bars = np.array(list(itertools.combinations(range(total + parts - 1),
                                                parts - 1)), dtype=int)
    bars = bars.reshape(math.comb(total + parts - 1, parts - 1), parts - 1)
    ends = np.full((bars.shape[0], 1), total + parts - 1)
    return np.diff(np.hstack([-np.ones_like(ends), bars, ends]), axis=1) - 1


@dataclass(frozen=True)
class _JointTypes:
    """The (w, x, y) joint types J of length n that carry mass before
    codebook sampling: W-counts in the eps'-window, (w, x) and (w, y) counts
    in the conditional eps-windows.  Every log weight is that of one sequence
    triple of its type; ``log_mult`` counts the triples."""

    counts: np.ndarray                   # (T, |W|, |X|, |Y|)
    log_mult: np.ndarray                 # log multinom(n; J)
    log_p_w: np.ndarray                  # log P_W(w^n), truncated Q_W^n
    log_p_x: np.ndarray                  # log P(x^n | w^n), truncated
    log_p_y: np.ndarray                  # log P(y^n | w^n), truncated
    z_w: float                           # Q_W^n of the eps'-typical set
    z_x: np.ndarray                      # X-shell mass, one per W-type
    z_y: np.ndarray                      # Y-shell mass, one per W-type

    @property
    def xy_counts(self) -> np.ndarray:
        """The (x, y)-type of every joint type, as flat counts."""
        return self.counts.sum(axis=1).reshape(self.counts.shape[0], -1)


def _cell_tables(k_a: int, laws, a: int, nx: int, ny: int) -> np.ndarray:
    """Every |X| x |Y| count table of W-symbol a that sums to k_a and keeps
    its (w, x) and (w, y) margins in the windows of the X and Y ``laws``."""
    n_cand = math.comb(k_a + nx * ny - 1, nx * ny - 1)
    if n_cand > typ.MAX_TYPES:
        raise ResourceBudgetError(
            f"{n_cand} count tables of one W-symbol exceed cap {typ.MAX_TYPES}")
    cand = _compositions(k_a, nx * ny).reshape(-1, nx, ny)
    keep = np.ones(cand.shape[0], dtype=bool)
    for margin, law in zip((cand.sum(axis=2), cand.sum(axis=1)), laws):
        keep &= np.all((margin >= law.lo[a]) & (margin <= law.hi[a]), axis=1)
    return cand[keep]


def _joint_types(base: MarkovCoupling, n: int, eps: float,
                 eps_prime: float) -> _JointTypes:
    """Enumerate the joint types W-type by W-type: for each eps'-typical
    W-type k, the count tables of every W-symbol a (``_cell_tables``),
    crossed over a.  The kept joint types are counted before any is built,
    and capped by ``typicality.MAX_TYPES``."""
    nw, nx, ny = base.nw, base.nx, base.ny
    w_law = _CondLaw(base, eps_prime, "W", n)
    z_w = float(w_law._normalizers(np.zeros((1, n), dtype=int))[0])
    w_types = _compositions(n, nw)
    w_types = w_types[np.all((w_types >= w_law.lo[0])
                             & (w_types <= w_law.hi[0]), axis=1)]
    laws = (_CondLaw(base, eps, "X", n), _CondLaw(base, eps, "Y", n))
    tables = [[_cell_tables(int(k[a]), laws, a, nx, ny) for a in range(nw)]
              for k in w_types]
    sizes = [math.prod(t.shape[0] for t in per_a) for per_a in tables]
    if sum(sizes) > typ.MAX_TYPES:
        raise ResourceBudgetError(
            f"{sum(sizes)} (w, x, y) joint types at n = {n} exceed cap "
            f"{typ.MAX_TYPES}")
    w_seqs = np.stack([np.repeat(np.arange(nw), k) for k in w_types])
    z_x, z_y = (law._normalizers(w_seqs) for law in laws)
    blocks = []
    for per_a in tables:
        pick = np.indices([t.shape[0] for t in per_a]).reshape(nw, -1)
        blocks.append(np.stack([t[i] for t, i in zip(per_a, pick)], axis=1))
    counts = np.concatenate(blocks)
    owner = np.repeat(np.arange(len(blocks)), sizes)
    flat = counts.reshape(counts.shape[0], -1)
    return _JointTypes(
        counts=counts,
        log_mult=gammaln(n + 1) - gammaln(flat + 1).sum(axis=1),
        log_p_w=counts.sum(axis=(2, 3)) @ _masked_log(base.q_w.mass)
        - math.log(z_w),
        log_p_x=counts.sum(axis=3).reshape(flat.shape[0], -1)
        @ laws[0].log_cond.ravel() - np.log(z_x)[owner],
        log_p_y=counts.sum(axis=2).reshape(flat.shape[0], -1)
        @ laws[1].log_cond.ravel() - np.log(z_y)[owner],
        z_w=z_w, z_x=z_x, z_y=z_y)


def _log_pi_n(xy_counts: np.ndarray, pi: JointPmf) -> np.ndarray:
    """log pi^n of one sequence pair of each (x, y)-type (rows of flat
    counts); -inf where the type uses a cell outside supp(pi)."""
    off = np.any(xy_counts[:, pi.mass.ravel() == 0] > 0, axis=1)
    return np.where(off, -np.inf, xy_counts @ _masked_log(pi.mass).ravel())


def _check_bound_args(n: int, eps: float, eps_prime: float, s: float):
    """The ranges the finite-n checks are stated for, shared by both."""
    if n < 1:
        raise ConfigError("block length must be >= 1")
    typ.check_truncation(eps, eps_prime, required=("eps", "eps_prime"))
    if not 0.0 < s <= 1.0:
        raise ConfigError("s must lie in (0, 1]")


@dataclass(frozen=True)
class TruncationReport:
    n: int
    delta_n: float
    max_ratio: float                     # max over cells of P / (pi^n / (1-delta))
    divergence: float                    # D_{1+s}(P || pi^n)
    divergence_cap: float                # ((1+s)/s) log 1/(1-delta_n)
    holds_pointwise: bool
    holds_divergence: bool


def truncation_check(base: MarkovCoupling, n: int, eps: float,
                     eps_prime: float, s: float) -> TruncationReport:
    """The W-marginalized construction before codebook sampling satisfies
    P(x^n, y^n) <= pi^n(x^n, y^n) / (1 - delta_n) pointwise, where delta_n is
    one minus (Z_W * min_w Z_X(w) * min_w Z_Y(w)), all normalizers exact.

    P is exchangeable, so it is constant on each (x, y)-type t: P(t) sums the
    joint types J over t, each weighted by the multinom(n; J) / multinom(n; t)
    W-sequences that complete one pair of type t."""
    _check_bound_args(n, eps, eps_prime, s)
    types = _joint_types(base, n, eps, eps_prime)
    cells, group = np.unique(types.xy_counts, axis=0, return_inverse=True)
    group = group.ravel()
    log_w = types.log_mult + types.log_p_w + types.log_p_x + types.log_p_y
    top = np.full(cells.shape[0], -np.inf)
    np.maximum.at(top, group, log_w)
    log_type_mass = top + np.log(np.bincount(
        group, weights=np.exp(log_w - top[group]), minlength=cells.shape[0]))
    log_pi_t = _log_pi_n(cells, base.xy_marginal())
    log_cells = gammaln(n + 1) - gammaln(cells + 1).sum(axis=1)
    delta = 1.0 - types.z_w * float(types.z_x.min() * types.z_y.min())
    ratios = np.where(log_pi_t > -np.inf,
                      np.exp(log_type_mass - log_cells - log_pi_t), 0.0)
    max_ratio = float(ratios.max()) * (1.0 - delta)
    # D_{1+s} is unchanged when each type is lumped into one cell
    div = renyi(np.exp(log_type_mass), np.exp(log_cells + log_pi_t), s)
    div_cap = (1.0 + s) / s * math.log(1.0 / (1.0 - delta))
    return TruncationReport(n=n, delta_n=delta, max_ratio=max_ratio,
                            divergence=float(div), divergence_cap=float(div_cap),
                            holds_pointwise=max_ratio <= 1.0 + 1e-9,
                            holds_divergence=div <= div_cap + 1e-9)


@dataclass(frozen=True)
class RateBoundReport:
    n: int
    lhs: float                           # (1/n) D_{1+s}(P_WXY || P_W pi^n)
    rhs: float
    slack: float
    delta_1: float
    delta_2: float
    holds: bool


def rate_bound_check(base: MarkovCoupling, n: int, eps: float,
                     eps_prime: float, s: float) -> RateBoundReport:
    """Exact (1/n) D_{1+s}(P_{W^nX^nY^n} || P_{W^n} pi^n) against the
    single-letter bound
    (1-eps)^2/(1+eps') I_Q(XY;W) + 4 eps/(1-eps') H_Q(XY)
        - (1/n) log (1-delta_1)(1-delta_2),
    with delta_i the largest exact conditional-typicality defects over the
    eps'-typical conditioning set."""
    _check_bound_args(n, eps, eps_prime, s)
    types = _joint_types(base, n, eps, eps_prime)
    log_pi = _log_pi_n(types.xy_counts, base.xy_marginal())
    if np.any(log_pi == -np.inf):
        raise DomainError("induced mass outside supp(pi^n)")
    log_total = typ._logsumexp(types.log_mult + types.log_p_w
                               + (1.0 + s) * (types.log_p_x + types.log_p_y)
                               - s * log_pi)
    lhs = float(log_total) / (n * s)
    delta_1 = 1.0 - float(types.z_x.min())
    delta_2 = 1.0 - float(types.z_y.min())
    i_q = coupling_information(base)
    h_q = JointPmf(induced_joint(base).sum(axis=0)).entropy()
    rhs = ((1.0 - eps) ** 2 / (1.0 + eps_prime) * i_q
           + 4.0 * eps / (1.0 - eps_prime) * h_q
           - math.log((1.0 - delta_1) * (1.0 - delta_2)) / n)
    return RateBoundReport(n=n, lhs=lhs, rhs=rhs, slack=rhs - lhs,
                           delta_1=delta_1, delta_2=delta_2,
                           holds=lhs <= rhs + 1e-9)
