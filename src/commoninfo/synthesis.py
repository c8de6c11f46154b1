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
codeword.  It is built afresh for each call.  It evaluates the law for a
whole block of codewords at once, reading both the product law and the
shell test off the joint count matrices N_ab(w^n, x^n); its normalizers
(the shell masses) are read exactly, in one gather, off the typicality
module's table of per-symbol block masses.  It samples the law by
rejection, in rounds that draw one candidate per pending row and test
every candidate against the same count windows.  The dense induced
joint is capped by ``MAX_JOINT_CELLS``; the Monte-Carlo estimators work in
sample chunks of at most about ``_CHUNK_CELLS`` (codeword, sample) cells.

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
from scipy.special import gammaln, logsumexp

from .errors import ConfigError, DomainError, ResourceBudgetError, SamplingError
from .probability import (FinitePmf, JointPmf, MarkovCoupling, _validated_rows,
                          induced_joint, marginal)
from .divergences import renyi, conditional_renyi, glue, tv
from . import typicality as typ

MAX_JOINT_CELLS = 2 ** 22
MAX_CODEWORDS = 2 ** 14
MAX_REJECTION_TRIES = 200_000


def _rng(seed, *stream) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence([int(seed) & 0xFFFFFFFFFFFFFFFF, *stream])))


@dataclass(frozen=True)
class SynthesisCode:
    """A sampled codebook of truncated-typical W-sequences."""

    n: int
    rate: float
    m_count: int
    codebook: np.ndarray                 # (m_count, n) int
    base: MarkovCoupling
    eps: float | None                    # None: untruncated conditionals
    eps_prime: float | None              # None: untruncated codeword law
    seed: int

    def __post_init__(self):
        hi = self.eps if self.eps is not None else 1.0
        lo = self.eps_prime if self.eps_prime is not None else 0.0
        if not 0.0 <= lo < hi <= 1.0:
            raise ConfigError("need 0 < eps_prime < eps <= 1")
        if self.m_count != int(math.ceil(math.exp(self.n * self.rate) - 1e-9)):
            raise ConfigError("m_count must equal ceil(e^{nR})")


@dataclass(frozen=True)
class DivergenceEstimate:
    point: float
    std_error: float
    method: str                          # "exact" | "monte_carlo"
    samples: int
    seed: int
    per_symbol: float | None = None
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


class _CondLaw:
    """Q_{X|W}^n(. | w^n) (axis "X") or Q_{Y|W}^n(. | w^n) (axis "Y"),
    truncated to the conditional eps-typical shell of w^n and renormalised;
    ``eps=None`` leaves it untruncated.  Axis "W" is the codeword law Q_W^n
    truncated to the eps-typical set: a one-row conditional, Q_W given the
    constant sequence 0^n, whose count windows are those of
    ``typicality.TypicalSpec``.

    The law is evaluated for a whole block of codewords at once from the
    joint counts N_ab(w^n, x^n), which give both log prod_i Q(x_i|w_i) and
    the shell test.  The shell mass factors over the W-symbols,
    Z(w^n) = prod_a z_a(k_a) with k the type of w^n; the table of z_a(k),
    k = 0..n, and the count windows are kept per n on the object, which
    lives for one call."""

    def __init__(self, base: MarkovCoupling, eps: float | None, axis: str):
        if axis == "W":
            self.q_w, self.cond = FinitePmf([1.0]), base.q_w.mass[None, :]
        elif axis in ("X", "Y"):
            self.q_w = base.q_w
            self.cond = base.q_x_given_w if axis == "X" else base.q_y_given_w
        else:
            raise ConfigError("axis must be 'W', 'X' or 'Y'")
        self.log_cond = _masked_log(self.cond)
        # the cdf Generator.choice draws from: normalised, so no symbol
        # past the alphabet is drawn when a row sums to just below 1
        self.cdf = self.cond.cumsum(axis=1)
        self.cdf /= self.cdf[:, -1:]
        self.eps = eps
        self.axis = axis
        self._shells = {}

    def _shell(self, n: int):
        """Per-(w, x) count bounds [lo, hi] at block length n, and the
        (|W|, n+1) table of log z_a(k), the shell mass of a block of k uses
        of W-symbol a (``typicality.cond_shell_log_masses``).  Untruncated,
        only hi = 0 at structural zeros, and every z_a(k) = 1."""
        if n not in self._shells:
            if self.eps is None:
                self._shells[n] = (np.zeros(self.cond.shape, dtype=int),
                                   np.where(self.cond > 0, n, 0),
                                   np.zeros((self.cond.shape[0], n + 1)))
            else:
                self._shells[n] = (
                    *typ.cond_count_windows(self.q_w, self.cond, n, self.eps),
                    typ.cond_shell_log_masses(self.q_w, self.cond, n, self.eps))
        return self._shells[n]

    def _shell_masses(self, ws: np.ndarray) -> np.ndarray:
        """Z(w^n) = prod_a z_a(k_a) of every row of ``ws``, k its type: one
        gather from the table."""
        nw = self.cond.shape[0]
        counts = np.stack([(ws == a).sum(axis=1) for a in range(nw)], axis=1)
        log_z = self._shell(ws.shape[1])[2]
        return np.exp(log_z[np.arange(nw), counts].sum(axis=1))

    def normalizer(self, w_seq: np.ndarray) -> float:
        """The shell mass Z(w^n); 1 when untruncated."""
        return float(self._shell_masses(np.atleast_2d(w_seq))[0])

    def _normalizers(self, ws: np.ndarray) -> np.ndarray:
        """Z(w^n) of every row of ``ws``; raises if some shell is empty."""
        z = self._shell_masses(ws)
        empty = np.flatnonzero(z <= 0.0)
        if empty.size:
            if self.axis == "W":
                raise DomainError("empty eps'-typical W set at this n")
            raise DomainError(
                f"empty conditional typical shell for {self.axis} given "
                f"w^n = {ws[empty[0]].tolist()} (structural zero at this n)")
        return z

    def density(self, w_seqs: np.ndarray, seqs: np.ndarray) -> np.ndarray:
        """The law at every row of ``seqs`` given every codeword of
        ``w_seqs`` (one sequence or an (m, n) block), as an (m, S) matrix;
        raises if the shell of some codeword is empty."""
        ws = np.atleast_2d(w_seqs)
        n = ws.shape[1]
        nw, nx = self.cond.shape
        z = self._normalizers(ws)
        w_hot = [(ws == a).astype(float) for a in range(nw)]
        # log prod_i Q(x_i | w_i): one product over (symbol a, position i)
        log_p = np.hstack(w_hot) @ self.log_cond[:, seqs.T].reshape(nw * n, -1)
        ok = np.ones(log_p.shape, dtype=bool)
        lo, hi, _ = self._shell(n)
        for a in range(nw):
            for b in range(nx):
                if lo[a, b] <= 0 and hi[a, b] >= n:
                    continue                     # every count N_ab passes
                c = w_hot[a] @ (seqs == b).T     # N_ab for every pair
                if lo[a, b] > 0:
                    ok &= c >= lo[a, b]
                if hi[a, b] < n:
                    ok &= c <= hi[a, b]
        p = np.exp(log_p, out=log_p)
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
        n = ws.shape[1]
        nw, nx = self.cond.shape
        z = self._normalizers(ws)
        lo, hi, _ = self._shell(n)
        _, group = np.unique(ws, axis=0, return_inverse=True)
        group = group.ravel()
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
            ok = np.all((counts >= lo) & (counts <= hi), axis=(1, 2))
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
    if R < 0:
        raise ConfigError("rate must be nonnegative")
    if n < 1:
        raise ConfigError("block length must be >= 1")
    if eps_prime is not None and not eps_prime > 0:
        raise ConfigError("eps_prime must be > 0")
    m = int(math.ceil(math.exp(n * R) - 1e-9))
    if m > MAX_CODEWORDS:
        raise ResourceBudgetError(f"m_count {m} exceeds cap {MAX_CODEWORDS}")
    codebook = _CondLaw(base, eps_prime, "W").sample(
        _rng(seed, 0), np.zeros((m, n), dtype=int))
    return SynthesisCode(n=n, rate=R, m_count=m, codebook=codebook, base=base,
                         eps=eps, eps_prime=eps_prime, seed=seed)


# ---------------------------------------------------------------------------
# exact machinery
# ---------------------------------------------------------------------------

def _all_seqs(k: int, n: int) -> np.ndarray:
    return np.array(list(itertools.product(range(k), repeat=n)), dtype=int)


def _pi_n_matrix(pi: JointPmf, seqs_x: np.ndarray, seqs_y: np.ndarray) -> np.ndarray:
    """pi^n(x^n, y^n) as an (Nx, Ny) matrix."""
    n = seqs_x.shape[1]
    with np.errstate(divide="ignore"):
        log_pi = np.log(pi.mass)
    L = np.zeros((seqs_x.shape[0], seqs_y.shape[0]))
    for i in range(n):
        L = L + log_pi[seqs_x[:, i][:, None], seqs_y[None, :, i]]
    return np.exp(L)


@dataclass(frozen=True)
class InducedJointExact:
    n: int
    mass: np.ndarray                     # (|X|^n, |Y|^n)
    seqs_x: np.ndarray
    seqs_y: np.ndarray
    cond_x: np.ndarray                   # (m, |X|^n) per-codeword laws
    cond_y: np.ndarray


def _check_exact_budget(base: MarkovCoupling, n: int, m_count: int):
    cells = float(base.nx) ** n * float(base.ny) ** n
    if cells > MAX_JOINT_CELLS:
        raise ResourceBudgetError(
            f"|X|^n * |Y|^n = {cells:.3g} exceeds cap {MAX_JOINT_CELLS}")
    if m_count > MAX_CODEWORDS:
        raise ResourceBudgetError(f"m_count {m_count} exceeds cap {MAX_CODEWORDS}")


def induced_joint_exact(code: SynthesisCode) -> InducedJointExact:
    """P(x^n, y^n) = (1/m) sum_m P(x^n|w_m) P(y^n|w_m), dense."""
    base, n = code.base, code.n
    _check_exact_budget(base, n, code.m_count)
    seqs_x = _all_seqs(base.nx, n)
    seqs_y = _all_seqs(base.ny, n)
    law_x = _CondLaw(base, code.eps, "X")
    law_y = _CondLaw(base, code.eps, "Y")
    px = law_x.density(code.codebook, seqs_x)
    py = law_y.density(code.codebook, seqs_y)
    mass = px.T @ py / code.m_count
    return InducedJointExact(n=n, mass=mass, seqs_x=seqs_x, seqs_y=seqs_y,
                             cond_x=px, cond_y=py)


#: cells of one (codewords x samples) block of conditional-law values
_CHUNK_CELLS = 2 ** 20


def _pointwise_p(code: SynthesisCode, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Induced P at sampled pairs (rows of x, y): both conditional laws as
    (codeword x sample) matrices, in sample chunks of at most about
    ``_CHUNK_CELLS`` cells so memory stays flat in m and the sample count."""
    law_x = _CondLaw(code.base, code.eps, "X")
    law_y = _CondLaw(code.base, code.eps, "Y")
    step = max(1, _CHUNK_CELLS // code.m_count)
    vals = np.empty(x.shape[0])
    for i in range(0, x.shape[0], step):
        p = law_x.density(code.codebook, x[i:i + step])
        p *= law_y.density(code.codebook, y[i:i + step])
        vals[i:i + step] = p.sum(axis=0)
    return vals / code.m_count


def _pi_n_draws(code: SynthesisCode, samples: int, rng):
    """Draw ``samples`` pairs (x^n, y^n) from pi^n; return the induced P and
    pi^n at them."""
    pi = code.base.xy_marginal()
    flat = pi.mass.ravel()
    idx = rng.choice(flat.size, size=(samples, code.n), p=flat)
    xs, ys = idx // pi.dims[1], idx % pi.dims[1]
    return (_pointwise_p(code, xs, ys),
            np.exp(np.log(pi.mass[xs, ys]).sum(axis=1)))


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def estimate_tv(code: SynthesisCode, samples: int = 4096,
                seed: int = 0) -> DivergenceEstimate:
    """TV between the induced joint and pi^n; exact within the dense budget,
    otherwise the Monte-Carlo estimator E_pi[(1 - P/pi)^+].  A codeword with
    an empty shell reads TV's maximum 1, with a ``structural_zero``
    diagnostic, on both paths, as in ``estimate_renyi``.  The standard error
    needs ``samples`` >= 2."""
    if samples < 2:
        raise ConfigError(f"samples must be >= 2, got {samples}")
    pi = code.base.xy_marginal()
    try:
        ex = induced_joint_exact(code)
    except ResourceBudgetError:
        ex = None
    except DomainError as err:
        return DivergenceEstimate(1.0, 0.0, "exact", 0, seed,
                                  diagnostics={"structural_zero": str(err)})
    if ex is not None:
        pin = _pi_n_matrix(pi, ex.seqs_x, ex.seqs_y)
        val = 0.5 * float(np.abs(ex.mass - pin).sum())
        return DivergenceEstimate(val, 0.0, "exact", 0, seed)
    try:
        p_vals, pi_vals = _pi_n_draws(code, samples, _rng(seed, 1))
    except DomainError as err:
        return DivergenceEstimate(1.0, 0.0, "monte_carlo", 0, seed,
                                  diagnostics={"structural_zero": str(err)})
    g = np.maximum(1.0 - p_vals / pi_vals, 0.0)
    return DivergenceEstimate(float(g.mean()),
                              float(g.std(ddof=1) / math.sqrt(samples)),
                              "monte_carlo", samples, seed)


def estimate_renyi(code: SynthesisCode, s: float, samples: int = 4096,
                   seed: int = 0) -> DivergenceEstimate:
    """D_{1+s}(P_{X^nY^n} || pi^n): exact within budget, else Monte-Carlo with
    proposal P for s >= 0 and pi^n for s < 0.  A codeword with an empty
    shell reads inf, with a ``structural_zero`` diagnostic, on both paths."""
    if not -1.0 <= s <= 1.0:
        raise ConfigError("s must lie in [-1, 1]")
    if samples < 2:
        raise ConfigError(f"samples must be >= 2, got {samples}")
    pi = code.base.xy_marginal()
    try:
        ex = induced_joint_exact(code)
    except ResourceBudgetError:
        ex = None
    except DomainError as err:
        return DivergenceEstimate(math.inf, 0.0, "exact", 0, seed,
                                  diagnostics={"structural_zero": str(err)})
    if ex is not None:
        pin = _pi_n_matrix(pi, ex.seqs_x, ex.seqs_y)
        val = renyi(ex.mass.ravel(), pin.ravel(), s)
        diag = {}
        if np.any((pin > 0) & (ex.mass == 0)):
            diag["pi_support_uncovered"] = True
        return DivergenceEstimate(float(val), 0.0, "exact", 0, seed,
                                  per_symbol=float(val) / code.n,
                                  diagnostics=diag)
    rng = _rng(seed, 2)
    try:
        if s >= 0:
            ws = code.codebook[rng.integers(0, code.m_count, size=samples)]
            xs = _CondLaw(code.base, code.eps, "X").sample(rng, ws)
            ys = _CondLaw(code.base, code.eps, "Y").sample(rng, ws)
            p_vals = _pointwise_p(code, xs, ys)
        else:
            p_vals, pi_vals = _pi_n_draws(code, samples, rng)
    except DomainError as err:
        return DivergenceEstimate(math.inf, 0.0, "monte_carlo", 0, seed,
                                  diagnostics={"structural_zero": str(err)})
    if s >= 0:
        log_pi = np.log(pi.mass[xs, ys]).sum(axis=1)
        if np.any(log_pi == -np.inf):
            return DivergenceEstimate(math.inf, 0.0, "monte_carlo", samples,
                                      seed, diagnostics={"off_pi_support": True})
        if s == 0:
            # KL: the mean log-likelihood ratio under P
            g = np.log(p_vals) - log_pi
            val = float(g.mean())
            return DivergenceEstimate(
                val, float(g.std(ddof=1) / math.sqrt(samples)), "monte_carlo",
                samples, seed, per_symbol=val / code.n)
        g = (p_vals / np.exp(log_pi)) ** s
    elif s == -1.0:
        g = (p_vals > 0).astype(float)
    else:
        with np.errstate(divide="ignore"):
            g = (p_vals / pi_vals) ** (1.0 + s)
    mean = float(g.mean())
    se = float(g.std(ddof=1) / math.sqrt(samples))
    if mean <= 0:
        return DivergenceEstimate(math.inf, 0.0, "monte_carlo", samples, seed,
                                  diagnostics={"zero_mean_estimate": True})
    if s == -1.0:
        val = -math.log(mean)
    else:
        val = math.log(mean) / s
    val_se = se / mean / abs(s if s != -1.0 else 1.0)
    return DivergenceEstimate(float(val), float(val_se), "monte_carlo",
                              samples, seed, per_symbol=float(val) / code.n)


# ---------------------------------------------------------------------------
# one-shot achievability bound
# ---------------------------------------------------------------------------

def _oneshot_divergences(p_w: FinitePmf, cond, pi_x: FinitePmf,
                         s: float) -> tuple[np.ndarray, float, float]:
    """The validated rows P_{X|W} with D_{1+s}(P_{X|W} || pi | P_W) and
    D_{1+s}(P_X || pi), the two divergences of the one-shot bound."""
    if not 0.0 < s <= 1.0:
        raise ConfigError("s must lie in (0, 1]")
    cond = _validated_rows(cond, p_w.alphabet_size)
    if cond.shape[1] != pi_x.alphabet_size:
        raise ConfigError(f"conditional rows have {cond.shape[1]} symbols, "
                          f"pi has {pi_x.alphabet_size}")
    joint = glue(p_w, cond)
    q_rows = np.tile(pi_x.mass, (p_w.alphabet_size, 1))
    cond_d = conditional_renyi(joint, q_rows, s)
    marg_d = renyi(FinitePmf(joint.mass.sum(axis=0)), pi_x, s)
    return cond, cond_d, marg_d


def gamma_oneshot(p_w: FinitePmf, cond: np.ndarray, pi_x: FinitePmf,
                  R: float, s: float) -> float:
    """max{ D_{1+s}(P_{X|W} || pi | P_W) - R, D_{1+s}(P_X || pi) }."""
    _, cond_d, marg_d = _oneshot_divergences(p_w, cond, pi_x, s)
    return max(cond_d - R, marg_d)


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
    cond, cond_d, marg_d = _oneshot_divergences(p_w, cond, pi_x, s)
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


def _cell_tables(k_a: int, windows, a: int, nx: int, ny: int) -> np.ndarray:
    """Every |X| x |Y| count table of W-symbol a that sums to k_a and keeps
    its (w, x) and (w, y) margins in the conditional windows."""
    n_cand = math.comb(k_a + nx * ny - 1, nx * ny - 1)
    if n_cand > typ.MAX_TYPES:
        raise ResourceBudgetError(
            f"{n_cand} count tables of one W-symbol exceed cap {typ.MAX_TYPES}")
    cand = _compositions(k_a, nx * ny).reshape(-1, nx, ny)
    keep = np.ones(cand.shape[0], dtype=bool)
    for margin, (c_lo, c_hi) in zip((cand.sum(axis=2), cand.sum(axis=1)),
                                    windows):
        keep &= np.all((margin >= c_lo[a]) & (margin <= c_hi[a]), axis=1)
    return cand[keep]


def _joint_types(base: MarkovCoupling, n: int, eps: float,
                 eps_prime: float) -> _JointTypes:
    """Enumerate the joint types W-type by W-type: for each eps'-typical
    W-type k, the count tables of every W-symbol a (``_cell_tables``),
    crossed over a.  The kept joint types are counted before any is built,
    and capped by ``typicality.MAX_TYPES``."""
    nw, nx, ny = base.nw, base.nx, base.ny
    w_law = _CondLaw(base, eps_prime, "W")
    z_w = float(w_law._normalizers(np.zeros((1, n), dtype=int))[0])
    lo, hi = (b[0] for b in w_law._shell(n)[:2])
    w_types = _compositions(n, nw)
    w_types = w_types[np.all((w_types >= lo) & (w_types <= hi), axis=1)]
    laws = (_CondLaw(base, eps, "X"), _CondLaw(base, eps, "Y"))
    windows = [law._shell(n)[:2] for law in laws]
    tables = [[_cell_tables(int(k[a]), windows, a, nx, ny) for a in range(nw)]
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
    if not 0.0 < eps_prime < eps <= 1.0:
        raise ConfigError("need 0 < eps_prime < eps <= 1")
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
    log_total = logsumexp(types.log_mult + types.log_p_w
                          + (1.0 + s) * (types.log_p_x + types.log_p_y)
                          - s * log_pi)
    lhs = float(log_total) / (n * s)
    delta_1 = 1.0 - float(types.z_x.min())
    delta_2 = 1.0 - float(types.z_y.min())
    q_wxy = induced_joint(base)
    i_q = _coupling_mi(base)
    h_q = marginal(q_wxy, (1, 2)).entropy()
    rhs = ((1.0 - eps) ** 2 / (1.0 + eps_prime) * i_q
           + 4.0 * eps / (1.0 - eps_prime) * h_q
           - math.log((1.0 - delta_1) * (1.0 - delta_2)) / n)
    return RateBoundReport(n=n, lhs=lhs, rhs=rhs, slack=rhs - lhs,
                           delta_1=delta_1, delta_2=delta_2,
                           holds=lhs <= rhs + 1e-9)


def _coupling_mi(base: MarkovCoupling) -> float:
    from .probability import mutual_information
    j = induced_joint(base)
    flat = JointPmf(j.mass.reshape(base.nw, base.nx * base.ny).T)
    return mutual_information(flat)
