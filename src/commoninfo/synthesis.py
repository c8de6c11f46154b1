"""Truncated-typical distributed source synthesis codes.

Builds the constructive code: codewords W^n drawn from the product law
truncated to the eps'-typical set, and coordinates X^n, Y^n drawn from the
conditional product laws truncated to conditional eps-typical shells.  Exact
induced joints at tiny block lengths, Monte-Carlo estimators beyond, and
verifiers for the one-shot achievability bound, the truncation domination
chain, and the single-letter rate bound.

All sampling is rejection sampling with exact membership tests.  Exact and
Monte-Carlo paths evaluate the truncated conditional law through one object,
``_CondLaw``, built afresh for each call; its normalizers (the shell masses)
come exactly from the typicality module's type enumeration, once per type of
the conditioning W-sequence.  Randomness uses counter-based Philox streams
keyed by (seed, stream label) so results do not depend on scheduling.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, ResourceBudgetError, SamplingError
from .probability import FinitePmf, JointPmf, MarkovCoupling, induced_joint, marginal
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
# samplers
# ---------------------------------------------------------------------------

def truncated_w_sampler(base: MarkovCoupling, n: int, eps_prime: float | None,
                        rng: np.random.Generator) -> np.ndarray:
    """One draw of W^n from Q_W^n conditioned on eps'-typicality, by rejection.
    ``eps_prime=None`` draws from the plain product law."""
    if eps_prime is None:
        return rng.choice(base.nw, size=n, p=base.q_w.mass)
    spec = typ.TypicalSpec(base.q_w, n, eps_prime)
    for _ in range(MAX_REJECTION_TRIES):
        seq = rng.choice(base.nw, size=n, p=base.q_w.mass)
        if typ.is_typical(seq, spec):
            return seq
    p = typ.typical_prob_exact(spec)
    raise SamplingError(
        f"no eps'-typical W^n in {MAX_REJECTION_TRIES} tries "
        f"(exact typical probability {p:.3e})")


def truncated_cond_sampler(base: MarkovCoupling, w_seq, eps: float | None,
                           rng: np.random.Generator, axis: str = "X") -> np.ndarray:
    """One draw of X^n (or Y^n) from the conditional product law truncated to
    the conditional eps-typical shell of w^n.  ``eps=None`` skips truncation."""
    cond = _axis_cond(base, axis)
    w_seq = np.asarray(w_seq, dtype=int)
    n = w_seq.size
    for _ in range(MAX_REJECTION_TRIES):
        u = rng.random(n)
        seq = (u[:, None] > np.cumsum(cond[w_seq], axis=1)).sum(axis=1)
        if eps is None or typ.is_cond_typical(seq, w_seq, base.q_w, cond, eps):
            return seq
    defect = typ.cond_typical_defect_exact(base.q_w, cond, w_seq, eps)
    raise SamplingError(
        f"no conditionally eps-typical {axis}^n in {MAX_REJECTION_TRIES} tries "
        f"(exact acceptance probability {1.0 - defect:.3e})")


def _axis_cond(base: MarkovCoupling, axis: str) -> np.ndarray:
    if axis == "X":
        return base.q_x_given_w
    if axis == "Y":
        return base.q_y_given_w
    raise ConfigError("axis must be 'X' or 'Y'")


def build_code(base: MarkovCoupling, n: int, R: float, eps: float | None,
               eps_prime: float | None, seed: int) -> SynthesisCode:
    """Sample ceil(e^{nR}) independent truncated-typical codewords."""
    if R < 0:
        raise ConfigError("rate must be nonnegative")
    m = int(math.ceil(math.exp(n * R) - 1e-9))
    if m > MAX_CODEWORDS:
        raise ResourceBudgetError(f"m_count {m} exceeds cap {MAX_CODEWORDS}")
    rng = _rng(seed, 0)
    codebook = np.stack([truncated_w_sampler(base, n, eps_prime, rng)
                         for _ in range(m)])
    return SynthesisCode(n=n, rate=R, m_count=m, codebook=codebook, base=base,
                         eps=eps, eps_prime=eps_prime, seed=seed)


# ---------------------------------------------------------------------------
# exact machinery
# ---------------------------------------------------------------------------

def _all_seqs(k: int, n: int) -> np.ndarray:
    return np.array(list(itertools.product(range(k), repeat=n)), dtype=int)


class _CondLaw:
    """Q_{X|W}^n(. | w^n) (axis "X") or Q_{Y|W}^n(. | w^n) (axis "Y"),
    truncated to the conditional eps-typical shell of w^n and renormalised;
    ``eps=None`` leaves it untruncated.  The shell mass depends on w^n only
    through its type, so it is computed exactly once per type and kept on the
    object, which lives for one call."""

    def __init__(self, base: MarkovCoupling, eps: float | None, axis: str):
        self.cond = _axis_cond(base, axis)
        self.q_w = base.q_w
        self.eps = eps
        self.axis = axis
        self._z = {}

    def normalizer(self, w_seq: np.ndarray) -> float:
        """The shell mass Z(w^n); 1 when untruncated."""
        if self.eps is None:
            return 1.0
        w_type = np.bincount(w_seq, minlength=self.cond.shape[0]).tobytes()
        if w_type not in self._z:
            self._z[w_type] = 1.0 - typ.cond_typical_defect_exact(
                self.q_w, self.cond, w_seq, self.eps)
        return self._z[w_type]

    def density(self, w_seq: np.ndarray, seqs: np.ndarray) -> np.ndarray:
        """The law at every row of ``seqs``; raises if the shell is empty."""
        p = np.prod(self.cond[w_seq[None, :], seqs], axis=1)
        if self.eps is None:
            return p
        z = self.normalizer(w_seq)
        if z <= 0.0:
            raise DomainError(
                f"empty conditional typical shell for {self.axis} given "
                f"codeword {w_seq.tolist()} (structural zero at this n)")
        lo, hi = typ.cond_count_windows(self.q_w, self.cond, w_seq.size,
                                        self.eps)
        ok = np.ones(seqs.shape[0], dtype=bool)
        for w in range(self.cond.shape[0]):
            pos = w_seq == w
            for x in range(self.cond.shape[1]):
                c = (seqs[:, pos] == x).sum(axis=1)
                ok &= (c >= lo[w, x]) & (c <= hi[w, x])
        return np.where(ok, p, 0.0) / z


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
    px = np.stack([law_x.density(w, seqs_x) for w in code.codebook])
    py = np.stack([law_y.density(w, seqs_y) for w in code.codebook])
    mass = px.T @ py / code.m_count
    return InducedJointExact(n=n, mass=mass, seqs_x=seqs_x, seqs_y=seqs_y,
                             cond_x=px, cond_y=py)


def _pointwise_p(code: SynthesisCode, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Induced P at sampled pairs (rows of x, y), in O(m * n) per point."""
    law_x = _CondLaw(code.base, code.eps, "X")
    law_y = _CondLaw(code.base, code.eps, "Y")
    vals = np.zeros(x.shape[0])
    for w in code.codebook:
        vals += law_x.density(w, x) * law_y.density(w, y)
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
    otherwise the Monte-Carlo estimator E_pi[(1 - P/pi)^+]."""
    pi = code.base.xy_marginal()
    try:
        ex = induced_joint_exact(code)
    except ResourceBudgetError:
        ex = None
    if ex is not None:
        pin = _pi_n_matrix(pi, ex.seqs_x, ex.seqs_y)
        val = 0.5 * float(np.abs(ex.mass - pin).sum())
        return DivergenceEstimate(val, 0.0, "exact", 0, seed)
    p_vals, pi_vals = _pi_n_draws(code, samples, _rng(seed, 1))
    g = np.maximum(1.0 - p_vals / pi_vals, 0.0)
    return DivergenceEstimate(float(g.mean()),
                              float(g.std(ddof=1) / math.sqrt(samples)),
                              "monte_carlo", samples, seed)


def _sample_from_code(code: SynthesisCode, samples: int, rng):
    base = code.base
    xs = np.empty((samples, code.n), dtype=int)
    ys = np.empty((samples, code.n), dtype=int)
    ms = rng.integers(0, code.m_count, size=samples)
    for i, m in enumerate(ms):
        w = code.codebook[m]
        xs[i] = truncated_cond_sampler(base, w, code.eps, rng, "X")
        ys[i] = truncated_cond_sampler(base, w, code.eps, rng, "Y")
    return xs, ys


def estimate_renyi(code: SynthesisCode, s: float, samples: int = 4096,
                   seed: int = 0) -> DivergenceEstimate:
    """D_{1+s}(P_{X^nY^n} || pi^n): exact within budget, else Monte-Carlo with
    proposal P for s > 0 and pi^n for s < 0."""
    if not -1.0 <= s <= 1.0:
        raise ConfigError("s must lie in [-1, 1]")
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
    if s > 0:
        xs, ys = _sample_from_code(code, samples, rng)
        p_vals = _pointwise_p(code, xs, ys)
        pi_vals = np.exp(np.log(pi.mass[xs, ys]).sum(axis=1))
        if np.any(pi_vals == 0):
            return DivergenceEstimate(math.inf, 0.0, "monte_carlo", samples,
                                      seed, diagnostics={"off_pi_support": True})
        g = (p_vals / pi_vals) ** s
    else:
        p_vals, pi_vals = _pi_n_draws(code, samples, rng)
        if s == -1.0:
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

def gamma_oneshot(p_w: FinitePmf, cond: np.ndarray, pi_x: FinitePmf,
                  R: float, s: float) -> float:
    """max{ D_{1+s}(P_{X|W} || pi | P_W) - R, D_{1+s}(P_X || pi) }."""
    if not 0.0 < s <= 1.0:
        raise ConfigError("s must lie in (0, 1]")
    cond = np.asarray(cond, dtype=float)
    joint = glue(p_w, cond)
    q_rows = np.tile(pi_x.mass, (p_w.alphabet_size, 1))
    cond_d = conditional_renyi(joint, q_rows, s)
    p_x = FinitePmf(joint.mass.sum(axis=0))
    marg_d = renyi(p_x, pi_x, s)
    return max(cond_d - R, marg_d)


@dataclass(frozen=True)
class OneShotReport:
    lhs: float                           # e^{s D_{1+s}(P_{X|U} || pi | P_U)}
    rhs: float                           # e^{s(cond - R)} + e^{s marg}
    gamma_rhs: float                     # 2 e^{s Gamma}
    m_count: int
    method: str
    samples: int
    holds: bool
    holds_gamma: bool


def oneshot_bound_verify(p_w: FinitePmf, cond: np.ndarray, pi_x: FinitePmf,
                         s: float, m_count: int, trials: int | None = None,
                         seed: int = 0) -> OneShotReport:
    """Verify E_U e^{s D_{1+s}(P_{X|U} || pi | P_U)} <= e^{s(D_cond - R)} + e^{s D_marg}
    with R = log m_count, exactly (codebook enumeration) or by Monte-Carlo."""
    if not 0.0 < s <= 1.0:
        raise ConfigError("s must lie in (0, 1]")
    if m_count < 1:
        raise ConfigError("m_count must be >= 1")
    cond = np.asarray(cond, dtype=float)
    nw = p_w.alphabet_size
    R = math.log(m_count)
    with np.errstate(divide="ignore"):
        pow_term = cond ** (1.0 + s) @ np.where(
            pi_x.mass > 0, pi_x.mass ** (-s), 0.0)
    if np.any(np.isinf(pow_term)) or np.any(
            (cond > 0) & (pi_x.mass[None, :] == 0)):
        raise DomainError("conditional rows put mass outside supp(pi)")

    def lhs_term(codebook) -> float:
        mix = cond[list(codebook)].mean(axis=0)
        with np.errstate(divide="ignore"):
            t = mix ** (1.0 + s) @ np.where(pi_x.mass > 0,
                                            pi_x.mass ** (-s), 0.0)
        return float(t)

    if trials is None:
        total = 0.0
        for codebook in itertools.product(range(nw), repeat=m_count):
            weight = float(np.prod(p_w.mass[list(codebook)]))
            if weight == 0:
                continue
            total += weight * lhs_term(codebook)
        lhs = total
        method, samples = "exact", 0
    else:
        rng = _rng(seed, 3)
        books = rng.choice(nw, size=(trials, m_count), p=p_w.mass)
        mixes = cond[books].mean(axis=1)            # (trials, nx)
        with np.errstate(divide="ignore"):
            vals = mixes ** (1.0 + s) @ np.where(pi_x.mass > 0,
                                                 pi_x.mass ** (-s), 0.0)
        lhs = float(vals.mean())
        method, samples = "monte_carlo", trials

    joint = glue(p_w, cond)
    q_rows = np.tile(pi_x.mass, (nw, 1))
    cond_d = conditional_renyi(joint, q_rows, s)
    marg_d = renyi(FinitePmf(joint.mass.sum(axis=0)), pi_x, s)
    rhs = math.exp(s * (cond_d - R)) + math.exp(s * marg_d)
    gamma_rhs = 2.0 * math.exp(s * gamma_oneshot(p_w, cond, pi_x, R, s))
    slack = 0.0 if trials is None else 3.0 * float(
        np.std(vals, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return OneShotReport(lhs=lhs, rhs=rhs, gamma_rhs=gamma_rhs,
                         m_count=m_count, method=method, samples=samples,
                         holds=lhs <= rhs + slack,
                         holds_gamma=lhs <= gamma_rhs + slack)


# ---------------------------------------------------------------------------
# truncation domination and the rate bound
# ---------------------------------------------------------------------------

def _typical_w_terms(base: MarkovCoupling, n: int, eps: float,
                     eps_prime: float, seqs_x: np.ndarray, seqs_y: np.ndarray):
    """Yield (P_W(w), P(. | w) on seqs_x, P(. | w) on seqs_y, Z_X(w), Z_Y(w))
    for every eps'-typical w^n, where P_W is Q_W^n truncated to the
    eps'-typical set and the conditionals are truncated to the eps-shells."""
    spec = typ.TypicalSpec(base.q_w, n, eps_prime)
    lo, hi = spec.count_windows()
    seqs_w = _all_seqs(base.nw, n)
    counts = np.stack([(seqs_w == w).sum(axis=1) for w in range(base.nw)], axis=1)
    w_list = seqs_w[np.all((counts >= lo) & (counts <= hi), axis=1)]
    if w_list.shape[0] == 0:
        raise DomainError("empty eps'-typical W set at this n")
    z_w = typ.typical_prob_exact(spec)
    law_x, law_y = _CondLaw(base, eps, "X"), _CondLaw(base, eps, "Y")
    for w in w_list:
        pw = math.exp(sum(math.log(base.q_w.mass[sym]) for sym in w)) / z_w
        yield (pw, law_x.density(w, seqs_x), law_y.density(w, seqs_y),
               law_x.normalizer(w), law_y.normalizer(w))


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
    one minus (Z_W * min_w Z_X(w) * min_w Z_Y(w)), all normalizers exact."""
    if not 0.0 < eps_prime < eps <= 1.0:
        raise ConfigError("need 0 < eps_prime < eps <= 1")
    if not 0.0 < s <= 1.0:
        raise ConfigError("s must lie in (0, 1]")
    _check_exact_budget(base, n, 1)
    seqs_x = _all_seqs(base.nx, n)
    seqs_y = _all_seqs(base.ny, n)
    mass = np.zeros((seqs_x.shape[0], seqs_y.shape[0]))
    z_x_min, z_y_min = 1.0, 1.0
    for pw, px, py, z_x, z_y in _typical_w_terms(base, n, eps, eps_prime,
                                                 seqs_x, seqs_y):
        z_x_min, z_y_min = min(z_x_min, z_x), min(z_y_min, z_y)
        mass += pw * np.outer(px, py)
    z_w = typ.typical_prob_exact(typ.TypicalSpec(base.q_w, n, eps_prime))
    delta = 1.0 - z_w * z_x_min * z_y_min
    pin = _pi_n_matrix(base.xy_marginal(), seqs_x, seqs_y)
    cap = pin / (1.0 - delta)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(mass > 0, mass / np.where(cap > 0, cap, np.inf), 0.0)
    max_ratio = float(ratios.max())
    div = renyi(mass.ravel(), pin.ravel(), s)
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
    if not 0.0 < s <= 1.0:
        raise ConfigError("s must lie in (0, 1]")
    _check_exact_budget(base, n, 1)
    seqs_x = _all_seqs(base.nx, n)
    seqs_y = _all_seqs(base.ny, n)
    pin = _pi_n_matrix(base.xy_marginal(), seqs_x, seqs_y)
    with np.errstate(divide="ignore"):
        pin_neg_s = np.where(pin > 0, pin ** (-s), 0.0)
    total = 0.0
    delta_1, delta_2 = 0.0, 0.0
    for pw, px, py, z_x, z_y in _typical_w_terms(base, n, eps, eps_prime,
                                                 seqs_x, seqs_y):
        if np.any((px[:, None] * py[None, :] > 0) & (pin == 0)):
            raise DomainError("induced mass outside supp(pi^n)")
        delta_1, delta_2 = max(delta_1, 1.0 - z_x), max(delta_2, 1.0 - z_y)
        total += pw * float(px ** (1.0 + s) @ pin_neg_s @ py ** (1.0 + s))
    lhs = math.log(total) / (n * s)
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
