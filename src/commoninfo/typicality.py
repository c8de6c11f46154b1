"""Method-of-types utilities.

The count windows of relative-deviation typical sets, conditional typical sets
defined through the joint type, exact shell masses by a log-space convolution
over the symbols, and the explicit two-exponential uniform
conditional-typicality bound.

The membership condition is per-symbol relative deviation,
|T(x) - Q(x)| <= eps * Q(x) for every x, so zero-probability symbols must not
appear at all.  Conditional typicality of x^n given w^n means the pair's joint
type satisfies the same condition against Q_W * Q_{X|W}; for a fixed w^n this
constrains each per-w subsequence independently, so the shell mass is a
product over the W-symbols a of z_a(k_a), the probability that a block of
k_a uses of a keeps its counts in the windows.  One convolution gives z_a(k)
for every k = 0..n at once.  Unconditional typicality is the one-row case:
Q_W given a constant sequence, whose windows are ``count_windows(Q_W, n, eps)``
and whose typical-set mass Q_W^n(T) is entry n of the one-row table of
``cond_shell``, which returns a shell's windows and its table together.

A truncated code takes two tolerances: eps for the conditional shells and
eps' for the codeword law.  Each is None (no truncation) or satisfies
0 < eps' < eps <= 1, a None eps counting as 1 in the bound on eps';
``check_truncation`` is that rule, and every entry point that takes the pair
runs it.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln

from .errors import ConfigError, DomainError, ResourceBudgetError
from .probability import FinitePmf, _validated_rows

MAX_N = 200
MAX_ALPHABET = 8
#: cap on the joint types, and on one W-symbol's candidate count tables, of
#: the finite-n checks' type table (``synthesis._joint_types``)
MAX_TYPES = 2_000_000
#: slack for float edge effects when converting window bounds to integers
_EDGE_TOL = 1e-9


def count_windows(mass: np.ndarray, n: int, eps: float):
    """The counts c of every cell in a length-n type with
    |c - n mass| <= eps n mass, as inclusive ranges [lo, hi] clipped to
    [0, n]; hi = 0 where mass = 0.  A sequence is eps-typical for ``mass``
    when its type's counts all lie in these windows."""
    lo = np.ceil(n * mass * (1.0 - eps) - _EDGE_TOL).astype(int)
    hi = np.floor(n * mass * (1.0 + eps) + _EDGE_TOL).astype(int)
    return np.maximum(lo, 0), np.where(mass == 0, 0, np.minimum(hi, n))


def check_truncation(eps, eps_prime, required=()):
    """The rule of the module docstring on the truncation pair (eps, eps'),
    where the names in ``required`` ("eps", "eps_prime") may not be None;
    a ConfigError names the value that breaks it and its range."""
    if ("eps" in required if eps is None else not 0.0 < eps <= 1.0):
        raise ConfigError(f"eps = {eps} not in (0, 1]")
    top = 1.0 if eps is None else eps
    if ("eps_prime" in required if eps_prime is None
            else not 0.0 < eps_prime < top):
        raise ConfigError(f"eps_prime = {eps_prime} not in (0, {top})")


def _check_budget(n: int, alphabet: int):
    if n > MAX_N:
        raise ResourceBudgetError(f"block length {n} exceeds cap {MAX_N}")
    if alphabet > MAX_ALPHABET:
        raise ResourceBudgetError(f"alphabet size {alphabet} exceeds cap {MAX_ALPHABET}")


def _logsumexp(a) -> np.ndarray:
    """log sum exp(a) over the last axis, step for step as
    ``scipy.special.logsumexp`` computes it for a real array without
    weights, and equal to it bit for bit: the max is split off, with its
    ties counted, the rest summed shifted by it and taken through log1p;
    a non-finite result falls back to log(sum(exp(a))), and an empty
    array gives -inf.  It skips scipy's array-API dispatch, which costs
    more than the sum on the short rows summed here."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return np.full(a.shape[:-1], -np.inf)[()]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        top = a.max(axis=-1, keepdims=True)
        at_top = a == top
        ties = at_top.sum(axis=-1, keepdims=True, dtype=float)
        rest = np.exp(np.where(at_top, -np.inf, a) - top).sum(
            axis=-1, keepdims=True)
        rest = np.where(rest == 0, rest, rest / ties)
        out = (np.log1p(rest) + np.log(ties) + top)[..., 0]
        direct = np.log(np.exp(a).sum(axis=-1))
    return np.where(np.isfinite(out), out, direct)[()]


def _block_log_probs(q: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                     n: int) -> np.ndarray:
    """log of the probability that an i.i.d.(q) block of length k keeps every
    symbol count in [lo, hi], for k = 0..n.

    That probability is k! times the coefficient of t^k in
    prod_x sum_{c = lo_x}^{hi_x} (q_x t)^c / c!, which is convolved in log
    space one symbol at a time, in O(|X| (n+1)^2).  The windows must be
    clipped as ``count_windows`` clips them: lo >= 0, hi <= n, hi = 0 where
    q = 0.
    """
    log_fact = gammaln(np.arange(n + 1) + 1.0)
    log_q = np.log(np.where(q > 0, q, 1.0))      # only ever times c = 0 at q = 0
    acc = np.full(n + 1, -np.inf)                # log coefficients, t^0..t^n
    acc[0] = 0.0
    for x in range(q.size):
        c = np.arange(lo[x], hi[x] + 1)
        shift = np.arange(n + 1)[:, None] - c    # k - c for every (k, c)
        terms = np.where(shift >= 0, acc[np.maximum(shift, 0)], -np.inf)
        acc = _logsumexp(terms + (c * log_q[x] - log_fact[c]))
    return acc + log_fact


def cond_shell(q_w: FinitePmf, q_cond, n: int, eps: float):
    """The conditional eps-shell at block length n: the per-(w, x) count
    ranges [lo, hi] of the joint-type condition
    |T(w,x) - Q_W(w)Q_{X|W}(x|w)| <= eps * Q_W(w)Q_{X|W}(x|w), and the
    (|W|, n+1) table of log z_a(k), the probability that k i.i.d. draws from
    Q_{X|W}(.|a) keep their (a, x) counts in those ranges.  The shell mass
    of a length-n w^n of type k is prod_a z_a(k_a)."""
    cond = _validated_rows(q_cond, q_w.alphabet_size)
    _check_budget(n, max(cond.shape))
    lo, hi = count_windows(q_w.mass[:, None] * cond, n, eps)
    return lo, hi, np.stack([_block_log_probs(row, lo_a, hi_a, n)
                             for row, lo_a, hi_a in zip(cond, lo, hi)])


def cond_typical_defect_exact(q_w: FinitePmf, q_cond, w_seq, eps: float,
                              eps_prime: float | None = None) -> float:
    """Exact probability that X^n ~ prod Q_{X|W}(.|w_i) is NOT conditionally
    eps-typical given w^n.

    The joint-type condition constrains the counts within each per-w
    subsequence independently, so the success probability is the product
    of z_a(k_a) over the W-symbols (``cond_shell``).  When
    ``eps_prime`` is given, ``w_seq`` is required to be eps_prime-typical
    for Q_W (the regime in which the uniform bound applies); non-typical
    conditioning sequences are rejected.  Acceptance criterion 7 runs it.
    """
    check_truncation(eps, eps_prime, required=("eps",))
    cond = _validated_rows(q_cond, q_w.alphabet_size)
    w_seq = np.asarray(w_seq, dtype=int)
    if w_seq.ndim != 1:
        raise ConfigError("w_seq must be 1-D")
    n = w_seq.size
    nw, nx = cond.shape
    _check_budget(n, max(nw, nx))
    if np.any(w_seq < 0) or np.any(w_seq >= nw):
        raise ConfigError("w_seq symbol out of range")
    w_counts = np.bincount(w_seq, minlength=nw)
    if np.any((w_counts > 0) & (q_w.mass == 0)):
        raise DomainError("w_seq uses a symbol outside supp(Q_W)")
    if eps_prime is not None:
        if n < 1:
            raise ConfigError("block length must be >= 1")
        lo, hi = count_windows(q_w.mass, n, eps_prime)
        if np.any((w_counts < lo) | (w_counts > hi)):
            raise DomainError("w_seq is not eps_prime-typical for Q_W")
    _, _, table = cond_shell(q_w, cond, n, eps)
    log_success = table[np.arange(nw), w_counts].sum()
    return float(min(max(1.0 - np.exp(log_success), 0.0), 1.0))


def contyplem_bound(eps: float, eps_prime: float, n: int, q_min: float,
                    alphabet_x: int, alphabet_w: int) -> float:
    """The explicit uniform conditional-typicality bound
    |X||W| (exp(-(1/3)((eps-eps')/(1+eps'))^2 n q_min)
          + exp(-(1/2)((eps-eps')/(1-eps'))^2 n q_min)),
    valid for every eps'-typical conditioning sequence, with q_min the least
    positive conditional probability."""
    check_truncation(eps, eps_prime, required=("eps", "eps_prime"))
    if not 0.0 < q_min <= 1.0:
        raise ConfigError("q_min must lie in (0, 1]")
    if n < 0:
        raise ConfigError("n must be nonnegative")
    gap = eps - eps_prime
    t1 = np.exp(-(1.0 / 3.0) * (gap / (1.0 + eps_prime)) ** 2 * n * q_min)
    t2 = np.exp(-(1.0 / 2.0) * (gap / (1.0 - eps_prime)) ** 2 * n * q_min)
    return float(alphabet_x * alphabet_w * (t1 + t2))
