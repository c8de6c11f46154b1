"""Test-side references, written from the definitions and independent of the
package's kernels: one per concept.

- omega, Omega_Q and R^(alpha)(Q) of an augmented joint Q, held as its full
  |X| x |Y| x |U| array, from marginals summed over that array.  Omega_Q and
  R^(alpha) are expectations under Q, so they read only supp(Q).
- Conditional typicality of sequences given a conditioning sequence, from
  their joint counts; plain typicality is its one-row case, the law given a
  constant sequence, as ``synthesis._CondLaw`` treats the codeword law.
"""

import numpy as np
from scipy.special import logsumexp

from commoninfo.probability import FinitePmf
from commoninfo.typicality import count_windows

#: floor of every marginal, so that a log is finite where Q underflows to 0
TINY = 1e-300


def marginals(q):
    """The (5, |X|, |Y|, |U|) stack of Q and its XY, U, XU and YU marginals
    at every cell of the array ``q``, each clipped at ``TINY``."""
    stack = (q, q.sum(axis=2, keepdims=True),
             q.sum(axis=(0, 1), keepdims=True), q.sum(axis=1, keepdims=True),
             q.sum(axis=0, keepdims=True))
    return np.maximum(np.stack(np.broadcast_arrays(*stack)), TINY)


def omega(q, pi, alpha):
    """omega = (1-alpha) log(Q_XY Q Q_U / (pi Q_XU Q_YU))
    + alpha log(Q / (Q_U pi)) at every cell of supp(pi) x U, nan elsewhere;
    Q places no mass off supp(pi)."""
    on_pi = pi.mass > 0
    assert not q[~on_pi].any()
    log_q, log_xy, log_u, log_xu, log_yu = np.log(marginals(q))
    log_pi = np.log(np.where(on_pi, pi.mass, 1.0))[:, :, None]
    om = ((1.0 - alpha) * (log_xy - log_pi + log_q + log_u - log_xu - log_yu)
          + alpha * (log_q - log_u - log_pi))
    return np.where(on_pi[:, :, None], om, np.nan)


def big_omega(q, pi, alpha, theta):
    """Omega_Q(alpha, theta) = -log E_Q[exp(-theta omega)]."""
    supp = q > 0
    return -float(logsumexp(np.log(q[supp])
                            - theta * omega(q, pi, alpha)[supp]))


def r_alpha(q, pi, alpha):
    """R^(alpha)(Q), the KL combination
    (1-alpha) (D(Q_XY || pi) + I(X; Y | U)) + alpha D(Q_{XY|U} || pi | Q_U),
    each term an expectation under Q."""
    supp = q > 0
    q_s, q_xy, q_u, q_xu, q_yu = marginals(q)[:, supp]
    pi_s = np.broadcast_to(pi.mass[:, :, None], q.shape)[supp]
    d_xy = q_s @ np.log(q_xy / pi_s)
    i_xy_u = q_s @ np.log(q_s * q_u / (q_xu * q_yu))
    d_pi = q_s @ np.log(q_s / (q_u * pi_s))
    return float((1.0 - alpha) * (d_xy + i_xy_u) + alpha * d_pi)


def is_cond_typical(x, w, q_w, cond, eps):
    """Whether x^n is conditionally eps-typical given w^n: every count of the
    joint type of (w^n, x^n) lies in its window for Q_W Q_{X|W}.  ``x`` may
    be a stack of sequences, one answer per row."""
    x, w, cond = np.asarray(x), np.asarray(w), np.asarray(cond)
    lo, hi = count_windows(q_w.mass[:, None] * cond, w.size, eps)
    counts = np.array([[((w == a) & (x == b)).sum(axis=-1)
                        for b in range(cond.shape[1])]
                       for a in range(cond.shape[0])])
    batch = (1,) * (counts.ndim - 2)
    return np.all((counts >= lo.reshape(lo.shape + batch))
                  & (counts <= hi.reshape(hi.shape + batch)), axis=(0, 1))


def is_typical(seqs, mass, eps):
    """Whether each sequence keeps its counts in the eps-windows of the law
    ``mass``: the one-row case of ``is_cond_typical``."""
    seqs = np.asarray(seqs)
    return is_cond_typical(seqs, np.zeros(seqs.shape[-1], dtype=int),
                           FinitePmf([1.0]), np.asarray(mass)[None, :], eps)
