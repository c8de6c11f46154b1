"""Discrepancy measures between finite distributions.

KL and Renyi divergences of order 1+s (s >= -1), conditional versions, total
variation distance, the binary Renyi divergence, and the family of closed-form
lower bounds relating divergence to total variation.

Order conventions: all functions take the shift ``s`` with order = 1+s.
s = 0 dispatches to the exact KL formula and s = -1 to D_0 = -log Q(supp P);
both are special-cased branches rather than numerical limits.  Divergence is
+inf (a value, not an error) when absolute continuity fails for s > 0.
"""

from __future__ import annotations

import math
import sys

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import xlogy

from .errors import ConfigError
from .probability import FinitePmf, JointPmf


def _as_mass(p) -> np.ndarray:
    if isinstance(p, (FinitePmf, JointPmf)):
        return p.mass
    return np.asarray(p, dtype=float)


def renyi(p, q, s: float) -> float:
    """Renyi divergence of order 1+s between distributions on a common alphabet.

    D_{1+s}(p||q) = (1/s) log sum_{x in supp(p)} p(x)^{1+s} q(x)^{-s},
    with the KL branch at s = 0 and D_0(p||q) = -log q(supp p) at s = -1.
    """
    pm, qm = _as_mass(p).ravel(), _as_mass(q).ravel()
    if pm.shape != qm.shape:
        raise ConfigError("renyi: mismatched alphabets")
    if s < -1:
        raise ConfigError("renyi: order parameter s must be >= -1")
    supp = pm > 0
    ps, qs = pm[supp], qm[supp]
    if s == -1:
        mass = qs.sum()
        return math.inf if mass == 0 else max(float(-math.log(mass)), 0.0)
    if abs(s) < sys.float_info.min:
        # a subnormal s leaves s * log(p/q) too few digits; D_{1+s} is KL
        # to within O(s) there
        if np.any(qs == 0):
            return math.inf
        return max(float(xlogy(ps, ps / qs).sum()), 0.0)
    if s > 0 and np.any(qs == 0):
        return math.inf
    with np.errstate(divide="ignore"):
        log_ratio = np.log(ps) - np.log(qs)
    if abs(s) < 1e-4:
        # (1/s) log E_p[e^{s log(p/q)}] loses ~16-|log10 s| digits if formed
        # naively; expm1/log1p keeps the small-s cancellation exact
        total = float((ps * np.expm1(s * log_ratio)).sum())
        if total <= -1.0:
            return math.inf              # supp(p) disjoint from supp(q), s < 0
        return max(float(math.log1p(total) / s), 0.0)
    # work in log-space for stability at extreme masses
    with np.errstate(divide="ignore"):
        log_terms = (1 + s) * np.log(ps) - s * np.log(qs)
    m = log_terms.max()
    if m == -math.inf:
        # possible only for s in (-1, 0) with supp(p) disjoint from supp(q)
        return math.inf
    val = (m + math.log(np.exp(log_terms - m).sum())) / s
    return max(float(val), 0.0)


def kl(p, q) -> float:
    """Relative entropy D(p||q) in nats."""
    return renyi(p, q, 0.0)


def glue(p_x: FinitePmf, cond: np.ndarray) -> JointPmf:
    """Joint p_x(x) * cond(x, .) as a 2-axis JointPmf."""
    cond = np.asarray(cond, dtype=float)
    if cond.ndim != 2 or cond.shape[0] != p_x.alphabet_size:
        raise ConfigError("glue: conditional rows must match p_x alphabet")
    return JointPmf(p_x.mass[:, None] * cond)


def conditional_renyi(p_joint: JointPmf, q_cond: np.ndarray, s: float) -> float:
    """D_{1+s}(P_{Y|X} || Q_{Y|X} | P_X) = D_{1+s}(P_X P_{Y|X} || P_X Q_{Y|X})."""
    if p_joint.ndim != 2:
        raise ConfigError("conditional_renyi needs a 2-axis joint")
    q_cond = np.asarray(q_cond, dtype=float)
    if q_cond.shape != p_joint.dims:
        raise ConfigError("conditional_renyi: shape mismatch")
    p_x = p_joint.marginal(0)
    glued_q = p_x.mass[:, None] * q_cond
    pm = p_joint.mass.ravel()
    qm = glued_q.ravel()
    # glued_q need not be exactly normalized if q rows are unnormalized; insist
    if abs(qm.sum() - 1.0) > 1e-9:
        raise ConfigError("conditional_renyi: q_cond rows are not normalized")
    return renyi(pm / pm.sum(), qm / qm.sum(), s)


def tv(p, q) -> float:
    """Total variation distance, (1/2) sum |p - q|, in [0, 1]."""
    pm, qm = _as_mass(p), _as_mass(q)
    if pm.shape != qm.shape:
        raise ConfigError("tv: shape mismatch")
    return float(0.5 * np.abs(pm - qm).sum())


def binary_renyi(p: float, q: float, s: float) -> float:
    """Renyi divergence of order 1+s between Bernoulli(p) and Bernoulli(q)."""
    if not (0.0 <= p <= 1.0 and 0.0 <= q <= 1.0):
        raise ConfigError("binary_renyi: p, q must lie in [0, 1]")
    return renyi(np.array([p, 1.0 - p]), np.array([q, 1.0 - q]), s)


def pinsker_lb(eps: float, s: float) -> float:
    """Pinsker-type lower bound (1+s) eps^2 / 2 on the divergence at TV >= eps."""
    if s <= -1:
        raise ConfigError("pinsker_lb requires s > -1")
    return (1.0 + s) * eps * eps / 2.0


ORDER_BELOW_ONE = "order_below_one"
ORDER_ABOVE_ONE = "order_above_one"


def sason_closed_lb(eps: float, s: float, side: str) -> float:
    """Closed-form lower bounds on inf {D || TV >= eps}.

    side = ORDER_BELOW_ONE: bound for orders 1-s, s in (0, 1):
        [log 1/(4(1-eps))]^+                                  for s in (0, 1/2]
        [((1-s)/s) log 1/(1-eps) - (1/s) log 2]^+   for s in (1/2, 1), eps > 1/2
        0                                          for s in (1/2, 1), eps <= 1/2
    side = ORDER_ABOVE_ONE: bound for orders 1+s, s >= 0:
        [log 1/(4(1-eps))]^+.
    """
    if not 0.0 <= eps <= 1.0:
        raise ConfigError("sason_closed_lb: eps must lie in [0, 1]")
    if eps == 1.0:
        return math.inf
    log_inv = -math.log1p(-eps)
    if side == ORDER_ABOVE_ONE:
        if s < 0:
            raise ConfigError("order_above_one side requires s >= 0")
        return max(log_inv - math.log(4.0), 0.0)
    if side == ORDER_BELOW_ONE:
        if not 0.0 < s < 1.0:
            raise ConfigError("order_below_one side requires s in (0, 1)")
        if s <= 0.5:
            return max(log_inv - math.log(4.0), 0.0)
        if eps > 0.5:
            return max((1.0 - s) / s * log_inv - math.log(2.0) / s, 0.0)
        return 0.0
    raise ConfigError(f"unknown side {side!r}")


def sason_basic_lb(eps: float, s: float) -> float:
    """The un-optimized bound [min{1, (1-s)/s} log 1/(1-eps) - (1/s) log 2]^+
    for orders 1-s, s in (0, 1)."""
    if not 0.0 < s < 1.0:
        raise ConfigError("sason_basic_lb requires s in (0, 1)")
    if eps == 1.0:
        return math.inf
    log_inv = -math.log1p(-eps)
    return max(min(1.0, (1.0 - s) / s) * log_inv - math.log(2.0) / s, 0.0)


def sason_inf(eps: float, s: float) -> float:
    """inf over q in [0, 1-eps] of binary_renyi(q+eps, q, s).

    This equals inf {D_{1+s}(P||Q) : |P-Q| >= eps} over all finite alphabets.
    Renyi divergence is jointly quasi-convex in (P, Q) for every order (van
    Erven and Harremoes 2014), so q -> D_{1+s}(Bern(q+eps) || Bern(q)) is
    quasi-convex along the segment, hence unimodal on [0, 1-eps]: one bounded
    scalar search finds the minimum, and both endpoints are scored because
    the minimum can sit on one.  The search runs over u in [0, pi/2] with
    q = (1-eps) sin^2 u: for s < 0 the minimum can lie within 1e-11 of an
    endpoint, at the foot of a slope that is infinite there, and the flat
    ends of sin^2 let the search's x-tolerance resolve it.  The D_0 infimum
    (s = -1) is 0 for every eps, including the boundary eps = 1.
    """
    if not 0.0 <= eps <= 1.0:
        raise ConfigError("sason_inf: eps must lie in [0, 1]")
    if eps == 0.0:
        return 0.0
    if s <= -1:
        return 0.0
    if eps == 1.0:
        return math.inf

    def obj(q: float) -> float:
        # q + eps may round past 1 at q = 1 - eps
        return binary_renyi(min(q + eps, 1.0), q, s)

    res = minimize_scalar(lambda u: obj((1.0 - eps) * math.sin(u) ** 2),
                          bounds=(0.0, math.pi / 2), method="bounded",
                          options={"xatol": 1e-10})
    return float(max(min(res.fun, obj(0.0), obj(1.0 - eps)), 0.0))
