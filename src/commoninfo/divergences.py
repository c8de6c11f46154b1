"""Discrepancy measures between finite distributions.

KL and Renyi divergences of order 1+s (s >= -1), total variation distance,
and the lower bounds on divergence at fixed total variation: Pinsker's, the
closed form of Sason, and the exact infimum over Bernoulli pairs.

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
    if not s >= -1:
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
    if abs(s) < 1e-4:
        # (1/s) log E_p[e^{s log(p/q)}] loses ~16-|log10 s| digits if formed
        # naively; expm1/log1p keeps the small-s cancellation exact
        with np.errstate(divide="ignore"):
            log_ratio = np.log(ps) - np.log(qs)
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


def tv(p, q) -> float:
    """Total variation distance, (1/2) sum |p - q|, in [0, 1]."""
    pm, qm = _as_mass(p), _as_mass(q)
    if pm.shape != qm.shape:
        raise ConfigError("tv: shape mismatch")
    return float(0.5 * np.abs(pm - qm).sum())


def pinsker_lb(eps: float, s: float) -> float:
    """Pinsker-type lower bound (1+s) eps^2 / 2 on the divergence at TV >= eps."""
    if not 0.0 <= eps <= 1.0:
        raise ConfigError("pinsker_lb: eps must lie in [0, 1]")
    if not s > -1:
        raise ConfigError("pinsker_lb requires s > -1")
    return (1.0 + s) * eps * eps / 2.0


def sason_closed_lb(eps: float, s: float) -> float:
    """Closed-form lower bound on inf {D_{1+s}(P||Q) : |P-Q| >= eps}.

    With order 1+s and [x]^+ = max(x, 0):
        [log 1/(4(1-eps))]^+                                for s >= -1/2
        [((1+s)/|s|) log 1/(1-eps) - (1/|s|) log 2]^+       for -1 < s < -1/2
        0                                                   at s = -1.
    Below order one this is the larger of Sason's closed form and the basic
    bound [min{1, (1+s)/|s|} log 1/(1-eps) - (1/|s|) log 2]^+.  For
    -1/2 <= s < 0 the basic bound is the smaller, since (1/|s|) log 2 >= log 4;
    for s < -1/2 the two are the same expression (Sason's reads 0 at
    eps <= 1/2, where the basic one is negative before clipping).
    """
    if not 0.0 <= eps <= 1.0:
        raise ConfigError("sason_closed_lb: eps must lie in [0, 1]")
    if not s >= -1:
        raise ConfigError("sason_closed_lb: order parameter s must be >= -1")
    if s == -1:
        return 0.0
    if eps == 1.0:
        return math.inf
    log_inv = -math.log1p(-eps)
    if s >= -0.5:
        return max(log_inv - math.log(4.0), 0.0)
    t = -s
    return max((1.0 - t) / t * log_inv - math.log(2.0) / t, 0.0)


def sason_inf(eps: float, s: float) -> float:
    """inf over q in [0, 1-eps] of D_{1+s}(Bern(q+eps) || Bern(q)).

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
        p = min(q + eps, 1.0)
        return renyi(np.array([p, 1.0 - p]), np.array([q, 1.0 - q]), s)

    res = minimize_scalar(lambda u: obj((1.0 - eps) * math.sin(u) ** 2),
                          bounds=(0.0, math.pi / 2), method="bounded",
                          options={"xatol": 1e-10})
    return float(max(min(res.fun, obj(0.0), obj(1.0 - eps)), 0.0))
