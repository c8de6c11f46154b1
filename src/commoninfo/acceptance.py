"""The acceptance suite: twelve end-to-end checks of the workbench.

``CRITERIA`` lists the criteria in number order, each a name and a check of
no arguments that returns (passed, detail); ``run_all`` numbers, runs and
times them.  Tolerances are fixed here and mirrored by the test suite.
Frozen regression values were produced by the first run of this code and are
compared bitwise-tight (1e-9) thereafter.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass

import numpy as np

from .probability import FinitePmf, coupling_information
from . import divergences as dv
from .ci_solver import wyner_ci
from .errors import ConfigError
from . import exponents
from . import typicality as typ
from . import synthesis
from . import experiments
from .fixtures import (dsbs, dsbes, common_part_source, copy_source,
                       product_source, dsbs_optimal_coupling,
                       copy_coupling_binary)

PLAN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "plans", "paper_suite.plan")

#: exact unnormalized order-2 divergence of the untruncated code on the
#: correlated binary fixture at 1.2x the common information, seed 3
TREND_FROZEN = (0.6640220887, 0.5661867509, 0.4208217231, 0.3942713099)
TREND_NS = (4, 6, 8, 10)

DSBS_CI_EXACT = 0.6049515261814264      # ln2 + h(0.1) - 2 h(a), a = (1-sqrt(0.8))/2


@dataclass
class CriterionReport:
    number: int
    name: str
    passed: bool
    detail: str
    runtime: float = 0.0

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return (f"[{tag}] criterion {self.number:2d} {self.name}: "
                f"{self.detail} ({self.runtime:.1f}s)")


# ---------------------------------------------------------------------------

def divergence_axioms() -> tuple[bool, str]:
    """1000 random pmf pairs x s grid: axioms and the bound chains."""
    rng = np.random.default_rng(0)
    s_grid = (-1.0, -0.5, 0.0, 0.5, 1.0)
    for trial in range(1000):
        k = int(rng.integers(2, 7))
        p = rng.dirichlet(np.ones(k))
        q = rng.dirichlet(np.ones(k))
        if trial % 7 == 0:              # exercise absolute-continuity edges
            q[int(rng.integers(k))] = 0.0
            q = q / q.sum()
        eps = dv.tv(p, q)
        prev = -math.inf
        for s in s_grid:
            d = dv.renyi(p, q, s)
            if d < 0:
                return False, f"negative divergence {d}"
            if dv.renyi(p, p, s) > 1e-10:
                return False, "identity of indiscernibles violated"
            if d < prev - 1e-12:
                return False, f"not monotone in s at s={s}"
            prev = d
            if s > -1 and d < dv.pinsker_lb(eps, s) - 1e-9:
                return False, f"Pinsker chain violated at s={s}"
            inf_val = dv.sason_inf(eps, s)
            if d < inf_val - 1e-9:
                return False, f"divergence below sason_inf at s={s}"
            if inf_val < dv.sason_closed_lb(eps, s) - 1e-9:
                return False, f"sason_inf below closed form at s={s}"
    return True, "1000 pairs x 5 orders, all chains hold"


def _dsbs_ci(p: float) -> float:
    """I(XY;W) of the optimal DSBS(p) coupling: ln 2 + h(p) - 2 h(a),
    a = (1 - sqrt(1 - 2p))/2 (Wyner 1975)."""
    return coupling_information(dsbs_optimal_coupling(p))


#: erasure probabilities of the DSBES(e) references of criterion 2
CI_DSBES_ES = (0.2, 0.4, 0.6, 0.8)
#: (q, p) of criterion 2's 3x3 common-part reference
CI_COMMON_PART = (0.6, 0.2)


def ci_correctness() -> tuple[bool, str]:
    """Solver against exact values: 0 on a product source, ln 2 on the copy
    source, Wyner's closed form on 20 seeded DSBS(p), C = ln 2 for e <= 1/2
    and h(e) above on DSBES(e) (Cuff, Permuter and Cover 2010), and
    h(q) + q C_DSBS(p) on the 3x3 joint with a common part of mass split
    (1 - q, q)."""
    v_prod = wyner_ci(product_source()).value
    if abs(v_prod) > 1e-6:
        return False, f"product source gave {v_prod}"
    v_copy = wyner_ci(copy_source()).value
    if abs(v_copy - math.log(2)) > 1e-3:
        return False, f"copy source gave {v_copy}"

    def h(t):
        return FinitePmf(np.array([t, 1 - t])).entropy()

    rng = np.random.default_rng(0)
    cases = [(f"at p={p:.4f}", dsbs(p), _dsbs_ci(p))
             for p in (float(rng.uniform(0.02, 0.45)) for _ in range(20))]
    cases += [(f"on DSBES at e={e:g}", dsbes(e),
               math.log(2) if e <= 0.5 else h(e)) for e in CI_DSBES_ES]
    q, p = CI_COMMON_PART
    cases.append((f"on the common-part joint at q={q:g}, p={p:g}",
                  common_part_source(q, p), h(q) + q * _dsbs_ci(p)))
    worst = 0.0
    for where, pi, exact in cases:
        worst = max(worst, abs(wyner_ci(pi).value - exact))
        if worst > 1e-3:
            return False, f"solver vs closed form diff {worst:.2e} {where}"
    return True, (f"product and copy hit; worst closed-form diff {worst:.2e} "
                  f"over 20 DSBS(p), 4 DSBES(e) and the 3x3 common part")


def r_sh_identity() -> tuple[bool, str]:
    """sup_alpha (1/alpha) R^(alpha) equals the common information."""
    worst = 0.0
    for name, pi in (("dsbs01", dsbs(0.1)), ("copy", copy_source()),
                     ("product", product_source())):
        sol = wyner_ci(pi)
        val = exponents.r_sh(pi, ci=sol)
        gap = abs(val - sol.value)
        worst = max(worst, gap)
        if gap > 2e-2:
            return False, f"{name}: |r_sh - ci| = {gap:.3e}"
    return True, f"worst fixture gap {worst:.2e}"


def theta_limit() -> tuple[bool, str]:
    """(1/theta) Omega -> R^(alpha) as theta -> 0."""
    pi = dsbs(0.1)
    sol = wyner_ci(pi)
    for alpha in (0.25, 0.5, 1.0):
        rep = exponents.theta_limit_check(pi, alpha, (1e-2, 1e-3, 1e-4),
                                          ci=sol)
        if abs(rep.final_gap) > 1e-2:
            return False, f"alpha={alpha}: gap {rep.final_gap:.3e}"
        gaps = [abs(g) for g in rep.gaps]
        if not all(b <= a + 1e-9 for a, b in zip(gaps, gaps[1:])):
            return False, f"alpha={alpha}: gaps not shrinking {gaps}"
    return True, "limit matches R^(alpha) at theta=1e-4 for all alpha"


def exponent_sign() -> tuple[bool, str]:
    """F(R) > 0 strictly below the common information, 0 at and above."""
    details = []
    for name, pi in (("dsbs01", dsbs(0.1)), ("copy", copy_source())):
        sol = wyner_ci(pi)
        for mult in (1.0, 1.2, 2.0):
            f = exponents.f_rate(pi, mult * sol.value, ci=sol)
            if f > 1e-4:
                return False, f"{name}: F({mult}C) = {f:.3e} > 1e-4"
        for mult in (0.5, 0.9):
            f = exponents.f_rate(pi, mult * sol.value, ci=sol)
            if f < 1e-4:
                return False, f"{name}: F({mult}C) = {f:.3e} < 1e-4"
            details.append(f"{name}@{mult}C={f:.2e}")
    return True, " ".join(details)


def oneshot_bound() -> tuple[bool, str]:
    """One-shot achievability bound, exact over codebook types."""
    rng = np.random.default_rng(0)
    instances = []
    for _ in range(20):
        p_w = FinitePmf(rng.dirichlet(np.ones(2)))
        cond = rng.dirichlet(np.ones(2), size=2)
        pi_x = FinitePmf(rng.dirichlet(np.ones(2)))
        s = float(rng.uniform(0.05, 1.0))
        instances += [(p_w, cond, pi_x, s, m) for m in (1, 2, 4)]
    for _ in range(100):
        k_w = int(rng.integers(2, 4))
        k_x = int(rng.integers(2, 4))
        p_w = FinitePmf(rng.dirichlet(np.ones(k_w)))
        cond = rng.dirichlet(np.ones(k_x), size=k_w)
        pi_x = FinitePmf(rng.dirichlet(np.ones(k_x)))
        s = float(rng.uniform(0.05, 1.0))
        instances.append((p_w, cond, pi_x, s, int(rng.choice([2, 4, 8]))))
    slack, gamma_slack = math.inf, math.inf
    for i, args in enumerate(instances):
        rep = synthesis.oneshot_bound_verify(*args)
        if not (rep.holds and rep.holds_gamma):
            return False, f"violation at instance {i}, M={args[-1]}"
        slack = min(slack, rep.rhs - rep.lhs)
        gamma_slack = min(gamma_slack, rep.gamma_rhs - rep.lhs)
    return True, (f"exact on {len(instances)} instances, min rhs - lhs "
                  f"{slack:.3f}, min 2e^(s Gamma) - lhs {gamma_slack:.3f}")


def conditional_typicality() -> tuple[bool, str]:
    """Exact conditional defect never exceeds the two-exponential bound."""
    q_w = FinitePmf(np.array([0.5, 0.5]))
    instances = [np.array([[0.8, 0.2], [0.3, 0.7]]),
                 np.array([[0.6, 0.4], [0.4, 0.6]])]
    checked = 0
    for cond in instances:
        q_min = float(cond[cond > 0].min())
        for eps, eps_p in ((0.4, 0.2), (0.6, 0.3)):
            for n in (8, 16, 32, 64):
                lo, hi = typ.count_windows(q_w.mass, n, eps_p)
                bound = typ.contyplem_bound(eps, eps_p, n, q_min, 2, 2)
                for k0 in range(int(lo[0]), int(hi[0]) + 1):
                    if not lo[1] <= n - k0 <= hi[1]:
                        continue
                    w_seq = np.array([0] * k0 + [1] * (n - k0))
                    d = typ.cond_typical_defect_exact(q_w, cond, w_seq, eps,
                                                      eps_prime=eps_p)
                    checked += 1
                    if d > bound + 1e-12:
                        return False, (f"defect {d:.4f} > bound {bound:.4f} "
                                       f"at n={n}, eps={eps}")
    return True, f"{checked} typical conditioning classes within the bound"


def truncation_domination() -> tuple[bool, str]:
    """P <= pi^n / (1 - delta_n) pointwise and in divergence."""
    cases = [(dsbs_optimal_coupling(0.1), n, s)
             for n in (4, 6, 8) for s in (0.5, 1.0)]
    cases.append((copy_coupling_binary(), 8, 1.0))
    for base, n, s in cases:
        rep = synthesis.truncation_check(base, n, 1.0, 0.5, s)
        if not (rep.holds_pointwise and rep.holds_divergence):
            return False, (f"n={n}, s={s}: ratio {rep.max_ratio:.4f}, "
                           f"D {rep.divergence:.4f} vs cap {rep.divergence_cap:.4f}")
    return True, f"{len(cases)} fixtures dominated pointwise and in divergence"


def achievability_trend() -> tuple[bool, str]:
    """Exact order-2 divergence decays along n above the common information."""
    base = dsbs_optimal_coupling(0.1)
    vals = []
    for n in TREND_NS:
        code = synthesis.build_code(base, n, 1.2 * DSBS_CI_EXACT,
                                    None, 0.5, seed=3)
        vals.append(synthesis.estimate_renyi(code, 1.0).point)
    for v, frozen in zip(vals, TREND_FROZEN):
        if v > frozen + 1e-9:
            return False, f"value {v:.10f} above frozen {frozen:.10f}"
    slope = float(np.polyfit(TREND_NS, np.log(vals), 1)[0])
    if slope >= 0:
        return False, f"fitted slope {slope:+.4f} not negative"
    return True, f"slope {slope:+.4f}, values match frozen run"


def strong_converse() -> tuple[bool, str]:
    """TV >= 1 - 4 exp(-n F(R)) below the common information, rising with n."""
    base = dsbs_optimal_coupling(0.1)
    pi = base.xy_marginal()
    sol = wyner_ci(pi)
    r = 0.5 * sol.value
    f = exponents.f_rate(pi, r, ci=sol)
    ns = (8, 12, 16)
    per_seed = {}
    for cell_seed in range(10):
        tvs = []
        for n in ns:
            code = synthesis.build_code(base, n, r, 1.0, 0.5, seed=cell_seed)
            est = synthesis.estimate_tv(code, samples=3000, seed=cell_seed)
            bound = 1.0 - 4.0 * math.exp(-n * f)
            if est.point < bound - 3.0 * est.std_error:
                return False, (f"TV {est.point:.4f} below bound {bound:.4f} "
                               f"at n={n}, seed={cell_seed}")
            tvs.append(est.point)
        if not all(b >= a for a, b in zip(tvs, tvs[1:])):
            return False, f"TV not increasing in n for seed {cell_seed}: {tvs}"
        per_seed[cell_seed] = tvs
    lo = min(v[0] for v in per_seed.values())
    hi = max(v[-1] for v in per_seed.values())
    return True, (f"F(R)={f:.4f}; TV rises from >={lo:.3f} to {hi:.4f} "
                  f"over n={ns} on 10 seeds")


def rate_bound() -> tuple[bool, str]:
    """Exact normalized divergence against the single-letter rate bound."""
    rep = synthesis.rate_bound_check(dsbs_optimal_coupling(0.1), 8, 1.0, 0.5,
                                     s=1.0)
    if not rep.holds or rep.slack < 0:
        return False, f"lhs {rep.lhs:.4f} vs rhs {rep.rhs:.4f}"
    return True, (f"lhs {rep.lhs:.4f} <= rhs {rep.rhs:.4f}, "
                  f"slack {rep.slack:.4f}")


def reproducibility() -> tuple[bool, str]:
    """The shipped plan yields byte-identical CSV across reruns."""
    plan_a = experiments.load_plan(PLAN_PATH)
    plan_b = experiments.load_plan(PLAN_PATH)
    csv_a = experiments.to_csv(experiments.run_plan(plan_a))
    csv_b = experiments.to_csv(experiments.run_plan(plan_b))
    if csv_a != csv_b:
        return False, "CSV differs between reruns"
    n_rows = csv_a.count("\n") - 1
    return True, f"two runs byte-identical ({n_rows} rows)"


#: the suite in number order: criterion k is entry k - 1, a name and a check
#: of no arguments that returns (passed, detail)
CRITERIA = (("divergence axioms", divergence_axioms),
            ("ci correctness", ci_correctness),
            ("R_sh identity", r_sh_identity),
            ("theta->0 limit", theta_limit),
            ("exponent sign", exponent_sign),
            ("one-shot bound", oneshot_bound),
            ("conditional typicality", conditional_typicality),
            ("truncation domination", truncation_domination),
            ("achievability trend", achievability_trend),
            ("strong converse", strong_converse),
            ("rate bound", rate_bound),
            ("reproducibility", reproducibility))


def run_all(only=None) -> list:
    """Run the criteria numbered in ``only`` (all when it is empty), in
    number order, and time each one.  A number that names no criterion is a
    ConfigError, raised before any criterion runs."""
    unknown = sorted(set(only or ()) - set(range(1, len(CRITERIA) + 1)))
    if unknown:
        raise ConfigError(f"no criterion numbered "
                          f"{', '.join(map(str, unknown))}; the criteria are "
                          f"numbered 1-{len(CRITERIA)}")
    reports = []
    for number, (name, check) in enumerate(CRITERIA, start=1):
        if only and number not in only:
            continue
        t0 = time.perf_counter()
        passed, detail = check()
        reports.append(CriterionReport(number, name, bool(passed), detail,
                                       time.perf_counter() - t0))
    return reports
