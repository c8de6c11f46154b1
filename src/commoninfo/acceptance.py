"""The acceptance suite: twelve end-to-end checks of the workbench.

Each criterion is a callable returning a CriterionReport; ``run_all`` drives
them in order.  Tolerances are fixed here and mirrored by the test suite.
Frozen regression values were produced by the first run of this code and are
compared bitwise-tight (1e-9) thereafter.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .probability import (FinitePmf, JointPmf, induced_joint,
                          mutual_information)
from . import divergences as dv
from .ci_solver import wyner_ci
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


def _report(number, name, passed, detail) -> CriterionReport:
    return CriterionReport(number, name, bool(passed), detail)


# ---------------------------------------------------------------------------

def criterion_1_divergence_axioms(seed: int = 0) -> CriterionReport:
    """1000 random pmf pairs x s grid: axioms and the bound chains."""
    rng = np.random.default_rng(seed)
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
                return _report(1, "divergence axioms", False,
                               f"negative divergence {d}")
            if dv.renyi(p, p, s) > 1e-10:
                return _report(1, "divergence axioms", False,
                               "identity of indiscernibles violated")
            if d < prev - 1e-12:
                return _report(1, "divergence axioms", False,
                               f"not monotone in s at s={s}")
            prev = d
            if s > -1 and d < dv.pinsker_lb(eps, s) - 1e-9:
                return _report(1, "divergence axioms", False,
                               f"Pinsker chain violated at s={s}")
            inf_val = dv.sason_inf(eps, s)
            if d < inf_val - 1e-9:
                return _report(1, "divergence axioms", False,
                               f"divergence below sason_inf at s={s}")
            if s > 0:
                closed = dv.sason_closed_lb(eps, s, dv.ORDER_ABOVE_ONE)
            elif -1 < s < 0:
                closed = max(dv.sason_closed_lb(eps, -s, dv.ORDER_BELOW_ONE),
                             dv.sason_basic_lb(eps, -s))
            else:
                closed = 0.0
            if inf_val < closed - 1e-9:
                return _report(1, "divergence axioms", False,
                               f"sason_inf below closed form at s={s}")
    return _report(1, "divergence axioms", True,
                   "1000 pairs x 5 orders, all chains hold")


def _dsbs_ci(p: float) -> float:
    """I(XY;W) of the optimal DSBS(p) coupling: ln 2 + h(p) - 2 h(a),
    a = (1 - sqrt(1 - 2p))/2 (Wyner 1975)."""
    coupling = dsbs_optimal_coupling(p)
    w_xy = induced_joint(coupling).mass.reshape(coupling.nw, -1)
    return mutual_information(JointPmf(w_xy))


#: erasure probabilities of the DSBES(e) references of criterion 2
CI_DSBES_ES = (0.2, 0.4, 0.6, 0.8)
#: (q, p) of criterion 2's 3x3 common-part reference
CI_COMMON_PART = (0.6, 0.2)


def criterion_2_ci_correctness(seed: int = 0) -> CriterionReport:
    """Solver against exact values: 0 on a product source, ln 2 on the copy
    source, Wyner's closed form on 20 seeded DSBS(p), C = ln 2 for e <= 1/2
    and h(e) above on DSBES(e) (Cuff, Permuter and Cover 2010), and
    h(q) + q C_DSBS(p) on the 3x3 joint with a common part of mass split
    (1 - q, q)."""
    v_prod = wyner_ci(product_source(), restarts=8, seed=seed).value
    if abs(v_prod) > 1e-6:
        return _report(2, "ci correctness", False,
                       f"product source gave {v_prod}")
    v_copy = wyner_ci(copy_source(), restarts=8, seed=seed).value
    if abs(v_copy - math.log(2)) > 1e-3:
        return _report(2, "ci correctness", False,
                       f"copy source gave {v_copy}")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        p = float(rng.uniform(0.02, 0.45))
        got = wyner_ci(dsbs(p), restarts=8, seed=seed).value
        worst = max(worst, abs(got - _dsbs_ci(p)))
        if worst > 1e-3:
            return _report(2, "ci correctness", False,
                           f"solver vs closed form diff {worst:.2e} "
                           f"at p={p:.4f}")
    for e in CI_DSBES_ES:
        got = wyner_ci(dsbes(e), restarts=8, seed=seed).value
        h_e = FinitePmf(np.array([e, 1 - e])).entropy()
        exact = math.log(2) if e <= 0.5 else h_e
        worst = max(worst, abs(got - exact))
        if worst > 1e-3:
            return _report(2, "ci correctness", False,
                           f"solver vs closed form diff {worst:.2e} on "
                           f"DSBES at e={e:g}")
    q, p = CI_COMMON_PART
    got = wyner_ci(common_part_source(q, p), restarts=8, seed=seed).value
    h_q = FinitePmf(np.array([q, 1 - q])).entropy()
    worst = max(worst, abs(got - (h_q + q * _dsbs_ci(p))))
    if worst > 1e-3:
        return _report(2, "ci correctness", False,
                       f"solver vs closed form diff {worst:.2e} on the "
                       f"common-part joint at q={q:g}, p={p:g}")
    return _report(2, "ci correctness", True,
                   f"product and copy hit; worst closed-form diff {worst:.2e} "
                   f"over 20 DSBS(p), 4 DSBES(e) and the 3x3 common part")


def criterion_3_r_sh_identity(seed: int = 0) -> CriterionReport:
    """sup_alpha (1/alpha) R^(alpha) equals the common information."""
    worst = 0.0
    for name, pi in (("dsbs01", dsbs(0.1)), ("copy", copy_source()),
                     ("product", product_source())):
        sol = wyner_ci(pi, restarts=8, seed=seed)
        val = exponents.r_sh(pi, restarts=4, seed=seed, ci=sol)
        gap = abs(val - sol.value)
        worst = max(worst, gap)
        if gap > 2e-2:
            return _report(3, "R_sh identity", False,
                           f"{name}: |r_sh - ci| = {gap:.3e}")
    return _report(3, "R_sh identity", True, f"worst fixture gap {worst:.2e}")


def criterion_4_theta_limit(seed: int = 0) -> CriterionReport:
    """(1/theta) Omega -> R^(alpha) as theta -> 0."""
    pi = dsbs(0.1)
    sol = wyner_ci(pi, restarts=8, seed=seed)
    for alpha in (0.25, 0.5, 1.0):
        rep = exponents.theta_limit_check(pi, alpha, (1e-2, 1e-3, 1e-4),
                                          restarts=4, seed=seed, ci=sol)
        if abs(rep.final_gap) > 1e-2:
            return _report(4, "theta->0 limit", False,
                           f"alpha={alpha}: gap {rep.final_gap:.3e}")
        gaps = [abs(g) for g in rep.gaps]
        if not all(b <= a + 1e-9 for a, b in zip(gaps, gaps[1:])):
            return _report(4, "theta->0 limit", False,
                           f"alpha={alpha}: gaps not shrinking {gaps}")
    return _report(4, "theta->0 limit", True,
                   "limit matches R^(alpha) at theta=1e-4 for all alpha")


def criterion_5_exponent_sign(seed: int = 0) -> CriterionReport:
    """F(R) > 0 strictly below the common information, 0 at and above."""
    details = []
    for name, pi in (("dsbs01", dsbs(0.1)), ("copy", copy_source())):
        sol = wyner_ci(pi, restarts=8, seed=seed)
        for mult in (1.0, 1.2, 2.0):
            f = exponents.f_rate(pi, mult * sol.value, seed=seed, ci=sol)
            if f > 1e-4:
                return _report(5, "exponent sign", False,
                               f"{name}: F({mult}C) = {f:.3e} > 1e-4")
        for mult in (0.5, 0.9):
            f = exponents.f_rate(pi, mult * sol.value, seed=seed, ci=sol)
            if f < 1e-4:
                return _report(5, "exponent sign", False,
                               f"{name}: F({mult}C) = {f:.3e} < 1e-4")
            details.append(f"{name}@{mult}C={f:.2e}")
    return _report(5, "exponent sign", True, " ".join(details))


def criterion_6_oneshot_bound(seed: int = 0) -> CriterionReport:
    """One-shot achievability bound, exact over codebook types."""
    rng = np.random.default_rng(seed)
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
            return _report(6, "one-shot bound", False,
                           f"violation at instance {i}, M={rep.m_count}")
        slack = min(slack, rep.rhs - rep.lhs)
        gamma_slack = min(gamma_slack, rep.gamma_rhs - rep.lhs)
    return _report(6, "one-shot bound", True,
                   f"exact on {len(instances)} instances, min rhs - lhs "
                   f"{slack:.3f}, min 2e^(s Gamma) - lhs {gamma_slack:.3f}")


def criterion_7_conditional_typicality(seed: int = 0) -> CriterionReport:
    """Exact conditional defect never exceeds the two-exponential bound."""
    q_w = FinitePmf(np.array([0.5, 0.5]))
    instances = [np.array([[0.8, 0.2], [0.3, 0.7]]),
                 np.array([[0.6, 0.4], [0.4, 0.6]])]
    checked = 0
    for cond in instances:
        q_min = float(cond[cond > 0].min())
        for eps, eps_p in ((0.4, 0.2), (0.6, 0.3)):
            for n in (8, 16, 32, 64):
                spec = typ.TypicalSpec(q_w, n, eps_p)
                lo, hi = spec.count_windows()
                bound = typ.contyplem_bound(eps, eps_p, n, q_min, 2, 2)
                for k0 in range(int(lo[0]), int(hi[0]) + 1):
                    if not lo[1] <= n - k0 <= hi[1]:
                        continue
                    w_seq = np.array([0] * k0 + [1] * (n - k0))
                    d = typ.cond_typical_defect_exact(q_w, cond, w_seq, eps,
                                                      eps_prime=eps_p)
                    checked += 1
                    if d > bound + 1e-12:
                        return _report(7, "conditional typicality", False,
                                       f"defect {d:.4f} > bound {bound:.4f} "
                                       f"at n={n}, eps={eps}")
    return _report(7, "conditional typicality", True,
                   f"{checked} typical conditioning classes within the bound")


def criterion_8_truncation_domination(seed: int = 0) -> CriterionReport:
    """P <= pi^n / (1 - delta_n) pointwise and in divergence."""
    cases = [(dsbs_optimal_coupling(0.1), n, s)
             for n in (4, 6, 8) for s in (0.5, 1.0)]
    cases.append((copy_coupling_binary(), 8, 1.0))
    for base, n, s in cases:
        rep = synthesis.truncation_check(base, n, 1.0, 0.5, s)
        if not (rep.holds_pointwise and rep.holds_divergence):
            return _report(8, "truncation domination", False,
                           f"n={n}, s={s}: ratio {rep.max_ratio:.4f}, "
                           f"D {rep.divergence:.4f} vs cap {rep.divergence_cap:.4f}")
    return _report(8, "truncation domination", True,
                   f"{len(cases)} fixtures dominated pointwise and in divergence")


def criterion_9_achievability_trend(seed: int = 0) -> CriterionReport:
    """Exact order-2 divergence decays along n above the common information."""
    base = dsbs_optimal_coupling(0.1)
    vals = []
    for n in TREND_NS:
        code = synthesis.build_code(base, n, 1.2 * DSBS_CI_EXACT,
                                    None, 0.5, seed=3)
        vals.append(synthesis.estimate_renyi(code, 1.0).point)
    for v, frozen in zip(vals, TREND_FROZEN):
        if v > frozen + 1e-9:
            return _report(9, "achievability trend", False,
                           f"value {v:.10f} above frozen {frozen:.10f}")
    slope = float(np.polyfit(TREND_NS, np.log(vals), 1)[0])
    if slope >= 0:
        return _report(9, "achievability trend", False,
                       f"fitted slope {slope:+.4f} not negative")
    return _report(9, "achievability trend", True,
                   f"slope {slope:+.4f}, values match frozen run")


def criterion_10_strong_converse(seed: int = 0) -> CriterionReport:
    """TV >= 1 - 4 exp(-n F(R)) below the common information, rising with n."""
    base = dsbs_optimal_coupling(0.1)
    pi = base.xy_marginal()
    sol = wyner_ci(pi, restarts=8, seed=seed)
    r = 0.5 * sol.value
    f = exponents.f_rate(pi, r, seed=seed, ci=sol)
    ns = (8, 12, 16)
    per_seed = {}
    for cell_seed in range(10):
        tvs = []
        for n in ns:
            code = synthesis.build_code(base, n, r, 1.0, 0.5, seed=cell_seed)
            est = synthesis.estimate_tv(code, samples=3000, seed=cell_seed)
            bound = 1.0 - 4.0 * math.exp(-n * f)
            if est.point < bound - 3.0 * est.std_error:
                return _report(10, "strong converse", False,
                               f"TV {est.point:.4f} below bound {bound:.4f} "
                               f"at n={n}, seed={cell_seed}")
            tvs.append(est.point)
        if not all(b >= a for a, b in zip(tvs, tvs[1:])):
            return _report(10, "strong converse", False,
                           f"TV not increasing in n for seed {cell_seed}: {tvs}")
        per_seed[cell_seed] = tvs
    lo = min(v[0] for v in per_seed.values())
    hi = max(v[-1] for v in per_seed.values())
    return _report(10, "strong converse", True,
                   f"F(R)={f:.4f}; TV rises from >={lo:.3f} to {hi:.4f} "
                   f"over n={ns} on 10 seeds")


def criterion_11_rate_bound(seed: int = 0) -> CriterionReport:
    """Exact normalized divergence against the single-letter rate bound."""
    rep = synthesis.rate_bound_check(dsbs_optimal_coupling(0.1), 8, 1.0, 0.5,
                                     s=1.0)
    if not rep.holds or rep.slack < 0:
        return _report(11, "rate bound", False,
                       f"lhs {rep.lhs:.4f} vs rhs {rep.rhs:.4f}")
    return _report(11, "rate bound", True,
                   f"lhs {rep.lhs:.4f} <= rhs {rep.rhs:.4f}, "
                   f"slack {rep.slack:.4f}")


def criterion_12_reproducibility(seed: int = 7) -> CriterionReport:
    """The shipped plan yields byte-identical CSV across reruns."""
    plan_a = experiments.load_plan(PLAN_PATH, seed_override=seed)
    plan_b = experiments.load_plan(PLAN_PATH, seed_override=seed)
    csv_a = experiments.to_csv(experiments.run_plan(plan_a))
    csv_b = experiments.to_csv(experiments.run_plan(plan_b))
    if csv_a != csv_b:
        return _report(12, "reproducibility", False,
                       "CSV differs between reruns")
    n_rows = csv_a.count("\n") - 1
    return _report(12, "reproducibility", True,
                   f"two runs byte-identical ({n_rows} rows)")


CRITERIA = (criterion_1_divergence_axioms,
            criterion_2_ci_correctness,
            criterion_3_r_sh_identity,
            criterion_4_theta_limit,
            criterion_5_exponent_sign,
            criterion_6_oneshot_bound,
            criterion_7_conditional_typicality,
            criterion_8_truncation_domination,
            criterion_9_achievability_trend,
            criterion_10_strong_converse,
            criterion_11_rate_bound,
            criterion_12_reproducibility)


def run_all(only=None) -> list:
    reports = []
    for i, fn in enumerate(CRITERIA, start=1):
        if only and i not in only:
            continue
        t0 = time.perf_counter()
        rep = fn()
        rep.runtime = time.perf_counter() - t0
        reports.append(rep)
    return reports
