"""Synthesis codes: codebook construction, exact induced joints against
brute-force oracles, estimator agreement, and the finite-n bound checks."""

import math

import numpy as np
import pytest

from commoninfo import fixtures, synthesis
from commoninfo.errors import ConfigError, DomainError
from commoninfo.probability import FinitePmf, MarkovCoupling, log_product_mass
from commoninfo.synthesis import (SynthesisCode, build_code,
                                  estimate_renyi, estimate_tv, gamma_oneshot,
                                  induced_joint_exact, oneshot_bound_verify,
                                  rate_bound_check, truncated_cond_sampler,
                                  truncated_w_sampler, truncation_check)
from commoninfo import typicality as typ


def trivial_coupling():
    """Single codeword symbol: the induced law is exactly the product pi^n."""
    return MarkovCoupling(FinitePmf([1.0]),
                          np.array([[0.3, 0.7]]),
                          np.array([[0.6, 0.4]]))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_m_count_rule():
    base = fixtures.dsbs_optimal_coupling(0.1)
    assert build_code(base, 4, 0.0, 1.0, 0.5, seed=0).m_count == 1
    assert build_code(base, 4, math.log(2.0), 1.0, 0.5, seed=0).m_count == 16
    assert build_code(base, 3, 0.5, 1.0, 0.5, seed=0).m_count == \
        math.ceil(math.exp(1.5) - 1e-9)


def test_code_validation():
    base = fixtures.dsbs_optimal_coupling(0.1)
    code = build_code(base, 4, 0.0, 1.0, 0.5, seed=0)
    with pytest.raises(ConfigError):
        SynthesisCode(n=4, rate=0.0, m_count=2, codebook=code.codebook,
                      base=base, eps=1.0, eps_prime=0.5, seed=0)
    with pytest.raises(ConfigError):
        SynthesisCode(n=4, rate=0.0, m_count=1, codebook=code.codebook,
                      base=base, eps=0.3, eps_prime=0.5, seed=0)


def test_build_code_deterministic():
    base = fixtures.dsbs_optimal_coupling(0.1)
    a = build_code(base, 6, 0.4, 1.0, 0.5, seed=11)
    b = build_code(base, 6, 0.4, 1.0, 0.5, seed=11)
    c = build_code(base, 6, 0.4, 1.0, 0.5, seed=12)
    assert np.array_equal(a.codebook, b.codebook)
    assert not np.array_equal(a.codebook, c.codebook)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def test_truncated_w_sampler_respects_shell():
    base = fixtures.dsbs_optimal_coupling(0.1)
    rng = synthesis._rng(0, 99)
    spec = typ.TypicalSpec(base.q_w, 10, 0.5)
    for _ in range(50):
        seq = truncated_w_sampler(base, 10, 0.5, rng)
        assert typ.is_typical(seq, spec)


def test_truncated_cond_sampler_respects_shell():
    base = fixtures.dsbs_optimal_coupling(0.1)
    rng = synthesis._rng(1, 99)
    w = truncated_w_sampler(base, 8, 0.5, rng)
    for _ in range(25):
        x = truncated_cond_sampler(base, w, 1.0, rng, "X")
        assert typ.is_cond_typical(x, w, base.q_w, base.q_x_given_w, 1.0)


# ---------------------------------------------------------------------------
# exact induced joint
# ---------------------------------------------------------------------------

def test_induced_joint_trivial_coupling_is_product():
    code = build_code(trivial_coupling(), 5, 0.0, None, None, seed=0)
    ex = induced_joint_exact(code)
    pi = trivial_coupling().xy_marginal()
    pin = np.exp([[log_product_mass(FinitePmf(pi.mass.ravel()),
                                    [2 * xi + yi for xi, yi in zip(x, y)])
                   for y in ex.seqs_y] for x in ex.seqs_x])
    assert np.allclose(ex.mass, pin, atol=1e-14)
    assert estimate_tv(code).point == pytest.approx(0.0, abs=1e-12)
    assert estimate_renyi(code, 1.0).point == pytest.approx(0.0, abs=1e-10)


def test_induced_joint_brute_force_oracle():
    # untruncated: P(x,y) = (1/m) sum_w prod_i cond_x(w_i,x_i) cond_y(w_i,y_i)
    base = fixtures.dsbs_optimal_coupling(0.1)
    code = build_code(base, 3, 0.3, None, None, seed=2)
    ex = induced_joint_exact(code)
    for ix in (0, 3, 7):
        for iy in (1, 4, 6):
            x, y = ex.seqs_x[ix], ex.seqs_y[iy]
            acc = 0.0
            for w in code.codebook:
                acc += (np.prod(base.q_x_given_w[w, x])
                        * np.prod(base.q_y_given_w[w, y]))
            assert ex.mass[ix, iy] == pytest.approx(acc / code.m_count,
                                                    abs=1e-14)
    assert ex.mass.sum() == pytest.approx(1.0, abs=1e-10)


def test_truncated_induced_joint_zero_outside_shell():
    base = fixtures.dsbs_optimal_coupling(0.1)
    code = build_code(base, 6, 0.2, 1.0, 0.5, seed=3)
    ex = induced_joint_exact(code)
    assert ex.mass.sum() == pytest.approx(1.0, abs=1e-10)
    # every positive-mass x must be conditionally typical for some codeword
    pos = np.flatnonzero(ex.cond_x.sum(axis=0) > 0)
    ok_any = np.zeros(len(ex.seqs_x), dtype=bool)
    for w in code.codebook:
        for i in pos:
            if typ.is_cond_typical(ex.seqs_x[i], w, base.q_w,
                                   base.q_x_given_w, 1.0):
                ok_any[i] = True
    assert np.all(ok_any[pos])


# ---------------------------------------------------------------------------
# estimators: exact vs Monte-Carlo
# ---------------------------------------------------------------------------

def test_estimate_tv_mc_agrees_with_exact(monkeypatch):
    base = fixtures.dsbs_optimal_coupling(0.1)
    code = build_code(base, 5, 0.3, 1.0, 0.5, seed=4)
    exact = estimate_tv(code)
    assert exact.method == "exact"
    monkeypatch.setattr(synthesis, "MAX_JOINT_CELLS", 10)
    mc = estimate_tv(code, samples=4000, seed=5)
    assert mc.method == "monte_carlo"
    assert abs(mc.point - exact.point) < 4 * mc.std_error + 0.01


def test_estimate_renyi_mc_agrees_with_exact(monkeypatch):
    base = fixtures.dsbs_optimal_coupling(0.1)
    code = build_code(base, 5, 0.3, None, 0.5, seed=6)
    exact = estimate_renyi(code, 0.5)
    assert exact.method == "exact"
    monkeypatch.setattr(synthesis, "MAX_JOINT_CELLS", 10)
    mc = estimate_renyi(code, 0.5, samples=4000, seed=7)
    assert mc.method == "monte_carlo"
    assert abs(mc.point - exact.point) < 4 * mc.std_error + 0.05


def test_estimate_mc_deterministic(monkeypatch):
    base = fixtures.dsbs_optimal_coupling(0.1)
    code = build_code(base, 5, 0.3, 1.0, 0.5, seed=4)
    monkeypatch.setattr(synthesis, "MAX_JOINT_CELLS", 10)
    a = estimate_tv(code, samples=500, seed=8)
    b = estimate_tv(code, samples=500, seed=8)
    assert a.point == b.point and a.std_error == b.std_error


def test_structural_zero_reported_as_infinite():
    # at desk scale the cross cells of the optimal coupling admit no integer
    # counts in a tight shell, so the conditional typical set is empty
    base = fixtures.dsbs_optimal_coupling(0.1)
    code = build_code(base, 6, 0.2, 0.4, 0.2, seed=9)
    est = estimate_renyi(code, 1.0)
    assert est.point == math.inf
    assert "structural_zero" in est.diagnostics


def test_estimate_renyi_order_validation():
    code = build_code(trivial_coupling(), 4, 0.0, None, None, seed=0)
    with pytest.raises(ConfigError):
        estimate_renyi(code, 1.5)


# ---------------------------------------------------------------------------
# one-shot bound
# ---------------------------------------------------------------------------

def test_oneshot_bound_exact_enumeration():
    p_w = FinitePmf([0.5, 0.5])
    cond = np.array([[0.9, 0.1], [0.2, 0.8]])
    pi_x = FinitePmf([0.55, 0.45])
    for m in (1, 2, 4):
        rep = oneshot_bound_verify(p_w, cond, pi_x, s=0.5, m_count=m)
        assert rep.method == "exact"
        assert rep.holds and rep.holds_gamma
        assert rep.rhs <= rep.gamma_rhs + 1e-12


def test_oneshot_bound_monte_carlo():
    p_w = FinitePmf([0.3, 0.7])
    cond = np.array([[0.8, 0.2], [0.35, 0.65]])
    pi_x = FinitePmf([0.5, 0.5])
    rep = oneshot_bound_verify(p_w, cond, pi_x, s=1.0, m_count=16,
                               trials=20_000, seed=0)
    assert rep.method == "monte_carlo"
    assert rep.holds and rep.holds_gamma


def test_gamma_oneshot_matches_components():
    from commoninfo.divergences import conditional_renyi, glue, renyi
    p_w = FinitePmf([0.5, 0.5])
    cond = np.array([[0.9, 0.1], [0.2, 0.8]])
    pi_x = FinitePmf([0.55, 0.45])
    s, R = 0.5, 0.7
    joint = glue(p_w, cond)
    cond_d = conditional_renyi(joint, np.tile(pi_x.mass, (2, 1)), s)
    marg_d = renyi(FinitePmf(joint.mass.sum(axis=0)), pi_x, s)
    assert gamma_oneshot(p_w, cond, pi_x, R, s) == pytest.approx(
        max(cond_d - R, marg_d), abs=1e-14)


def test_oneshot_rejects_unsupported_mass():
    p_w = FinitePmf([1.0])
    cond = np.array([[0.5, 0.5]])
    pi_x = FinitePmf([1.0, 0.0])
    with pytest.raises(DomainError):
        oneshot_bound_verify(p_w, cond, pi_x, s=0.5, m_count=2)


# ---------------------------------------------------------------------------
# finite-n bound checks on the reference coupling
# ---------------------------------------------------------------------------

def test_truncation_check_holds():
    base = fixtures.dsbs_optimal_coupling(0.1)
    rep = truncation_check(base, n=8, eps=1.0, eps_prime=0.5, s=1.0)
    assert rep.holds_pointwise and rep.holds_divergence
    assert rep.delta_n < 1.0
    assert rep.divergence <= rep.divergence_cap + 1e-12


def test_rate_bound_check_holds():
    base = fixtures.dsbs_optimal_coupling(0.1)
    rep = rate_bound_check(base, n=8, eps=1.0, eps_prime=0.5, s=1.0)
    assert rep.holds
    assert rep.slack > 0
    assert 0.0 <= rep.delta_1 < 1.0 and 0.0 <= rep.delta_2 < 1.0


# ---------------------------------------------------------------------------
# the truncated conditional law against brute force
# ---------------------------------------------------------------------------

def seeded_coupling_2x3():
    """A seeded coupling with binary W, binary X and ternary Y.  At n = 6 and
    eps = 0.6 its X-shells hold 8 or 9 sequences, and its Y-shells 36 or
    none, depending on the type of w^n."""
    rng = np.random.default_rng(2)
    return MarkovCoupling(FinitePmf(rng.dirichlet([4.0, 4.0])),
                          rng.dirichlet(np.full(2, 4.0), size=2),
                          rng.dirichlet(np.full(3, 4.0), size=2))


def brute_force_cond_law(base, cond, w, seqs, eps):
    p = np.array([np.prod(cond[w, s]) for s in seqs])
    inside = np.array([typ.is_cond_typical(s, w, base.q_w, cond, eps)
                       for s in seqs])
    return np.where(inside, p, 0.0), float(p[inside].sum())


def typical_ws(base, n, eps_prime):
    spec = typ.TypicalSpec(base.q_w, n, eps_prime)
    return [np.array(w) for w in np.ndindex(*(base.nw,) * n)
            if typ.is_typical(w, spec)]


def test_cond_law_matches_brute_force():
    base, n, eps = seeded_coupling_2x3(), 6, 0.6
    sizes = set()
    for axis, cond in (("X", base.q_x_given_w), ("Y", base.q_y_given_w)):
        law = synthesis._CondLaw(base, eps, axis)
        seqs = synthesis._all_seqs(cond.shape[1], n)
        for w in typical_ws(base, n, 0.5):
            ref, z = brute_force_cond_law(base, cond, w, seqs, eps)
            sizes.add(int(np.count_nonzero(ref)))
            assert law.normalizer(w) == pytest.approx(z, abs=1e-12)
            if z == 0.0:
                with pytest.raises(DomainError):
                    law.density(w, seqs)
                continue
            assert np.allclose(law.density(w, seqs), ref / z,
                               rtol=0.0, atol=1e-12)
        untruncated = synthesis._CondLaw(base, None, axis)
        w = typical_ws(base, n, 0.5)[0]
        assert untruncated.normalizer(w) == 1.0
        assert np.allclose(untruncated.density(w, seqs),
                           [np.prod(cond[w, s]) for s in seqs],
                           rtol=0.0, atol=1e-15)
    assert {0, 8, 9, 36} <= sizes            # empty and nontrivial shells


def test_pointwise_p_matches_induced_joint():
    base, n, eps = seeded_coupling_2x3(), 6, 0.6
    seqs_y = synthesis._all_seqs(base.ny, n)
    book = [w for w in typical_ws(base, n, 0.5)
            if brute_force_cond_law(base, base.q_y_given_w, w, seqs_y,
                                    eps)[1] > 0][::4][:3]
    code = SynthesisCode(n=n, rate=math.log(3) / n, m_count=3,
                         codebook=np.stack(book), base=base, eps=eps,
                         eps_prime=0.5, seed=0)
    ex = induced_joint_exact(code)
    assert ex.mass.sum() == pytest.approx(1.0, abs=1e-12)
    rng = np.random.default_rng(0)
    flat = ex.mass.ravel()
    cells = np.concatenate([rng.choice(flat.size, 25, p=flat),
                            rng.choice(flat.size, 25)])
    ix, iy = np.divmod(cells, ex.mass.shape[1])
    got = synthesis._pointwise_p(code, ex.seqs_x[ix], ex.seqs_y[iy])
    assert np.count_nonzero(got) >= 25
    assert np.allclose(got, ex.mass[ix, iy], rtol=0.0, atol=1e-12)


def test_truncation_check_needs_one_normalizer_per_w_type(monkeypatch):
    calls = []
    defect = typ.cond_typical_defect_exact

    def counted(*args, **kwargs):
        calls.append(1)
        return defect(*args, **kwargs)

    monkeypatch.setattr(typ, "cond_typical_defect_exact", counted)
    base = fixtures.dsbs_optimal_coupling(0.1)
    truncation_check(base, n=8, eps=1.0, eps_prime=0.5, s=1.0)
    lo, hi = typ.TypicalSpec(base.q_w, 8, 0.5).count_windows()
    n_types = sum(1 for k in range(9) if lo[0] <= k <= hi[0]
                  and lo[1] <= 8 - k <= hi[1])
    assert n_types == 5
    assert len(calls) <= 2 * n_types
