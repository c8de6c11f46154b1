"""Synthesis codes: codebook construction, exact induced joints against
brute-force oracles, estimator agreement, and the finite-n bound checks."""

import itertools
import math
import time
import warnings

import numpy as np
import pytest

from commoninfo import fixtures, synthesis
from commoninfo.errors import (ConfigError, DomainError, ResourceBudgetError,
                               SamplingError)
from commoninfo.probability import FinitePmf, MarkovCoupling, log_product_mass
from commoninfo.synthesis import (SynthesisCode, build_code,
                                  estimate_renyi, estimate_tv, gamma_oneshot,
                                  induced_joint_exact, oneshot_bound_verify,
                                  rate_bound_check, truncation_check)
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
# sampling the truncated product law
# ---------------------------------------------------------------------------

def ternary_w_coupling():
    """A seeded coupling with a Dirichlet(1) W on 3 symbols, whose cumulative
    sum ends at 0.9999999999999999."""
    rng = np.random.default_rng(3)
    return MarkovCoupling(FinitePmf(rng.dirichlet(np.ones(3))),
                          rng.dirichlet(np.ones(2), size=3),
                          rng.dirichlet(np.ones(2), size=3))


def per_sequence_codebook(base, n, R, eps_prime, seed):
    """The codebook drawn one sequence at a time: ``Generator.choice`` from
    Q_W, kept when ``is_typical`` admits it, until m sequences are kept."""
    m = math.ceil(math.exp(n * R) - 1e-9)
    rng = synthesis._rng(seed, 0)
    spec = None if eps_prime is None else typ.TypicalSpec(base.q_w, n,
                                                          eps_prime)
    rows = []
    while len(rows) < m:
        seq = rng.choice(base.nw, size=n, p=base.q_w.mass)
        if spec is None or typ.is_typical(seq, spec):
            rows.append(seq)
    return np.stack(rows)


@pytest.mark.parametrize("base, cases", [
    (fixtures.dsbs_optimal_coupling(0.1), 15),
    (ternary_w_coupling(), 10),
], ids=["dsbs01", "ternary-w"])
def test_build_code_matches_per_sequence_draws(base, cases):
    # every n and eps' (None: untruncated) whose eps'-typical set holds at
    # least 2 % of Q_W^n, at three seeds each
    checked = 0
    for n, eps_prime in itertools.product((4, 8, 10, 12, 16),
                                          (None, 0.5, 0.9)):
        if eps_prime is not None and typ.typical_prob_exact(
                typ.TypicalSpec(base.q_w, n, eps_prime)) < 0.02:
            continue
        checked += 1
        for seed in range(3):
            got = build_code(base, n, 0.3, 1.0, eps_prime, seed).codebook
            assert np.array_equal(got, per_sequence_codebook(
                base, n, 0.3, eps_prime, seed))
    assert checked == cases


def test_large_codebook_matches_per_sequence_draws():
    # n = 12 at 1.2 C on dsbs01: m = 6072 codewords
    base = fixtures.dsbs_optimal_coupling(0.1)
    R = 1.2 * 0.6049515261814264
    code = build_code(base, 12, R, 1.0, 0.5, seed=0)
    assert code.m_count == 6072
    assert np.array_equal(code.codebook,
                          per_sequence_codebook(base, 12, R, 0.5, 0))


def test_build_code_respects_shell():
    base = fixtures.dsbs_optimal_coupling(0.1)
    spec = typ.TypicalSpec(base.q_w, 10, 0.5)
    code = build_code(base, 10, 0.4, 1.0, 0.5, seed=99)
    assert code.m_count == 55
    assert all(typ.is_typical(w, spec) for w in code.codebook)


def test_cond_law_sample_respects_shell():
    base = fixtures.dsbs_optimal_coupling(0.1)
    book = build_code(base, 8, 0.4, 1.0, 0.5, seed=1).codebook
    ws = book[np.arange(25) % book.shape[0]]
    for axis, cond in (("X", base.q_x_given_w), ("Y", base.q_y_given_w)):
        xs = synthesis._CondLaw(base, 1.0, axis).sample(synthesis._rng(1, 99),
                                                        ws)
        for x, w in zip(xs, ws):
            assert typ.is_cond_typical(x, w, base.q_w, cond, 1.0)


def test_cond_law_sample_matches_density():
    # X-draws given one codeword against the truncated law's probabilities;
    # at eps = 0.7 the shell keeps a third or so of the conditional mass
    base, n, draws = seeded_binary_coupling(), 6, 40_000
    law = synthesis._CondLaw(base, 0.7, "X")
    w = np.array([0, 1, 1, 0, 1, 0])
    seqs = synthesis._all_seqs(base.nx, n)
    p = law.density(w, seqs)[0]
    assert 0.0 < law.normalizer(w) < 0.6
    xs = law.sample(synthesis._rng(0, 7), np.tile(w, (draws, 1)))
    freq = np.bincount(xs @ base.nx ** np.arange(n)[::-1],
                       minlength=seqs.shape[0]) / draws
    assert np.all(freq[p == 0] == 0)
    assert np.all(np.abs(freq - p) <= 5 * np.sqrt(p * (1 - p) / draws))


def test_sampling_error_after_max_tries(monkeypatch):
    base = fixtures.dsbs_optimal_coupling(0.1)
    # at n = 10, eps' = 0.01 admits only the type (5, 5): C(10, 5) / 2^10
    monkeypatch.setattr(synthesis, "MAX_REJECTION_TRIES", 2)
    with pytest.raises(SamplingError, match="probability 2.461e-01"):
        build_code(base, 10, 0.4, 1.0, 0.01, seed=0)
    # the cross cells of a tight X-shell admit no count at n = 6: an empty
    # shell is read off the table before the first round
    law = synthesis._CondLaw(base, 0.4, "X")
    with pytest.raises(DomainError, match="empty conditional typical shell"):
        law.sample(synthesis._rng(0, 1), np.array([[0, 1, 0, 1, 0, 1]]))
    monkeypatch.setattr(synthesis, "MAX_REJECTION_TRIES", 50)
    build_code(base, 10, 0.4, 1.0, 0.01, seed=0)


def test_empty_typical_set_raises_before_sampling():
    # Q_W(2) = 0.0115, so at n = 4, eps' = 0.5 its count window is
    # [ceil(0.023), floor(0.069)] = [1, 0]: no rejection round could accept
    q_w = FinitePmf(np.random.default_rng(0).dirichlet(np.ones(3)))
    base = MarkovCoupling(q_w, np.eye(3), np.eye(3))
    start = time.perf_counter()
    with pytest.raises(DomainError, match="empty eps'-typical W set"):
        build_code(base, 4, 0.0, 1.0, 0.5, seed=0)
    assert time.perf_counter() - start < 2.0


def test_monte_carlo_renyi_on_an_empty_shell_is_a_structural_zero():
    # at n = 12 the dense joint is past MAX_JOINT_CELLS; at eps = 0.4 some
    # codeword's X-shell is empty, as the exact branch would find
    code = build_code(fixtures.dsbs_optimal_coupling(0.1), 12, 0.2, 0.4, 0.2,
                      seed=9)
    assert 4.0 ** 12 > synthesis.MAX_JOINT_CELLS
    start = time.perf_counter()
    for s in (1.0, 0.0, -0.5):
        est = estimate_renyi(code, s, samples=100)
        assert est.point == math.inf and est.method == "monte_carlo"
        assert "empty conditional typical shell" in \
            est.diagnostics["structural_zero"]
    assert time.perf_counter() - start < 2.0



def test_monte_carlo_tv_on_an_empty_shell_is_a_structural_zero():
    # the code of the Monte-Carlo Renyi case above: TV reads its maximum 1
    code = build_code(fixtures.dsbs_optimal_coupling(0.1), 12, 0.2, 0.4, 0.2,
                      seed=9)
    est = estimate_tv(code, samples=100)
    assert est.point == 1.0 and est.method == "monte_carlo"
    assert est.samples == 0
    assert "empty conditional typical shell" in \
        est.diagnostics["structural_zero"]

def test_build_code_rejects_bad_block_length_and_eps_prime():
    base = fixtures.dsbs_optimal_coupling(0.1)
    for n, eps_prime in ((0, 0.5), (0, None), (4, 0.0), (4, -0.1)):
        with pytest.raises(ConfigError):
            build_code(base, n, 0.1, 1.0, eps_prime, seed=0)


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


def test_estimate_kl_mc_agrees_with_exact(monkeypatch):
    base = fixtures.dsbs_optimal_coupling(0.1)
    code = build_code(base, 5, 0.3, None, 0.5, seed=6)
    exact = estimate_renyi(code, 0.0)
    assert exact.method == "exact" and exact.point > 0.1
    monkeypatch.setattr(synthesis, "MAX_JOINT_CELLS", 10)
    mc = estimate_renyi(code, 0.0, samples=4000, seed=7)
    assert mc.method == "monte_carlo"
    assert 0.0 < mc.std_error < 0.05
    assert abs(mc.point - exact.point) < 4 * mc.std_error
    assert mc.per_symbol == pytest.approx(mc.point / 5)


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


def test_exact_tv_on_an_empty_shell_is_a_structural_zero():
    code = build_code(fixtures.dsbs_optimal_coupling(0.1), 6, 0.2, 0.4, 0.2,
                      seed=9)
    est = estimate_tv(code, samples=100)
    assert est.point == 1.0 and est.method == "exact"
    assert est.samples == 0
    assert "empty conditional typical shell" in \
        est.diagnostics["structural_zero"]


def test_estimate_renyi_order_validation():
    code = build_code(trivial_coupling(), 4, 0.0, None, None, seed=0)
    with pytest.raises(ConfigError):
        estimate_renyi(code, 1.5)


@pytest.mark.parametrize("samples", [0, 1])
def test_estimators_reject_fewer_than_two_samples(samples):
    # n = 12 is past the dense budget: one draw leaves no standard error,
    # and none leaves no mean
    code = build_code(fixtures.dsbs_optimal_coupling(0.1), 12, 0.2, None,
                      None, seed=0)
    with pytest.raises(ConfigError, match="samples must be >= 2"):
        estimate_tv(code, samples=samples)
    for s in (1.0, 0.0, -0.5):
        with pytest.raises(ConfigError, match="samples must be >= 2"):
            estimate_renyi(code, s, samples=samples)


# ---------------------------------------------------------------------------
# one-shot bound
# ---------------------------------------------------------------------------

def _enumerated_oneshot_lhs(p_w, cond, pi_x, s, m_count):
    """Reference: E_U e^{s D_{1+s}(P_{X|U} || pi | P_U)} summed over all
    |W|^m codebooks."""
    with np.errstate(divide="ignore"):
        pi_pow = np.where(pi_x.mass > 0, pi_x.mass ** (-s), 0.0)
    total = 0.0
    for codebook in itertools.product(range(p_w.alphabet_size), repeat=m_count):
        weight = float(np.prod(p_w.mass[list(codebook)]))
        if weight == 0:
            continue
        mix = cond[list(codebook)].mean(axis=0)
        total += weight * float(mix ** (1.0 + s) @ pi_pow)
    return total


def test_oneshot_bound_exact_enumeration():
    p_w = FinitePmf([0.5, 0.5])
    cond = np.array([[0.9, 0.1], [0.2, 0.8]])
    pi_x = FinitePmf([0.55, 0.45])
    for m in (1, 2, 4):
        rep = oneshot_bound_verify(p_w, cond, pi_x, s=0.5, m_count=m)
        assert rep.holds and rep.holds_gamma
        assert rep.rhs <= rep.gamma_rhs + 1e-12
        assert rep.lhs == pytest.approx(
            _enumerated_oneshot_lhs(p_w, cond, pi_x, 0.5, m), rel=1e-12)


def test_oneshot_lhs_matches_codebook_enumeration():
    rng = np.random.default_rng(12)
    for trial in range(150):
        nw, nx = int(rng.integers(1, 4)), int(rng.integers(2, 5))
        p_w = rng.dirichlet(np.ones(nw))
        cond = rng.dirichlet(np.ones(nx), size=nw)
        if trial % 2:                    # zeros in P_W and in the rows
            p_w[rng.random(nw) < 0.3] = 0.0
            if not p_w.any():
                p_w[0] = 1.0
            cond[rng.random(cond.shape) < 0.3] = 0.0
            cond[cond.sum(axis=1) == 0, 0] = 1.0
            p_w, cond = p_w / p_w.sum(), cond / cond.sum(axis=1, keepdims=True)
        pi_x = rng.dirichlet(np.ones(nx))
        if trial % 3 == 0:               # pi zero off the rows' support
            off = ~cond.any(axis=0)
            pi_x[off] = 0.0
            pi_x /= pi_x.sum()
        p_w, pi_x = FinitePmf(p_w), FinitePmf(pi_x)
        s = float(rng.uniform(0.05, 1.0))
        m = int(rng.integers(1, 7))
        rep = oneshot_bound_verify(p_w, cond, pi_x, s, m)
        assert rep.lhs == pytest.approx(
            _enumerated_oneshot_lhs(p_w, cond, pi_x, s, m), rel=1e-12)


def test_oneshot_bound_sixteen_codewords():
    p_w = FinitePmf([0.3, 0.7])
    cond = np.array([[0.8, 0.2], [0.35, 0.65]])
    pi_x = FinitePmf([0.5, 0.5])
    rep = oneshot_bound_verify(p_w, cond, pi_x, s=1.0, m_count=16)
    assert rep.holds and rep.holds_gamma
    assert rep.lhs == pytest.approx(
        _enumerated_oneshot_lhs(p_w, cond, pi_x, 1.0, 16), rel=1e-12)


def test_oneshot_bound_caps_the_codebook_types(monkeypatch):
    p_w = FinitePmf([0.2, 0.3, 0.5])
    cond = np.array([[0.9, 0.1], [0.5, 0.5], [0.2, 0.8]])
    pi_x = FinitePmf([0.5, 0.5])
    monkeypatch.setattr(typ, "MAX_TYPES", math.comb(8 + 2, 2) - 1)
    with pytest.raises(ResourceBudgetError):
        oneshot_bound_verify(p_w, cond, pi_x, s=0.5, m_count=8)
    monkeypatch.setattr(typ, "MAX_TYPES", math.comb(8 + 2, 2))
    assert oneshot_bound_verify(p_w, cond, pi_x, s=0.5, m_count=8).holds


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


@pytest.mark.parametrize("cond", [
    np.array([[0.9, 0.3], [0.2, 0.6]]),          # rows sum to 1.2 and 0.8
    np.array([[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]]),  # wider than pi
    np.array([[0.9, 0.1]]),                      # fewer rows than W
    np.array([[-0.1, 1.1], [0.5, 0.5]]),
])
def test_oneshot_functions_reject_a_non_stochastic_cond(cond):
    p_w = FinitePmf([0.5, 0.5])
    pi_x = FinitePmf([0.55, 0.45])
    with pytest.raises(ConfigError):
        oneshot_bound_verify(p_w, cond, pi_x, s=0.5, m_count=2)
    with pytest.raises(ConfigError):
        gamma_oneshot(p_w, cond, pi_x, 0.7, 0.5)


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


@pytest.mark.parametrize("check", [truncation_check, rate_bound_check])
@pytest.mark.parametrize("eps, eps_prime, s", [
    (2.0, 0.5, 1.0),                     # eps > 1
    (0.5, 0.7, 1.0),                     # eps' > eps
    (0.5, 0.5, 1.0),                     # eps' = eps
    (1.0, 0.0, 1.0),                     # eps' = 0
    (1.0, 0.5, 0.0),                     # s = 0
    (1.0, 0.5, 1.5),                     # s > 1
])
def test_finite_n_checks_reject_bad_arguments(check, eps, eps_prime, s):
    base = fixtures.dsbs_optimal_coupling(0.1)
    with pytest.raises(ConfigError):
        check(base, 6, eps, eps_prime, s)


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
    """The product law of every row of ``seqs`` given w, zeroed outside the
    conditional eps-shell (each row's joint type with w against the count
    windows), and the shell mass as its plain sum."""
    p = np.prod(cond[w, seqs], axis=1)
    counts = np.array([[(seqs[:, w == a] == b).sum(axis=1)
                        for b in range(cond.shape[1])]
                       for a in range(cond.shape[0])])
    lo, hi = typ.cond_count_windows(base.q_w, cond, len(w), eps)
    inside = np.all((counts >= lo[..., None]) & (counts <= hi[..., None]),
                    axis=(0, 1))
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


def test_pointwise_p_matches_induced_joint(monkeypatch):
    base, n, eps = seeded_coupling_2x3(), 6, 0.6
    seqs_y = synthesis._all_seqs(base.ny, n)
    book = [w for w in typical_ws(base, n, 0.5)
            if brute_force_cond_law(base, base.q_y_given_w, w, seqs_y,
                                    eps)[1] > 0][::4][:3]
    rng = np.random.default_rng(0)
    # truncated and untruncated codes; a chunk cap below m splits the 50
    # samples into chunks of 2, so every chunk boundary is crossed
    for code_eps, chunk_cells in ((eps, None), (None, None), (eps, 7),
                                  (None, 7)):
        if chunk_cells is not None:
            monkeypatch.setattr(synthesis, "_CHUNK_CELLS", chunk_cells)
        code = SynthesisCode(n=n, rate=math.log(3) / n, m_count=3,
                             codebook=np.stack(book), base=base, eps=code_eps,
                             eps_prime=0.5, seed=0)
        ex = induced_joint_exact(code)
        assert ex.mass.sum() == pytest.approx(1.0, abs=1e-12)
        flat = ex.mass.ravel()
        cells = np.concatenate([rng.choice(flat.size, 25, p=flat),
                                rng.choice(flat.size, 25)])
        ix, iy = np.divmod(cells, ex.mass.shape[1])
        got = synthesis._pointwise_p(code, ex.seqs_x[ix], ex.seqs_y[iy])
        assert np.count_nonzero(got) >= 25
        assert np.allclose(got, ex.mass[ix, iy], rtol=0.0, atol=1e-12)


def test_truncation_check_needs_one_shell_table_per_law(monkeypatch):
    calls = []
    tables = typ.cond_shell_log_masses

    def counted(q_w, q_cond, n, eps):
        calls.append((q_w.alphabet_size, n, eps))
        return tables(q_w, q_cond, n, eps)

    monkeypatch.setattr(typ, "cond_shell_log_masses", counted)
    base = fixtures.dsbs_optimal_coupling(0.1)
    truncation_check(base, n=8, eps=1.0, eps_prime=0.5, s=1.0)
    # the X and Y shells, given W-sequences of any type, one table each;
    # the eps'-typical set, given the constant sequence of the one-row
    # codeword law
    assert sorted(calls) == [(1, 8, 0.5), (2, 8, 1.0), (2, 8, 1.0)]


# ---------------------------------------------------------------------------
# the type-table checks against the dense enumeration
# ---------------------------------------------------------------------------

def seeded_binary_coupling():
    """A seeded coupling on binary W, X, Y.  At eps = 0.7, eps' = 0.3 its
    conditional shells hold a third or so of the conditional mass."""
    rng = np.random.default_rng(5)
    return MarkovCoupling(FinitePmf(rng.dirichlet([4.0, 4.0])),
                          rng.dirichlet([4.0, 4.0], size=2),
                          rng.dirichlet([4.0, 4.0], size=2))


def seeded_quaternary_coupling():
    """|W| = |X| = |Y| = 4, each conditional law near the identity (or its
    reversal), so that short blocks have nonempty shells."""
    rng = np.random.default_rng(0)
    cond = 0.05 + 0.75 * np.eye(4) + 0.01 * rng.random((2, 4, 4))
    cond /= cond.sum(axis=2, keepdims=True)
    return MarkovCoupling(FinitePmf(np.full(4, 0.25)), cond[0],
                          cond[1, ::-1].copy())


def dense_finite_n_checks(base, n, eps, eps_prime, s):
    """The finite-n checks by dense enumeration: every eps'-typical w^n
    against |X|^n x |Y|^n matrices, every normalizer a plain sum."""
    seqs_x = synthesis._all_seqs(base.nx, n)
    seqs_y = synthesis._all_seqs(base.ny, n)
    pi = base.xy_marginal().mass
    pin = np.prod(pi[seqs_x[:, None, :], seqs_y[None, :, :]], axis=2)
    with np.errstate(divide="ignore"):
        pin_neg_s = np.where(pin > 0, pin ** -s, 0.0)
    ws = typical_ws(base, n, eps_prime)
    q_w = np.array([np.prod(base.q_w.mass[w]) for w in ws])
    z_w = q_w.sum()
    mass, total, z_x, z_y = np.zeros_like(pin), 0.0, [], []
    for w, q in zip(ws, q_w):
        px, zx = brute_force_cond_law(base, base.q_x_given_w, w, seqs_x, eps)
        py, zy = brute_force_cond_law(base, base.q_y_given_w, w, seqs_y, eps)
        if zx == 0.0 or zy == 0.0:
            raise DomainError("empty conditional typical shell")
        px, py = px / zx, py / zy
        mass += q / z_w * np.outer(px, py)
        total += q / z_w * float(px ** (1 + s) @ pin_neg_s @ py ** (1 + s))
        z_x.append(zx)
        z_y.append(zy)
    delta_n = 1.0 - z_w * min(z_x) * min(z_y)
    on = mass > 0
    assert np.all(pin[on] > 0)
    return {"delta_n": delta_n,
            "max_ratio": float((mass[on] / pin[on]).max()) * (1 - delta_n),
            "divergence": max(math.log(float(
                (mass[on] ** (1 + s) * pin[on] ** -s).sum())) / s, 0.0),
            "lhs": math.log(total) / (n * s),
            "delta_1": 1.0 - min(z_x), "delta_2": 1.0 - min(z_y)}


def type_table_checks(base, n, eps, eps_prime, s):
    tr = truncation_check(base, n, eps, eps_prime, s)
    rb = rate_bound_check(base, n, eps, eps_prime, s)
    return {"delta_n": tr.delta_n, "max_ratio": tr.max_ratio,
            "divergence": tr.divergence, "lhs": rb.lhs,
            "delta_1": rb.delta_1, "delta_2": rb.delta_2}


@pytest.mark.parametrize("base, n, eps, eps_prime, s", [
    (fixtures.dsbs_optimal_coupling(0.1), 6, 1.0, 0.5, 0.5),
    (fixtures.dsbs_optimal_coupling(0.1), 8, 1.0, 0.5, 0.5),
    (fixtures.dsbs_optimal_coupling(0.1), 8, 1.0, 0.5, 1.0),
    (fixtures.copy_coupling_binary(), 8, 1.0, 0.5, 1.0),
    (seeded_binary_coupling(), 6, 0.7, 0.3, 1.0),
    (seeded_binary_coupling(), 8, 0.7, 0.3, 0.5),
    (seeded_coupling_2x3(), 6, 1.0, 0.5, 1.0),
    (trivial_coupling(), 6, 1.0, 0.5, 1.0),
    # C(68, 5) = 10.4M count vectors over W x X x Y; the windows keep 4
    (seeded_quaternary_coupling(), 5, 1.0, 0.9, 1.0),
], ids=["dsbs01-n6-s0.5", "dsbs01-n8-s0.5", "dsbs01-n8-s1", "copy-n8",
        "random-n6", "random-n8", "2x3-n6", "single-w-n6", "4x4x4-n5"])
def test_type_table_checks_match_dense_enumeration(base, n, eps, eps_prime,
                                                   s):
    dense = dense_finite_n_checks(base, n, eps, eps_prime, s)
    got = type_table_checks(base, n, eps, eps_prime, s)
    for key, ref in dense.items():
        assert got[key] == pytest.approx(ref, rel=1e-12, abs=0.0), key
    if base.nx == 2 and eps < 1.0:
        assert 0.0 < dense["delta_1"] < 1.0      # shells are not trivial


def test_type_table_checks_raise_on_empty_shells():
    base, n, eps = seeded_coupling_2x3(), 6, 0.6
    with pytest.raises(DomainError):
        dense_finite_n_checks(base, n, eps, 0.5, 1.0)
    with pytest.raises(DomainError):
        truncation_check(base, n, eps, 0.5, 1.0)
    with pytest.raises(DomainError):
        rate_bound_check(base, n, eps, 0.5, 1.0)


def dsbs01_shell_mass(n, k, p=0.1):
    """Z_X(w^n) for the DSBS(p) optimal coupling at eps = 1 and a W-type
    (k, n - k): within each W-block the X-sequence may flip at most
    floor(n a) symbols of w^n, a binomial window per block."""
    a = (1.0 - math.sqrt(1.0 - 2.0 * p)) / 2.0
    flips = math.floor(n * a + 1e-9)

    def block(size):
        return sum(math.comb(size, j) * a ** j * (1 - a) ** (size - j)
                   for j in range(flips + 1))
    return block(k) * block(n - k)


@pytest.mark.parametrize("n", [12, 16, 18, 20])
def test_checks_past_the_dense_wall_match_closed_forms(n):
    p, eps, eps_prime = 0.1, 1.0, 0.5
    a = (1.0 - math.sqrt(1.0 - 2.0 * p)) / 2.0
    base = fixtures.dsbs_optimal_coupling(p)
    lo, hi = math.ceil(n * 0.25 - 1e-9), math.floor(n * 0.75 + 1e-9)
    ks = range(lo, hi + 1)
    z_w = sum(math.comb(n, k) for k in ks) / 2.0 ** n
    z_x = min(dsbs01_shell_mass(n, k, p) for k in ks)
    tr = truncation_check(base, n, eps, eps_prime, 1.0)
    rb = rate_bound_check(base, n, eps, eps_prime, 1.0)
    assert tr.delta_n == pytest.approx(1.0 - z_w * z_x ** 2, abs=1e-9)
    assert rb.delta_1 == pytest.approx(1.0 - z_x, abs=1e-9)
    assert rb.delta_2 == pytest.approx(1.0 - z_x, abs=1e-9)
    assert tr.holds_pointwise and tr.holds_divergence and rb.holds
    if n * a < 1.0:
        # no flip fits a shell: X^n = Y^n = W^n under the code
        assert tr.delta_n == pytest.approx(
            1.0 - z_w * (1.0 - a) ** (2 * n), abs=1e-9)
        assert rb.lhs == pytest.approx(-math.log((1.0 - p) / 2.0), abs=1e-9)
    else:
        assert rb.lhs < -math.log((1.0 - p) / 2.0) - 0.1


def test_type_table_is_capped_by_max_types(monkeypatch):
    # uniform W and conditional laws: at n = 6 the windows keep 780 of the
    # C(13, 7) = 1716 joint types, and no W-symbol has more than C(7, 3) = 35
    # candidate count tables, so the cap binds on the kept types
    half = np.full((2, 2), 0.5)
    base = MarkovCoupling(FinitePmf([0.5, 0.5]), half, half)
    kept = synthesis._joint_types(base, 6, 1.0, 0.5).counts.shape[0]
    assert kept == 780
    monkeypatch.setattr(typ, "MAX_TYPES", kept - 1)
    with pytest.raises(ResourceBudgetError):
        truncation_check(base, 6, 1.0, 0.5, 1.0)
    with pytest.raises(ResourceBudgetError):
        rate_bound_check(base, 6, 1.0, 0.5, 1.0)
    monkeypatch.setattr(typ, "MAX_TYPES", kept)
    truncation_check(base, 6, 1.0, 0.5, 1.0)
    rate_bound_check(base, 6, 1.0, 0.5, 1.0)
    monkeypatch.setattr(typ, "MAX_TYPES", 34)      # one W-symbol's candidates
    with pytest.raises(ResourceBudgetError):
        rate_bound_check(base, 6, 1.0, 0.5, 1.0)


def test_checks_raise_no_warnings_on_structural_zeros():
    base = fixtures.copy_coupling_binary()        # pi has zero cells
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tr = truncation_check(base, 8, 1.0, 0.5, 1.0)
        rb = rate_bound_check(base, 8, 1.0, 0.5, 1.0)
    assert tr.holds_pointwise and rb.holds
