"""Synthesis codes: codebook construction, exact induced joints against
brute-force oracles, estimator agreement, and the finite-n bound checks."""

import collections
import dataclasses
import itertools
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import logsumexp

from commoninfo import acceptance, fixtures, synthesis
from commoninfo.errors import (ConfigError, DomainError, ResourceBudgetError,
                               SamplingError)
from commoninfo.probability import FinitePmf, MarkovCoupling
from commoninfo.divergences import renyi
from commoninfo.synthesis import (DivergenceEstimate, SynthesisCode,
                                  build_code, estimate_renyi, estimate_tv,
                                  induced_joint_exact,
                                  oneshot_bound_verify, rate_bound_check,
                                  truncation_check)
from commoninfo import typicality as typ
from oracles import is_cond_typical, is_typical


def trivial_coupling():
    """Single codeword symbol: the induced law is exactly the product pi^n."""
    return MarkovCoupling(FinitePmf([1.0]),
                          np.array([[0.3, 0.7]]),
                          np.array([[0.6, 0.4]]))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rate", [math.nan, -0.1])
def test_build_code_rejects_a_nan_or_negative_rate(rate):
    base = fixtures.dsbs_optimal_coupling(0.1)
    with pytest.raises(ConfigError, match="nonnegative"):
        build_code(base, 4, rate, 1.0, 0.5, seed=0)


@pytest.mark.parametrize("rate", [2.0, 100.0, math.inf])
def test_build_code_names_its_cap_past_a_float_exponential(rate):
    # e^{10 * 100} overflows a float: the cap is named, not OverflowError
    base = fixtures.dsbs_optimal_coupling(0.1)
    with pytest.raises(ResourceBudgetError, match="exceeds cap 16384"):
        build_code(base, 10, rate, None, 0.5, seed=0)


def test_build_code_names_its_cap_one_codeword_past_it():
    # e^{nR} = 16384.5 is a float: its ceiling, one past the cap, is named
    base = fixtures.dsbs_optimal_coupling(0.1)
    with pytest.raises(ResourceBudgetError, match="exceeds cap 16384"):
        build_code(base, 1, math.log(16384.5), None, None, seed=0)


def test_m_count_rule():
    base = fixtures.dsbs_optimal_coupling(0.1)
    for n, rate, m in [(4, 0.0, 1), (4, math.log(2.0), 16),
                       (3, 0.5, math.ceil(math.exp(1.5) - 1e-9))]:
        code = build_code(base, n, rate, 1.0, 0.5, seed=0)
        assert code.codebook.shape == (m, n)
        assert (code.m_count, code.n) == (m, n)


def test_code_validation():
    # the code keeps the conditional truncation eps alone, in (0, 1] or
    # None; the rate and eps' are build_code's to check before it draws
    base = fixtures.dsbs_optimal_coupling(0.1)
    code = build_code(base, 4, 0.0, 1.0, 0.5, seed=0)
    for eps in (1.0, 0.3, None):
        SynthesisCode(codebook=code.codebook, base=base, eps=eps)
    for eps in (0.0, 1.5, math.nan):
        with pytest.raises(ConfigError, match=r"^eps = .* not in \(0, 1\]$"):
            SynthesisCode(codebook=code.codebook, base=base, eps=eps)


@pytest.mark.parametrize("codebook", [
    [[0, 1, 2, 0], [0, 0, 1, 1]],        # symbol 2 past |W| = 2
    [[0, 1, -1, 0], [0, 0, 1, 1]],
    [[0.0, 1.0, 1.0, 0.0], [0.0, 0.0, 1.0, 1.0]],
    np.zeros((0, 4), dtype=int),         # no codeword
    np.zeros((2, 0), dtype=int),         # codewords of length 0
    [0, 1, 1, 0, 0, 0, 1, 1],
], ids=["symbol-past-w", "negative", "float", "too-few", "too-short",
        "flat"])
def test_code_rejects_a_malformed_codebook(codebook):
    # the first codebook gave an exact TV of 1.474, above TV's maximum 1
    base = fixtures.dsbs_optimal_coupling(0.1)
    with pytest.raises(ConfigError, match="codebook"):
        SynthesisCode(codebook=np.array(codebook), base=base, eps=1.0)


def test_code_rejects_a_codeword_symbol_outside_supp_q_w():
    base = MarkovCoupling(FinitePmf([1.0, 0.0]), np.eye(2), np.eye(2))
    kwargs = dict(base=base, eps=None)
    SynthesisCode(codebook=np.array([[0, 0]]), **kwargs)
    with pytest.raises(ConfigError, match="supp"):
        SynthesisCode(codebook=np.array([[0, 1]]), **kwargs)


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
    rows = []
    while len(rows) < m:
        seq = rng.choice(base.nw, size=n, p=base.q_w.mass)
        if eps_prime is None or is_typical(seq, base.q_w.mass, eps_prime):
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
        # Q_W^n of the eps'-typical set: entry n of the one-row shell table
        if eps_prime is not None and np.exp(typ.cond_shell(
                FinitePmf([1.0]), base.q_w.mass[None, :], n,
                eps_prime)[2][0, n]) < 0.02:
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
    code = build_code(base, 10, 0.4, 1.0, 0.5, seed=99)
    assert code.m_count == 55
    assert is_typical(code.codebook, base.q_w.mass, 0.5).all()


def test_cond_law_sample_respects_shell():
    base = fixtures.dsbs_optimal_coupling(0.1)
    book = build_code(base, 8, 0.4, 1.0, 0.5, seed=1).codebook
    ws = book[np.arange(25) % book.shape[0]]
    for axis, cond in (("X", base.q_x_given_w), ("Y", base.q_y_given_w)):
        xs = synthesis._CondLaw(base, 1.0, axis, 8).sample(
            synthesis._rng(1, 99), ws)
        for x, w in zip(xs, ws):
            assert is_cond_typical(x, w, base.q_w, cond, 1.0)


def test_cond_law_sample_matches_density():
    # X-draws given one codeword against the truncated law's probabilities;
    # at eps = 0.7 the shell keeps a third or so of the conditional mass
    base, n, draws = seeded_binary_coupling(), 6, 40_000
    law = synthesis._CondLaw(base, 0.7, "X", n)
    w = np.array([0, 1, 1, 0, 1, 0])
    seqs = synthesis._all_seqs(base.nx, n)
    p = law.density(w, seqs)[0]
    assert 0.0 < law._normalizers(w[None, :])[0] < 0.6
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
    law = synthesis._CondLaw(base, 0.4, "X", 6)
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


def test_build_code_checks_eps_before_it_draws(monkeypatch):
    # eps = 2 was rejected only after the whole codebook was drawn
    drawn = []
    monkeypatch.setattr(synthesis._CondLaw, "sample",
                        lambda self, rng, ws: drawn.append(ws.shape) or ws)
    base = fixtures.dsbs_optimal_coupling(0.1)
    with pytest.raises(ConfigError, match=r"^eps = 2.0 not in \(0, 1\]$"):
        build_code(base, 16, 0.55, eps=2.0, eps_prime=0.5, seed=0)
    assert drawn == []


def test_build_code_rejects_bad_block_length_and_eps_prime():
    base = fixtures.dsbs_optimal_coupling(0.1)
    for n, eps_prime in ((0, 0.5), (0, None), (4, 0.0), (4, -0.1),
                         (4, 1.0)):
        with pytest.raises(ConfigError):
            build_code(base, n, 0.1, 1.0, eps_prime, seed=0)


# ---------------------------------------------------------------------------
# exact induced joint
# ---------------------------------------------------------------------------

def test_induced_joint_trivial_coupling_is_product():
    code = build_code(trivial_coupling(), 5, 0.0, None, None, seed=0)
    ex = induced_joint_exact(code)
    pi = trivial_coupling().xy_marginal()
    pin = reference_pi_n_matrix(pi, *dense_seqs(code))
    assert np.allclose(ex.mass, pin, atol=1e-14)
    assert estimate_tv(code).point == pytest.approx(0.0, abs=1e-12)
    assert estimate_renyi(code, 1.0).point == pytest.approx(0.0, abs=1e-10)


def test_induced_joint_brute_force_oracle():
    # untruncated: P(x,y) = (1/m) sum_w prod_i cond_x(w_i,x_i) cond_y(w_i,y_i)
    base = fixtures.dsbs_optimal_coupling(0.1)
    code = build_code(base, 3, 0.3, None, None, seed=2)
    ex = induced_joint_exact(code)
    seqs_x, seqs_y = dense_seqs(code)
    assert ex.mass.shape == (len(seqs_x), len(seqs_y)) == (8, 8)
    for ix in (0, 3, 7):
        for iy in (1, 4, 6):
            x, y = seqs_x[ix], seqs_y[iy]
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
    pos = np.flatnonzero(ex.mass.sum(axis=1) > 0)
    seqs_x = dense_seqs(code)[0]
    ok_any = np.zeros(len(seqs_x), dtype=bool)
    for w in code.codebook:
        ok_any |= is_cond_typical(seqs_x, w, base.q_w, base.q_x_given_w, 1.0)
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


def finite_n_benchmark_cell_seed(*key):
    """The code and estimator seed of a finite_n benchmark cell at workload
    seed 1: (1, 1, n) for an order-2 cell, (1, 2, n, 100 R/C) for a TV
    cell."""
    return int(np.random.SeedSequence([1, *key]).generate_state(1)[0])


def test_monte_carlo_tv_flags_every_sample_at_its_maximum():
    base = fixtures.dsbs_optimal_coupling(0.1)
    c = acceptance.DSBS_CI_EXACT
    # n = 16 at 0.5C: every one of 2000 samples reads 1, so the estimate
    # is 1 with standard error 0 although the exact TV is 0.99964
    seed = finite_n_benchmark_cell_seed(2, 16, 50)
    code = build_code(base, 16, 0.5 * c, 1.0, 0.5, seed)
    est = estimate_tv(code, samples=2000, seed=seed)
    assert (est.method, est.point, est.std_error) == ("monte_carlo", 1.0, 0.0)
    assert est.diagnostics == {"all_samples_at_max": True}
    # n = 12 at 1.2C: the estimate is near 0.79, with no flag
    seed = finite_n_benchmark_cell_seed(2, 12, 120)
    code = build_code(base, 12, 1.2 * c, 1.0, 0.5, seed)
    est = estimate_tv(code, samples=2000, seed=seed)
    assert est.method == "monte_carlo" and 0.7 < est.point < 0.9
    assert est.diagnostics == {}


def closed_form_renyi2(code):
    """D_2 of an untruncated code's induced law against pi^n by codeword
    pairs: e^{D_2} = (1/m^2) sum_{j,k} prod_i K(w_ji, w_ki), with
    K(a, b) = sum_{x,y} Q(x|a) Q(y|a) Q(x|b) Q(y|b) / pi(x, y)."""
    base = code.base
    pi = base.xy_marginal().mass
    qx, qy = base.q_x_given_w, base.q_y_given_w
    kern = np.einsum("ax,ay,bx,by,xy->ab", qx, qy, qx, qy, 1.0 / pi)
    hot = [(code.codebook == a).astype(float) for a in range(base.nw)]
    # the log of prod_i K(w_ji, w_ki) sums log K(a, b) over the N_ab(j, k)
    # positions where w_j reads a and w_k reads b
    log_terms = sum(math.log(kern[a, b]) * (hot[a] @ hot[b].T)
                    for a in range(base.nw) for b in range(base.nw))
    return float(logsumexp(log_terms) - 2.0 * math.log(code.m_count))


def test_exact_order_two_divergence_matches_the_codeword_pair_form():
    base = fixtures.dsbs_optimal_coupling(0.1)
    rate = 1.2 * acceptance.DSBS_CI_EXACT
    codes = [build_code(base, n, rate, None, 0.5, seed=3)
             for n in acceptance.TREND_NS]
    codes.append(build_code(base, 10, rate, None, 0.5,
                            finite_n_benchmark_cell_seed(1, 10)))
    for code in codes:
        est = estimate_renyi(code, 1.0)
        assert est.method == "exact"
        assert est.point == pytest.approx(closed_form_renyi2(code),
                                          abs=1e-12), code.n


@pytest.mark.parametrize("mult", [0.1, 0.5, 1.2])
def test_order_zero_is_the_alpha_zero_exception(mult):
    # alpha = 1 + s = 0, where the minimum rate is not C: D_0 does not
    # vanish above C for a truncated code, and reads 0 below it for an
    # untruncated one, whose conditional rows are positive, so P > 0 on all
    # of supp pi^n.  At eps = 1 each conditional shell of dsbs01 is the one
    # point w^n for n <= 18, so P lives on the pairs (w^n, w^n) of the d
    # distinct codewords, each of pi^n mass 0.45^n
    base = fixtures.dsbs_optimal_coupling(0.1)
    rate = mult * acceptance.DSBS_CI_EXACT
    for n in (4, 8, 10):
        est = estimate_renyi(build_code(base, n, rate, None, 0.5, seed=0),
                             -1.0)
        assert est.method == "exact"
        assert est.point == pytest.approx(0.0, rel=0, abs=1e-12)
        code = build_code(base, n, rate, 1.0, 0.5, seed=0)
        d = np.unique(code.codebook, axis=0).shape[0]
        est = estimate_renyi(code, -1.0)
        assert est.method == "exact"
        assert est.point == pytest.approx(-math.log(d * 0.45 ** n), rel=0,
                                          abs=1e-12)


def test_estimate_renyi_order_validation():
    code = build_code(trivial_coupling(), 4, 0.0, None, None, seed=0)
    with pytest.raises(ConfigError):
        estimate_renyi(code, 1.5)


@pytest.mark.parametrize("samples", [0, 1])
def test_estimators_reject_fewer_than_two_samples(samples):
    # n = 12 is past the dense budget: the TV and s < 1 calls are
    # Monte-Carlo-path calls and the s = 1 call of this untruncated code is
    # an exact-path call, and both paths reject alike.  One draw leaves no
    # standard error, and none leaves no mean
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
    # 2 e^{s Gamma}, Gamma = max(D_cond - log m, D_marg), where D_cond is
    # the divergence of the glued joints P_W P_{X|W} and P_W pi
    from commoninfo.divergences import renyi
    p_w = FinitePmf([0.3, 0.7])
    cond = np.array([[0.9, 0.1], [0.2, 0.8]])
    pi_x = FinitePmf([0.55, 0.45])
    s, m = 0.5, 2
    joint = p_w.mass[:, None] * cond
    cond_d = renyi(joint, np.outer(p_w.mass, pi_x.mass), s)
    marg_d = renyi(joint.sum(axis=0), pi_x, s)
    rep = oneshot_bound_verify(p_w, cond, pi_x, s, m)
    assert rep.gamma_rhs == pytest.approx(
        2.0 * math.exp(s * max(cond_d - math.log(m), marg_d)), rel=1e-14)


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
    (None, 0.5, 1.0),                    # no eps
    (1.0, None, 1.0),                    # no eps'
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
    conditional eps-shell (``oracles.is_cond_typical``), and the shell mass
    as its plain sum."""
    p = np.prod(cond[w, seqs], axis=1)
    inside = is_cond_typical(seqs, w, base.q_w, cond, eps)
    return np.where(inside, p, 0.0), float(p[inside].sum())


def typical_ws(base, n, eps_prime):
    return [np.array(w) for w in np.ndindex(*(base.nw,) * n)
            if is_typical(np.array(w), base.q_w.mass, eps_prime)]


def test_cond_law_matches_brute_force():
    base, n, eps = seeded_coupling_2x3(), 6, 0.6
    sizes = set()
    for axis, cond in (("X", base.q_x_given_w), ("Y", base.q_y_given_w)):
        law = synthesis._CondLaw(base, eps, axis, n)
        seqs = synthesis._all_seqs(cond.shape[1], n)
        for w in typical_ws(base, n, 0.5):
            ref, z = brute_force_cond_law(base, cond, w, seqs, eps)
            sizes.add(int(np.count_nonzero(ref)))
            if z == 0.0:
                with pytest.raises(DomainError):
                    law.density(w, seqs)
                continue
            assert law._normalizers(w[None, :])[0] == pytest.approx(
                z, abs=1e-12)
            assert np.allclose(law.density(w, seqs), ref / z,
                               rtol=0.0, atol=1e-12)
        untruncated = synthesis._CondLaw(base, None, axis, n)
        w = typical_ws(base, n, 0.5)[0]
        assert untruncated._normalizers(w[None, :])[0] == 1.0
        assert np.allclose(untruncated.density(w, seqs),
                           [np.prod(cond[w, s]) for s in seqs],
                           rtol=0.0, atol=1e-15)
    assert {0, 8, 9, 36} <= sizes            # empty and nontrivial shells


def oracle_shell_mask(law, eps, ws, seqs):
    """The conditional eps-shell test of every (codeword, sequence) pair,
    one ``oracles.is_cond_typical`` call per codeword."""
    return np.array([is_cond_typical(seqs, w, law.q_w, law.cond, eps)
                     for w in ws])


def shell_masses(law, ws):
    """Z(w^n) of every row of ``ws``, one ``_normalizers`` call per row, and
    0 where it raises for an empty shell."""
    z = []
    for w in ws:
        try:
            z.append(law._normalizers(w[None, :])[0])
        except DomainError:
            z.append(0.0)
    return np.array(z)


def shell_test_cases():
    """(name, base, eps, codewords, {axis: sequences}) for the shell test."""
    rng = np.random.default_rng(0)
    dsbs, c23, tern = (fixtures.dsbs_optimal_coupling(0.1),
                       seeded_coupling_2x3(), ternary_w_coupling())
    seqs2_6, seqs3_6 = synthesis._all_seqs(2, 6), synthesis._all_seqs(3, 6)
    # the ternary codeword law: a one-row law given 0^n whose windows have
    # lo > 0 for every symbol; at n = 12 its typical set is not empty
    zeros = np.zeros((1, 12), dtype=int)
    tern_w = np.concatenate([
        synthesis._CondLaw(tern, 0.5, "W", 12).sample(
            rng, np.repeat(zeros, 100, 0)),
        rng.integers(0, 3, (300, 12))])
    # n = 20: the codewords of a code, and per law 100 draws from the shells
    # of random codewords next to 100 uniform sequences
    code = build_code(c23, 20, 0.15, None, 0.5, seed=1)
    long_seqs = {}
    for axis, size in (("X", c23.nx), ("Y", c23.ny)):
        given = code.codebook[rng.integers(0, code.m_count, 100)]
        long_seqs[axis] = np.concatenate([
            synthesis._CondLaw(c23, 0.6, axis, 20).sample(rng, given),
            rng.integers(0, size, (100, 20))])
    return [("dsbs01 eps=1 n=6", dsbs, 1.0, seqs2_6, {"X": seqs2_6}),
            ("2x3 eps=0.6 n=6", c23, 0.6, np.stack(typical_ws(c23, 6, 0.5)),
             {"X": seqs2_6, "Y": seqs3_6[::4]}),
            ("ternary W-law eps'=0.5 n=12", tern, 0.5, zeros, {"W": tern_w}),
            ("2x3 eps=0.6 n=20", c23, 0.6, code.codebook, long_seqs)]


@pytest.mark.parametrize("case", shell_test_cases(), ids=lambda c: c[0])
def test_shell_test_matches_the_per_pair_oracle(case):
    _, base, eps, ws, seqs_by_axis = case
    for axis, seqs in seqs_by_axis.items():
        law = synthesis._CondLaw(base, eps, axis, ws.shape[1])
        block = synthesis._Block(ws, law.cond.shape[0])
        assert block.hot.dtype == np.float32
        want = oracle_shell_mask(law, eps, ws, seqs)
        assert want.any() and not want.all()
        mask = law.window_mask(block, seqs)
        assert mask is not None and np.array_equal(mask, want)
        # the density: the product law inside the shell over the shell
        # mass, zero outside, for the codewords with a nonempty shell
        z = shell_masses(law, ws)
        good = z > 0
        prod = np.array([[np.prod(law.cond[w, s]) for s in seqs] for w in ws])
        got = law.density(ws[good], seqs)
        assert np.array_equal(got > 0, want[good])
        assert np.allclose(got, np.where(want, prod, 0.0)[good]
                           / z[good, None], rtol=1e-12, atol=0.0)
        # no pass for a window that cannot bind changes the mask
        untruncated = synthesis._CondLaw(base, None, axis, ws.shape[1])
        assert untruncated.window_mask(block, seqs) is None
        assert untruncated.window_mask(block, seqs, mask) is mask
        assert np.allclose(untruncated.density(ws, seqs), prod,
                           rtol=1e-12, atol=0.0)


def test_shell_test_cases_cover_every_window_kind():
    kinds = collections.defaultdict(set)
    for name, base, eps, ws, seqs_by_axis in shell_test_cases():
        n = ws.shape[1]
        for axis in seqs_by_axis:
            law = synthesis._CondLaw(base, eps, axis, n)
            lo, hi = law.lo, law.hi
            k_max = synthesis._Block(ws, law.cond.shape[0]).k_max[:, None]
            binds = (lo > 0) | (hi < k_max)
            if np.any(binds & (hi == 0)):
                kinds["hi = 0"].add(name)
            if np.any(lo > 0):
                kinds["lo > 0"].add(name)
            if np.any(shell_masses(law, ws) == 0):
                kinds["empty shell"].add(name)
            kinds["n"].add(n)
    assert "dsbs01 eps=1 n=6" in kinds["hi = 0"]
    assert "2x3 eps=0.6 n=6" in kinds["empty shell"]
    assert "ternary W-law eps'=0.5 n=12" in kinds["lo > 0"]
    assert 20 in kinds["n"]


def test_untruncated_full_support_law_builds_no_mask():
    base = fixtures.dsbs_optimal_coupling(0.1)
    ws = build_code(base, 10, 0.3, None, 0.5, seed=0).codebook
    seqs = np.random.default_rng(0).integers(0, 2, (50, 10))
    block = synthesis._Block(ws, base.nw)
    for axis in ("X", "Y"):
        assert synthesis._CondLaw(base, None, axis, 10).window_mask(
            block, seqs) is None
    # a structural zero binds even untruncated: the zero cell's count <= 0
    zero = zero_cell_coupling(2, 3)
    ws = build_code(zero, 6, 0.3, None, None, seed=0).codebook
    seqs = synthesis._all_seqs(3, 6)
    mask = synthesis._CondLaw(zero, None, "Y", 6).window_mask(
        synthesis._Block(ws, zero.nw), seqs)
    want = np.array([[np.prod(zero.q_y_given_w[w, s]) > 0 for s in seqs]
                     for w in ws])
    assert np.array_equal(mask, want) and not want.all()


def reference_pointwise_p(code, x, y):
    """The induced P at sampled pairs as the product of the two per-law
    density matrices over the whole codebook, repeats included, summed over
    the codewords and divided by m."""
    px = synthesis._CondLaw(code.base, code.eps, "X", code.n).density(
        code.codebook, x)
    py = synthesis._CondLaw(code.base, code.eps, "Y", code.n).density(
        code.codebook, y)
    return (px * py).sum(axis=0) / code.m_count


def brute_force_induced_joint(code):
    """(1/m) sum over the codebook rows, repeats included, of the outer
    product of the brute-force conditional laws."""
    base, n = code.base, code.n
    seqs_x = synthesis._all_seqs(base.nx, n)
    seqs_y = synthesis._all_seqs(base.ny, n)
    mass = np.zeros((seqs_x.shape[0], seqs_y.shape[0]))
    for w in code.codebook:
        if code.eps is None:
            px = np.prod(base.q_x_given_w[w, seqs_x], axis=1)
            py = np.prod(base.q_y_given_w[w, seqs_y], axis=1)
        else:
            px, zx = brute_force_cond_law(base, base.q_x_given_w, w, seqs_x,
                                          code.eps)
            py, zy = brute_force_cond_law(base, base.q_y_given_w, w, seqs_y,
                                          code.eps)
            px, py = px / zx, py / zy
        mass += np.outer(px, py)
    return mass / code.m_count


def good_codewords(base, n, eps):
    """The W-sequences whose X- and Y-shells at eps are nonempty."""
    return [w for w in synthesis._all_seqs(base.nw, n)
            if all(brute_force_cond_law(
                base, cond, w, synthesis._all_seqs(cond.shape[1], n),
                eps)[1] > 0 for cond in (base.q_x_given_w, base.q_y_given_w))]


def test_pointwise_p_matches_induced_joint(monkeypatch):
    rng = np.random.default_rng(0)
    # at n = 5 and eps = 1 the ternary coupling has 6 codewords with
    # nonempty shells, none using W-symbol 0, so that symbol's windows
    # never bind
    for base, n, eps in ((seeded_coupling_2x3(), 6, 0.6),
                         (ternary_w_coupling(), 5, 1.0)):
        a, b, c = good_codewords(base, n, eps)[::2][:3]
        # distinct codewords only, a repeat before and after distinct ones,
        # and repeats interleaved; truncated and untruncated codes; chunk
        # caps below u split the 50 samples into chunks of 2 (or 1), so
        # every chunk boundary is crossed
        books = ([a, b, c], [a, a, b, c], [b, c, a, a], [c, a, b, a, c, a])
        for book, code_eps, chunk_cells in itertools.product(
                books, (eps, None), (2 ** 20, 7, 1)):
            monkeypatch.setattr(synthesis, "_CHUNK_CELLS", chunk_cells)
            m = len(book)
            code = SynthesisCode(codebook=np.stack(book), base=base,
                                 eps=code_eps)
            ex = induced_joint_exact(code)
            assert ex.mass.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.allclose(ex.mass, brute_force_induced_joint(code),
                               rtol=1e-12, atol=1e-300)
            flat = ex.mass.ravel()
            cells = np.concatenate([rng.choice(flat.size, 25, p=flat),
                                    rng.choice(flat.size, 25)])
            ix, iy = np.divmod(cells, ex.mass.shape[1])
            seqs_x, seqs_y = dense_seqs(code)
            x, y = seqs_x[ix], seqs_y[iy]
            got = synthesis._pointwise_p(synthesis._induced_laws(code), x,
                                         y)
            assert np.count_nonzero(got) >= 25
            assert np.allclose(got, reference_pointwise_p(code, x, y),
                               rtol=1e-12, atol=0.0)
            assert np.allclose(got, ex.mass[ix, iy], rtol=0.0, atol=1e-12)


def record_dense_work(monkeypatch):
    """Patch ``_CondLaw.log_terms`` and ``_Block`` to record the axis and
    rows of every log-term matrix and the size of every codeword block that
    ``_pointwise_p`` builds."""
    seen, blocks = [], []
    log_terms = synthesis._CondLaw.log_terms

    def recorded(law, seqs):
        seen.append((law.axis, seqs.copy()))
        return log_terms(law, seqs)

    class RecordedBlock(synthesis._Block):
        def __init__(self, ws, nw):
            blocks.append(ws.shape[0])
            super().__init__(ws, nw)

    monkeypatch.setattr(synthesis._CondLaw, "log_terms", recorded)
    monkeypatch.setattr(synthesis, "_Block", RecordedBlock)
    return seen, blocks


def seen_rows(seen, axis):
    return np.concatenate([s for a, s in seen if a == axis])


def shell_test_code():
    """A truncated 2x3 code at n = 6 with a repeated codeword, its distinct
    codewords, and its X and Y laws."""
    base, n, eps = seeded_coupling_2x3(), 6, 0.6
    a, b, c = good_codewords(base, n, eps)[::2][:3]
    code = SynthesisCode(codebook=np.stack([a, b, c, a]), base=base,
                         eps=eps)
    laws = [synthesis._CondLaw(base, eps, axis, n) for axis in ("X", "Y")]
    return code, np.stack([a, b, c]), laws


def test_dense_product_sees_only_samples_inside_both_shells(monkeypatch):
    code, ws, (law_x, law_y) = shell_test_code()
    rng = np.random.default_rng(1)
    ex = induced_joint_exact(code)
    cells = rng.choice(ex.mass.size, 50, p=ex.mass.ravel())
    ix, iy = np.divmod(cells, ex.mass.shape[1])
    seqs_x, seqs_y = dense_seqs(code)
    x = np.concatenate([seqs_x[ix], rng.integers(0, 2, (150, code.n))])
    y = np.concatenate([seqs_y[iy], rng.integers(0, 3, (150, code.n))])
    inside = (oracle_shell_mask(law_x, code.eps, ws, x)
              & oracle_shell_mask(law_y, code.eps, ws, y)).any(axis=0)
    assert inside[:50].all() and not inside.all()
    for chunk_cells in (2 ** 20, 7):
        monkeypatch.setattr(synthesis, "_CHUNK_CELLS", chunk_cells)
        with monkeypatch.context() as patch:
            seen, blocks = record_dense_work(patch)
            got = synthesis._pointwise_p(synthesis._induced_laws(code), x, y)
        assert np.array_equal(seen_rows(seen, "X"), x[inside])
        assert np.array_equal(seen_rows(seen, "Y"), y[inside])
        assert min(blocks) > 0
        assert np.all(got[~inside] == 0.0) and np.all(got[inside] > 0.0)
        assert np.allclose(got, reference_pointwise_p(code, x, y),
                           rtol=1e-12, atol=0.0)


def test_a_chunk_that_the_shells_reject_reads_zero(monkeypatch):
    code, ws, (law_x, law_y) = shell_test_code()
    seqs_x, seqs_y = dense_seqs(code)
    in_x = oracle_shell_mask(law_x, code.eps, ws, seqs_x).any(axis=0)
    in_y = oracle_shell_mask(law_y, code.eps, ws, seqs_y).any(axis=0)
    ex = induced_joint_exact(code)
    ix, iy = np.unravel_index(np.argsort(ex.mass, axis=None)[-2:],
                              ex.mass.shape)
    # chunks of two samples: X's windows reject every pair, then only Y's
    # do, then two pairs of positive mass
    x = np.concatenate([seqs_x[~in_x][:2], seqs_x[in_x][:2], seqs_x[ix]])
    y = np.concatenate([seqs_y[in_y][:2], seqs_y[~in_y][:2], seqs_y[iy]])
    monkeypatch.setattr(synthesis, "_CHUNK_CELLS", 2 * ws.shape[0])
    with monkeypatch.context() as patch:
        seen, blocks = record_dense_work(patch)
        got = synthesis._pointwise_p(synthesis._induced_laws(code), x, y)
    assert np.array_equal(got[:4], np.zeros(4))
    assert np.allclose(got[4:], ex.mass[ix, iy], rtol=1e-12, atol=0.0)
    assert np.array_equal(seen_rows(seen, "X"), x[4:])
    assert np.array_equal(seen_rows(seen, "Y"), y[4:])
    assert min(blocks) > 0


def test_untruncated_code_narrows_nothing(monkeypatch):
    base = fixtures.dsbs_optimal_coupling(0.1)
    code = build_code(base, 12, 0.3, None, 0.5, seed=0)
    u = synthesis._distinct(code.codebook)[0].shape[0]
    rng = np.random.default_rng(2)
    x, y = rng.integers(0, 2, (2, 100, 12))
    monkeypatch.setattr(synthesis, "_CHUNK_CELLS", 30 * u)
    with monkeypatch.context() as patch:
        seen, blocks = record_dense_work(patch)
        got = synthesis._pointwise_p(synthesis._induced_laws(code), x, y)
    # one block of every distinct codeword, and every sample in the product
    assert blocks == [u] and len(seen) == 2 * 4
    assert np.array_equal(seen_rows(seen, "X"), x)
    assert np.array_equal(seen_rows(seen, "Y"), y)
    assert np.all(got > 0.0)
    assert np.allclose(got, reference_pointwise_p(code, x, y),
                       rtol=1e-12, atol=0.0)


def test_distinct_rows_match_unique():
    rng = np.random.default_rng(0)
    for _ in range(50):
        rows = rng.integers(0, 3, size=(rng.integers(1, 40),
                                        rng.integers(1, 4)))
        got, mult, inverse = synthesis._distinct(rows)
        uniq, first, counts = np.unique(rows, axis=0, return_index=True,
                                        return_counts=True)
        order = np.argsort(first)
        assert np.array_equal(got, uniq[order])
        assert np.array_equal(mult, counts[order])
        assert np.array_equal(got[inverse], rows)


def zero_cell_coupling(nx, ny):
    """A seeded coupling with X = W and a zero in the Y-row of W = 0, so
    that pi(0, ny - 1) = 0."""
    rng = np.random.default_rng(nx * 10 + ny)
    q_y = rng.dirichlet(np.ones(ny), size=nx)
    q_y[0, -1] = 0.0
    q_y /= q_y.sum(axis=1, keepdims=True)
    return MarkovCoupling(FinitePmf(rng.dirichlet(np.ones(nx))), np.eye(nx),
                          q_y)


@pytest.mark.parametrize("nx, ny, n", [(2, 2, 10), (2, 3, 6), (3, 3, 5)])
def test_exact_log_pi_n_equals_the_gather_sum_bit_for_bit(nx, ny, n):
    base = zero_cell_coupling(nx, ny)
    pi = base.xy_marginal()
    assert pi.mass[0, -1] == 0.0
    code = build_code(base, n, 0.1, None, None, seed=0)
    _, got = synthesis._p_and_log_pi(code, True, 0, None, False)
    seqs_x = synthesis._all_seqs(nx, n)[:, None, :]
    seqs_y = synthesis._all_seqs(ny, n)[None, :, :]
    with np.errstate(divide="ignore"):
        log_pi = np.log(pi.mass)
    want = sum(log_pi[seqs_x[..., i], seqs_y[..., i]] for i in range(n))
    assert np.array_equal(got, want)
    assert np.isneginf(want).any() and np.isfinite(want).any()


@pytest.mark.parametrize("path", ["exact", "monte_carlo"])
def test_empty_shell_error_names_the_first_bad_codeword(monkeypatch, path):
    base, n, eps = seeded_coupling_2x3(), 6, 0.6
    seqs_y = synthesis._all_seqs(base.ny, n)
    ws = typical_ws(base, n, 0.5)
    empty = [brute_force_cond_law(base, base.q_y_given_w, w, seqs_y,
                                  eps)[1] == 0.0 for w in ws]
    good = [w for w, e in zip(ws, empty) if not e]
    bad = sorted((w for w, e in zip(ws, empty) if e), key=tuple)
    # a repeated good codeword first; the first bad one in codebook order
    # sorts after a later bad one
    book = np.stack([good[0], good[0], bad[-1], good[1], bad[0], bad[-1]])
    code = SynthesisCode(codebook=book, base=base, eps=eps)
    message = (f"empty conditional typical shell for Y given w^n = "
               f"{bad[-1].tolist()} (structural zero at this n)")
    if path == "monte_carlo":
        monkeypatch.setattr(synthesis, "MAX_JOINT_CELLS", 10)
        with pytest.raises(DomainError) as err:
            synthesis._pointwise_p(synthesis._induced_laws(code),
                                   seqs_y[:4, :] % 2, seqs_y[:4, :])
    else:
        with pytest.raises(DomainError) as err:
            induced_joint_exact(code)
    assert str(err.value) == message
    for est in (estimate_tv(code, samples=50),
                estimate_renyi(code, -0.5, samples=50)):
        assert est.method == path
        assert est.diagnostics == {"structural_zero": message}
    # drawing from P names the same codeword whatever the draws: it once
    # named the first empty shell drawn, bad[0] on 7 of these 20 seeds
    for seed in range(20):
        est = estimate_renyi(code, 1.0, samples=50, seed=seed)
        assert est.diagnostics == {"structural_zero": message}, seed


def test_truncation_check_needs_one_shell_table_per_law(monkeypatch):
    calls = []
    shells = typ.cond_shell

    def counted(q_w, q_cond, n, eps):
        calls.append((q_w.alphabet_size, n, eps))
        return shells(q_w, q_cond, n, eps)

    monkeypatch.setattr(typ, "cond_shell", counted)
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


# ---------------------------------------------------------------------------
# the estimators against two-path references
# ---------------------------------------------------------------------------

def dense_seqs(code):
    """Every X^n and every Y^n of ``code``'s block length, in the row and
    column order of ``induced_joint_exact(code).mass``."""
    return (synthesis._all_seqs(code.base.nx, code.n),
            synthesis._all_seqs(code.base.ny, code.n))


def reference_pi_n_matrix(pi, seqs_x, seqs_y):
    """pi^n(x^n, y^n) as an (Nx, Ny) matrix."""
    with np.errstate(divide="ignore"):
        log_pi = np.log(pi.mass)
    L = np.zeros((seqs_x.shape[0], seqs_y.shape[0]))
    for i in range(seqs_x.shape[1]):
        L = L + log_pi[seqs_x[:, i][:, None], seqs_y[None, :, i]]
    return np.exp(L)


def reference_pi_n_draws(code, samples, rng):
    """``samples`` pairs drawn from pi^n, with the induced P and pi^n at
    them."""
    pi = code.base.xy_marginal()
    flat = pi.mass.ravel()
    idx = rng.choice(flat.size, size=(samples, code.n), p=flat)
    xs, ys = idx // pi.dims[1], idx % pi.dims[1]
    return (synthesis._pointwise_p(synthesis._induced_laws(code), xs, ys),
            np.exp(np.log(pi.mass[xs, ys]).sum(axis=1)))


def reference_estimate_tv(code, samples, seed):
    """TV with its exact and Monte-Carlo paths written out separately, the
    path chosen by catching the dense budget's ResourceBudgetError."""
    pi = code.base.xy_marginal()
    try:
        ex = induced_joint_exact(code)
    except ResourceBudgetError:
        ex = None
    except DomainError as err:
        return DivergenceEstimate(1.0, 0.0, "exact", 0,
                                  diagnostics={"structural_zero": str(err)})
    if ex is not None:
        pin = reference_pi_n_matrix(pi, *dense_seqs(code))
        val = 0.5 * float(np.abs(ex.mass - pin).sum())
        return DivergenceEstimate(val, 0.0, "exact", 0)
    try:
        p_vals, pi_vals = reference_pi_n_draws(code, samples,
                                               synthesis._rng(seed, 1))
    except DomainError as err:
        return DivergenceEstimate(1.0, 0.0, "monte_carlo", 0,
                                  diagnostics={"structural_zero": str(err)})
    g = np.maximum(1.0 - p_vals / pi_vals, 0.0)
    diag = {"all_samples_at_max": True} if np.all(g == 1.0) else {}
    return DivergenceEstimate(float(g.mean()),
                              float(g.std(ddof=1) / math.sqrt(samples)),
                              "monte_carlo", samples, diagnostics=diag)


def reference_estimate_renyi(code, s, samples, seed):
    """D_{1+s} with separate exact and Monte-Carlo paths, the KL and D_0
    cases written out, and its own draws from P for s >= 0."""
    pi = code.base.xy_marginal()
    try:
        ex = induced_joint_exact(code)
    except ResourceBudgetError:
        ex = None
    except DomainError as err:
        return DivergenceEstimate(math.inf, 0.0, "exact", 0,
                                  diagnostics={"structural_zero": str(err)})
    if ex is not None:
        pin = reference_pi_n_matrix(pi, *dense_seqs(code))
        val = renyi(ex.mass.ravel(), pin.ravel(), s)
        diag = {}
        if np.any((pin > 0) & (ex.mass == 0)):
            diag["pi_support_uncovered"] = True
        return DivergenceEstimate(float(val), 0.0, "exact", 0,
                                  diagnostics=diag)
    rng = synthesis._rng(seed, 2)
    try:
        if s >= 0:
            # an empty shell is named in codebook order, before any draw
            law_x = synthesis._CondLaw(code.base, code.eps, "X", code.n)
            law_y = synthesis._CondLaw(code.base, code.eps, "Y", code.n)
            for law in (law_x, law_y):
                for w in code.codebook:
                    law._normalizers(w[None, :])
            ws = code.codebook[rng.integers(0, code.m_count, size=samples)]
            xs = law_x.sample(rng, ws)
            ys = law_y.sample(rng, ws)
            p_vals = synthesis._pointwise_p(synthesis._induced_laws(code),
                                            xs, ys)
        else:
            p_vals, pi_vals = reference_pi_n_draws(code, samples, rng)
    except DomainError as err:
        return DivergenceEstimate(math.inf, 0.0, "monte_carlo", 0,
                                  diagnostics={"structural_zero": str(err)})
    if s >= 0:
        log_pi = np.log(pi.mass[xs, ys]).sum(axis=1)
        if np.any(log_pi == -np.inf):
            return DivergenceEstimate(math.inf, 0.0, "monte_carlo", samples,
                                      diagnostics={"off_pi_support": True})
        if s == 0:
            g = np.log(p_vals) - log_pi
            val = float(g.mean())
            return DivergenceEstimate(
                val, float(g.std(ddof=1) / math.sqrt(samples)), "monte_carlo",
                samples)
        g = (p_vals / np.exp(log_pi)) ** s
    elif s == -1.0:
        g = (p_vals > 0).astype(float)
    else:
        with np.errstate(divide="ignore"):
            g = (p_vals / pi_vals) ** (1.0 + s)
    mean = float(g.mean())
    se = float(g.std(ddof=1) / math.sqrt(samples))
    if mean <= 0:
        return DivergenceEstimate(math.inf, 0.0, "monte_carlo", samples,
                                  diagnostics={"zero_mean_estimate": True})
    val = -math.log(mean) if s == -1.0 else math.log(mean) / s
    val_se = se / mean / abs(s if s != -1.0 else 1.0)
    return DivergenceEstimate(float(val), float(val_se), "monte_carlo",
                              samples)


DIFFERENTIAL_ORDERS = (-1.0, -0.5, -1e-3, 0.0, 1e-5, 0.5, 1.0)


def count_order2_kernel_uses(monkeypatch):
    """Wraps ``synthesis._renyi2_from_counts``; the returned counter's
    ``calls`` counts the calls and ``served`` the estimates it gave."""
    counter = collections.Counter()
    kernel = synthesis._renyi2_from_counts

    def counted(code):
        val = kernel(code)
        counter["calls"] += 1
        counter["served"] += val is not None
        return val
    monkeypatch.setattr(synthesis, "_renyi2_from_counts", counted)
    return counter


@pytest.mark.parametrize("path", ["exact", "monte_carlo"])
def test_estimators_equal_the_two_path_references(monkeypatch, path):
    # three couplings, the 2x3 one with empty Y-shells at n = 6 and
    # eps = 0.6; truncated and untruncated codes; every field compared
    # with ==, on both paths, except the point values of the exact order-2
    # estimates of untruncated codes: the count-tensor kernel gives them,
    # and they may differ from the dense sum in the last bits
    if path == "monte_carlo":
        monkeypatch.setattr(synthesis, "MAX_JOINT_CELLS", 10)
    kernel = count_order2_kernel_uses(monkeypatch)
    couplings = ((fixtures.dsbs_optimal_coupling(0.1), (4, 6), 1.0, 0.5),
                 (seeded_coupling_2x3(), (4, 6), 0.6, 0.5),
                 (ternary_w_coupling(), (4, 5), 1.0, None))
    diagnostics, positive = collections.Counter(), 0
    for (base, ns, eps, eps_prime), n, code_eps, seed in itertools.product(
            couplings, (0, 1), (True, False), range(3)):
        code = build_code(base, ns[n], 0.25, eps if code_eps else None,
                          eps_prime, seed=seed)
        got = [estimate_tv(code, samples=200, seed=seed)]
        want = [reference_estimate_tv(code, 200, seed)]
        by_kernel = [False]
        for s in DIFFERENTIAL_ORDERS:
            served = kernel["served"]
            got.append(estimate_renyi(code, s, samples=200, seed=seed))
            want.append(reference_estimate_renyi(code, s, 200, seed))
            by_kernel.append(kernel["served"] > served)
        for g, w, k in zip(got, want, by_kernel):
            if k:
                assert g.point == pytest.approx(w.point, rel=0, abs=1e-13)
                g = dataclasses.replace(g, point=w.point)
            assert g == w, (code.n, code.eps, seed, g, w)
            assert g.method == path
            diagnostics.update(g.diagnostics.keys())
            positive += math.isfinite(g.point) and g.point > 0
    assert diagnostics["structural_zero"] >= 64 and positive >= 150
    # the untruncated s = 1 estimates: 3 couplings x 2 n x 3 seeds
    assert kernel["served"] == (18 if path == "exact" else 0)
    if path == "exact":
        assert diagnostics["pi_support_uncovered"] >= 30
    else:
        # past the dense cap at 0.5C, each of the 200 pi^n draws of seed 0
        # misses supp(P): the mean of (P / pi^n)^(1+s) is 0
        code = build_code(fixtures.dsbs_optimal_coupling(0.1), 12,
                          0.5 * acceptance.DSBS_CI_EXACT, 1.0, 0.5, seed=0)
        got = estimate_renyi(code, -0.5, samples=200, seed=0)
        assert got == reference_estimate_renyi(code, -0.5, 200, 0)
        assert got.method == "monte_carlo" and got.point == math.inf
        assert got.diagnostics == {"zero_mean_estimate": True}


# ---------------------------------------------------------------------------
# the exact order-2 divergence from the codeword-count tensor
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("base", [fixtures.dsbs_optimal_coupling(0.1),
                                  ternary_w_coupling(), seeded_coupling_2x3()],
                         ids=["dsbs01", "ternary-w", "2x3"])
def test_order_two_kernel_matches_the_dense_path(base):
    for n in range(1, 9):
        code = build_code(base, n, 0.3, None, None, seed=n)
        val = synthesis._renyi2_from_counts(code)
        dense = reference_estimate_renyi(code, 1.0, 200, 0)
        assert val == pytest.approx(dense.point, rel=0, abs=1e-13), n


def test_order_two_kernel_at_the_dense_budget_edge():
    base = fixtures.dsbs_optimal_coupling(0.1)
    code = build_code(base, 11, 0.5, None, 0.5, seed=3)
    assert 4 ** 11 == synthesis.MAX_JOINT_CELLS and synthesis._dense_fits(code)
    val = synthesis._renyi2_from_counts(code)
    assert val == pytest.approx(closed_form_renyi2(code), rel=0, abs=1e-13)


@pytest.mark.parametrize("base, n, rate, eps_prime", [
    (fixtures.dsbs_optimal_coupling(0.1), 12, 0.5, 0.5),
    (fixtures.dsbs_optimal_coupling(0.1), 13, 0.5, 0.5),
    (fixtures.dsbs_optimal_coupling(0.1), 14, 0.5, 0.5),
    (ternary_w_coupling(), 12, 0.4, None),
    (seeded_coupling_2x3(), 9, 0.6, None),
    # one W-symbol: a one-entry count tensor at an n past numpy's limit of
    # 64 array axes
    (trivial_coupling(), 70, 0.0, None),
], ids=["dsbs01-12", "dsbs01-13", "dsbs01-14", "ternary-w-12", "2x3-9",
        "one-w-symbol-70"])
def test_order_two_kernel_serves_past_the_dense_cap(monkeypatch, base, n,
                                                    rate, eps_prime):
    code = build_code(base, n, rate, None, eps_prime, seed=n)
    assert not synthesis._dense_fits(code)
    assert code.m_count <= synthesis.MAX_CODEWORDS

    def refuse(*args):
        raise AssertionError("dense joint or sampled law evaluated")
    monkeypatch.setattr(synthesis, "induced_joint_exact", refuse)
    monkeypatch.setattr(synthesis, "_pointwise_p", refuse)
    est = estimate_renyi(code, 1.0, samples=50, seed=2)
    assert est.point == pytest.approx(closed_form_renyi2(code), rel=0,
                                      abs=1e-12)
    assert (est.method, est.samples, est.std_error,
            est.diagnostics) == ("exact", 0, 0.0, {})


def test_order_two_kernel_gate_is_the_count_tensor_size(monkeypatch):
    # with the cell budget at 2^11 the dense joint fits at neither n; the
    # 2^11-entry count tensor of a binary-W code fits at n = 11 only
    monkeypatch.setattr(synthesis, "MAX_JOINT_CELLS", 2 ** 11)
    kernel = count_order2_kernel_uses(monkeypatch)
    base = fixtures.dsbs_optimal_coupling(0.1)
    code = build_code(base, 11, 0.3, None, 0.5, seed=1)
    est = estimate_renyi(code, 1.0, samples=50, seed=1)
    assert (est.method, est.samples, kernel["served"]) == ("exact", 0, 1)
    assert est.point == pytest.approx(closed_form_renyi2(code), rel=0,
                                      abs=1e-12)
    code = build_code(base, 12, 0.3, None, 0.5, seed=1)
    est = estimate_renyi(code, 1.0, samples=50, seed=1)
    assert (est.method, est.samples) == ("monte_carlo", 50)
    assert (kernel["calls"], kernel["served"]) == (2, 1)


def test_past_the_dense_cap_only_untruncated_order_two_asks_the_kernel(
        monkeypatch):
    kernel = count_order2_kernel_uses(monkeypatch)
    base = fixtures.dsbs_optimal_coupling(0.1)
    truncated = build_code(base, 12, 0.3, 1.0, 0.5, seed=1)
    untruncated = build_code(base, 12, 0.3, None, 0.5, seed=1)
    for code, s in ((truncated, 1.0), (untruncated, 0.5)):
        est = estimate_renyi(code, s, samples=50, seed=1)
        assert (est.method, est.samples) == ("monte_carlo", 50)
    assert kernel["calls"] == 0


def test_order_two_kernel_builds_no_dense_joint(monkeypatch):
    def refuse(code):
        raise AssertionError("dense joint built")
    monkeypatch.setattr(synthesis, "induced_joint_exact", refuse)
    code = build_code(fixtures.dsbs_optimal_coupling(0.1), 8, 0.5, None, 0.5,
                      seed=0)
    est = estimate_renyi(code, 1.0, seed=4)
    assert (est.method, est.std_error, est.samples,
            est.diagnostics) == ("exact", 0.0, 0, {})
    assert est.point > 0


def test_order_two_kernel_peak_memory_stays_below_one_mib():
    # the dense path's peak here is about 65 MiB: the 4^10 joint and the
    # log pi^n table with their exp copies
    code = build_code(fixtures.dsbs_optimal_coupling(0.1), 10,
                      1.2 * acceptance.DSBS_CI_EXACT, None, 0.5, seed=3)
    assert code.m_count == 1422
    tracemalloc.start()
    try:
        est = estimate_renyi(code, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.method == "exact" and peak < 2 ** 20


def wide_w_coupling():
    """A seeded coupling with 5 W-symbols on binary X and Y, so that
    |W| > |X||Y|."""
    rng = np.random.default_rng(5)
    return MarkovCoupling(FinitePmf(rng.dirichlet(np.ones(5))),
                          rng.dirichlet(np.ones(2), size=5),
                          rng.dirichlet(np.ones(2), size=5))


@pytest.mark.parametrize("base, n, eps, s, diagnostics", [
    # the copy code's m = 4 codewords cover at most 4 of the 16 diagonal
    # pairs of supp pi^4
    (fixtures.copy_coupling_binary(), 4, None, 1.0,
     {"pi_support_uncovered": True}),
    (fixtures.dsbs_optimal_coupling(0.1), 5, 1.0, 1.0,
     {"pi_support_uncovered": True}),
    (fixtures.dsbs_optimal_coupling(0.1), 4, None, 0.5, {}),
    (wide_w_coupling(), 4, None, 1.0, {}),
], ids=["point-mass-rows", "truncated", "s-half", "wide-w"])
def test_cells_outside_the_order_two_kernel_take_the_dense_path(
        monkeypatch, base, n, eps, s, diagnostics):
    kernel = count_order2_kernel_uses(monkeypatch)
    dense = collections.Counter()
    joint = synthesis.induced_joint_exact

    def counted(code):
        dense["calls"] += 1
        return joint(code)
    monkeypatch.setattr(synthesis, "induced_joint_exact", counted)
    code = build_code(base, n, 0.3, eps, None, seed=1)
    est = estimate_renyi(code, s, seed=1)
    assert est == reference_estimate_renyi(code, s, 4096, 1)
    assert math.isfinite(est.point) and est.diagnostics == diagnostics
    assert dense["calls"] == 1 and kernel["served"] == 0
