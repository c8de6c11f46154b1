"""Typical sets: count windows, exact window probabilities against
brute-force and Monte-Carlo oracles, conditional typicality, and the uniform
defect bound."""

import itertools
import math
import warnings

import numpy as np
import pytest

from scipy.special import gammaln, logsumexp

from commoninfo import typicality as typ
from commoninfo.errors import ConfigError, DomainError, ResourceBudgetError
from commoninfo.probability import FinitePmf
from commoninfo.typicality import (cond_shell, cond_typical_defect_exact,
                                   contyplem_bound, count_windows)
from oracles import is_cond_typical, is_typical


def typical_prob(mass, n, eps) -> float:
    """Q^n of the eps-typical set of ``mass``: entry n of the one-row shell
    table, Q given a constant sequence, as the codeword law reads it."""
    _, _, table = cond_shell(FinitePmf([1.0]), np.asarray(mass)[None, :],
                             n, eps)
    return float(np.exp(table[0, n]))


def brute_force_typical_prob(mass, n, eps) -> float:
    seqs = np.array(list(itertools.product(range(len(mass)), repeat=n)))
    probs = np.prod(np.asarray(mass)[seqs], axis=1)
    return float(probs[is_typical(seqs, mass, eps)].sum())


def brute_force_block_probs(q, lo, hi, n) -> np.ndarray:
    """P(an i.i.d.(q) block of length k keeps every count in [lo, hi]) for
    k = 0..n, summing the multinomial mass of every count vector in the
    windows (0^0 = 1 at structural zeros)."""
    axes = [np.arange(a, b + 1) for a, b in zip(lo, hi)]
    counts = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")],
                      axis=1)
    k = counts.sum(axis=1)
    log_q = np.log(np.where(q > 0, q, 1.0))
    log_mass = (gammaln(k + 1) - gammaln(counts + 1).sum(axis=1)
                + counts @ log_q)
    keep = k <= n
    return np.bincount(k[keep], weights=np.exp(log_mass[keep]),
                       minlength=n + 1)


def random_pmf(rng, size) -> np.ndarray:
    """A Dirichlet(1) pmf with each cell but one zeroed with probability 1/4."""
    q = rng.dirichlet(np.ones(size))
    q[rng.permutation(size)[1:][rng.random(size - 1) < 0.25]] = 0.0
    return q / q.sum()


def logsumexp_cases(rng):
    """Arrays for the log-sum-exp: random rows at magnitudes up to 700, some
    entries and whole rows at -inf, ties at the max, and zero-width
    windows."""
    for i in range(3000):
        shape = (int(rng.integers(0, 6)), int(rng.integers(0, 9)))
        if i % 3 == 0:
            shape = shape[1:]
        a = rng.normal(size=shape) * rng.choice([1.0, 10.0, 300.0, 700.0])
        if i % 7 == 0:
            a = np.round(a)              # ties at the max
        a[rng.random(shape) < 0.2] = -np.inf
        if a.ndim == 2 and a.size and i % 5 == 0:
            a[0] = -np.inf
        yield a
    yield np.full((4, 0), 1.0)
    yield np.array([700.0, 700.0, -700.0])
    yield np.array([[-np.inf] * 3, [1.0, 1.0, 1.0]])


def test_logsumexp_equals_scipys_bit_for_bit():
    rng = np.random.default_rng(0)
    for a in logsumexp_cases(rng):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            want = logsumexp(a, axis=-1)
        assert np.array_equal(typ._logsumexp(a), want), a


def test_block_log_probs_match_count_enumeration():
    rng = np.random.default_rng(17)
    empty_blocks = 0
    for _ in range(60):
        n = int(rng.integers(1, 41))
        q = random_pmf(rng, int(rng.integers(1, 4)))
        lo, hi = count_windows(q, n, float(rng.uniform(0.05, 1.5)))
        got = np.exp(typ._block_log_probs(q, lo, hi, n))
        ref = brute_force_block_probs(q, lo, hi, n)
        assert np.allclose(got, ref, rtol=0.0, atol=1e-12)
        # an empty block keeps every count at 0
        assert got[0] == float(np.all(lo == 0))
        empty_blocks += got[0] == 0.0
    assert 0 < empty_blocks < 60


def test_cond_shell_log_masses_match_count_enumeration():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(1, 41))
        nw, nx = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        q_w = FinitePmf(random_pmf(rng, nw))
        cond = np.stack([random_pmf(rng, nx) for _ in range(nw)])
        eps = float(rng.uniform(0.05, 1.5))
        lo, hi, table = cond_shell(q_w, cond, n, eps)
        assert table.shape == (nw, n + 1)
        ref = np.stack([brute_force_block_probs(cond[a], lo[a], hi[a], n)
                        for a in range(nw)])
        assert np.allclose(np.exp(table), ref, rtol=0.0, atol=1e-12)
        # the shell mass of a sequence is the product over its W-blocks;
        # the defect takes only the eps of the truncation rule, eps <= 1
        w = rng.choice(nw, size=n, p=q_w.mass)
        k = np.bincount(w, minlength=nw)
        if eps > 1.0:
            with pytest.raises(ConfigError, match=r"^eps = .* not in"):
                cond_typical_defect_exact(q_w, cond, w, eps)
        else:
            assert cond_typical_defect_exact(q_w, cond, w, eps) == \
                pytest.approx(1.0 - ref[np.arange(nw), k].prod(), abs=1e-12)


def test_count_windows_hand_case():
    lo, hi = count_windows(np.array([0.5, 0.5]), n=10, eps=0.2)
    assert list(lo) == [4, 4] and list(hi) == [6, 6]


def test_count_windows_zero_mass_symbol():
    lo, hi = count_windows(np.array([0.5, 0.5, 0.0]), n=8, eps=0.5)
    assert lo[2] == 0 and hi[2] == 0          # forbidden symbol never appears


def test_typical_prob_exact_brute_force():
    # exhaustive enumeration over all k^n sequences
    for mass, n, eps in (([0.5, 0.5], 8, 0.3),
                         ([0.2, 0.3, 0.5], 6, 0.6),
                         ([0.7, 0.3], 9, 0.15)):
        assert typical_prob(mass, n, eps) == pytest.approx(
            brute_force_typical_prob(mass, n, eps), abs=1e-12)


def test_typical_prob_exact_monte_carlo():
    mass = [0.25, 0.35, 0.4]
    exact = typical_prob(mass, 40, 0.4)
    rng = np.random.default_rng(9)
    draws = rng.choice(3, size=(20_000, 40), p=mass)
    hits = np.mean(is_typical(draws, mass, 0.4))
    se = np.sqrt(exact * (1 - exact) / 20_000)
    assert abs(hits - exact) < 4 * se + 1e-3


def test_typical_prob_monotone_in_eps_and_to_one():
    ref = [0.3, 0.7]
    probs = [typical_prob(ref, 30, e) for e in (0.1, 0.2, 0.4, 0.8)]
    assert all(a <= b + 1e-12 for a, b in zip(probs, probs[1:]))
    # law of large numbers: fixed eps, growing n
    grow = [typical_prob(ref, n, 0.3) for n in (20, 80, 200)]
    assert all(a <= b + 1e-2 for a, b in zip(grow, grow[1:]))
    assert grow[-1] > 0.99


def test_budget_guard():
    with pytest.raises(ResourceBudgetError):
        typical_prob([0.5, 0.5], 300, 0.1)
    with pytest.raises(ResourceBudgetError):
        typical_prob(np.full(9, 1 / 9), 10, 0.1)


# ---------------------------------------------------------------------------
# conditional typicality
# ---------------------------------------------------------------------------

def test_cond_shell_windows_joint_condition():
    q_w = FinitePmf([0.5, 0.5])
    cond = np.array([[0.8, 0.2], [0.2, 0.8]])
    lo, hi, _ = cond_shell(q_w, cond, n=20, eps=0.5)
    # cell mass 0.4 -> window [4, 12]; cell mass 0.1 -> [1, 3]
    assert lo[0, 0] == 4 and hi[0, 0] == 12
    assert lo[0, 1] == 1 and hi[0, 1] == 3


@pytest.mark.parametrize("cond", [
    np.array([[0.3, 0.7]]),                        # one row for |W| = 2
    np.array([[0.3, 0.7], [0.5, 0.5], [0.2, 0.8]]),
    np.array([[0.3, 0.7], [np.nan, 0.5]]),
    np.array([[0.3, 0.7], [0.5, 0.5 + 1e-10]]),    # off by more than 1e-12
    np.array([[0.3, 0.7], [-0.1, 1.1]]),
], ids=["one-row", "three-rows", "nan", "unnormalized", "negative"])
def test_conditional_functions_reject_rows_that_do_not_match_q_w(cond):
    # one row used to broadcast over both W-symbols: the defect read 1.0
    q_w = FinitePmf([0.5, 0.5])
    w = np.array([0, 1] * 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError):
            cond_shell(q_w, cond, 8, 0.5)
        with pytest.raises(ConfigError):
            cond_typical_defect_exact(q_w, cond, w, 0.5)


def test_cond_defect_rejects_a_conditioning_sequence_that_is_not_1d():
    # a 2-D w_seq once reached np.bincount and raised its "object too deep"
    q_w = FinitePmf([0.5, 0.5])
    cond = np.array([[0.75, 0.25], [0.3, 0.7]])
    for w in (np.array([[0, 1], [1, 0]]), np.array(0)):
        with pytest.raises(ConfigError, match="1-D"):
            cond_typical_defect_exact(q_w, cond, w, eps=0.5)


def test_is_cond_typical_matches_manual_counts():
    q_w = FinitePmf([0.5, 0.5])
    cond = np.array([[0.8, 0.2], [0.2, 0.8]])
    w = np.array([0] * 10 + [1] * 10)
    x_good = np.array([0] * 8 + [1] * 2 + [1] * 8 + [0] * 2)
    x_bad = np.array([1] * 10 + [0] * 10)
    assert is_cond_typical(x_good, w, q_w, cond, eps=0.5)
    assert not is_cond_typical(x_bad, w, q_w, cond, eps=0.5)


def test_cond_defect_exact_exhaustive_oracle():
    # enumerate all 2^8 x-sequences for a fixed conditioning sequence
    q_w = FinitePmf([0.5, 0.5])
    cond = np.array([[0.75, 0.25], [0.3, 0.7]])
    w = np.array([0, 1, 0, 1, 0, 1, 0, 1])
    eps = 0.9
    fail_mass = 0.0
    for seq in itertools.product(range(2), repeat=8):
        x = np.array(seq)
        p = float(np.prod(cond[w, x]))
        if not is_cond_typical(x, w, q_w, cond, eps):
            fail_mass += p
    assert cond_typical_defect_exact(q_w, cond, w, eps) == pytest.approx(
        fail_mass, abs=1e-12)


def test_cond_defect_monotone_in_n():
    q_w = FinitePmf([0.5, 0.5])
    cond = np.array([[0.75, 0.25], [0.3, 0.7]])
    defects = []
    for n in (16, 48, 120):
        w = np.tile([0, 1], n // 2)
        defects.append(cond_typical_defect_exact(q_w, cond, w, eps=0.5))
    assert all(a >= b - 1e-12 for a, b in zip(defects, defects[1:]))
    assert defects[-1] < defects[0]


def test_cond_defect_dominated_by_uniform_bound():
    q_w = FinitePmf([0.5, 0.5])
    cond = np.array([[0.75, 0.25], [0.3, 0.7]])
    eps, eps_prime = 0.9, 0.3
    q_min = 0.25
    for n in (16, 40, 80):
        w = np.tile([0, 1], n // 2)               # exactly typical
        defect = cond_typical_defect_exact(q_w, cond, w, eps, eps_prime)
        bound = contyplem_bound(eps, eps_prime, n, q_min, 2, 2)
        assert defect <= bound + 1e-12


def test_cond_defect_rejects_atypical_conditioning():
    q_w = FinitePmf([0.5, 0.5])
    cond = np.array([[0.75, 0.25], [0.3, 0.7]])
    w = np.zeros(16, dtype=int)                   # all-0 is far from Q_W
    with pytest.raises(DomainError):
        cond_typical_defect_exact(q_w, cond, w, eps=0.9, eps_prime=0.3)
    # without the eps_prime restriction the same sequence is accepted
    d = cond_typical_defect_exact(q_w, cond, w, eps=0.9)
    assert 0.0 <= d <= 1.0


def test_contyplem_bound_validation_and_shape():
    with pytest.raises(ConfigError):
        contyplem_bound(0.3, 0.5, 10, 0.2, 2, 2)  # eps_prime >= eps
    with pytest.raises(ConfigError):
        contyplem_bound(0.5, 0.2, 10, 0.0, 2, 2)
    with pytest.raises(ConfigError, match=r"^eps = None not in"):
        contyplem_bound(None, 0.3, 10, 0.2, 2, 2)
    with pytest.raises(ConfigError, match=r"^eps_prime = None not in"):
        contyplem_bound(0.5, None, 10, 0.2, 2, 2)
    b1 = contyplem_bound(0.9, 0.3, 50, 0.25, 2, 2)
    b2 = contyplem_bound(0.9, 0.3, 200, 0.25, 2, 2)
    assert b2 < b1                                 # decays with n


def test_cond_defect_eps_prime_checks_keep_their_errors():
    q_w = FinitePmf([0.5, 0.5])
    cond = np.array([[0.75, 0.25], [0.3, 0.7]])
    w = np.tile([0, 1], 8)
    with pytest.raises(ConfigError, match="eps_prime"):
        cond_typical_defect_exact(q_w, cond, w, eps=0.5, eps_prime=0.5)
    with pytest.raises(ConfigError, match="block length"):
        cond_typical_defect_exact(q_w, cond, np.zeros(0, dtype=int), eps=0.5,
                                  eps_prime=0.2)


@pytest.mark.parametrize("eps, eps_prime", [
    (-0.5, None), (math.nan, None), (1.5, 0.2), (None, None)],
    ids=["eps-negative", "eps-nan", "eps-above-one", "eps-none"])
def test_cond_defect_checks_eps_always(eps, eps_prime):
    # eps = -0.5 read 1.0 over empty windows, NaN warned in the windows'
    # cast, and eps = 1.5 with eps' = 0.2 read 0.0351 where the codes and
    # the uniform bound reject eps > 1
    q_w = FinitePmf([0.5, 0.5])
    cond = np.array([[0.8, 0.2], [0.3, 0.7]])
    with pytest.raises(ConfigError, match=rf"^eps = {eps} not in \(0, 1\]$"):
        cond_typical_defect_exact(q_w, cond, np.tile([0, 1], 4), eps=eps,
                                  eps_prime=eps_prime)


@pytest.mark.parametrize("eps, eps_prime, required, match", [
    (-1.0, None, (), r"^eps = -1.0 not in \(0, 1\]$"),
    (0.3, 0.5, (), r"^eps_prime = 0.5 not in \(0, 0.3\)$"),
    (None, 1.0, (), r"^eps_prime = 1.0 not in \(0, 1.0\)$"),
    (1.0, 0.0, (), r"^eps_prime = 0.0 not in \(0, 1.0\)$"),
    (1.0, None, ("eps_prime",), r"^eps_prime = None not in \(0, 1.0\)$"),
], ids=["eps-negative", "eps-prime-above-eps", "eps-prime-one-untruncated",
        "eps-prime-zero", "eps-prime-required"])
def test_truncation_rule_names_the_value_and_its_range(eps, eps_prime,
                                                       required, match):
    with pytest.raises(ConfigError, match=match):
        typ.check_truncation(eps, eps_prime, required)
    typ.check_truncation(None, None)
    typ.check_truncation(1.0, 0.5, ("eps", "eps_prime"))
