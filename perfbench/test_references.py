"""The benchmark's closed forms against brute-force enumeration at tiny n.

The brute force here builds every law from its definition over all sequences
and shares no code with ``references`` beyond the fixtures it is given.
"""

import itertools
import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import references as ref  # noqa: E402


def _seqs(k, n):
    return list(itertools.product(range(k), repeat=n))


def _coupling(p):
    a = ref.dsbs_a(p)
    rows = np.array([[1 - a, a], [a, 1 - a]])
    return np.array([0.5, 0.5]), rows, rows


def _cond_typical(x, w, q_w, cond, eps):
    n = len(w)
    for b in range(cond.shape[0]):
        for s in range(cond.shape[1]):
            target = n * q_w[b] * cond[b, s]
            count = sum(1 for wi, xi in zip(w, x) if wi == b and xi == s)
            if abs(count - target) > eps * target + 1e-9:
                return False
    return True


def _cond_law(w, q_w, cond, eps):
    """Law of X^n given w^n, truncated to the conditional eps-shell
    (``eps=None``: untruncated); also returns the shell's mass."""
    law = {}
    for x in _seqs(cond.shape[1], len(w)):
        mass = math.prod(cond[wi, xi] for wi, xi in zip(w, x))
        if eps is None or _cond_typical(x, w, q_w, cond, eps):
            law[x] = mass
    z = sum(law.values())
    return {x: v / z for x, v in law.items()}, z


def _induced(codebook, q_w, qx, qy, eps):
    joint = {}
    for w in codebook:
        lx, _ = _cond_law(tuple(w), q_w, qx, eps)
        ly, _ = _cond_law(tuple(w), q_w, qy, eps)
        for x, px in lx.items():
            for y, py in ly.items():
                joint[x, y] = joint.get((x, y), 0.0) + px * py / len(codebook)
    return joint


def _pi_n(pi, x, y):
    return math.prod(pi[xi, yi] for xi, yi in zip(x, y))


def _typical_ws(n, eps_prime):
    lo, hi = n * 0.5 * (1 - eps_prime), n * 0.5 * (1 + eps_prime)
    return [w for w in _seqs(2, n)
            if all(lo - 1e-9 <= w.count(b) <= hi + 1e-9 for b in (0, 1))]


def _codebook(rng, n, m, typical_only=True, eps_prime=0.5):
    pool = _typical_ws(n, eps_prime) if typical_only else _seqs(2, n)
    return np.array([pool[i] for i in rng.integers(0, len(pool), size=m)])


def test_dsbs_ci_is_attained_by_its_coupling():
    for p in (0.05, 0.1, 0.3, 0.45):
        q_w, qx, qy = _coupling(p)
        j = np.einsum("w,wx,wy->wxy", q_w, qx, qy)
        assert np.allclose(j.sum(axis=0), ref.dsbs_joint(p), atol=1e-15)
        value = ref.mutual_information(j.reshape(2, 4))
        assert value == pytest.approx(ref.dsbs_ci(p), abs=1e-12)
        lo, hi = ref.ci_bracket(ref.dsbs_joint(p))
        assert lo <= value <= hi


def test_dsbes_ci_is_attained_by_an_erasure_chain():
    # W = X erased w.p. e1, Y = W erased again w.p. e2, (1-e1)(1-e2) = 1-e
    for e in (0.2, 0.4, 0.5, 0.6, 0.8):
        e1 = max(0.0, 2 * e - 1)
        e2 = 1 - (1 - e) / (1 - e1)
        j = np.zeros((3, 2, 3))                 # (w, x, y); symbol 2 = erased
        for x in (0, 1):
            j[x, x, x] += 0.5 * (1 - e1) * (1 - e2)
            j[x, x, 2] += 0.5 * (1 - e1) * e2
            j[2, x, 2] += 0.5 * e1
        assert np.allclose(j.sum(axis=0), ref.dsbes_joint(e), atol=1e-15)
        value = ref.mutual_information(j.reshape(3, 6))
        assert value == pytest.approx(ref.dsbes_ci(e), abs=1e-12)


def test_common_part_ci_is_attained():
    q, p = 0.6, 0.2
    a = ref.dsbs_a(p)
    j = np.zeros((3, 3, 3))                     # (w, x, y)
    j[0, 0, 0] = 1 - q
    for w in (1, 2):
        for x in (1, 2):
            for y in (1, 2):
                j[w, x, y] = (q / 2 * (1 - a if x == w else a)
                              * (1 - a if y == w else a))
    assert np.allclose(j.sum(axis=0), ref.common_part_joint(q, p), atol=1e-15)
    value = ref.mutual_information(j.reshape(3, 9))
    assert value == pytest.approx(ref.common_part_ci(q, p), abs=1e-12)


@pytest.mark.parametrize("n", [3, 6])
def test_renyi2_and_ratio_max_on_a_random_coupling(n):
    # n = 6 leaves a tail of two positions after the HEAD_AXES loop
    rng = np.random.default_rng(n)
    q_w = rng.dirichlet(np.ones(3))
    qx = rng.dirichlet(np.ones(2), size=3)
    qy = rng.dirichlet(np.ones(3), size=3)
    pi = rng.dirichlet(np.ones(6)).reshape(2, 3)
    book = np.array([_seqs(3, n)[i] for i in rng.integers(0, 3 ** n, size=7)])
    joint = _induced(book, q_w, qx, qy, None)
    brute_d2 = math.log(sum(v * v / _pi_n(pi, x, y)
                            for (x, y), v in joint.items()))
    brute_max = max(v / _pi_n(pi, x, y) for (x, y), v in joint.items())
    assert ref.renyi2_untruncated(qx, qy, pi, book) == pytest.approx(
        brute_d2, abs=1e-12)
    assert ref.ratio_max_untruncated(qx, qy, pi, book) == pytest.approx(
        brute_max, rel=1e-12)


@pytest.mark.parametrize("n", [4, 6])
def test_point_mass_tv(n):
    p, eps = 0.1, 1.0
    q_w, qx, qy = _coupling(p)
    pi = ref.dsbs_joint(p)
    book = _codebook(np.random.default_rng(n), n, 9)
    book[1] = book[0]                           # a repeated codeword
    joint = _induced(book, q_w, qx, qy, eps)
    brute = 0.5 * sum(abs(joint.get((x, y), 0.0) - _pi_n(pi, x, y))
                      for x in _seqs(2, n) for y in _seqs(2, n))
    assert ref.point_mass_tv(p, eps, book) == pytest.approx(brute, abs=1e-12)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_point_mass_delta_n_and_rate_lhs(n):
    p, eps, eps_prime, s = 0.1, 1.0, 0.5, 1.0
    q_w, qx, qy = _coupling(p)
    pi = ref.dsbs_joint(p)
    ws = _typical_ws(n, eps_prime)
    z_w = sum(math.prod(q_w[b] for b in w) for w in ws)
    z_x = min(_cond_law(w, q_w, qx, eps)[1] for w in ws)
    z_y = min(_cond_law(w, q_w, qy, eps)[1] for w in ws)
    assert ref.point_mass_delta_n(p, n, eps, eps_prime) == pytest.approx(
        1 - z_w * z_x * z_y, abs=1e-15)
    total = 0.0
    for w in ws:
        pw = math.prod(q_w[b] for b in w) / z_w
        lx, _ = _cond_law(w, q_w, qx, eps)
        ly, _ = _cond_law(w, q_w, qy, eps)
        total += pw * sum(px ** (1 + s) * py ** (1 + s) * _pi_n(pi, x, y) ** -s
                          for x, px in lx.items() for y, py in ly.items())
    assert ref.point_mass_rate_lhs(p) == pytest.approx(
        math.log(total) / (n * s), abs=1e-12)


def test_point_mass_premise_rejects_a_nonempty_window():
    # n * a >= 1 once n >= 19 for p = 0.1: the minority window opens
    with pytest.raises(ValueError):
        ref.point_mass_delta_n(0.1, 19, 1.0, 0.5)
    with pytest.raises(ValueError):
        ref.point_mass_tv(0.1, 1.0, np.zeros((3, 19), dtype=int))


def test_codebook_size_is_ceil_of_e_to_the_nr():
    for n, m in ((4, 1), (8, 7), (10, 1422), (12, 4096)):
        assert ref.codebook_size(n, math.log(m) / n) == m
        assert ref.codebook_size(n, math.log(m + 0.5) / n) == m + 1


def test_hoeffding_radius_covers_a_two_point_mean():
    # worst case for the bound: a fair coin on {0, 1}
    rng = np.random.default_rng(0)
    means = rng.integers(0, 2, size=(2000, 400)).mean(axis=1)
    r = ref.hoeffding_radius(400, fail_prob=1e-3)
    assert np.all(np.abs(means - 0.5) < r)
