"""Closed-form references for the benchmark's output checks.

Only numpy and the standard library: nothing here imports ``commoninfo``, so
no check compares the program with itself.  All logarithms are natural.

The finite-n forms are specific to the doubly symmetric binary source DSBS(p)
and its Wyner-optimal coupling: W a fair bit, X and Y independent
observations of W through BSC(a) with 2a(1-a) = p.  Each function checks the
premise it relies on and raises ``ValueError`` when it does not hold.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

LN2 = math.log(2.0)
#: slack for float edge effects when turning typicality windows into counts
EDGE_TOL = 1e-9
#: positions looped over by ``ratio_max_untruncated``; the rest are swept as
#: one tensor of (|X||Y|)^(n - HEAD_AXES) cells
HEAD_AXES = 4


def binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log(p) - (1.0 - p) * math.log(1.0 - p)


def entropy(mass) -> float:
    m = np.asarray(mass, dtype=float).ravel()
    m = m[m > 0]
    return float(-(m * np.log(m)).sum())


def mutual_information(joint) -> float:
    j = np.asarray(joint, dtype=float)
    return entropy(j.sum(axis=1)) + entropy(j.sum(axis=0)) - entropy(j)


# ---------------------------------------------------------------------------
# sources and their common information
# ---------------------------------------------------------------------------

def dsbs_joint(p: float) -> np.ndarray:
    """X a fair bit, Y = X through BSC(p)."""
    return np.array([[(1 - p) / 2, p / 2], [p / 2, (1 - p) / 2]])


def dsbs_a(p: float) -> float:
    """The BSC parameter a of the optimal coupling, 2a(1-a) = p."""
    if not 0.0 <= p < 0.5:
        raise ValueError("DSBS coupling needs p in [0, 1/2)")
    return (1.0 - math.sqrt(1.0 - 2.0 * p)) / 2.0


def dsbs_ci(p: float) -> float:
    """C = ln 2 + h(p) - 2 h(a) (Wyner 1975)."""
    return LN2 + binary_entropy(p) - 2.0 * binary_entropy(dsbs_a(p))


def dsbes_joint(e: float) -> np.ndarray:
    """X a fair bit, Y = X, erased (column 2) with probability e."""
    return np.array([[(1 - e) / 2, 0.0, e / 2], [0.0, (1 - e) / 2, e / 2]])


def dsbes_ci(e: float) -> float:
    """C = ln 2 for e <= 1/2, else h(e) (Cuff, Permuter and Cover 2010)."""
    return LN2 if e <= 0.5 else binary_entropy(e)


def common_part_joint(q: float, p: float) -> np.ndarray:
    """3x3: the cell (0, 0) with mass 1-q, and DSBS(p) on {1,2} x {1,2} with
    mass q, so that [X > 0] = [Y > 0] is a common part of X and Y."""
    joint = np.zeros((3, 3))
    joint[0, 0] = 1.0 - q
    joint[1:, 1:] = q * dsbs_joint(p)
    return joint


def common_part_ci(q: float, p: float) -> float:
    """C = H(B) + sum_b P(b) C(pi | B = b) for a common part B = f(X) = g(Y):
    X and Y independent given W forces B to be a function of W."""
    return binary_entropy(q) + q * dsbs_ci(p)


def ci_bracket(joint) -> tuple[float, float]:
    """I(X;Y) <= C <= min(H(X), H(Y)) for any joint."""
    j = np.asarray(joint, dtype=float)
    return (mutual_information(j),
            min(entropy(j.sum(axis=1)), entropy(j.sum(axis=0))))


# ---------------------------------------------------------------------------
# codebooks
# ---------------------------------------------------------------------------

def codebook_size(n: int, rate: float) -> int:
    """m = ceil(e^{nR}); the 1e-9 keeps an e^{nR} that rounding puts a hair
    above an integer from gaining a codeword."""
    return int(math.ceil(math.exp(n * rate) - 1e-9))


# ---------------------------------------------------------------------------
# untruncated codes: order-2 divergence and the largest density ratio
# ---------------------------------------------------------------------------

def _codeword_counts(codebook, nw: int) -> np.ndarray:
    """Multiplicity of every W-sequence, as a tensor of shape (nw,) * n."""
    book = np.asarray(codebook, dtype=int)
    n = book.shape[1]
    flat = np.ravel_multi_index(book.T, (nw,) * n)
    counts = np.bincount(flat, minlength=nw ** n).astype(float)
    return counts.reshape((nw,) * n)


def _per_axis(tensor: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Apply ``mat`` (rows indexed by the old axis) along every axis."""
    for _ in range(tensor.ndim):
        # contracting axis 0 and appending the new axis cycles through all
        tensor = np.tensordot(tensor, mat, axes=([0], [0]))
    return tensor


def _pair_ratio(q_x_w, q_y_w, pi) -> np.ndarray:
    """r[w, (x, y)] = Q(x|w) Q(y|w) / pi(x, y); rejects mass off supp(pi)."""
    qx = np.asarray(q_x_w, dtype=float)
    qy = np.asarray(q_y_w, dtype=float)
    pi = np.asarray(pi, dtype=float)
    prod = qx[:, :, None] * qy[:, None, :]
    if np.any((prod > 0) & (pi[None] == 0)):
        raise ValueError("coupling puts mass outside supp(pi)")
    safe = np.where(pi > 0, pi, 1.0)
    return (prod / safe[None]).reshape(qx.shape[0], -1)


def renyi2_untruncated(q_x_w, q_y_w, pi, codebook) -> float:
    """D_2(P || pi^n) of the code with untruncated conditionals:
    log((1/m^2) sum_{j,k} prod_i K(w_ji, w_ki)), with
    K(w, w') = sum_{x,y} Q(x|w)Q(x|w')Q(y|w)Q(y|w') / pi(x, y)."""
    qx = np.asarray(q_x_w, dtype=float)
    qy = np.asarray(q_y_w, dtype=float)
    pi = np.asarray(pi, dtype=float)
    _pair_ratio(qx, qy, pi)
    safe = np.where(pi > 0, pi, 1.0)
    kern = np.einsum("ax,bx,ay,by,xy->ab", qx, qx, qy, qy,
                     np.where(pi > 0, 1.0 / safe, 0.0))
    m = len(codebook)
    c = _codeword_counts(codebook, qx.shape[0])
    return math.log(float((c * _per_axis(c, kern)).sum()) / m ** 2)


def ratio_max_untruncated(q_x_w, q_y_w, pi, codebook) -> float:
    """max over (x^n, y^n) of P / pi^n for the untruncated code, where
    P / pi^n = (1/m) sum_j prod_i r(w_ji; x_i, y_i).  The (|X||Y|)^n table is
    never held whole: the first ``HEAD_AXES`` positions are looped over."""
    r = _pair_ratio(q_x_w, q_y_w, pi)
    c = _codeword_counts(codebook, r.shape[0])
    head = min(HEAD_AXES, c.ndim - 1)
    best = 0.0
    for cols in itertools.product(range(r.shape[1]), repeat=head):
        part = c
        for col in cols:
            part = np.tensordot(r[:, col], part, axes=([0], [0]))
        best = max(best, float(_per_axis(part, r).max()))
    return best / len(codebook)


# ---------------------------------------------------------------------------
# DSBS coupling with a minority window that is empty: point-mass conditionals
# ---------------------------------------------------------------------------

def _cond_windows(p: float, n: int, eps: float):
    """Count windows [lo, hi] of the joint type of (w, x) for the majority
    cell (x = w) and the minority cell (x != w)."""
    a = dsbs_a(p)
    out = []
    for mass in (0.5 * (1.0 - a), 0.5 * a):
        lo = max(math.ceil(n * mass * (1.0 - eps) - EDGE_TOL), 0)
        hi = min(math.floor(n * mass * (1.0 + eps) + EDGE_TOL), n)
        out.append((lo, hi))
    return out


def point_mass_premise(p: float, n: int, eps: float, counts) -> None:
    """Raise unless, for W-sequences with these symbol counts, the only
    conditionally eps-typical X-sequence is the W-sequence itself."""
    (maj_lo, maj_hi), (min_lo, min_hi) = _cond_windows(p, n, eps)
    if (min_lo, min_hi) != (0, 0):
        raise ValueError(f"minority window [{min_lo}, {min_hi}] is not empty "
                         f"at n={n}, eps={eps}")
    for k in np.asarray(counts, dtype=int).ravel():
        if not maj_lo <= k <= maj_hi:
            raise ValueError(f"symbol count {k} outside the majority window "
                             f"[{maj_lo}, {maj_hi}] at n={n}")


def point_mass_tv(p: float, eps: float, codebook) -> float:
    """TV(P, pi^n) = 1 - sum_w min(c_w / m, ((1-p)/2)^n), c_w the multiplicity
    of the W-sequence w in the codebook."""
    book = np.asarray(codebook, dtype=int)
    m, n = book.shape
    ones = book.sum(axis=1)
    point_mass_premise(p, n, eps, np.stack([n - ones, ones]))
    _, mult = np.unique(book, axis=0, return_counts=True)
    diag = ((1.0 - p) / 2.0) ** n
    return 1.0 - float(np.minimum(mult / m, diag).sum())


def point_mass_rate_lhs(p: float) -> float:
    """(1/n) D_{1+s}(P_{W^nX^nY^n} || P_{W^n} pi^n) = -log((1-p)/2) for
    every n and s, since X^n = Y^n = W^n under the code."""
    return -math.log((1.0 - p) / 2.0)


def w_window(n: int, eps_prime: float) -> tuple[int, int]:
    """Admissible count range of each symbol of an eps'-typical fair-bit
    sequence."""
    lo = max(math.ceil(n * 0.5 * (1.0 - eps_prime) - EDGE_TOL), 0)
    hi = min(math.floor(n * 0.5 * (1.0 + eps_prime) + EDGE_TOL), n)
    return lo, hi


def point_mass_delta_n(p: float, n: int, eps: float,
                       eps_prime: float) -> float:
    """delta_n = 1 - Z_W (1-a)^{2n}, with Z_W the probability that n fair bits
    are eps'-typical (a binomial window sum); every conditional normalizer
    equals (1-a)^n, the mass of the point x^n = w^n."""
    lo, hi = w_window(n, eps_prime)
    ks = [k for k in range(n + 1) if lo <= k <= hi and lo <= n - k <= hi]
    point_mass_premise(p, n, eps, ks)
    z_w = sum(math.comb(n, k) for k in ks) / 2.0 ** n
    return 1.0 - z_w * (1.0 - dsbs_a(p)) ** (2 * n)


# ---------------------------------------------------------------------------
# Monte-Carlo tolerance
# ---------------------------------------------------------------------------

def hoeffding_radius(samples: int, span: float = 1.0,
                     fail_prob: float = 1e-9) -> float:
    """Half-width t with P(|mean - E| >= t) <= fail_prob for the mean of
    ``samples`` i.i.d. draws valued in an interval of length ``span``."""
    return span * math.sqrt(math.log(2.0 / fail_prob) / (2.0 * samples))
