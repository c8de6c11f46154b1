"""Common-information solver against Wyner's closed form for the doubly
symmetric binary source, the exact values of the product and copy sources,
the common-part split and the rectangle masks on the support of pi, its
block kernel against the per-term einsum objective it replaced, and the
whole solve, bit for bit, against the sequential solve it replaced."""

import itertools
import math

import numpy as np
import pytest
from scipy.optimize import minimize

from commoninfo import ci_solver, fixtures
from commoninfo.ci_solver import wyner_ci
from commoninfo.descent import lbfgsb
from commoninfo.probability import (FinitePmf, JointPmf,
                                    coupling_information, induced_joint,
                                    mutual_information_mass)

# analytic value for DSBS with crossover 0.1: with a = (1 - sqrt(1-2p))/2,
# C = 1 bit of W plus two BSC(a) channels' worth of negative conditional entropy
DSBS01_CI = 0.6049515261814264


def _h2(a):
    return -a * math.log(a) - (1 - a) * math.log(1 - a)


def _dsbs_closed_form(p):
    # log 2 + h2(p) - 2 h2(a), 1 - 2p = (1 - 2a)^2 (Wyner 1975)
    a = (1.0 - math.sqrt(1.0 - 2.0 * p)) / 2.0
    return math.log(2.0) + _h2(p) - 2.0 * _h2(a)


@pytest.mark.parametrize("p", [0.02, 0.1, 0.2, 0.45])
def test_dsbs_analytic_constant_is_right(p):
    # the optimal coupling, criterion 2's reference, reproduces DSBS(p) and
    # its I(XY;W) is the closed form
    c = fixtures.dsbs_optimal_coupling(p)
    assert np.allclose(c.xy_marginal().mass, fixtures.dsbs(p).mass,
                       rtol=0.0, atol=1e-15)
    assert coupling_information(c) == pytest.approx(_dsbs_closed_form(p),
                                                     abs=1e-12)
    if p == 0.1:
        assert _dsbs_closed_form(p) == pytest.approx(DSBS01_CI, abs=1e-12)


def test_wyner_ci_dsbs(dsbs_pi, dsbs_ci):
    assert dsbs_ci.value == pytest.approx(DSBS01_CI, abs=1e-12)
    assert dsbs_ci.constraint_residual < 1e-8
    assert dsbs_ci.converged and dsbs_ci.restarts_used == 4
    assert dsbs_ci.argmin.nw == 2           # the two optimal symbols
    # the reported coupling reproduces the source
    joint = induced_joint(dsbs_ci.argmin)
    assert np.allclose(joint.sum(axis=0), dsbs_pi.mass, atol=1e-8)
    _assert_argmin_reproduces(dsbs_ci, dsbs_pi)


def test_wyner_ci_is_the_closed_form_on_criterion_2s_sources():
    # criterion 2's 20 seeded DSBS(p) and DSBS(0.45): C is the value of a
    # coupling feasible to 1e-12, so it cannot read below the closed form,
    # as a candidate at a residual near 1e-10 did by up to 1.43e-10
    rng = np.random.default_rng(0)
    for p in [float(rng.uniform(0.02, 0.45)) for _ in range(20)] + [0.45]:
        sol = wyner_ci(fixtures.dsbs(p))
        assert abs(sol.value - _dsbs_closed_form(p)) <= 1e-12, p
        assert sol.constraint_residual <= 1e-12 and sol.converged, p


def test_oracle_on_second_symmetric_source():
    # a second crossover against the exact reference: Wyner's closed form
    sol = wyner_ci(fixtures.dsbs(0.2))
    assert sol.value == pytest.approx(_dsbs_closed_form(0.2), abs=1e-12)
    # two symbols: a third, with the rows of one of them, merged into it
    assert sol.argmin.nw == 2
    _assert_argmin_reproduces(sol, fixtures.dsbs(0.2))


def _forbid_solves(monkeypatch):
    def solve(*args, **kwargs):
        raise AssertionError("wyner_ci ran a solve on an exact block")
    monkeypatch.setattr(ci_solver, "lbfgsb", solve)


def _assert_argmin_reproduces(sol, pi):
    # the argmin reproduces pi, with few enough symbols for the exponent
    # engine to lift it as a start (|W| <= |X||Y|)
    assert np.allclose(sol.argmin.xy_marginal().mass, pi.mass, rtol=0.0,
                       atol=1e-8)
    assert sol.argmin.nw <= pi.mass.size


def test_wyner_ci_product_is_zero(monkeypatch):
    # a rank-1 block is exact: no solve, one symbol, value 0.0
    _forbid_solves(monkeypatch)
    pi = fixtures.product_source()
    sol = wyner_ci(pi)
    assert sol.value == 0.0 and sol.argmin.nw == 1
    assert sol.restarts_used == 0 and sol.converged
    _assert_argmin_reproduces(sol, pi)
    # a zero row drops out before the rank-1 test
    mass = np.insert(pi.mass, 1, 0.0, axis=0)
    sol = wyner_ci(JointPmf(mass))
    assert sol.value == 0.0
    _assert_argmin_reproduces(sol, JointPmf(mass))


def test_wyner_ci_copy_is_entropy(monkeypatch):
    # two single-cell blocks: C = H(K) = H(X) with no solve
    _forbid_solves(monkeypatch)
    pi = fixtures.copy_source()
    sol = wyner_ci(pi)
    assert sol.value == FinitePmf(pi.mass.sum(axis=1)).entropy()
    _assert_argmin_reproduces(sol, pi)


def test_block_diagonal_joint_splits_into_its_common_part():
    # DSBS(0.1) with mass 0.3 and DSBS(0.3) with mass 0.7, with rows and
    # columns shuffled so that the blocks interleave
    mass = np.zeros((4, 4))
    mass[:2, :2] = 0.3 * fixtures.dsbs(0.1).mass
    mass[2:, 2:] = 0.7 * fixtures.dsbs(0.3).mass
    pi = JointPmf(mass[[2, 0, 3, 1]][:, [1, 3, 0, 2]])
    blocks = ci_solver._common_part_blocks(pi.mass > 0)
    assert [(r.tolist(), c.tolist()) for r, c in blocks] == [
        ([0, 2], [1, 3]), ([1, 3], [0, 2])]
    sol = wyner_ci(pi)
    exact = (FinitePmf(np.array([0.3, 0.7])).entropy()
             + 0.3 * _dsbs_closed_form(0.1) + 0.7 * _dsbs_closed_form(0.3))
    assert sol.value == pytest.approx(exact, abs=1e-12)
    assert sol.restarts_used == 8           # four descents per solved block
    _assert_argmin_reproduces(sol, pi)


def _brute_force_rectangles(supp):
    nx, ny = supp.shape

    def subsets(k):
        return [np.array(b, dtype=bool)
                for b in itertools.product((False, True), repeat=k) if any(b)]

    inside = [(s, t) for s in subsets(nx) for t in subsets(ny)
              if supp[np.ix_(s, t)].all()]
    return {(tuple(s), tuple(t)) for s, t in inside
            if not any((s <= s2).all() and (t <= t2).all()
                       and ((s < s2).any() or (t < t2).any())
                       for s2, t2 in inside)}


def test_maximal_rectangles_match_brute_force():
    patterns = [fixtures.dsbes(0.4).mass > 0, fixtures.dsbes(0.4).mass.T > 0]
    patterns += [np.array(b, dtype=bool).reshape(3, 3)
                 for b in itertools.product((False, True), repeat=9)
                 if any(b)]
    rng = np.random.default_rng(5)
    patterns += [rng.random(shape) < 0.6 for shape in ((2, 4), (4, 3)) * 5]
    for supp in patterns:
        if not supp.any():
            continue
        got = [(tuple(s), tuple(t))
               for s, t in ci_solver._maximal_rectangles(supp)]
        assert len(got) == len(set(got))
        assert set(got) == _brute_force_rectangles(supp), supp


def test_dsbes_on_its_rectangles_matches_the_closed_form():
    # C = ln 2 for e <= 1/2, h(e) above (Cuff, Permuter and Cover 2010);
    # three thin rectangles, so three symbols with exact structural zeros.
    # At e = 0.6 the optimum is interior to the masks, where the penalty
    # descent alone stopped 6.9e-6 short and the polish reaches it.
    for e in (0.2, 0.4, 0.6, 0.8):
        exact = math.log(2.0) if e <= 0.5 else _h2(e)
        pi = fixtures.dsbes(e)
        sol = wyner_ci(pi)
        assert sol.value == pytest.approx(exact, abs=1e-12), e
        assert sol.constraint_residual < 1e-8 and sol.converged
        _assert_argmin_reproduces(sol, pi)


def test_common_part_joint_matches_the_closed_form():
    q, p = 0.6, 0.2
    pi = fixtures.common_part_source(q, p)
    sol = wyner_ci(pi)
    assert sol.value == pytest.approx(_h2(q) + q * _dsbs_closed_form(p),
                                      abs=1e-12)
    _assert_argmin_reproduces(sol, pi)


def test_wyner_ci_never_above_min_marginal_entropy(monkeypatch):
    # a random 3x3 joint: the answer lies in the bracket I(X;Y) <= C <=
    # min(H(X), H(Y)) = 0.7838 and is feasible.  16 seeded random starts
    # read H(Y) here, and 64 read 0.311930; a fixed start reaches
    # 0.3118254737, and without the restoration before the polish it reads
    # 1.2e-5 higher.
    pi = JointPmf(np.random.default_rng(1).dirichlet(np.ones(9)).reshape(3, 3))
    h_min = min(FinitePmf(pi.mass.sum(axis=1)).entropy(),
                FinitePmf(pi.mass.sum(axis=0)).entropy())
    sol = wyner_ci(pi)
    assert mutual_information_mass(pi.mass) <= sol.value <= 0.3118256
    assert sol.converged
    assert sol.constraint_residual <= ci_solver._FEAS_TOL
    _assert_argmin_reproduces(sol, pi)

    # with every start rejected as infeasible, the exactly feasible W = Y
    # coupling is the answer, whatever the rejected starts' values
    def reject(qw, A, C, pi_mass):
        return qw, A, C, 1.0
    monkeypatch.setattr(ci_solver, "_restore_feasibility", reject)
    sol = wyner_ci(pi)
    assert sol.value == pytest.approx(h_min, abs=1e-12)
    assert not sol.converged
    assert sol.constraint_residual < 1e-12
    joint = induced_joint(sol.argmin)
    assert np.allclose(joint.sum(axis=0), pi.mass, rtol=0.0,
                       atol=1e-15)


def test_a_fallback_that_beats_a_feasible_descent_is_not_converged(
        monkeypatch):
    # the copy start left where it is, W = (X, Y) with I(XY;W) = H(XY), is
    # a feasible descent that W = Y beats: the answer is H(Y), and the flag
    # says it did not come from a descent
    monkeypatch.setattr(ci_solver, "_START_MIX", ())
    monkeypatch.setattr(ci_solver, "lbfgsb",
                        lambda fun, starts, **kw: [(z, 0.0, True)
                                                   for z in starts])
    monkeypatch.setattr(ci_solver, "_polish",
                        lambda qw, A, C, *args: (qw, A, C))
    pi = JointPmf(np.random.default_rng(1).dirichlet(np.ones(9)).reshape(3, 3))
    sol = wyner_ci(pi)
    assert sol.value == pytest.approx(
        FinitePmf(pi.mass.sum(axis=0)).entropy(), abs=1e-12)
    assert sol.restarts_used == 1 and not sol.converged


def _sparse_joint(i):
    """Joint i of the seeded sparse set: shape in {2, 3}^2, Dirichlet(1)
    mass, each cell zeroed with probability 0.35, drawn again until no row
    or column is empty."""
    rng = np.random.default_rng(np.random.SeedSequence([2026, i]))
    nx, ny = rng.integers(2, 4, size=2)
    while True:
        mass = rng.dirichlet(np.ones(nx * ny)).reshape(nx, ny)
        mass[rng.random((nx, ny)) < 0.35] = 0.0
        if mass.any(axis=1).all() and mass.any(axis=0).all():
            return JointPmf(mass / mass.sum())


@pytest.mark.parametrize("i, bound", [(7, 0.5549039), (9, 0.5762569),
                                      (16, 0.0438081)])
def test_sparse_joints_reach_the_lower_optimum(i, bound):
    # every random start settled at 0.565325 on joint 7 and near W = X at
    # 0.065467 on joint 16; the mixed starts and the polish go lower.  On
    # joint 9, at 0.5762567944, polishing the restored starts without the
    # penalty descent reads 1.6e-3 higher.
    pi = _sparse_joint(i)
    sol = wyner_ci(pi)
    assert sol.value <= bound and sol.converged
    _assert_argmin_reproduces(sol, pi)


def test_dirichlet_joint_needs_the_descent_and_the_closing_restoration():
    # at 0.5199684162; polishing the raw starts reads 1.1e-5 higher, and
    # without the restoration after the polish it reads 1.6e-4 higher
    pi = JointPmf(np.random.default_rng(6).dirichlet(np.ones(9)).reshape(3, 3))
    sol = wyner_ci(pi)
    assert sol.value <= 0.5199685 and sol.converged
    assert sol.constraint_residual <= ci_solver._FEAS_TOL
    _assert_argmin_reproduces(sol, pi)


def test_canonical_coupling_drops_and_merges_symbols():
    # rows within 1e-6 merge with their weights added and rows averaged by
    # weight, so I(XY;W) stays; a symbol of negligible weight drops out
    A = np.array([[0.9, 0.1], [0.9 + 4e-7, 0.1 - 4e-7], [0.2, 0.8],
                  [0.5, 0.5]])
    C = np.array([[0.7, 0.3], [0.7, 0.3], [0.1, 0.9], [0.5, 0.5]])
    qw = np.array([0.25, 0.25, 0.5, 1e-13])
    q2, A2, C2 = ci_solver._canonical(qw, A, C)
    assert q2.tolist() == [0.5, 0.5]
    assert np.allclose(A2, [[0.9 + 2e-7, 0.1 - 2e-7], [0.2, 0.8]],
                       rtol=0.0, atol=1e-15)
    assert np.allclose(C2, C[[0, 2]], rtol=0.0, atol=1e-15)
    assert ci_solver._coupling_value(q2, A2, C2) == pytest.approx(
        ci_solver._coupling_value(qw, A, C), abs=1e-12)


# ---------------------------------------------------------------------------
# the block kernel against the einsum objective it replaced
# ---------------------------------------------------------------------------

def _reference_softmax(z):
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _reference_objective_and_grad(z, pi_mass, mask_x, mask_y, lam):
    """Penalized objective I(XY;W) + lam * ||Q_XY - pi||^2 and its gradient
    in the softmax logits, one einsum per term, as the solver evaluated it
    before ``_BlockKernel``: Q_W's logits, then the unmasked entries of
    Q_{X|W} and of Q_{Y|W} in row-major order."""
    nw = mask_x.shape[0]
    nb = nw + np.count_nonzero(mask_x)
    b = np.full(mask_x.shape, -np.inf)
    b[mask_x] = z[nw:nb]
    c = np.full(mask_y.shape, -np.inf)
    c[mask_y] = z[nb:]
    qw = _reference_softmax(z[:nw])
    A = _reference_softmax(b)
    C = _reference_softmax(c)
    Q = np.einsum("w,wx,wy->wxy", qw, A, C).sum(axis=0)

    logQ = np.log(np.maximum(Q, 1e-300))
    logA = np.log(np.maximum(A, 1e-300))
    logC = np.log(np.maximum(C, 1e-300))
    a_ent = (A * logA).sum(axis=1)
    c_ent = (C * logC).sum(axis=1)
    diff = Q - pi_mass
    f = float(-(Q * logQ).sum() + qw @ (a_ent + c_ent)
              + lam * (diff * diff).sum())

    G = -(logQ + 1.0) + 2.0 * lam * diff
    g_qw = np.einsum("xy,wx,wy->w", G, A, C) + a_ent + c_ent
    g_A = qw[:, None] * (np.einsum("xy,wy->wx", G, C) + logA + 1.0)
    g_C = qw[:, None] * (np.einsum("xy,wx->wy", G, A) + logC + 1.0)

    def chain(p, g, axis):
        return p * (g - (p * g).sum(axis=axis, keepdims=True))

    grad = np.concatenate([
        chain(qw, g_qw, 0),
        chain(A, g_A, 1)[mask_x],
        chain(C, g_C, 1)[mask_y],
    ])
    return f, grad


def _kernel_layouts():
    """(label, pi_mass, mask_x, mask_y) of every block layout the kernel is
    pinned on."""
    def blocks(mass):
        for rows, cols in ci_solver._common_part_blocks(mass > 0):
            block = mass[np.ix_(rows, cols)]
            if np.linalg.matrix_rank(block) > 1:
                yield block / block.sum()

    joints = [("dsbs", fixtures.dsbs(0.1).mass),
              ("dsbes", fixtures.dsbes(0.6).mass),
              ("full_3x3", np.random.default_rng(1).dirichlet(
                  np.ones(9)).reshape(3, 3))]
    joints += [(f"common_part_{q}_{p}", block)
               for q, p in ((0.6, 0.2), (0.3, 0.1))
               for block in blocks(fixtures.common_part_source(q, p).mass)]
    rng = np.random.default_rng(2)
    for nx, ny in ((2, 3), (3, 3), (4, 3)):
        for k in range(3):
            # random support with no empty row or column
            supp = rng.random((nx, ny)) < 0.7
            supp[np.arange(nx), rng.integers(0, ny, nx)] = True
            supp[rng.integers(0, nx, ny), np.arange(ny)] = True
            mass = supp * rng.dirichlet(np.ones(nx * ny)).reshape(nx, ny)
            joints.append((f"masked_{nx}x{ny}_{k}", mass / mass.sum()))
    for label, mass in joints:
        mask_x, mask_y, _ = ci_solver._rectangle_layout(mass > 0)
        yield label, mass, mask_x, mask_y


def test_block_kernel_matches_the_einsum_objective():
    rng = np.random.default_rng(11)
    for label, mass, mask_x, mask_y in _kernel_layouts():
        kernel = ci_solver._BlockKernel(mass, mask_x, mask_y)
        for _ in range(4):
            z = rng.normal(scale=3.0, size=kernel.n_logits)
            for lam in (1e2, 1e6, 1e8):
                f_ref, g_ref = _reference_objective_and_grad(
                    z, mass, mask_x, mask_y, lam)
                (f,), (g,) = kernel.batch(z[None], lam)
                assert abs(f - f_ref) <= 1e-12 * abs(f_ref), (label, lam)
                assert g.shape == g_ref.shape
                assert np.max(np.abs(g - g_ref)) <= 1e-12 * np.max(
                    np.abs(g_ref)), (label, lam)


def test_block_kernel_rows_match_one_row_calls_bit_for_bit():
    # the lockstep starts are the rows of one batch at one shared lam;
    # every row's f and gradient are the bytes of the one-row batch
    rng = np.random.default_rng(12)
    for label, mass, mask_x, mask_y in _kernel_layouts():
        kernel = ci_solver._BlockKernel(mass, mask_x, mask_y)
        for lam, k in itertools.product(
                (*ci_solver._PENALTY_SCHEDULE, 1e8, 3.7e3), (2, 3, 4)):
            Z = rng.normal(scale=3.0, size=(k, kernel.n_logits))
            f, grad = kernel.batch(Z, lam)
            assert f.shape == (k,) and grad.shape == Z.shape
            for z, row_f, row_grad in zip(Z, f, grad):
                (one_f,), (one_grad,) = kernel.batch(z[None], lam)
                assert one_f.tobytes() == row_f.tobytes(), label
                assert one_grad.tobytes() == row_grad.tobytes(), label


def test_block_kernel_logits_unpack_to_their_coupling():
    # masked entries are exactly 0, and a coupling above the 1e-12 logit
    # floor comes back from its logits
    rng = np.random.default_rng(4)
    for label, mass, mask_x, mask_y in _kernel_layouts():
        kernel = ci_solver._BlockKernel(mass, mask_x, mask_y)
        qw, A, C = kernel.unpack(rng.normal(size=kernel.n_logits))
        assert (A[~mask_x] == 0.0).all() and (C[~mask_y] == 0.0).all()
        back = kernel.unpack(kernel.logits(qw, A, C))
        for got, want in zip(back, (qw, A, C)):
            assert np.allclose(got, want, rtol=0.0, atol=1e-12), label


def test_block_kernel_gradient_matches_central_differences():
    rng = np.random.default_rng(3)
    h = 1e-6
    for label, mass, mask_x, mask_y in _kernel_layouts():
        kernel = ci_solver._BlockKernel(mass, mask_x, mask_y)
        z = rng.normal(size=kernel.n_logits)
        _, (g,) = kernel.batch(z[None], 1e2)
        step = np.eye(z.size) * h
        fd = (kernel.batch(z + step, 1e2)[0]
              - kernel.batch(z - step, 1e2)[0]) / (2 * h)
        assert np.max(np.abs(g - fd)) <= 1e-6 * max(1.0, np.max(np.abs(g))), \
            label


def _hstack_jacobian(v, aw, ax, cw, cy, sx, sy, shape):
    """The polish's constraint Jacobian as it was built before the scatter:
    the masked products with the dense a and c, stacked by hstack and
    vstack."""
    nw, nx, ny = shape
    na = aw.size
    a = np.zeros((nw, nx))
    a[aw, ax] = v[:na]
    c = np.zeros((nw, ny))
    c[cw, cy] = v[na:]
    same_x = sx[:, None] == ax[None, :]
    same_y = sy[:, None] == cy[None, :]
    row_of_c = np.arange(nw)[:, None] == cw[None, :]
    marginal = np.hstack((same_x * c[aw[None, :], sy[:, None]],
                          same_y * a[cw[None, :], sx[:, None]]))
    return np.vstack((marginal, np.hstack((np.zeros((nw, na)), row_of_c))))


def test_polish_jacobian_scatter_matches_the_hstack_reference(monkeypatch):
    # the polish's constraints at random points of its box, from the copy
    # start (a symbol of zero weight drops out) and the 1/2 mixture (every
    # symbol live), on full, thin and several rectangles
    captured = []

    def capture(values, gradients, x0, bounds, **settings):
        captured.append((x0, values, gradients))
        return x0, 0.0, 0, 0

    monkeypatch.setattr(ci_solver, "slsqp", capture)
    rng = np.random.default_rng(8)
    h = 1e-6
    kinds = set()
    for label, mass, mask_x, mask_y in _kernel_layouts():
        rects = ci_solver._maximal_rectangles(mass > 0)
        kinds.add("several" if len(rects) > 1 else "one")
        kinds.update("thin" if min(s.sum(), t.sum()) == 1 else "full"
                     for s, t in rects)
        starts = list(ci_solver._mixed_starts(
            mass, mask_x, mask_y, ci_solver._rectangle_layout(mass > 0)[2]))
        for qw, A, C in (starts[0], starts[2]):
            ci_solver._polish(qw, A, C, mass, mask_x, mask_y)
            x0, values, gradients = captured.pop()
            live = qw > ci_solver._LIVE_WEIGHT
            aw, ax = np.nonzero(mask_x[live])
            cw, cy = np.nonzero(mask_y[live])
            sx, sy = np.nonzero(mass > 0)
            shape = (live.sum(), *mass.shape)
            for _ in range(3):
                v = rng.random(x0.size)
                values(v)
                J = gradients(v)[1].copy()
                assert np.array_equal(
                    J, _hstack_jacobian(v, aw, ax, cw, cy, sx, sy, shape)), \
                    label
                fd = np.array([(values(v + e)[1] - values(v - e)[1])
                               / (2 * h) for e in np.eye(v.size) * h]).T
                assert np.max(np.abs(J - fd)) <= 1e-7, label
    assert kinds == {"one", "several", "thin", "full"}


# ---------------------------------------------------------------------------
# wyner_ci against the sequential solve it replaced
# ---------------------------------------------------------------------------

def _reference_polish(qw, A, C, pi_mass, mask_x, mask_y):
    """``_polish`` as it ran with one ``fun(v) -> (f, grad)`` at every SLSQP
    point, its constraints and their Jacobian, through ``minimize``."""
    live = qw > ci_solver._LIVE_WEIGHT
    a0 = qw[live, None] * A[live]
    c0 = C[live]
    aw, ax = np.nonzero(mask_x[live])
    cw, cy = np.nonzero(mask_y[live])
    sx, sy = np.nonzero(pi_mass > 0)
    target = pi_mass[sx, sy]
    na, nw = aw.size, c0.shape[0]

    def dense(v):
        a = np.zeros(a0.shape)
        a[aw, ax] = v[:na]
        c = np.zeros(c0.shape)
        c[cw, cy] = v[na:]
        return a, c

    def objective(v):
        q = np.bincount(aw, weights=v[:na], minlength=nw)
        la = np.log(np.maximum(v[:na], 1e-300))
        lc = np.log(np.maximum(v[na:], 1e-300))
        lq = np.log(np.maximum(q, 1e-300))
        hc = np.bincount(cw, weights=v[na:] * lc, minlength=nw)
        f = v[:na] @ la - q @ lq + q @ hc
        grad = np.concatenate((la - lq[aw] + hc[aw], q[cw] * (lc + 1.0)))
        return float(f), grad

    def constraints(v):
        a, c = dense(v)
        return np.concatenate(((a.T @ c)[sx, sy] - target,
                               c.sum(axis=1) - 1.0))

    def jacobian(v):
        return _hstack_jacobian(v, aw, ax, cw, cy, sx, sy,
                                (nw, *pi_mass.shape))

    v0 = np.concatenate((a0[aw, ax], c0[cw, cy]))
    res = minimize(objective, v0, jac=True, method="SLSQP",
                   bounds=[(0.0, 1.0)] * v0.size,
                   constraints={"type": "eq", "fun": constraints,
                                "jac": jacobian},
                   options={"maxiter": ci_solver._POLISH_MAXITER,
                            "ftol": ci_solver._POLISH_FTOL})
    a, c = dense(np.clip(res.x, 0.0, 1.0))
    q, c_sum = a.sum(axis=1), c.sum(axis=1)
    keep = (q > 0) & (c_sum > 0)
    return (q[keep] / q[keep].sum(), a[keep] / q[keep, None],
            c[keep] / c_sum[keep, None])


def _reference_solve_block(pi_mass):
    """``_solve_block`` as it ran one start after another: one one-start
    ``lbfgsb`` call per weight on a one-row batch, then the reference
    polish."""
    px, py = pi_mass.sum(axis=1), pi_mass.sum(axis=0)
    residual = 0.5 * np.abs(np.outer(px, py) - pi_mass).sum()
    if residual <= ci_solver._FEAS_TOL:
        return 0.0, np.ones(1), px[None], py[None], residual, 0, True

    mask_x, mask_y, cell_symbol = ci_solver._rectangle_layout(pi_mass > 0)
    kernel = ci_solver._BlockKernel(pi_mass, mask_x, mask_y)
    restore = ci_solver._restore_feasibility
    best = None
    for descents, start in enumerate(ci_solver._mixed_starts(
            pi_mass, mask_x, mask_y, cell_symbol), 1):
        z = kernel.logits(*start)
        for lam in ci_solver._PENALTY_SCHEDULE:
            [(z, _, _)] = lbfgsb(
                lambda rows: kernel.batch(np.array(rows), lam), [z],
                maxiter=ci_solver._MAXITER, ftol=ci_solver._OBJ_TOL)
        qw, A, C, _ = restore(*kernel.unpack(z), pi_mass)
        qw, A, C, residual = restore(
            *_reference_polish(qw, A, C, pi_mass, mask_x, mask_y), pi_mass)
        if residual <= ci_solver._FEAS_TOL:
            value = ci_solver._coupling_value(qw, A, C)
            if best is None or value < best[0]:
                best = (value, qw, A, C)
    converged = best is not None

    for qw, A, C in ci_solver._marginal_couplings(pi_mass):
        value = ci_solver._coupling_value(qw, A, C)
        if best is None or value < best[0] - ci_solver._OBJ_TOL:
            best = (value, qw, A, C)
            converged = False

    qw, A, C = ci_solver._canonical(*best[1:])
    residual = 0.5 * np.abs(np.einsum("w,wx,wy->xy", qw, A, C) - pi_mass).sum()
    return (ci_solver._coupling_value(qw, A, C), qw, A, C, residual,
            descents, converged)


def _differential_joints():
    joints = {f"dsbs_{p}": fixtures.dsbs(p) for p in (0.05, 0.2, 0.3, 0.45)}
    joints.update((f"dsbes_{e}", fixtures.dsbes(e)) for e in (0.2, 0.4, 0.6,
                                                              0.8))
    joints["common_part_3x3"] = fixtures.common_part_source(0.6, 0.2)
    joints.update((f"sparse_{i}", _sparse_joint(i)) for i in (7, 9, 16))
    joints.update((f"dirichlet_{seed}", JointPmf(
        np.random.default_rng(seed).dirichlet(np.ones(9)).reshape(3, 3)))
        for seed in range(12))
    return joints


DIFFERENTIAL_JOINTS = _differential_joints()


@pytest.mark.parametrize("label", sorted(DIFFERENTIAL_JOINTS))
def test_wyner_ci_matches_the_sequential_solve_bit_for_bit(label,
                                                          monkeypatch):
    # the ci_sources joints, sparse joints and 3x3 Dirichlet(1) joints:
    # lockstep starts and the values/gradients polish take the same path
    pi = DIFFERENTIAL_JOINTS[label]
    sol = wyner_ci(pi)
    monkeypatch.setattr(ci_solver, "_solve_block", _reference_solve_block)
    ref = wyner_ci(pi)
    assert sol.value == ref.value
    for got, want in ((sol.argmin.q_w.mass, ref.argmin.q_w.mass),
                      (sol.argmin.q_x_given_w, ref.argmin.q_x_given_w),
                      (sol.argmin.q_y_given_w, ref.argmin.q_y_given_w)):
        assert got.tobytes() == want.tobytes()
    assert sol.constraint_residual == ref.constraint_residual
    assert sol.restarts_used == ref.restarts_used
    assert sol.converged is ref.converged
