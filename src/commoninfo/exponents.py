"""Strong-converse exponent machinery.

The tilted likelihood-ratio statistic omega, its negative cumulant generating
function Omega(alpha, theta) minimized over augmented joints Q_{XYU}, the rate
functions F(alpha, theta; R) and F(R), and the alternative common-information
expression R^(alpha) with its sup characterization R_sh.

The augmented joint lives in the polytope of distributions on X x Y x U with
|U| = |X||Y| and supp(Q_XY) contained in supp(pi_XY); the support restriction
is enforced structurally (parameters exist only on the support), which removes
the region where omega is undefined.

Every omega reader (the Omega and R^(alpha) objectives and the Danskin
slopes) runs one kernel on Q held flat over the S*U cells.  `_SupportGrid`
builds once an aggregation matrix, whose rows sum Q into its XY, U, XU and
YU marginals, and an index that gathers each cell's four marginals from
those sums.  Per evaluation one product, one gather, one clip at `_TINY`
and one log give the logs of Q and its marginals at every cell; omega is
one coefficient row against them (`_SupportGrid.omega_cells`), and the
gradient applies the same product and gather to the tilted law.  `_tilt`
takes log E_Q[e^{-theta omega}] to relative precision, so (1/theta) Omega
keeps its digits as theta -> 0.

The inner minimization is non-convex.  Each solve runs quasi-Newton descent
with analytic gradients from a fixed list of starts and draws none at random:
the caller's warm logits, then the product coupling.  The Wyner argmin lifted
into the polytope is the start that finds the minimum near theta = 0, so
`f_rate`, `r_sh`, `theta_limit_check` and `tabulate_omega` require the
`CiSolution` of their joint (one of another joint is a `ConfigError`), lift
it once per call, and pass it last among the warm logits of every solve.

Omega is finite only on a polygon read off supp(pi): theta is at most
`_SupportGrid.theta_wall`(alpha), and past that wall the infimum is -inf
(`big_omega_min` returns -inf there without solving).  With beta =
alpha*theta, Omega is jointly concave in (theta, beta) on the polygon, with
value 0 at theta = 0, so F = (Omega - beta R) / (1 + 5 theta - 3 beta) is a
concave-over-affine ratio there; `f_rate` maximizes it by a search over
alpha of rays in theta, each placed by the sign of the Danskin slope, and at
rates of at least C first tries to certify F(R) = 0 from one solve.
`tabulate_omega` keeps the former (alpha, theta) grid as a test reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .errors import ConfigError
from .probability import JointPmf
from .ci_solver import CiSolution
from .descent import lbfgsb
from .divergences import tv

DEFAULT_THETA_MAX = 10.0
_ALPHA_GRID_POINTS = 33
_THETA_GRID_POINTS = 65
_THETA_GRID_MIN = 1e-4
#: prune threshold: minimized Omega below this certifies F < 0 at all larger theta
_OMEGA_PRUNE = -1e-6
#: theta of the first solve on each ray of f_rate
_THETA_MIN = 1e-4
#: rays f_rate solves before its search over alpha, which comes no closer to
#: a kink or an end of [0, 1] than its tolerance: the kink at 1/2 of the
#: wall with no mates and the edge alpha = 1.  The edge alpha = 0 is no ray
#: of the search: there F = Omega / D <= 0 (U = X gives omega = 0), so a
#: ray there can add only solver noise.  Its one solve, at theta_min, is
#: f_rate's certificate of F = 0 at rates of at least C.
_VERTEX_ALPHAS = (0.5, 1.0)
#: f_rate's bounded Brent over alpha: its tolerance and its iteration cap
_ALPHA_XTOL = 1e-5
_ALPHA_MAXITER = 40
#: f_rate's tolerance on F: a ray that cannot beat the best F so far by more
#: than this is not solved past its first point (so a rise of solver noise
#: at R = C costs one solve), and brentq places a ray's turning point
#: close enough to keep F within it
_F_TOL = 1e-8
#: L-BFGS-B iteration cap and relative objective tolerance of every inner solve
_INNER_MAXITER = 300
_INNER_FTOL = 1e-14
#: r_sh's one alpha: the supremum over alpha is approached as alpha -> 0
_R_SH_ALPHA = 1e-3
#: softmax cells can underflow to exact 0; omega's logs are clipped here
_TINY = 1e-300


@dataclass(frozen=True)
class ExponentPoint:
    """A point (alpha, theta) in [0,1] x [0, DEFAULT_THETA_MAX]."""

    alpha: float
    theta: float

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError("alpha must lie in [0, 1]")
        if not 0.0 <= self.theta <= DEFAULT_THETA_MAX:
            raise ConfigError(f"theta must lie in [0, {DEFAULT_THETA_MAX}]")


class _SupportGrid:
    """Index bookkeeping for joints restricted to supp(pi) x U, with
    |U| = |X||Y|, and the marginal kernel every omega reader runs on.

    Q is held flat: cell (s, u) is entry s*U + u.  ``agg`` is the
    K x S*U 0/1 matrix whose rows sum Q into its XY, U, XU and YU marginals,
    K = S + U + (|X| + |Y|) U, and ``gather`` (4, S*U) indexes, for each
    cell, the row of each of its four marginals: one product and one gather
    give all four at every cell."""

    def __init__(self, pi: JointPmf):
        self.pi = pi
        self.nx, self.ny = pi.dims
        self.nu = self.nx * self.ny
        supp = np.argwhere(pi.mass > 0)
        self.x_of_s = supp[:, 0]
        self.y_of_s = supp[:, 1]
        self.n_supp = supp.shape[0]
        S, U = self.n_supp, self.nu
        s, u = np.divmod(np.arange(S * U), U)
        self.log_pi = np.log(pi.mass[self.x_of_s, self.y_of_s])[s]
        self.gather = np.stack([s, S + u, S + U + self.x_of_s[s] * U + u,
                                S + U + (self.nx + self.y_of_s[s]) * U + u])
        self.agg = np.zeros((S + U + (self.nx + self.ny) * U, S * U))
        self.agg[self.gather, np.arange(S * U)] = 1.0
        # does some support cell share its row, its column, or both, with
        # another support cell?  That sets the wall of the domain of Omega.
        row_mate = np.bincount(self.x_of_s, minlength=self.nx)[self.x_of_s] > 1
        col_mate = np.bincount(self.y_of_s, minlength=self.ny)[self.y_of_s] > 1
        self.both_mates = bool(np.any(row_mate & col_mate))
        self.any_mate = bool(np.any(row_mate | col_mate))

    def omega_cells(self, q: np.ndarray, alpha: float):
        """omega at every cell of the flat Q, and the (5, S*U) stack of Q
        and its XY, U, XU and YU marginals there, clipped at _TINY.  The
        clip keeps omega finite outside supp(Q), where Q weights it by 0."""
        m = np.maximum(np.vstack((q, (self.agg @ q)[self.gather])), _TINY)
        return _omega_row(alpha) @ np.log(m) - self.log_pi, m

    def theta_wall(self, alpha: float) -> float:
        """The largest theta at which Omega(alpha, theta) is finite; at most
        2, so below DEFAULT_THETA_MAX.

        Drive one cell Q(s, u) = eps to 0 in the product form
        Q e^{-theta omega} = Q^(1-a-b) Q_XY^-a Q_U^(b-a) Q_XU^a Q_YU^a
        pi^(a+b), a = theta(1 - alpha), b = theta alpha.  Its term scales
        as eps^(1 - a - b) times the powers of the marginals that shrink
        with it: Q_XY(s) always, Q_XU unless another cell of row x holds mass
        at u, Q_YU unless another cell of column y does, and Q_U as the term
        prefers.  The exponent is 1 - theta(2 - alpha) with mates in both
        directions, 1 - theta with mates on one side only, and
        1 - theta*max(alpha, 1 - alpha) with none.  Past the first wall some
        term diverges, so Omega = -inf."""
        if self.both_mates:
            rate = 2.0 - alpha
        elif self.any_mate:
            rate = 1.0
        else:
            rate = max(alpha, 1.0 - alpha)
        return 1.0 / rate


def _omega_row(alpha: float) -> np.ndarray:
    """omega's coefficients of the logs of the stack of
    `_SupportGrid.omega_cells`:
    omega = (1-alpha) log(Q_XY Q Q_U / (pi Q_XU Q_YU))
            + alpha log(Q / (Q_U pi))
          = row . (log Q, log Q_XY, log Q_U, log Q_XU, log Q_YU) - log pi."""
    return np.array([1.0, 1.0 - alpha, 1.0 - 2.0 * alpha, alpha - 1.0,
                     alpha - 1.0])


# ---------------------------------------------------------------------------
# inner minimizations over the support-restricted polytope
# ---------------------------------------------------------------------------

def _tilt(q, a):
    """log E_Q[e^a] and the tilted law Q e^a / E_Q[e^a], for weights Q that
    sum to 1 and exponents a, shifted by their largest c.

    The log is c + log1p(E_Q[expm1(a - c)]).  It keeps its relative
    precision as a -> 0, where c + log(sum) would be off by the rounding of
    O(1) terms: 1e-12 in Omega / theta at theta = 1e-4.  When the tilt moves
    most of the mass to light cells (the mean falls below 1/2), the log of
    the sum is the precise form."""
    c = a.max()
    d = a - c
    w = q * np.exp(d)
    total = w.sum()
    x = float(q @ np.expm1(d))
    log_mean = math.log1p(x) if x > -0.5 else math.log(total)
    return float(c + log_mean), w / total


def _softmax_flat(z: np.ndarray) -> np.ndarray:
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def _tilted(z, grid: _SupportGrid, alpha, theta):
    """The Q of logits ``z``, omega and the stack of
    `_SupportGrid.omega_cells` at it, and log E_Q[e^{-theta omega}] with
    the tilted law t, which sums to 1: (q, om, m, L, t)."""
    q = _softmax_flat(z)
    om, m = grid.omega_cells(q, alpha)
    L, t = _tilt(m[0], -theta * om)
    return q, om, m, L, t


def _omega_objective(z, grid: _SupportGrid, alpha, theta):
    """Omega_Q(alpha, theta) with analytic gradient in global softmax logits.

    Omega_Q = -log E_Q[e^{-theta omega}], from `_SupportGrid.omega_cells`.
    The gradient keeps every ratio of the form Q/Q_marginal, which is
    bounded by 1: with the tilted law t summed into each cell's marginals T
    the same way as Q,
    Q dOmega/dQ = theta sum_k row_k (Q / M_k) T_k - (1 - theta) t.
    """
    q, om, m, L, t = _tilted(z, grid, alpha, theta)
    tilted = (grid.agg @ t)[grid.gather]
    u1 = (theta * (_omega_row(alpha)[1:] @ (q / m[1:] * tilted))
          - (1.0 - theta) * t)
    return -L, u1 - q * u1.sum()


def _omega_ray_slope(z, grid: _SupportGrid, alpha, theta) -> float:
    """d/dtheta of Omega_Q(alpha, theta) at fixed alpha and fixed Q: the mean
    of omega under the tilted law Q e^{-theta omega} / E_Q[e^{-theta omega}].
    At the inner minimizer this is the slope of Omega(alpha, .) itself
    (Danskin's theorem)."""
    _, om, _, _, t = _tilted(z, grid, alpha, theta)
    return float((t * om).sum())


#: d omega / d alpha: omega's coefficients (`_omega_row`) are affine in alpha
_OMEGA_ROW_ALPHA = _omega_row(1.0) - _omega_row(0.0)


def _omega_alpha_slope(z, grid: _SupportGrid, alpha, theta) -> float:
    """d/dalpha of Omega_Q(alpha, theta) at fixed theta and fixed Q: theta
    times the mean of d omega / d alpha = `_OMEGA_ROW_ALPHA` . log(Q and its
    marginals) under the tilted law.  Omega_Q is concave in alpha (omega is
    affine in it), so Omega_Q at any alpha lies below this tangent."""
    _, _, m, _, t = _tilted(z, grid, alpha, theta)
    return theta * float(t @ (_OMEGA_ROW_ALPHA @ np.log(m)))


def _r_alpha_objective(z, grid: _SupportGrid, alpha):
    q = _softmax_flat(z)
    om = grid.omega_cells(q, alpha)[0]
    f = float((q * om).sum())
    # dR/dQ = omega + (1 - alpha); the constant drops in the softmax chain
    return f, q * (om - f)


#: largest TV distance between a CI argmin's XY marginal and the joint it is
#: lifted into; `wyner_ci` answers are feasible within 1e-8
_CI_MATCH_TOL = 1e-6


def _ci_lift_logits(grid: _SupportGrid, ci: CiSolution) -> np.ndarray:
    """Lift the Wyner argmin coupling (W -> U) into support-restricted logits.
    An argmin with more than |U| symbols lifts its |U| heaviest: a warm start
    need not be feasible.  An argmin of another joint is a ConfigError."""
    c = ci.argmin
    if (c.nx, c.ny) != (grid.nx, grid.ny):
        raise ConfigError(f"CI argmin is {c.nx}x{c.ny}, the joint "
                          f"{grid.nx}x{grid.ny}")
    m = np.einsum("w,wx,wy->xyw", c.q_w.mass, c.q_x_given_w, c.q_y_given_w)
    gap = tv(m.sum(axis=2), grid.pi.mass)
    if gap > _CI_MATCH_TOL:
        raise ConfigError(f"CI argmin is {gap:.2e} in TV from the joint")
    if c.nw > grid.nu:
        m = m[:, :, np.sort(np.argsort(-c.q_w.mass, kind="stable")[:grid.nu])]
    q_su = np.full((grid.n_supp, grid.nu), 1e-9)
    q_su[:, :m.shape[2]] += m[grid.x_of_s, grid.y_of_s, :]
    # mass the coupling places off supp(pi) is tiny (feasibility residual)
    q_su /= q_su.sum()
    return np.log(q_su).ravel()


def _product_logits(grid: _SupportGrid) -> np.ndarray:
    q_su = np.tile(grid.pi.mass[grid.x_of_s, grid.y_of_s][:, None]
                   / grid.nu, (1, grid.nu))
    return np.log(q_su).ravel()


@dataclass
class InnerMinResult:
    value: float
    logits: np.ndarray
    converged: bool


def _multistart_min(objective, args, grid: _SupportGrid,
                    warm_logits) -> InnerMinResult:
    """The best of one `descent.lbfgsb` descent from each start, all in one
    lockstep call that evaluates the starts that ask one after another: the
    warm logits (callers put the lifted CI argmin last among them), then the
    product coupling.  The first lowest start in that order is kept, and
    ``converged`` is the flag of its descent."""
    starts = [*warm_logits, _product_logits(grid)]
    best = None
    for z, f, ok in lbfgsb(lambda zs: zip(*(objective(z, *args) for z in zs)),
                           starts, maxiter=_INNER_MAXITER, ftol=_INNER_FTOL,
                           gtol=1e-12):
        if best is None or f < best.value:
            best = InnerMinResult(float(f), z, ok)
    return best


def big_omega_min(pi: JointPmf, pt: ExponentPoint, warm_logits=(),
                  grid: _SupportGrid | None = None) -> InnerMinResult:
    """min over Q_XYU of Omega_Q(alpha, theta); exactly 0 at theta = 0, and
    exactly -inf, with no solve, past the wall of `_SupportGrid.theta_wall`."""
    grid = grid or _SupportGrid(pi)
    if pt.theta == 0.0:
        return InnerMinResult(0.0, _product_logits(grid), True)
    if pt.theta > grid.theta_wall(pt.alpha):
        return InnerMinResult(-math.inf, _product_logits(grid), True)
    return _multistart_min(_omega_objective, (grid, pt.alpha, pt.theta),
                           grid, warm_logits)


def r_alpha_min(pi: JointPmf, alpha: float, warm_logits=(),
                grid: _SupportGrid | None = None) -> InnerMinResult:
    """min over Q_XYU of the KL combination R^(alpha)(Q), the theta -> 0
    limit of Omega(alpha, theta) / theta; alpha is checked as the
    ExponentPoint (alpha, 0) checks it."""
    ExponentPoint(alpha, 0.0)
    grid = grid or _SupportGrid(pi)
    return _multistart_min(_r_alpha_objective, (grid, alpha), grid,
                           warm_logits)


def r_sh(pi: JointPmf, ci: CiSolution) -> float:
    """sup over alpha in (0, 1] of (1/alpha) min_Q R^(alpha)(Q), which agrees
    with the Wyner common information.

    For a fixed Q, R^(alpha)(Q)/alpha = A(Q)/alpha + B(Q) - A(Q) with
    A(Q) >= 0, which does not increase in alpha; neither does its minimum
    over Q.  So the supremum is approached at the smallest alpha, and r_sh
    is one solve there, reported as the solver found it: on a product source
    it can read a rounding error below 0.
    """
    grid = _SupportGrid(pi)
    res = r_alpha_min(pi, _R_SH_ALPHA,
                      warm_logits=[_ci_lift_logits(grid, ci)], grid=grid)
    return res.value / _R_SH_ALPHA


# ---------------------------------------------------------------------------
# F(R)
# ---------------------------------------------------------------------------

def f_point(R: float, pt: ExponentPoint, omega: float) -> float:
    """F^(alpha,theta)(R) = (Omega(alpha,theta) - theta*alpha*R) /
    (1 + (5 - 3*alpha)*theta), from the value ``omega`` of Omega at pt."""
    return (omega - pt.theta * pt.alpha * R) / (1.0 + (5.0 - 3.0 * pt.alpha) * pt.theta)


@dataclass
class OmegaGrid:
    """Omega(alpha, theta) tabulated on the standard (alpha, theta) grid.

    The reference `f_rate` is tested against; no program path builds one.
    Cells pruned by the concavity argument are -inf.
    """

    alphas: np.ndarray
    thetas: np.ndarray
    values: np.ndarray                      # (n_alpha, n_theta); -inf = pruned
    logits: dict = field(default_factory=dict, repr=False)


def tabulate_omega(pi: JointPmf, ci: CiSolution,
                   n_alpha: int = _ALPHA_GRID_POINTS,
                   n_theta: int = _THETA_GRID_POINTS) -> OmegaGrid:
    """Minimize Omega on the (alpha, theta) grid with warm-start continuation
    along ascending theta for each alpha.  No program path runs it: it is the
    grid reference `f_rate` is tested against, and the benchmark's tracer
    wraps it by attribute for its ``tabulate_omega.*`` metrics."""
    grid = _SupportGrid(pi)
    lifted = _ci_lift_logits(grid, ci)
    alphas = np.linspace(0.0, 1.0, n_alpha)
    thetas = np.geomspace(_THETA_GRID_MIN, DEFAULT_THETA_MAX, n_theta)
    values = np.full((n_alpha, n_theta), -np.inf)
    logits = {}
    for i, alpha in enumerate(alphas):
        warm = []
        for j, theta in enumerate(thetas):
            pt = ExponentPoint(float(alpha), float(theta))
            res = big_omega_min(pi, pt, warm_logits=[*warm, lifted],
                                grid=grid)
            values[i, j] = res.value
            logits[(i, j)] = res.logits
            warm = [res.logits]
            if res.value < _OMEGA_PRUNE:
                break                        # Omega stays negative from here on
    return OmegaGrid(alphas, thetas, values, logits)


class _RayPoint(NamedTuple):
    """One solve of f_rate at (alpha, theta)."""

    n: float                                 # Omega - theta*alpha*R
    f: float                                 # F = N / D
    h: float                                 # N' D - N D'; F' = h / D^2
    logits: np.ndarray                       # the inner minimizer


def _zero_certified(pi: JointPmf, R: float, grid: _SupportGrid,
                    lifted: np.ndarray) -> bool:
    """Whether one solve at (alpha, theta) = (0, theta_min) proves that no
    ray of `f_rate` beats F = 0 by `_F_TOL`.

    Let Q* be its minimizer, N0 = Omega_{Q*}(0, theta_min) and dN =
    `_omega_alpha_slope` - theta_min R there.  Omega_{Q*} is concave in
    alpha, so N(alpha, theta_min) <= N0 + alpha dN on [0, 1].  Each ray's
    ceiling N(alpha, theta_min) / (theta_min (5 - 3 alpha)) is then at most
    a linear-fractional function of alpha, whose maximum over [0, 1] is at
    an end: max(N0 / 5, (N0 + dN) / 2) / theta_min."""
    res = big_omega_min(pi, ExponentPoint(0.0, _THETA_MIN),
                        warm_logits=[lifted], grid=grid)
    n0 = res.value
    dn = (_omega_alpha_slope(res.logits, grid, 0.0, _THETA_MIN)
          - _THETA_MIN * R)
    return max(n0 / 5.0, (n0 + dn) / 2.0) <= _THETA_MIN * _F_TOL


def f_rate(pi: JointPmf, R: float, ci: CiSolution) -> float:
    """F(R) = sup over (alpha, theta) of F^(alpha,theta)(R), and 0 when no
    point has F > 0 (theta = 0 always gives 0).

    ``ci`` is the Wyner solution of ``pi``: every inner solve starts from its
    warm neighbour, the argmin of ``ci`` (lifted once per call) and the
    product coupling.  The lifted argmin is required because the other
    starts stall: on DSBS(0.1) at R = 0.3 they give F = 0.031877 in place of
    0.011679, and 0.054338 in place of 0.049143 on the copy source.

    Write beta = alpha*theta.  For fixed Q, omega is linear in alpha, so
    Omega_Q = -log E_Q[exp(-theta A - beta B)] is jointly concave in
    (theta, beta), and so is its minimum over Q, on the polygon
    theta <= `_SupportGrid.theta_wall`(alpha).  F = N / D with
    N = Omega - beta*R concave, N(0) = 0, and D = 1 + (5 - 3 alpha) theta
    positive affine.  Along a ray of fixed alpha, h = N' D - N D' has
    h' = N'' D <= 0, so F rises while h > 0 and falls after; N' is the
    Danskin slope (`_omega_ray_slope`) at the inner minimizer.  A ray starts
    with a solve at theta_min = `_THETA_MIN`:

    - N(theta_min) <= 0: by concavity N <= 0, so F <= 0, on the rest of the
      ray, which reports its slope N(theta_min) / theta_min in place of its
      maximum 0;
    - else N(theta) / theta <= N(theta_min) / theta_min bounds F by
      N(theta_min) / (theta_min (5 - 3 alpha)); a ray that cannot beat the
      best so far by `_F_TOL` reports that bound and stops;
    - else h(theta_min) <= 0: the ray's maximum is at theta_min;
    - else h >= 0 at the wall: the ray's maximum is on the wall;
    - else h >= 0 one brentq tolerance inside the wall: the maximum is
      there or on the wall, to within `_F_TOL`;
    - else `brentq` finds the root of h between theta_min and that point.

    The reported values are unimodal in alpha: the superlevel sets of F at
    positive levels are convex, so the alphas they reach form an interval,
    and the slope at theta_min is concave in alpha.  Bounded Brent maximizes
    them, after the rays of `_VERTEX_ALPHAS`.  If no ray rises, F(R) = 0 by
    concavity of N: certified, not clamped.  Every (alpha, theta) is solved
    once and warm-starts from its nearest solved neighbour, so that repeated
    evaluations agree, as brentq's bracket needs.

    At R >= C = ``ci.value``, where F(R) = 0, one solve at (0, theta_min)
    comes before the search: `_zero_certified` bounds every ray's ceiling
    by the tangent in alpha of Omega at that solve's minimizer, and F(R) is
    0 when no ceiling beats 0 by `_F_TOL`, the slack of the search's own
    ceiling rule.  That solve is kept out of the warm starts, so where the
    certificate refuses (R near C) and at every R below C the search runs
    as it would without it.
    """
    if not 0.0 <= R < math.inf:
        raise ConfigError("rate must be nonnegative and finite")
    grid = _SupportGrid(pi)
    lifted = _ci_lift_logits(grid, ci)
    if R >= ci.value and _zero_certified(pi, R, grid, lifted):
        return 0.0
    solved: dict[tuple, _RayPoint] = {}

    def point(alpha, theta) -> _RayPoint:
        if (alpha, theta) not in solved:
            near = min(solved, default=None, key=lambda k: (
                abs(k[0] - alpha) + abs(math.log(k[1] / theta))))
            pt = ExponentPoint(alpha, theta)
            warm = [solved[near].logits] if near else []
            res = big_omega_min(pi, pt, warm_logits=[*warm, lifted],
                                grid=grid)
            slope = _omega_ray_slope(res.logits, grid, alpha, theta)
            d_slope = 5.0 - 3.0 * alpha
            n = res.value - theta * alpha * R
            d = 1.0 + d_slope * theta
            solved[alpha, theta] = _RayPoint(
                n, f_point(R, pt, res.value),
                (slope - alpha * R) * d - n * d_slope, res.logits)
        return solved[alpha, theta]

    best = 0.0

    def ray(alpha):
        nonlocal best
        first = point(alpha, _THETA_MIN)
        if first.n <= 0.0:
            return first.n / _THETA_MIN
        d_slope = 5.0 - 3.0 * alpha
        ceiling = first.n / (_THETA_MIN * d_slope)
        if ceiling <= best + _F_TOL:
            return ceiling
        f = first.f
        if first.h > 0.0:
            wall = grid.theta_wall(alpha)
            on_wall = point(alpha, wall)
            f = on_wall.f
            if on_wall.h < 0.0:
                # F' = h / D^2 <= h(theta_min) / D(theta_min)^2, so F moves
                # by at most _F_TOL over a step of xtol.  The slope at the
                # wall itself can read negative while F still rises up to
                # it; one solve a step inside tells that case apart.
                d_min = 1.0 + d_slope * _THETA_MIN
                xtol = _F_TOL * d_min ** 2 / first.h
                inside = point(alpha, max(wall - xtol, _THETA_MIN))
                if inside.h >= 0.0:
                    f = max(f, inside.f)
                else:
                    theta = brentq(lambda t: point(alpha, t).h, _THETA_MIN,
                                   wall - xtol, xtol=xtol)
                    f = point(alpha, theta).f
        best = max(best, f)
        return f

    for alpha in _VERTEX_ALPHAS:
        ray(alpha)
    minimize_scalar(lambda alpha: -ray(alpha), bounds=(0.0, 1.0),
                    method="bounded",
                    options={"xatol": _ALPHA_XTOL, "maxiter": _ALPHA_MAXITER})
    return float(best)


@dataclass(frozen=True)
class ThetaLimitReport:
    alpha: float
    thetas: tuple
    scaled_omegas: tuple                     # (1/theta) * Omega(alpha, theta)
    r_alpha: float
    gaps: tuple                              # r_alpha - scaled omega

    @property
    def final_gap(self) -> float:
        return self.gaps[-1]


def theta_limit_check(pi: JointPmf, alpha: float, thetas,
                      ci: CiSolution) -> ThetaLimitReport:
    """Track (1/theta) Omega(alpha, theta) against its theta -> 0 limit R^(alpha)."""
    thetas = tuple(sorted((float(t) for t in thetas), reverse=True))
    if not thetas or any(t <= 0 for t in thetas):
        raise ConfigError("thetas must be nonempty and positive")
    grid = _SupportGrid(pi)
    lifted = _ci_lift_logits(grid, ci)
    ra = r_alpha_min(pi, alpha, warm_logits=[lifted], grid=grid)
    scaled = []
    warm = [ra.logits]
    for theta in thetas:                 # descending, each warm from the last
        res = big_omega_min(pi, ExponentPoint(alpha, theta),
                            warm_logits=[*warm, lifted], grid=grid)
        warm = [res.logits, ra.logits]
        scaled.append(res.value / theta)
    return ThetaLimitReport(alpha=alpha, thetas=thetas,
                            scaled_omegas=tuple(scaled), r_alpha=ra.value,
                            gaps=tuple(ra.value - v for v in scaled))
