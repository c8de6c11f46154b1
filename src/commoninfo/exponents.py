"""Strong-converse exponent machinery.

The tilted likelihood-ratio statistic omega, its negative cumulant generating
function Omega(alpha, theta) minimized over augmented joints Q_{XYU}, the rate
functions F(alpha, theta; R) and F(R), and the alternative common-information
expression R^(alpha) with its sup characterization R_sh.

The augmented joint lives in the polytope of distributions on X x Y x U with
|U| = |X||Y| and supp(Q_XY) contained in supp(pi_XY); the support restriction
is enforced structurally (parameters exist only on the support), which removes
the region where omega is undefined.

The inner minimization is non-convex and attacked by deterministic multi-start
quasi-Newton descent with analytic gradients; warm starts from the Wyner
solver's argmin lifted into the polytope dominate in practice.  For fixed Q
the map theta -> Omega_Q(theta) is concave with value 0 at theta = 0, so once
the minimized Omega goes negative at some theta it stays negative for every
larger theta; the F(R) grid sweep uses this to prune the large-theta region,
where the unconstrained infimum diverges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .errors import ConfigError, DomainError
from .probability import JointPmf
from .ci_solver import CiSolution

DEFAULT_THETA_MAX = 10.0
_ALPHA_GRID_POINTS = 33
_THETA_GRID_POINTS = 65
_THETA_GRID_MIN = 1e-4
#: prune threshold: minimized Omega below this certifies F < 0 at all larger theta
_OMEGA_PRUNE = -1e-6


@dataclass(frozen=True)
class ExponentPoint:
    """A point (alpha, theta) in [0,1] x [0, theta_max]."""

    alpha: float
    theta: float
    theta_max: float = DEFAULT_THETA_MAX

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError("alpha must lie in [0, 1]")
        if not 0.0 <= self.theta <= self.theta_max:
            raise ConfigError(f"theta must lie in [0, {self.theta_max}]")

    @property
    def alpha_bar(self) -> float:
        return 1.0 - self.alpha


class _SupportGrid:
    """Index bookkeeping for joints restricted to supp(pi) x U."""

    def __init__(self, pi: JointPmf, nu: int | None = None):
        if pi.ndim != 2:
            raise ConfigError("target joint must have 2 axes")
        self.pi = pi
        self.nx, self.ny = pi.dims
        self.nu = self.nx * self.ny if nu is None else nu
        supp = np.argwhere(pi.mass > 0)
        self.x_of_s = supp[:, 0]
        self.y_of_s = supp[:, 1]
        self.n_supp = supp.shape[0]
        self.log_pi_s = np.log(pi.mass[self.x_of_s, self.y_of_s])
        # one-hot projectors for X- and Y-marginals over support points
        self.proj_x = np.zeros((self.nx, self.n_supp))
        self.proj_x[self.x_of_s, np.arange(self.n_supp)] = 1.0
        self.proj_y = np.zeros((self.ny, self.n_supp))
        self.proj_y[self.y_of_s, np.arange(self.n_supp)] = 1.0

    def to_full(self, q_su: np.ndarray) -> JointPmf:
        m = np.zeros((self.nx, self.ny, self.nu))
        m[self.x_of_s, self.y_of_s, :] = q_su
        return JointPmf(m / m.sum())

    def from_full(self, q: JointPmf) -> np.ndarray:
        if q.dims[:2] != (self.nx, self.ny) or q.dims[2] != self.nu:
            raise ConfigError("augmented joint has wrong shape")
        off = q.mass.sum() - q.mass[self.x_of_s, self.y_of_s, :].sum()
        if off > 1e-12:
            raise DomainError("supp(Q_XY) not contained in supp(pi_XY)")
        return q.mass[self.x_of_s, self.y_of_s, :]


def _q_marginals(grid: _SupportGrid, q_su: np.ndarray):
    q_xy = q_su.sum(axis=1)                      # (S,)
    q_u = q_su.sum(axis=0)                       # (U,)
    q_xu = grid.proj_x @ q_su                    # (nx, U)
    q_yu = grid.proj_y @ q_su                    # (ny, U)
    return q_xy, q_u, q_xu, q_yu


def _omega_table(grid: _SupportGrid, q_su: np.ndarray, alpha: float) -> np.ndarray:
    """omega at every (support point, u); +-inf outside supp(Q)."""
    q_xy, q_u, q_xu, q_yu = _q_marginals(grid, q_su)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_q = np.log(q_su)
        log_qxy = np.log(q_xy)
        log_qu = np.log(q_u)
        log_qxu = np.log(q_xu)[grid.x_of_s]      # (S, U)
        log_qyu = np.log(q_yu)[grid.y_of_s]
        cond_ratio = log_q - log_qu[None, :] - grid.log_pi_s[:, None]
        cmi_ratio = log_q + log_qu[None, :] - log_qxu - log_qyu
        marg_ratio = (log_qxy - grid.log_pi_s)[:, None]
    return (1.0 - alpha) * (marg_ratio + cmi_ratio) + alpha * cond_ratio


def omega(q: JointPmf, pi: JointPmf, alpha: float, x: int, y: int, u: int) -> float:
    """The tilted log-likelihood-ratio statistic at a single (x, y, u)."""
    grid = _SupportGrid(pi, nu=q.dims[2])
    q_su = grid.from_full(q)
    if q.mass[x, y, u] <= 0:
        raise DomainError(f"({x},{y},{u}) outside supp(Q)")
    s = int(np.flatnonzero((grid.x_of_s == x) & (grid.y_of_s == y))[0])
    table = _omega_table(grid, q_su / q_su.sum(), alpha)
    return float(table[s, u])


def big_omega_q(q: JointPmf, pi: JointPmf, pt: ExponentPoint) -> float:
    """-log E_Q[exp(-theta * omega)], the expectation restricted to supp(Q)."""
    grid = _SupportGrid(pi, nu=q.dims[2])
    q_su = grid.from_full(q)
    q_su = q_su / q_su.sum()
    table = _omega_table(grid, q_su, pt.alpha)
    mask = q_su > 0
    with np.errstate(divide="ignore"):
        log_terms = np.where(mask, np.log(np.where(mask, q_su, 1.0))
                             - pt.theta * np.where(mask, table, 0.0), -np.inf)
    return -_log_normalize(log_terms)[0]


def r_alpha_q(q: JointPmf, pi: JointPmf, alpha: float) -> float:
    """The KL combination
    (1-alpha)(D(Q_XY||pi) + D(Q_{XY|U}||Q_{X|U}Q_{Y|U}|Q_U)) +
    alpha * D(Q_{XY|U}||pi|Q_U); equals E_Q[omega]."""
    grid = _SupportGrid(pi, nu=q.dims[2])
    q_su = grid.from_full(q)
    q_su = q_su / q_su.sum()
    table = _omega_table(grid, q_su, alpha)
    return float((q_su * np.where(q_su > 0, table, 0.0)).sum())


# ---------------------------------------------------------------------------
# inner minimizations over the support-restricted polytope
# ---------------------------------------------------------------------------

def _log_normalize(log_t: np.ndarray):
    """log sum exp(log_t) and the weights exp(log_t) / sum exp(log_t),
    by a shift to the largest entry, which then contributes exp(0) = 1."""
    m = log_t.max()
    e = np.exp(log_t - m)
    total = e.sum()
    return float(m + math.log(total)), e / total


def _softmax_flat(z: np.ndarray, shape) -> np.ndarray:
    z = z - z.max()
    e = np.exp(z)
    return (e / e.sum()).reshape(shape)


def _omega_objective(z, grid: _SupportGrid, alpha, theta):
    """Omega_Q(alpha, theta) with analytic gradient in global softmax logits.

    Uses the product form Q e^{-theta omega} =
    Q^{1-theta} Q_XY^{-a} Q_U^{b-a} Q_XU^{a} Q_YU^{a} pi^{a+b}
    with a = theta*(1-alpha), b = theta*alpha, and keeps all intermediate
    ratios of the form Q/Q_marginal, which are bounded by 1.
    """
    S, U = grid.n_supp, grid.nu
    q = _softmax_flat(z, (S, U))
    a = theta * (1.0 - alpha)
    b = theta * alpha
    q_xy, q_u, q_xu, q_yu = _q_marginals(grid, q)
    # softmax cells can underflow to exact 0; clip inside the logs only
    tiny = 1e-300
    log_q = np.log(np.maximum(q, tiny))
    log_t = ((1.0 - a - b) * log_q
             - a * np.log(np.maximum(q_xy, tiny))[:, None]
             + (b - a) * np.log(np.maximum(q_u, tiny))[None, :]
             + a * np.log(np.maximum(q_xu, tiny))[grid.x_of_s]
             + a * np.log(np.maximum(q_yu, tiny))[grid.y_of_s]
             + (a + b) * grid.log_pi_s[:, None])
    L, t_norm = _log_normalize(log_t)           # t_norm sums to 1
    f = -L
    # u1 = Q * dG/dQ, assembled from bounded ratios Q/Q_marginal <= 1
    r_xy = q / np.maximum(q_xy, tiny)[:, None]
    r_u = q / np.maximum(q_u, tiny)[None, :]
    r_xu = q / np.maximum(q_xu, tiny)[grid.x_of_s]
    r_yu = q / np.maximum(q_yu, tiny)[grid.y_of_s]
    u1 = -((1.0 - a - b) * t_norm
           - a * r_xy * t_norm.sum(axis=1, keepdims=True)
           + (b - a) * r_u * t_norm.sum(axis=0, keepdims=True)
           + a * r_xu * (grid.proj_x.T @ (grid.proj_x @ t_norm))
           + a * r_yu * (grid.proj_y.T @ (grid.proj_y @ t_norm)))
    grad = (u1 - q * u1.sum()).ravel()
    return f, grad


def _r_alpha_objective(z, grid: _SupportGrid, alpha):
    S, U = grid.n_supp, grid.nu
    q = _softmax_flat(z, (S, U))
    table = np.where(q > 0, _omega_table(grid, q, alpha), 0.0)
    f = float((q * table).sum())
    # dR/dQ = omega + (1 - alpha); the constant drops in the softmax chain
    g = table
    grad = (q * (g - (q * g).sum())).ravel()
    return f, grad


def _ci_lift_logits(grid: _SupportGrid, ci: CiSolution) -> np.ndarray | None:
    """Lift the Wyner argmin coupling (W -> U) into support-restricted logits."""
    c = ci.argmin
    if c.nx != grid.nx or c.ny != grid.ny or c.nw > grid.nu:
        return None
    m = np.einsum("w,wx,wy->xyw", c.q_w.mass, c.q_x_given_w, c.q_y_given_w)
    q_su = np.full((grid.n_supp, grid.nu), 1e-9)
    q_su[:, :c.nw] += m[grid.x_of_s, grid.y_of_s, :]
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


def _multistart_min(objective, args, grid: _SupportGrid, restarts, seed,
                    extra_starts=(), maxiter=300, ftol=1e-14):
    rng = np.random.default_rng(np.random.SeedSequence([seed, grid.n_supp, grid.nu]))
    starts = [s for s in extra_starts if s is not None]
    starts.append(_product_logits(grid))
    k = grid.n_supp * grid.nu
    while len(starts) < restarts:
        starts.append(np.log(rng.dirichlet(np.ones(k))))
    best = None
    ok = False
    for z0 in starts:
        res = minimize(objective, z0, jac=True, method="L-BFGS-B", args=args,
                       options={"maxiter": maxiter, "ftol": ftol, "gtol": 1e-12})
        ok = ok or bool(res.success)
        if best is None or res.fun < best.value:
            best = InnerMinResult(float(res.fun), res.x, bool(res.success))
    best.converged = ok
    return best


def big_omega_min(pi: JointPmf, pt: ExponentPoint, restarts: int = 32,
                  seed: int = 0, warm_logits=(), ci: CiSolution | None = None,
                  grid: _SupportGrid | None = None) -> InnerMinResult:
    """min over Q_XYU of Omega_Q(alpha, theta); exactly 0 at theta = 0."""
    grid = grid or _SupportGrid(pi)
    if pt.theta == 0.0:
        return InnerMinResult(0.0, _product_logits(grid), True)
    extra = list(warm_logits)
    if ci is not None:
        extra.append(_ci_lift_logits(grid, ci))
    return _multistart_min(_omega_objective, (grid, pt.alpha, pt.theta),
                           grid, restarts, seed, extra)


def r_alpha_min(pi: JointPmf, alpha: float, restarts: int = 32, seed: int = 0,
                ci: CiSolution | None = None, warm_logits=(),
                grid: _SupportGrid | None = None) -> InnerMinResult:
    """min over Q_XYU of the KL combination R^(alpha)(Q)."""
    grid = grid or _SupportGrid(pi)
    extra = list(warm_logits)
    if ci is not None:
        extra.append(_ci_lift_logits(grid, ci))
    return _multistart_min(_r_alpha_objective, (grid, alpha), grid,
                           restarts, seed, extra)


def r_sh(pi: JointPmf, alpha_grid=None, restarts: int = 16, seed: int = 0,
         ci: CiSolution | None = None) -> float:
    """sup over alpha in (0, 1] of (1/alpha) min_Q R^(alpha)(Q).

    Agrees with the Wyner common information value; evaluated on a log-spaced
    alpha grid with warm-start continuation from small alpha upward.
    """
    grid = _SupportGrid(pi)
    if alpha_grid is None:
        alpha_grid = np.geomspace(1e-3, 1.0, 25)
    best = 0.0
    warm = []
    for alpha in alpha_grid:
        res = r_alpha_min(pi, float(alpha), restarts=restarts, seed=seed,
                          ci=ci, warm_logits=warm, grid=grid)
        warm = [res.logits]
        best = max(best, res.value / float(alpha))
    return best


# ---------------------------------------------------------------------------
# F(R)
# ---------------------------------------------------------------------------

def f_point(pi: JointPmf, R: float, pt: ExponentPoint, restarts: int = 32,
            seed: int = 0, ci: CiSolution | None = None, omega_value=None,
            **kwargs) -> float:
    """F^(alpha,theta)(R) = (Omega(alpha,theta) - theta*alpha*R) /
    (1 + (5 - 3*alpha)*theta)."""
    if R < 0:
        raise ConfigError("rate must be nonnegative")
    if omega_value is None:
        omega_value = big_omega_min(pi, pt, restarts=restarts, seed=seed,
                                    ci=ci, **kwargs).value
    return (omega_value - pt.theta * pt.alpha * R) / (1.0 + (5.0 - 3.0 * pt.alpha) * pt.theta)


@dataclass
class OmegaGrid:
    """Omega(alpha, theta) tabulated on the standard (alpha, theta) grid.

    Independent of the rate R, so one table serves every F(R) query for a
    given source.  Cells pruned by the concavity argument are -inf.
    """

    alphas: np.ndarray
    thetas: np.ndarray
    values: np.ndarray                      # (n_alpha, n_theta); -inf = pruned
    logits: dict = field(default_factory=dict, repr=False)
    theta_max: float = DEFAULT_THETA_MAX


def tabulate_omega(pi: JointPmf, restarts: int = 4, seed: int = 0,
                   ci: CiSolution | None = None,
                   n_alpha: int = _ALPHA_GRID_POINTS,
                   n_theta: int = _THETA_GRID_POINTS,
                   theta_max: float = DEFAULT_THETA_MAX) -> OmegaGrid:
    """Minimize Omega on the (alpha, theta) grid with warm-start continuation
    along ascending theta for each alpha."""
    grid = _SupportGrid(pi)
    alphas = np.linspace(0.0, 1.0, n_alpha)
    thetas = np.geomspace(_THETA_GRID_MIN, theta_max, n_theta)
    values = np.full((n_alpha, n_theta), -np.inf)
    logits = {}
    for i, alpha in enumerate(alphas):
        warm = []
        for j, theta in enumerate(thetas):
            pt = ExponentPoint(float(alpha), float(theta), theta_max=theta_max)
            res = big_omega_min(pi, pt, restarts=restarts, seed=seed, ci=ci,
                                warm_logits=warm, grid=grid)
            values[i, j] = res.value
            logits[(i, j)] = res.logits
            warm = [res.logits]
            if res.value < _OMEGA_PRUNE:
                break                        # Omega stays negative from here on
    return OmegaGrid(alphas, thetas, values, logits, theta_max)


def _golden_refine(fun, lo, hi, tol):
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > tol:
        if fc >= fd:                         # maximize
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fun(d)
    xs = [(fc, c), (fd, d)]
    return max(xs)


def f_rate(pi: JointPmf, R: float, omega_grid: OmegaGrid | None = None,
           restarts: int = 4, seed: int = 0, ci: CiSolution | None = None,
           refine: bool = True, refine_tol: float = 1e-6) -> float:
    """F(R) = sup over (alpha, theta) of F^(alpha,theta)(R), clamped at 0.

    theta = 0 is always admissible and yields 0, so a negative raw supremum
    only reflects inner-minimization failure and is reported as 0.
    """
    if R < 0:
        raise ConfigError("rate must be nonnegative")
    if omega_grid is None:
        omega_grid = tabulate_omega(pi, restarts=restarts, seed=seed, ci=ci)
    A, T = np.meshgrid(omega_grid.alphas, omega_grid.thetas, indexing="ij")
    with np.errstate(invalid="ignore"):
        F = (omega_grid.values - T * A * R) / (1.0 + (5.0 - 3.0 * A) * T)
    best = float(np.nanmax(F))
    if best <= 0.0:
        return 0.0
    i, j = np.unravel_index(int(np.nanargmax(F)), F.shape)
    if not refine:
        return max(best, 0.0)

    grid = _SupportGrid(pi)
    warm = [omega_grid.logits.get((i, j))]

    def f_at(alpha, theta):
        pt = ExponentPoint(float(alpha), float(theta),
                           theta_max=omega_grid.theta_max)
        res = big_omega_min(pi, pt, restarts=2, seed=seed, ci=ci,
                            warm_logits=warm, grid=grid)
        warm.append(res.logits)
        del warm[:-2]
        return f_point(pi, R, pt, omega_value=res.value)

    alphas, thetas = omega_grid.alphas, omega_grid.thetas
    a_lo = alphas[max(i - 1, 0)]
    a_hi = alphas[min(i + 1, len(alphas) - 1)]
    t_lo = thetas[max(j - 1, 0)]
    t_hi = thetas[min(j + 1, len(thetas) - 1)]
    alpha_star, theta_star = alphas[i], thetas[j]
    for _ in range(3):                       # coordinatewise ascent
        fb, theta_star = _golden_refine(lambda t: f_at(alpha_star, t),
                                        t_lo, t_hi, refine_tol)
        fb2, alpha_star = _golden_refine(lambda a: f_at(a, theta_star),
                                         a_lo, a_hi, refine_tol)
        best = max(best, fb, fb2)
    return max(best, 0.0)


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


def theta_limit_check(pi: JointPmf, alpha: float, thetas, restarts: int = 8,
                      seed: int = 0, ci: CiSolution | None = None) -> ThetaLimitReport:
    """Track (1/theta) Omega(alpha, theta) against its theta -> 0 limit R^(alpha)."""
    thetas = tuple(float(t) for t in thetas)
    if any(t <= 0 for t in thetas):
        raise ConfigError("thetas must be positive")
    grid = _SupportGrid(pi)
    ra = r_alpha_min(pi, alpha, restarts=restarts, seed=seed, ci=ci, grid=grid)
    scaled = []
    warm = [ra.logits]
    for theta in sorted(thetas, reverse=True):
        pt = ExponentPoint(alpha, theta)
        res = big_omega_min(pi, pt, restarts=restarts, seed=seed, ci=ci,
                            warm_logits=warm, grid=grid)
        warm = [res.logits, ra.logits]
        scaled.append((theta, res.value / theta))
    scaled.sort(key=lambda p: -p[0])
    out_thetas = tuple(t for t, _ in scaled)
    out_vals = tuple(v for _, v in scaled)
    gaps = tuple(ra.value - v for v in out_vals)
    return ThetaLimitReport(alpha=alpha, thetas=out_thetas,
                            scaled_omegas=out_vals, r_alpha=ra.value, gaps=gaps)
