"""Finite probability primitives.

Pmfs, joint pmfs, Markov couplings through an auxiliary variable, sequence
types, and exact product-distribution arithmetic in log-space.  All values are
immutable after construction and every operation is pure.

Conventions: natural logarithm throughout, 0*log(0) = 0 and 0*log(0/0) = 0,
summations over the support of the left argument.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np
from scipy.special import xlogy

from .errors import ConfigError

#: Tolerance on probability normalization at construction time.  Inputs outside
#: this tolerance are rejected rather than silently renormalized.
NORM_TOL = 1e-12


def _validated_mass(mass, ndim_allowed) -> np.ndarray:
    arr = np.asarray(mass, dtype=float)
    if arr.ndim not in ndim_allowed:
        raise ConfigError(f"mass must have {ndim_allowed} axes, got {arr.ndim}")
    if arr.size == 0:
        raise ConfigError("mass must be nonempty")
    if not np.all(np.isfinite(arr)):
        raise ConfigError("mass contains non-finite entries")
    if np.any(arr < 0):
        raise ConfigError("mass contains negative entries")
    total = float(arr.sum())
    if abs(total - 1.0) > NORM_TOL:
        raise ConfigError(f"mass sums to {total!r}, outside tolerance {NORM_TOL}")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class FinitePmf:
    """Probability mass function over a small finite alphabet {0, ..., k-1}."""

    mass: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mass", _validated_mass(self.mass, (1,)))

    @property
    def alphabet_size(self) -> int:
        return self.mass.shape[0]

    def support(self) -> np.ndarray:
        """Indices with strictly positive mass."""
        return np.flatnonzero(self.mass > 0)

    def entropy(self) -> float:
        """Shannon entropy in nats."""
        return float(-xlogy(self.mass, self.mass).sum())

    def __call__(self, x: int) -> float:
        return float(self.mass[x])

    @classmethod
    def uniform(cls, k: int) -> "FinitePmf":
        return cls(np.full(k, 1.0 / k))

    @classmethod
    def point_mass(cls, x: int, k: int) -> "FinitePmf":
        m = np.zeros(k)
        m[x] = 1.0
        return cls(m)


@dataclass(frozen=True)
class JointPmf:
    """Dense joint pmf over 2 or 3 finite alphabets."""

    mass: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mass", _validated_mass(self.mass, (2, 3)))

    @property
    def dims(self) -> tuple[int, ...]:
        return self.mass.shape

    @property
    def ndim(self) -> int:
        return self.mass.ndim

    def marginal(self, axes):
        """Marginal over the given axis or axes (those axes are *kept*)."""
        return marginal(self, axes)

    def conditional(self, target_axis: int, given_axis: int) -> np.ndarray:
        """Conditional pmf array of shape (|given|, |target|).

        Rows conditioned on zero-probability symbols are uniform so that the
        result is always a valid row-stochastic matrix.
        """
        if self.ndim != 2:
            raise ConfigError("conditional() is defined for 2-axis joints")
        if {target_axis, given_axis} != {0, 1}:
            raise ConfigError("axes must be {0, 1}")
        m = self.mass if given_axis == 0 else self.mass.T
        row_sums = m.sum(axis=1, keepdims=True)
        out = np.where(row_sums > 0, m / np.where(row_sums > 0, row_sums, 1.0),
                       1.0 / m.shape[1])
        return out

    def entropy(self) -> float:
        return float(-xlogy(self.mass, self.mass).sum())


def marginal(joint: JointPmf, axes):
    """Sum out all axes not listed in ``axes``.

    Returns a FinitePmf when a single axis is kept, else a JointPmf with the
    kept axes in the requested order.
    """
    if isinstance(axes, (int, np.integer)):
        axes = (int(axes),)
    axes = tuple(int(a) for a in axes)
    if len(axes) == 0:
        raise ConfigError("axes must be nonempty")
    if len(set(axes)) != len(axes):
        raise ConfigError("axes must be distinct")
    for a in axes:
        if not 0 <= a < joint.ndim:
            raise ConfigError(f"axis {a} out of range for {joint.ndim} axes")
    drop = tuple(a for a in range(joint.ndim) if a not in axes)
    m = joint.mass.sum(axis=drop) if drop else joint.mass
    # restore original ordering of the kept axes
    order = np.argsort(np.argsort(axes))
    m = np.transpose(m, order) if m.ndim > 1 else m
    if m.ndim == 1:
        return FinitePmf(m)
    return JointPmf(m)


def _validated_rows(rows, n_rows=None) -> np.ndarray:
    arr = np.asarray(rows, dtype=float)
    if arr.ndim != 2:
        raise ConfigError("conditional pmf must be a 2-D array (rows = conditioning symbol)")
    if n_rows is not None and arr.shape[0] != n_rows:
        raise ConfigError(f"expected {n_rows} conditional rows, got {arr.shape[0]}")
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise ConfigError("conditional rows must be finite and nonnegative")
    bad = np.abs(arr.sum(axis=1) - 1.0) > NORM_TOL
    if np.any(bad):
        raise ConfigError(f"conditional rows {np.flatnonzero(bad).tolist()} are not normalized")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class MarkovCoupling:
    """(Q_W, Q_{X|W}, Q_{Y|W}): a joint over (W, X, Y) in which X and Y are
    conditionally independent given W by construction."""

    q_w: FinitePmf
    q_x_given_w: np.ndarray
    q_y_given_w: np.ndarray

    def __post_init__(self):
        nw = self.q_w.alphabet_size
        object.__setattr__(self, "q_x_given_w", _validated_rows(self.q_x_given_w, nw))
        object.__setattr__(self, "q_y_given_w", _validated_rows(self.q_y_given_w, nw))

    @property
    def nw(self) -> int:
        return self.q_w.alphabet_size

    @property
    def nx(self) -> int:
        return self.q_x_given_w.shape[1]

    @property
    def ny(self) -> int:
        return self.q_y_given_w.shape[1]

    def xy_marginal(self) -> JointPmf:
        """Induced joint of (X, Y)."""
        m = np.einsum("w,wx,wy->xy", self.q_w.mass, self.q_x_given_w, self.q_y_given_w)
        return JointPmf(m / m.sum())


def induced_joint(c: MarkovCoupling) -> JointPmf:
    """Q(w,x,y) = Q_W(w) Q_{X|W}(x|w) Q_{Y|W}(y|w)."""
    m = np.einsum("w,wx,wy->wxy", c.q_w.mass, c.q_x_given_w, c.q_y_given_w)
    total = m.sum()
    return JointPmf(m / total)


def coupling_information(c: MarkovCoupling) -> float:
    """I(XY;W) in nats of the joint a coupling induces."""
    return mutual_information_mass(induced_joint(c).mass.reshape(c.nw, -1))


def copy_coupling(pi: JointPmf) -> MarkovCoupling:
    """W = (X, Y): always feasible for the Wyner problem, with I(XY;W) = H(XY)."""
    if pi.ndim != 2:
        raise ConfigError("copy_coupling needs a 2-axis joint")
    nx, ny = pi.dims
    q_w = FinitePmf(pi.mass.reshape(-1) / pi.mass.sum())
    qx = np.zeros((nx * ny, nx))
    qy = np.zeros((nx * ny, ny))
    for w in range(nx * ny):
        qx[w, w // ny] = 1.0
        qy[w, w % ny] = 1.0
    return MarkovCoupling(q_w, qx, qy)


def mutual_information(joint: JointPmf) -> float:
    """I(A;B) in nats for a 2-axis joint, with 0 log 0 = 0."""
    if joint.ndim != 2:
        raise ConfigError("mutual_information needs a 2-axis joint")
    return mutual_information_mass(joint.mass)


def mutual_information_mass(p: np.ndarray) -> float:
    """I(A;B) in nats of a 2-axis mass array taken as it is: unvalidated,
    for callers that already hold a joint pmf's floats."""
    pa = p.sum(axis=1)
    pb = p.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = p / np.outer(pa, pb)
    val = float(xlogy(p, np.where(p > 0, ratio, 1.0)).sum())
    return max(val, 0.0)


def log_product_mass(p: FinitePmf, seq) -> float:
    """log of the i.i.d. product probability of a symbol sequence; -inf when
    any symbol has zero mass."""
    seq = np.asarray(seq, dtype=int)
    if seq.size == 0:
        return 0.0
    if np.any(seq < 0) or np.any(seq >= p.alphabet_size):
        raise ConfigError("sequence symbol out of alphabet range")
    m = p.mass[seq]
    if np.any(m == 0):
        return -np.inf
    return float(np.log(m).sum())


@dataclass(frozen=True)
class SequenceType:
    """Type (empirical count vector) of a length-n sequence."""

    n: int
    counts: np.ndarray = field(compare=False)

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=int)
        if np.any(counts < 0) or counts.sum() != self.n:
            raise ConfigError("counts must be nonnegative and sum to n")
        counts = counts.copy()
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @classmethod
    def of_sequence(cls, seq, alphabet_size: int) -> "SequenceType":
        seq = np.asarray(seq, dtype=int)
        return cls(int(seq.size), np.bincount(seq, minlength=alphabet_size))

    def empirical(self) -> FinitePmf:
        return FinitePmf(self.counts / self.n)


# ---------------------------------------------------------------------------
# Plain-text serialization: one row per conditioning symbol, whitespace
# separated decimal probabilities.  A pmf is a single row; a 2-axis joint has
# one row per first-axis symbol.
# ---------------------------------------------------------------------------

def dump_text(obj) -> str:
    if isinstance(obj, FinitePmf):
        rows = [obj.mass]
    elif isinstance(obj, JointPmf):
        if obj.ndim != 2:
            raise ConfigError("text format supports pmfs and 2-axis joints")
        rows = list(obj.mass)
    else:
        raise ConfigError(f"cannot serialize {type(obj).__name__}")
    return "\n".join(" ".join(format(v, ".17g") for v in row) for row in rows) + "\n"


def _parse_rows(text: str) -> np.ndarray:
    rows = []
    for lineno, line in enumerate(io.StringIO(text), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        try:
            rows.append([float(tok) for tok in stripped.split()])
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from exc
    if not rows:
        raise ConfigError("no numeric rows found")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ConfigError("rows have inconsistent widths")
    return np.asarray(rows, dtype=float)


def load_pmf_text(text: str) -> FinitePmf:
    arr = _parse_rows(text)
    if arr.shape[0] != 1:
        raise ConfigError("expected a single row for a pmf")
    return FinitePmf(arr[0])


def load_joint_text(text: str) -> JointPmf:
    return JointPmf(_parse_rows(text))
