"""Finite probability primitives.

Pmfs, joint pmfs, Markov couplings through an auxiliary variable, and the
plain-text joint format that plans and ``commoninfo ci FILE`` read.  All values
are immutable after construction and every operation is pure.

Conventions: natural logarithm throughout, 0*log(0) = 0 and 0*log(0/0) = 0,
summations over the support of the left argument.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from .errors import ConfigError

#: Tolerance on probability normalization at construction time.  Inputs outside
#: this tolerance are rejected rather than silently renormalized.
NORM_TOL = 1e-12


def _validated_mass(mass, ndim: int) -> np.ndarray:
    arr = np.asarray(mass, dtype=float)
    if arr.ndim != ndim:
        raise ConfigError(f"mass must have {ndim} axes, got {arr.ndim}")
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
        object.__setattr__(self, "mass", _validated_mass(self.mass, 1))

    @property
    def alphabet_size(self) -> int:
        return self.mass.shape[0]

    def entropy(self) -> float:
        """Shannon entropy in nats."""
        return float(-xlogy(self.mass, self.mass).sum())


@dataclass(frozen=True)
class JointPmf:
    """Dense joint pmf of a pair (X, Y): a 2-axis mass, axis 0 for X."""

    mass: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mass", _validated_mass(self.mass, 2))

    @property
    def dims(self) -> tuple[int, int]:
        return self.mass.shape

    def entropy(self) -> float:
        return float(-xlogy(self.mass, self.mass).sum())


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


def induced_joint(c: MarkovCoupling) -> np.ndarray:
    """Q(w,x,y) = Q_W(w) Q_{X|W}(x|w) Q_{Y|W}(y|w), the (|W|, |X|, |Y|)
    array normalized to sum 1; its (X, Y) marginal is ``c.xy_marginal()``."""
    m = np.einsum("w,wx,wy->wxy", c.q_w.mass, c.q_x_given_w, c.q_y_given_w)
    return m / m.sum()


def coupling_information(c: MarkovCoupling) -> float:
    """I(XY;W) in nats of the joint a coupling induces."""
    return mutual_information_mass(induced_joint(c).reshape(c.nw, -1))


def mutual_information_mass(p: np.ndarray) -> float:
    """I(A;B) in nats of a 2-axis mass array, with 0 log 0 = 0.  The array
    is taken as it is, unvalidated: callers hold a joint pmf's floats."""
    pa = p.sum(axis=1)
    pb = p.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = p / np.outer(pa, pb)
    val = float(xlogy(p, np.where(p > 0, ratio, 1.0)).sum())
    return max(val, 0.0)


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


def load_joint_text(text: str) -> JointPmf:
    """A 2-axis joint from plain text: one row per first-axis symbol of
    whitespace-separated probabilities; ``#`` starts a comment."""
    return JointPmf(_parse_rows(text))
