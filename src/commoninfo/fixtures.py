"""Standard source fixtures used across experiments and tests."""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .probability import FinitePmf, JointPmf, MarkovCoupling


def dsbs(crossover: float) -> JointPmf:
    """Doubly symmetric binary source: X uniform, Y = X through a BSC."""
    if not 0.0 <= crossover <= 1.0:
        raise ConfigError("crossover must lie in [0, 1]")
    p = crossover
    return JointPmf(np.array([[(1 - p) / 2, p / 2], [p / 2, (1 - p) / 2]]))


def copy_source() -> JointPmf:
    """Mass 1/2 on (0,0) and (1,1); X and Y are identical fair bits."""
    return JointPmf(np.array([[0.5, 0.0], [0.0, 0.5]]))


def product_source(p: float = 0.3, q: float = 0.6) -> JointPmf:
    """Independent Bernoulli(p) and Bernoulli(q)."""
    px = np.array([1 - p, p])
    py = np.array([1 - q, q])
    return JointPmf(np.outer(px, py))


def dsbes(erasure: float) -> JointPmf:
    """Doubly symmetric binary erasure source: X a fair bit, Y = X erased
    (column 2) with probability ``erasure``."""
    if not 0.0 <= erasure <= 1.0:
        raise ConfigError("erasure must lie in [0, 1]")
    e = erasure
    return JointPmf(np.array([[(1 - e) / 2, 0.0, e / 2],
                              [0.0, (1 - e) / 2, e / 2]]))


def common_part_source(q: float = 0.6, p: float = 0.2) -> JointPmf:
    """3x3: mass 1-q on the cell (0, 0) and q DSBS(p) on {1, 2} x {1, 2},
    so that [X > 0] = [Y > 0] is a common part of X and Y."""
    if not 0.0 <= q <= 1.0:
        raise ConfigError("q must lie in [0, 1]")
    mass = np.zeros((3, 3))
    mass[0, 0] = 1.0 - q
    mass[1:, 1:] = q * dsbs(p).mass
    return JointPmf(mass)


def dsbs_optimal_coupling(crossover: float) -> MarkovCoupling:
    """The binary-W coupling achieving Wyner's minimum for a DSBS.

    W is a fair bit and X, Y are independent observations of W through
    BSC(a) with 2a(1-a) = crossover, i.e. a = (1 - sqrt(1 - 2*crossover))/2.
    """
    if not 0.0 <= crossover < 0.5:
        raise ConfigError("requires crossover in [0, 0.5)")
    a = (1.0 - math.sqrt(1.0 - 2.0 * crossover)) / 2.0
    rows = np.array([[1 - a, a], [a, 1 - a]])
    return MarkovCoupling(FinitePmf(np.array([0.5, 0.5])), rows, rows)


def copy_coupling_binary() -> MarkovCoupling:
    """W = X = Y copy coupling for the binary copy source."""
    rows = np.array([[1.0, 0.0], [0.0, 1.0]])
    return MarkovCoupling(FinitePmf(np.array([0.5, 0.5])), rows, rows)


def product_coupling(p: float = 0.3, q: float = 0.6) -> MarkovCoupling:
    """Degenerate W: X and Y drawn independently regardless of W."""
    return MarkovCoupling(
        FinitePmf(np.array([1.0])),
        np.array([[1 - p, p]]),
        np.array([[1 - q, q]]),
    )


NAMED_SOURCES = {
    "dsbs01": lambda: dsbs(0.1),
    "copy": copy_source,
    "product": product_source,
}

NAMED_COUPLINGS = {
    "dsbs01": lambda: dsbs_optimal_coupling(0.1),
    "copy": copy_coupling_binary,
    "product": product_coupling,
}


def _resolve(kind: str, table: dict, name: str):
    if name not in table:
        raise ConfigError(f"unknown {kind} fixture {name!r}; "
                          f"known: {sorted(table)}")
    return table[name]()


def resolve_source(name: str) -> JointPmf:
    return _resolve("source", NAMED_SOURCES, name)


def resolve_coupling(name: str) -> MarkovCoupling:
    return _resolve("coupling", NAMED_COUPLINGS, name)
