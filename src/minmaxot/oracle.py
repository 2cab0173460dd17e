"""Exact reference solvers: closed-form Gaussian transport and KL, exact
discrete optimal transport on small point sets, and the empirical coupling
cost of a particle system. These anchor the validation suite; nothing here
is approximate beyond floating point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import CostFunction, check_points

MAX_EXACT_POINTS = 512


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition, eigenvalues clamped at 0."""
    vals, vecs = np.linalg.eigh(mat)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def _check_symmetric(mat: np.ndarray, name: str) -> np.ndarray:
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    if not np.allclose(mat, mat.T, atol=1e-10):
        raise ValueError(f"{name} must be symmetric")
    return mat


def gaussian_w2_squared(m1, s1, m2, s2) -> float:
    """Squared quadratic-cost transport distance between two Gaussians.

    |m1 - m2|^2 + tr(S1 + S2 - 2 (S2^{1/2} S1 S2^{1/2})^{1/2}).
    """
    m1 = np.atleast_1d(np.asarray(m1, dtype=float))
    m2 = np.atleast_1d(np.asarray(m2, dtype=float))
    s1 = _check_symmetric(s1, "s1")
    s2 = _check_symmetric(s2, "s2")
    for name, s in (("s1", s1), ("s2", s2)):
        if np.linalg.eigvalsh(s).min() < -1e-12:
            raise ValueError(f"{name} must be positive semidefinite")
    root2 = _psd_sqrt(s2)
    cross = _psd_sqrt(root2 @ s1 @ root2)
    value = float(((m1 - m2) ** 2).sum() + np.trace(s1 + s2 - 2.0 * cross))
    return max(value, 0.0)


def gaussian_kl(m1, s1, m2, s2) -> float:
    """KL divergence of N(m1, S1) from N(m2, S2), in nats."""
    m1 = np.atleast_1d(np.asarray(m1, dtype=float))
    m2 = np.atleast_1d(np.asarray(m2, dtype=float))
    s1 = _check_symmetric(s1, "s1")
    s2 = _check_symmetric(s2, "s2")
    d = m1.size
    for name, s in (("s1", s1), ("s2", s2)):
        if np.linalg.eigvalsh(s).min() <= 0:
            raise ValueError(f"{name} must be positive definite")
    s2_inv = np.linalg.inv(s2)
    diff = m2 - m1
    _, logdet1 = np.linalg.slogdet(s1)
    _, logdet2 = np.linalg.slogdet(s2)
    value = 0.5 * (
        np.trace(s2_inv @ s1) + diff @ s2_inv @ diff - d + logdet2 - logdet1
    )
    return max(float(value), 0.0)


@dataclass(frozen=True)
class DiscretePlan:
    """Optimal coupling of two uniform empirical measures on n points each.

    The plan sends x_i to y_{permutation[i]} with mass 1/n; ``cost`` is the
    average transport cost (1/n) sum c(x_i, y_{perm(i)}).
    """

    cost: float
    permutation: np.ndarray


def discrete_ot(xs, ys, cost: CostFunction) -> DiscretePlan:
    """Exact optimal transport between uniform empirical measures.

    Solved as a linear assignment problem (an optimal plan over uniform
    marginals can be taken to be a permutation). Exact for n up to
    ``MAX_EXACT_POINTS``. scipy is imported on the first call: the rest of
    the package needs numpy only.
    """
    from scipy.optimize import linear_sum_assignment

    xs = check_points(xs)
    ys = check_points(ys, xs.shape[1])
    n = xs.shape[0]
    if ys.shape[0] != n:
        raise ValueError(f"point counts differ: {n} vs {ys.shape[0]}")
    if n > MAX_EXACT_POINTS:
        raise ValueError(f"n = {n} exceeds the exact-solver budget of {MAX_EXACT_POINTS}")

    cost_matrix = np.empty((n, n))
    for i in range(n):
        cost_matrix[i] = cost.evaluate(np.broadcast_to(xs[i], ys.shape), ys)
    rows, cols = linear_sum_assignment(cost_matrix)
    perm = np.empty(n, dtype=np.int64)
    perm[rows] = cols
    total = float(cost_matrix[np.arange(n), perm].sum() / n)
    return DiscretePlan(cost=total, permutation=perm)


def empirical_coupling_cost(ps, cost: CostFunction) -> float:
    """Average pair cost over both particle families of a particle system."""
    c1 = cost.evaluate(ps.x1, ps.y1)
    c2 = cost.evaluate(ps.x2, ps.y2)
    return float((np.sum(c1) + np.sum(c2)) / (len(ps.x1) + len(ps.x2)))
