"""Every function that takes points takes an (n, d) array, one point per row,
and returns one value per row. A flat array, or a batch whose width differs
from the marginal's, the box's or the partner array's, raises ``ValueError``
naming the expected shape: in 1-D a flat list of n points is never read as
one n-dimensional point."""

from types import SimpleNamespace

import numpy as np
import pytest

import minmaxot as m

FLAT = [0.1, 0.2, 0.3]


@pytest.fixture(scope="module")
def line():
    """A 1-D marginal, its histogram, the quadratic cost and a 1-D evaluator."""
    mu = m.make_gaussian([0.0], [[0.01]])
    nu = m.make_gaussian([0.15], [[0.01]])
    cost = m.quadratic_cost()
    return SimpleNamespace(
        mu=mu,
        hist=m.fit_histogram(mu.sample(100, np.random.default_rng(0)), m.Grid(mu.support_box, 8)),
        cost=cost,
        ev=m.ResponseEvaluator(mu, nu, cost, quad_nodes_per_dim=16),
    )


FLAT_CALLS = {
    "Marginal.density_at": lambda s: s.mu.density_at(FLAT),
    "HistogramDensity.density_at": lambda s: s.hist.density_at(FLAT),
    "fit_histogram": lambda s: m.fit_histogram(FLAT, s.hist.grid),
    "make_empirical": lambda s: m.make_empirical(FLAT),
    "Box.hull": lambda s: m.Box.hull([FLAT], 0.1),
    "cost.evaluate": lambda s: s.cost.evaluate(FLAT, FLAT),
    "cost.grad_x": lambda s: s.cost.grad_x(FLAT, FLAT),
    "cost.grad_y": lambda s: s.cost.grad_y(FLAT, FLAT),
    "discrete_ot": lambda s: m.discrete_ot(FLAT, FLAT, s.cost),
    "partition_given_x": lambda s: s.ev.partition_given_x(1.0, FLAT),
    "partition_given_y": lambda s: s.ev.partition_given_y(1.0, FLAT),
    "best_response_marginal_x": lambda s: s.ev.best_response_marginal_x(1.0, FLAT),
    "best_response_marginal_y": lambda s: s.ev.best_response_marginal_y(1.0, FLAT),
}


@pytest.mark.parametrize("call", FLAT_CALLS)
def test_flat_array_is_rejected_in_1d(line, call):
    with pytest.raises(ValueError, match=r"\(n, [1d]\) array, got shape \(3,\)"):
        FLAT_CALLS[call](line)


def test_wrong_width_is_rejected(line, pair_evaluator):
    with pytest.raises(ValueError, match=r"\(n, 1\) array, got shape \(2, 3\)"):
        line.mu.density_at(np.zeros((2, 3)))
    for f in (line.cost.evaluate, line.cost.grad_x, line.cost.grad_y):
        with pytest.raises(ValueError, match=r"\(n, 2\) array, got shape \(2, 3\)"):
            f(np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(ValueError, match=r"\(n, 2\) array, got shape \(1, 3\)"):
        pair_evaluator.partition_given_x(0.1, np.zeros((1, 3)))
