import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minmaxot as m

from oracles import (
    closed_form_1d_z,
    closed_form_gaussian_z,
    dense_cost_matrix,
    dense_kernel_pass,
    tilted_mutual_information,
)


def zero_cost():
    zero = lambda x, y: np.zeros(len(np.atleast_2d(x)))
    zgrad = lambda x, y: np.zeros_like(np.atleast_2d(x), dtype=float)
    return m.CostFunction(evaluate=zero, grad_x=zgrad, grad_y=zgrad, name="zero")


@pytest.fixture(scope="module")
def line_pair():
    mu = m.make_gaussian([0.0], [[0.01]])
    nu = m.make_gaussian([0.15], [[0.01]])
    return mu, nu


@pytest.fixture(scope="module")
def line_evaluator(line_pair, cost):
    mu, nu = line_pair
    return m.ResponseEvaluator(mu, nu, cost, quad_nodes_per_dim=120)


def test_zero_cost_degenerates(line_pair):
    mu, nu = line_pair
    ev = m.ResponseEvaluator(mu, nu, zero_cost(), quad_nodes_per_dim=80)
    assert ev.partition_function(0.3) == pytest.approx(1.0, abs=1e-6)
    assert ev.partition_given_x(0.3, np.array([0.05])) == pytest.approx(1.0, abs=1e-6)
    assert ev.marginal_kl_sum(0.3) == pytest.approx(0.0, abs=1e-6)
    assert ev.marginal_kl_sum_derivative(0.3) == pytest.approx(0.0, abs=1e-6)
    assert ev.best_response_energy(0.3) == pytest.approx(0.0, abs=1e-6)
    # with zero cost the tilted measure is mu x nu and its marginal is mu
    x = np.array([[0.02], [0.1]])
    assert np.allclose(ev.best_response_marginal_x(0.3, x), mu.density_at(x), rtol=1e-5)
    trace = ev.solve_penalty_ode(0.5, 3.0, 0.5)
    assert np.allclose(trace[:, 1], 0.5, atol=1e-9)


def test_partition_function_matches_1d_closed_form(line_evaluator):
    for lam in (0.01, 0.1, 1.0, 10.0):
        z = line_evaluator.partition_function(lam)
        zc = closed_form_1d_z(0.0, 0.01, 0.15, 0.01, lam)
        assert abs(z - zc) / zc <= 1e-6
        assert 0.0 < z <= 1.0


def test_partition_given_x_closed_form(line_evaluator):
    lam = 0.1
    for x in (0.0, 0.1, -0.2):
        z1 = line_evaluator.partition_given_x(lam, np.array([x]))
        expected = (1 + 2 * 0.01 / lam) ** -0.5 * np.exp(-((x - 0.15) ** 2) / (lam + 2 * 0.01))
        assert z1 == pytest.approx(expected, rel=1e-6)


def test_fubini_consistency(line_evaluator):
    # integral of Z1 against mu equals Z on the shared grid
    lam = 0.25
    z1 = line_evaluator.partition_given_x(lam, line_evaluator.nodes_x)
    z = line_evaluator.partition_function(lam)
    assert float(line_evaluator.w_mu @ z1) == pytest.approx(z, rel=1e-10)
    z2 = line_evaluator.partition_given_y(lam, line_evaluator.nodes_y)
    assert float(line_evaluator.w_nu @ z2) == pytest.approx(z, rel=1e-10)


def test_best_response_marginals_normalize_1d(line_evaluator):
    xs = np.linspace(-0.7, 0.7, 4001)[:, None]
    ys = np.linspace(-0.55, 0.85, 4001)[:, None]
    for lam in (0.01, 0.1, 1.0):
        bx = line_evaluator.best_response_marginal_x(lam, xs)
        by = line_evaluator.best_response_marginal_y(lam, ys)
        ix = np.trapezoid(bx, xs[:, 0])
        iy = np.trapezoid(by, ys[:, 0])
        assert abs(ix - 1.0) <= 1e-4
        assert abs(iy - 1.0) <= 1e-4


def test_best_response_marginals_normalize_2d(pair_evaluator):
    from oracles import tensor_grid_integral

    for lam in (0.01, 0.1, 1.0):
        total = tensor_grid_integral(
            lambda pts: pair_evaluator.best_response_marginal_x(lam, pts),
            pair_evaluator.quad_box_mu,
            200,
        )
        assert abs(total - 1.0) <= 1e-4


def test_partition_function_2d_closed_form(pair_evaluator):
    cov = 0.02 * np.eye(2)
    for lam in (0.01, 0.05, 0.06, 0.1, 1.0, 10.0):
        z = pair_evaluator.partition_function(lam)
        zc = closed_form_gaussian_z([0.4, 0.4], cov, [0.6, 0.6], cov, lam)
        assert z == pytest.approx(zc, rel=1e-6)
    # the tilt washes out at huge penalty weight
    assert pair_evaluator.partition_function(1e6) >= 1.0 - 1e-4


def test_kl_sum_upper_bound_and_decay(pair_evaluator):
    c_star = m.gaussian_w2_squared([0.4, 0.4], 0.02 * np.eye(2), [0.6, 0.6], 0.02 * np.eye(2))
    for lam in (0.05, 0.1, 1.0, 10.0):
        v = pair_evaluator.marginal_kl_sum(lam)
        assert 0.0 <= v <= c_star / lam
    assert pair_evaluator.marginal_kl_sum(1e6) <= 1e-4


@pytest.fixture(scope="module")
def cli_evaluator(gaussian_pair, cost):
    """The evaluator that ``validate-response`` builds by default (56 nodes)."""
    mu, nu = gaussian_pair
    return m.ResponseEvaluator(mu, nu, cost, quad_nodes_per_dim=56)


def xlogy_kl_sum(ev, lam):
    """V(lam) with z log z taken by scipy's xlogy on the evaluator's own pass."""
    from scipy.special import xlogy

    pas = ev._kernel_pass(lam)
    z1, z2 = pas["z1"], pas["z2"]
    z = float(ev.w_mu @ z1)
    t1 = float(ev.w_mu @ xlogy(z1, z1)) / z
    t2 = float(ev.w_nu @ xlogy(z2, z2)) / z
    return max(float(-2.0 * np.log(z)) + t1 + t2, 0.0)


@pytest.mark.parametrize("lam", [0.01, 0.05, 0.1, 0.5, 1.0, 5.0])
def test_kl_sum_z_log_z_matches_xlogy(cli_evaluator, lam):
    assert cli_evaluator.marginal_kl_sum(lam) == pytest.approx(
        xlogy_kl_sum(cli_evaluator, lam), rel=1e-13, abs=0
    )


def test_kl_sum_zero_partition_entry_contributes_zero(cli_evaluator):
    # at this weight Z1 and Z2 underflow to exactly 0 at the far corner nodes
    lam = 1e-4
    pas = cli_evaluator._kernel_pass(lam)
    assert np.any(pas["z1"] == 0.0) and np.any(pas["z2"] == 0.0)
    v = cli_evaluator.marginal_kl_sum(lam)
    assert np.isfinite(v)
    assert v == pytest.approx(xlogy_kl_sum(cli_evaluator, lam), rel=1e-13, abs=0)


def test_kl_sum_derivative_matches_finite_differences(pair_evaluator):
    for lam in np.geomspace(1e-2, 1e2, 7):
        dv = pair_evaluator.marginal_kl_sum_derivative(lam)
        h = 1e-4 * lam
        fd = (
            pair_evaluator.marginal_kl_sum(lam + h) - pair_evaluator.marginal_kl_sum(lam - h)
        ) / (2 * h)
        assert dv == pytest.approx(fd, rel=1e-3, abs=1e-12)
    assert abs(pair_evaluator.marginal_kl_sum_derivative(1e6)) <= 1e-6


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the finite difference of -lam log Z differs from the marginal KL sum "
        "by the mutual information of the tilted measure, which is 20-45% of "
        "the KL sum on this pair; see the companion test for the exact defect"
    ),
)
def test_energy_derivative_equals_kl_sum_verbatim(pair_evaluator):
    for lam in (0.05, 0.5, 5.0):
        v = pair_evaluator.marginal_kl_sum(lam)
        h = 1e-4 * lam
        fd = (
            pair_evaluator.best_response_energy(lam + h)
            - pair_evaluator.best_response_energy(lam - h)
        ) / (2 * h)
        assert abs(fd - v) / v <= 1e-3


def test_energy_derivative_defect_is_tilted_information(pair_evaluator):
    # d(-lam log Z)/dlam = V + I(sigma): the defect equals the closed-form
    # mutual information of the tilted Gaussian, so the identity check fails
    # by exactly that amount and nothing else.
    for lam in (0.05, 0.1, 0.5, 1.0, 5.0):
        v = pair_evaluator.marginal_kl_sum(lam)
        h = 1e-4 * lam
        fd = (
            pair_evaluator.best_response_energy(lam + h)
            - pair_evaluator.best_response_energy(lam - h)
        ) / (2 * h)
        info = tilted_mutual_information(0.02, lam, dim=2)
        assert fd - v == pytest.approx(info, rel=2e-2)


def test_energy_derivative_identity_with_defect_term(pair_evaluator):
    # The covariance-free derivative -log Z - E_sigma[c]/lam matches the
    # finite difference of -lam log Z to quadrature precision.
    for lam in (0.05, 0.5, 5.0):
        z = pair_evaluator.partition_function(lam)
        analytic = -np.log(z) - pair_evaluator.tilted_cost_mean(lam) / lam
        h = 1e-4 * lam
        fd = (
            pair_evaluator.best_response_energy(lam + h)
            - pair_evaluator.best_response_energy(lam - h)
        ) / (2 * h)
        assert analytic == pytest.approx(fd, rel=1e-5)


def test_energy_upper_bound_boundary(pair_evaluator):
    # exp(-c*/lam) <= Z holds up to lam = 0.05 and fails from lam = 0.06 on
    c_star = 0.08
    for lam in (0.01, 0.02, 0.03, 0.04, 0.05):
        assert np.exp(-c_star / lam) <= pair_evaluator.partition_function(lam)
    for lam in (0.06, 0.08, 0.1, 1.0):
        assert np.exp(-c_star / lam) > pair_evaluator.partition_function(lam)


def test_product_of_marginals_is_not_the_tilted_density(pair_evaluator):
    # the product form only matches where Z1(x) Z2(y) ~ Z, not at generic probes
    lam = 0.1
    x = np.array([0.45, 0.35])
    y = np.array([0.55, 0.65])
    z = pair_evaluator.partition_function(lam)
    b1b2 = pair_evaluator.best_response_marginal_x(lam, x) * pair_evaluator.best_response_marginal_y(lam, y)
    c = float(pair_evaluator.cost.evaluate(x[None, :], y[None, :])[0])
    sigma = (
        np.exp(-c / lam)
        * pair_evaluator.mu.density_at(x)
        * pair_evaluator.nu.density_at(y)
        / z
    )
    assert abs(b1b2 - sigma) / sigma > 1e-3


@pytest.fixture(scope="module")
def ode_evaluator(gaussian_pair, cost):
    mu, nu = gaussian_pair
    return m.ResponseEvaluator(mu, nu, cost, quad_nodes_per_dim=32)


def test_penalty_ode_growth_and_decay(ode_evaluator):
    trace = ode_evaluator.solve_penalty_ode(0.1, 20.0, 0.25)
    lam = trace[:, 1]
    assert np.all(np.diff(lam) >= 0.0)
    bound = np.sqrt(2.0 * (0.08 * trace[:, 0] + 0.1**2 / 2.0))
    assert np.all(lam <= bound + 1e-12)
    assert trace[-1, 2] < trace[0, 2]


def test_penalty_ode_step_halving(ode_evaluator):
    # dt small enough that the integrator is in its fourth-order regime
    a = ode_evaluator.solve_penalty_ode(0.1, 5.0, 0.1)
    b = ode_evaluator.solve_penalty_ode(0.1, 5.0, 0.05)
    assert abs(a[-1, 1] - b[-1, 1]) / b[-1, 1] <= 1e-6


def test_evaluator_validation(line_pair, cost):
    mu, nu = line_pair
    emp = m.make_empirical(np.random.default_rng(0).normal(size=(10, 1)))
    with pytest.raises(ValueError):
        m.ResponseEvaluator(emp, nu, cost)
    with pytest.raises(ValueError):
        m.ResponseEvaluator(mu, nu, cost, quad_nodes_per_dim=1)
    ev = m.ResponseEvaluator(mu, nu, cost, quad_nodes_per_dim=16)
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="penalty weight must be finite and positive"):
            ev.partition_function(bad)
        with pytest.raises(ValueError):
            ev.marginal_kl_sum(bad)
    with pytest.raises(ValueError):
        ev.solve_penalty_ode(0.1, 1.0, 0.0)


def test_penalty_ode_horizon_must_be_whole_steps(line_pair, cost):
    mu, nu = line_pair
    ev = m.ResponseEvaluator(mu, nu, cost, quad_nodes_per_dim=16)
    for t_end, dt in ((2.6, 0.25), (-1.0, 0.25)):
        with pytest.raises(ValueError, match="horizon"):
            ev.solve_penalty_ode(0.1, t_end, dt)
    for t_end, dt, steps in ((5.0, 0.1, 50), (100.0, 0.25, 400)):
        trace = ev.solve_penalty_ode(0.1, t_end, dt)
        assert len(trace) == steps + 1
        assert trace[-1, 0] == pytest.approx(t_end, rel=1e-12)


def euclidean_cost():
    def evaluate(x, y):
        return np.sqrt(((np.atleast_2d(x) - np.atleast_2d(y)) ** 2).sum(axis=1))

    return m.CostFunction(evaluate=evaluate, grad_x=None, grad_y=None, name="euclidean")


def test_cost_not_a_sum_over_axes_is_rejected(gaussian_pair):
    mu, nu = gaussian_pair
    with pytest.raises(ValueError, match="sum over axes"):
        m.ResponseEvaluator(mu, nu, euclidean_cost(), quad_nodes_per_dim=8)


def test_marginals_of_different_dimension_are_rejected(line_pair, gaussian_pair, cost):
    with pytest.raises(ValueError, match="same dimension"):
        m.ResponseEvaluator(line_pair[0], gaussian_pair[1], cost, quad_nodes_per_dim=8)


def shifted_cost(shift):
    """Asymmetric sum over axes: sum_a (x_a - y_a - shift)^2."""

    def evaluate(x, y):
        return ((np.atleast_2d(x) - np.atleast_2d(y) - shift) ** 2).sum(axis=1)

    return m.CostFunction(evaluate=evaluate, grad_x=None, grad_y=None, name="shifted")


@st.composite
def factored_cases(draw):
    dim = draw(st.integers(1, 2))
    unit = st.floats(0.0, 1.0)

    def box():
        low = np.array([draw(st.floats(-0.5, 0.5)) for _ in range(dim)])
        return m.Box(low, low + [draw(st.floats(0.05, 1.0)) for _ in range(dim)])

    box_x, box_y = box(), box()
    lam = 10.0 ** draw(st.floats(-2.0, 2.0))
    nodes = draw(st.integers(2, 12))
    frac = np.array([[draw(unit) for _ in range(dim)] for _ in range(3)])
    shift = draw(st.sampled_from([0.0, 0.2]))
    return box_x, box_y, lam, nodes, frac, shift


@settings(max_examples=60, deadline=None)
@given(factored_cases())
def test_factored_kernel_matches_dense_reference(case):
    box_x, box_y, lam, nodes, frac, shift = case

    def centered(box):
        # the quadrature runs over the support box, here the drawn box itself
        center = 0.5 * (box.low + box.high)
        gaussian = m.make_gaussian(center, np.diag((box.widths / 4.0) ** 2))
        return dataclasses.replace(gaussian, support_box=box)

    cost = m.quadratic_cost() if shift == 0.0 else shifted_cost(shift)
    ev = m.ResponseEvaluator(centered(box_x), centered(box_y), cost, quad_nodes_per_dim=nodes)
    got = ev._kernel_pass(lam, with_cost_moments=True)
    ref = dense_kernel_pass(cost, ev.nodes_x, ev.nodes_y, ev.w_mu, ev.w_nu, lam)
    for key in ("z1", "z2", "ec", "ec_row", "ec_col"):
        np.testing.assert_allclose(got[key], ref[key], rtol=1e-10, atol=0, err_msg=key)

    # off-grid query points inside each box
    xs = box_x.low + frac * box_x.widths
    ys = box_y.low + frac[::-1] * box_y.widths
    z1 = np.exp(-dense_cost_matrix(cost, xs, ev.nodes_y) / lam) @ ev.w_nu
    z2 = ev.w_mu @ np.exp(-dense_cost_matrix(cost, ev.nodes_x, ys) / lam)
    np.testing.assert_allclose(ev.partition_given_x(lam, xs), z1, rtol=1e-10, atol=0)
    np.testing.assert_allclose(ev.partition_given_y(lam, ys), z2, rtol=1e-10, atol=0)
