import numpy as np
import pytest

import minmaxot as m

from oracles import brute_force_assignment


def test_w2_paper_pair_value():
    cov = 0.02 * np.eye(2)
    assert m.gaussian_w2_squared([0.4, 0.4], cov, [0.6, 0.6], cov) == pytest.approx(
        0.080, abs=1e-12
    )


def test_w2_identical_is_zero():
    cov = np.array([[2.0, 0.3], [0.3, 1.0]])
    assert m.gaussian_w2_squared([1.0, -1.0], cov, [1.0, -1.0], cov) == pytest.approx(
        0.0, abs=1e-12
    )


def test_w2_one_dimensional():
    # (m1 - m2)^2 + (s1 - s2)^2 for scalars
    assert m.gaussian_w2_squared([0.0], [[1.0]], [1.0], [[4.0]]) == pytest.approx(2.0)


def test_w2_symmetry_and_positivity():
    rng = np.random.default_rng(0)
    for _ in range(5):
        a = rng.normal(size=2)
        b = rng.normal(size=2)
        sa = rng.normal(size=(2, 2))
        sb = rng.normal(size=(2, 2))
        sa = sa @ sa.T + 0.1 * np.eye(2)
        sb = sb @ sb.T + 0.1 * np.eye(2)
        ab = m.gaussian_w2_squared(a, sa, b, sb)
        ba = m.gaussian_w2_squared(b, sb, a, sa)
        assert ab == pytest.approx(ba, rel=1e-9, abs=1e-12)
        assert ab > 1e-12  # strictly positive for distinct inputs


def test_w2_rejects_non_psd():
    with pytest.raises(ValueError):
        m.gaussian_w2_squared([0.0], [[-1.0]], [0.0], [[1.0]])


def test_gaussian_kl_basics():
    assert m.gaussian_kl([0.0], [[1.0]], [0.0], [[1.0]]) == 0.0
    me = np.array([0.6, 0.8])
    assert m.gaussian_kl(me, np.eye(2), [0.0, 0.0], np.eye(2)) == pytest.approx(0.5)
    a = m.gaussian_kl([0.0], [[1.0]], [0.0], [[4.0]])
    b = m.gaussian_kl([0.0], [[4.0]], [0.0], [[1.0]])
    assert a != b
    with pytest.raises(ValueError):
        m.gaussian_kl([0.0], [[0.0]], [0.0], [[1.0]])


def test_discrete_ot_identical_points(cost):
    pts = np.random.default_rng(1).normal(size=(6, 2))
    plan = m.discrete_ot(pts, pts, cost)
    assert plan.cost == 0.0


def test_discrete_ot_single_pair(cost):
    plan = m.discrete_ot(np.array([[0.0]]), np.array([[1.0]]), cost)
    assert plan.cost == pytest.approx(1.0)


def test_discrete_ot_matches_brute_force(cost):
    rng = np.random.default_rng(2)
    for _ in range(5):
        xs = rng.normal(size=(8, 2))
        ys = rng.normal(size=(8, 2))
        plan = m.discrete_ot(xs, ys, cost)
        cmat = np.array([cost.evaluate(np.broadcast_to(x, ys.shape), ys) for x in xs])
        best, _ = brute_force_assignment(cmat)
        assert plan.cost == best / 8


def test_discrete_ot_plan_invariants(cost):
    rng = np.random.default_rng(3)
    xs = rng.normal(size=(9, 2))
    ys = rng.normal(size=(9, 2))
    plan = m.discrete_ot(xs, ys, cost)
    # a bijection is a plan with uniform marginals; its cost is the mean pair cost
    assert np.array_equal(np.sort(plan.permutation), np.arange(9))
    paired = float(np.mean(cost.evaluate(xs, ys[plan.permutation])))
    assert plan.cost == pytest.approx(paired, rel=1e-12)
    # relabeling the inputs does not change the optimal value
    perm = rng.permutation(9)
    shuffled = m.discrete_ot(xs[perm], ys, cost)
    assert shuffled.cost == pytest.approx(plan.cost, rel=1e-12)


def test_discrete_ot_is_optimal_among_pairings(cost):
    rng = np.random.default_rng(4)
    xs = rng.normal(size=(16, 2))
    ys = rng.normal(size=(16, 2))
    plan = m.discrete_ot(xs, ys, cost)
    for _ in range(20):
        sigma = rng.permutation(16)
        paired = float(np.mean(cost.evaluate(xs, ys[sigma])))
        assert plan.cost <= paired + 1e-12


def test_discrete_ot_validation(cost):
    with pytest.raises(ValueError):
        m.discrete_ot(np.zeros((3, 2)), np.zeros((4, 2)), cost)
    with pytest.raises(ValueError):
        m.discrete_ot(np.zeros((513, 1)), np.zeros((513, 1)), cost)


def test_empirical_coupling_cost(cost):
    ps = m.ParticleSystem(
        x1=np.array([[0.0, 0.0]]),
        y1=np.array([[1.0, 0.0]]),
        x2=np.array([[0.0, 0.0]]),
        y2=np.array([[0.0, 0.0]]),
        lam=1.0,
    )
    assert m.empirical_coupling_cost(ps, cost) == pytest.approx(0.5)
    ps_same = m.ParticleSystem(
        x1=ps.x1, y1=ps.x1.copy(), x2=ps.x2, y2=ps.x2.copy(), lam=1.0
    )
    assert m.empirical_coupling_cost(ps_same, cost) == 0.0
