import numpy as np
import pytest

import minmaxot as m

from minmaxot import model
from oracles import (
    central_fd_gradient,
    reference_mixture_sample,
    reference_ring_peak_sample,
    reference_ring_radial_constant,
    tensor_grid_integral,
)


def test_standard_normal_density_at_origin():
    for d in (1, 2):
        g = m.make_gaussian(np.zeros(d), np.eye(d))
        want = (2 * np.pi) ** (-d / 2)
        assert g.density_at(np.zeros((1, d)))[0] == pytest.approx(want, rel=1e-12)


def test_gaussian_rejects_bad_covariance():
    with pytest.raises(ValueError):
        m.make_gaussian([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])  # indefinite
    with pytest.raises(ValueError):
        m.make_gaussian([0.0, 0.0], [[1.0, 0.5], [0.0, 1.0]])  # asymmetric


def test_paper_pair_construction():
    g = m.make_gaussian([0.4, 0.4], 0.02 * np.eye(2))
    assert g.dim == 2
    assert np.all((g.support_box.low <= 0.4) & (0.4 <= g.support_box.high))
    # 6 sigma on each side
    assert g.support_box.low == pytest.approx(0.4 - 6 * np.sqrt(0.02))


@pytest.fixture(scope="module")
def analytic_marginals():
    four = [
        (0.25, m.make_gaussian([sx * 0.75, sy * 0.75], 0.02 * np.eye(2)))
        for sx in (-1.0, 1.0)
        for sy in (-1.0, 1.0)
    ]
    return {
        "gaussian": m.make_gaussian([0.4, 0.4], 0.02 * np.eye(2)),
        "mixture4": m.make_mixture(four),
        "ring_peak": m.make_ring_peak(),
    }


def test_analytic_marginals_integrate_to_one(analytic_marginals):
    for name, marg in analytic_marginals.items():
        total = tensor_grid_integral(marg.density_at, marg.support_box, 200)
        assert abs(total - 1.0) <= 1e-3, f"{name} integrates to {total}"


def test_mixture_single_component_degenerates():
    g = m.make_gaussian([0.2, -0.1], 0.05 * np.eye(2))
    mix = m.make_mixture([(1.0, g)])
    rng = np.random.default_rng(0)
    pts = rng.normal(0.0, 0.3, (10, 2))
    assert np.allclose(mix.density_at(pts), g.density_at(pts), rtol=1e-12)


def test_mixture_of_opposite_normals_is_even():
    a = m.make_gaussian([1.5], [[1.0]])
    b = m.make_gaussian([-1.5], [[1.0]])
    mix = m.make_mixture([(0.5, a), (0.5, b)])
    pts = np.linspace(-3.0, 3.0, 11)[:, None]
    assert np.allclose(mix.density_at(pts), mix.density_at(-pts), rtol=1e-12)


def test_mixture_validation():
    a = m.make_gaussian([0.0], [[1.0]])
    b = m.make_gaussian([0.0, 0.0], np.eye(2))
    with pytest.raises(ValueError):
        m.make_mixture([(0.5, a), (0.5, b)])  # dim mismatch
    with pytest.raises(ValueError):
        m.make_mixture([(0.7, a), (0.7, a)])  # weights not normalized
    with pytest.raises(ValueError):
        m.make_mixture([])


def test_ring_peak_rotation_invariance():
    ring = m.make_ring_peak()
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.normal(0.0, 0.8, (1, 2))
        theta = rng.random() * 2 * np.pi
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        assert ring.density_at(x @ rot.T)[0] == pytest.approx(ring.density_at(x)[0], rel=1e-10)


def test_ring_peak_dominant_center():
    ring = m.make_ring_peak(peak_weight=0.99, peak_std=0.02)
    center, on_ring = ring.density_at(np.array([[0.0, 0.0], [1.0, 0.0]]))
    assert center > on_ring


def test_ring_peak_parameter_validation():
    with pytest.raises(ValueError):
        m.make_ring_peak(ring_radius=-1.0)
    with pytest.raises(ValueError):
        m.make_ring_peak(peak_weight=1.0)


def test_ring_peak_sampler_matches_density():
    ring = m.make_ring_peak()
    rng = np.random.default_rng(11)
    pts = ring.sample(40_000, rng)
    radii = np.linalg.norm(pts, axis=1)
    # ring fraction carries ~70% of mass near radius 1
    near_ring = np.mean(np.abs(radii - 1.0) < 0.45)
    assert near_ring > 0.6
    # mean radius of the ring part, against direct radial quadrature
    ring_only = radii[radii > 0.55]
    us = np.linspace(0.55, 2.0, 4000)
    f = us * np.exp(-((us - 1.0) ** 2) / (2 * 0.15**2))
    expected = np.trapezoid(us * f, us) / np.trapezoid(f, us)
    assert ring_only.mean() == pytest.approx(expected, abs=0.01)


@pytest.mark.parametrize(
    "r, s", [(1.0, 0.15), (0.5, 0.3), (2.0, 0.1), (0.2, 0.5), (3.0, 0.05)]
)
def test_ring_radial_constant_matches_quadrature(r, s):
    got = model._ring_radial_constant(r, s)
    assert got == pytest.approx(reference_ring_radial_constant(r, s), rel=1e-12)


SAMPLE_SIZES = (1, 2, 7, 1000, 80_000)


def test_ring_peak_sampler_is_bitwise_the_mask_sampler():
    ring = m.make_ring_peak()
    sources = set()
    for n in SAMPLE_SIZES:
        for seed in range(5):
            got = ring.sample(n, np.random.default_rng(seed))
            want = reference_ring_peak_sample(n, np.random.default_rng(seed))
            assert got.tobytes() == want.tobytes(), (n, seed)
            sources.add(tuple(np.unique(np.random.default_rng(seed).random(n) < 0.3)))
    # some draws come wholly from the peak, some wholly from the ring
    assert {(True,), (False,)} <= sources


def test_mixture_sampler_is_bitwise_the_mask_sampler():
    parts = [
        (w, m.make_gaussian([sx * 0.85, sy * 0.85], 0.02 * np.eye(2)))
        for w, (sx, sy) in zip((0.1, 0.2, 0.3, 0.4), ((-1, -1), (-1, 1), (1, -1), (1, 1)))
    ]
    mix = m.make_mixture(parts)
    for n in SAMPLE_SIZES:
        for seed in range(5):
            got = mix.sample(n, np.random.default_rng(seed))
            want = reference_mixture_sample(parts, n, np.random.default_rng(seed))
            assert got.tobytes() == want.tobytes(), (n, seed)


def test_quadratic_cost_basics(cost):
    x = np.array([[1.0, 0.0]])
    y = np.array([[0.0, 0.0]])
    assert cost.evaluate(x, x)[0] == 0.0
    assert np.allclose(cost.grad_x(x, x), 0.0)
    assert np.allclose(cost.grad_y(x, x), 0.0)
    assert cost.evaluate(x, y)[0] == pytest.approx(1.0)
    assert np.allclose(cost.grad_x(x, y), [[2.0, 0.0]])


def test_quadratic_cost_gradients_match_fd(cost):
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = rng.normal(size=(1, 3))
        y = rng.normal(size=(1, 3))
        fx = central_fd_gradient(lambda z: cost.evaluate(z[None, :], y)[0], x[0], 1e-6)
        fy = central_fd_gradient(lambda z: cost.evaluate(x, z[None, :])[0], y[0], 1e-6)
        assert np.linalg.norm(cost.grad_x(x, y)[0] - fx) / np.linalg.norm(fx) <= 1e-6
        assert np.linalg.norm(cost.grad_y(x, y)[0] - fy) / np.linalg.norm(fy) <= 1e-6


@pytest.mark.parametrize("d", range(1, 11))
def test_quadratic_cost_evaluate_matches_row_sum(cost, d):
    # Columns of very different scales, so the order of the additions shows
    # in the last bits. numpy sums up to 7 terms in order and 8 or more
    # pairwise; below that the cost must be bitwise the row sum.
    rng = np.random.default_rng(d)
    scales = 10.0 ** rng.uniform(-3.0, 3.0, size=d)
    x = rng.normal(size=(2000, d)) * scales
    y = rng.normal(size=(2000, d)) * scales
    want = ((x - y) ** 2).sum(axis=1)
    got = cost.evaluate(x, y)
    if d <= 7:
        assert got.tobytes() == want.tobytes()
    else:
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


def test_gaussian_sampler_moments():
    g = m.make_gaussian([1.0, -2.0], np.diag([0.5, 2.0]))
    pts = g.sample(50_000, np.random.default_rng(2))
    assert np.allclose(pts.mean(axis=0), [1.0, -2.0], atol=0.03)
    assert np.allclose(pts.var(axis=0), [0.5, 2.0], rtol=0.05)


def test_empirical_marginal_and_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    samples = rng.normal(size=(50, 3))
    path = tmp_path / "pts.csv"
    np.savetxt(path, samples, delimiter=",")
    emp = m.load_empirical_csv(path)
    assert emp.kind == "empirical"
    assert emp.dim == 3
    assert np.allclose(emp.samples, samples)
    assert np.all((emp.support_box.low <= samples) & (samples <= emp.support_box.high))
    with pytest.raises(ValueError, match="no analytic density"):
        emp.density_at(samples[:1])
    drawn = emp.sample(10, np.random.default_rng(0))
    assert all(any(np.allclose(d, s) for s in samples) for d in drawn)


def test_empirical_validation():
    with pytest.raises(ValueError):
        m.make_empirical(np.zeros((1, 2)))
    with pytest.raises(ValueError):
        m.make_empirical(np.array([[0.0, np.inf], [1.0, 2.0]]))


def test_flow_config_validation():
    m.FlowConfig()  # defaults are valid
    for bad in (
        dict(n_pairs=0),
        dict(dt=0.0),
        dict(beta=-0.1),
        dict(beta=1.0),
        dict(lambda0=0.0),
        dict(bins_per_dim=1),
        dict(noise_std_coeff=-1.0),
        dict(eta_var=-1.0),
    ):
        with pytest.raises(ValueError):
            m.FlowConfig(**bad)
    with pytest.raises(ValueError, match="method must be one of I, II, III, got 'IV'"):
        m.FlowConfig(method="IV")
    with pytest.raises(ValueError, match="seed"):
        m.FlowConfig(seed=-1)
    assert m.FlowConfig(beta=0.0).beta == 0.0  # the fixed-penalty run


def test_method_table():
    # (mobile x family, mobile y family): the standard divergence on both,
    # the reversed one on both, the reversed one toward the source only
    assert m.METHOD_VARIANTS == {
        "I": ("forward", "forward"),
        "II": ("reverse", "reverse"),
        "III": ("reverse", "forward"),
    }


@pytest.mark.parametrize("name", ["dt", "lambda0", "noise_std_coeff", "eta_var"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_flow_config_rejects_non_finite(name, value):
    with pytest.raises(ValueError, match=name):
        m.FlowConfig(**{name: value})


def test_box_validation():
    with pytest.raises(ValueError):
        m.Box(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="non-empty"):
        m.Box(np.array([]), np.array([]))


def test_box_hull_pads_the_stacked_span():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(50, 2)), rng.normal(3.0, 1.0, size=(20, 2))
    box = m.Box.hull([a, b], 0.1)
    stacked = np.vstack([a, b])
    lo, hi = stacked.min(axis=0), stacked.max(axis=0)
    pad = 0.1 * (hi - lo)
    assert box.low.tobytes() == (lo - pad).tobytes()
    assert box.high.tobytes() == (hi + pad).tobytes()
    # coincident points: the span is floored, so the box still has extent
    point = m.Box.hull([np.full((3, 2), 0.5)], 0.05)
    assert np.array_equal(point.low, 0.5 - 0.05 * np.full(2, 1e-9))
    assert np.array_equal(point.high, 0.5 + 0.05 * np.full(2, 1e-9))
    # the support box of an empirical marginal is its samples' hull, padded 5%
    assert np.array_equal(m.make_empirical(a).support_box.low, m.Box.hull([a], 0.05).low)
