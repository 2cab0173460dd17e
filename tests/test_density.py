import numpy as np
import pytest

import minmaxot as m
from minmaxot.density import grid_centers

from oracles import central_fd_gradient


def unit_box():
    return m.Box(np.zeros(2), np.ones(2))


class ConstantDensity:
    """Stub reference with a constant density."""

    def __init__(self, value):
        self.value = value

    def density_at(self, x):
        return np.full(len(np.atleast_2d(x)), self.value)


class AnalyticStandIn:
    """Duck-typed histogram substitute backed by a smooth density."""

    def __init__(self, density, widths, floor=1e-10):
        self._density = density
        self.bin_widths = np.asarray(widths, dtype=float)
        self.floor_eps = floor

    def density_at(self, x):
        return self._density(np.atleast_2d(x))


class FixedSignRng:
    """rng stub whose integer draws produce a chosen finite-difference side."""

    def __init__(self, bit):
        self.bit = bit

    def integers(self, low, high, size=None):
        return np.full(size, self.bit, dtype=np.int64)


def test_fit_histogram_uniform_occupancy():
    pts = np.array([[0.25, 0.25], [0.25, 0.75], [0.75, 0.25], [0.75, 0.75]])
    h = m.fit_histogram(pts, unit_box(), 2)
    assert np.allclose(h.values, 1.0)
    assert h.binned_fraction == 1.0


def test_fit_histogram_single_cell_mass():
    pts = np.full((6, 2), 0.1)
    h = m.fit_histogram(pts, unit_box(), 2)
    assert h.density_at(np.array([0.1, 0.1])) == pytest.approx(4.0)
    assert h.density_at(np.array([0.9, 0.9])) == h.floor_eps


def test_fit_histogram_uniform_concentration():
    # binomial 3-sigma: sqrt(p(1-p)/n) / (p * cell volume) ~ 0.031 per cell
    rng = np.random.default_rng(123)
    pts = rng.random((100_000, 2))
    h = m.fit_histogram(pts, unit_box(), 10)
    assert np.abs(h.values - 1.0).max() <= 0.1


def test_fit_histogram_validation():
    with pytest.raises(ValueError):
        m.fit_histogram(np.empty((0, 2)), unit_box(), 4)
    with pytest.raises(ValueError):
        m.fit_histogram(np.zeros((3, 2)), unit_box(), 4000)  # bin budget
    with pytest.raises(ValueError):
        m.fit_histogram(np.zeros((3, 3)), unit_box(), 4)  # dim mismatch


def test_density_at_lookup_conventions():
    rng = np.random.default_rng(0)
    h = m.fit_histogram(rng.random((500, 2)), unit_box(), 4)
    centers = h.bin_centers()
    assert h.density_at(centers[5]) == h.values[5]
    # outside the box
    assert h.density_at(np.array([2.0, 2.0])) == h.floor_eps
    # piecewise constant within one bin
    a = h.density_at(np.array([0.30, 0.30]))
    b = h.density_at(np.array([0.49, 0.26]))
    assert a == b


def test_mass_conservation_exact():
    rng = np.random.default_rng(1)
    pts = rng.normal(0.5, 0.5, (2000, 2))  # some points leave the unit box
    h = m.fit_histogram(pts, unit_box(), 8)
    inside = unit_box().contains(pts).sum()
    assert h.counts.sum() == inside
    assert h.binned_fraction == inside / len(pts)


def test_refinement_keeps_binned_fraction():
    rng = np.random.default_rng(2)
    pts = rng.normal(0.5, 0.4, (3000, 2))
    box = unit_box()
    for b in (4, 8, 16, 32):
        assert m.fit_histogram(pts, box, b).binned_fraction == m.fit_histogram(
            pts, box, 2 * b
        ).binned_fraction


def test_grad_log_ratio_zero_for_matching_uniforms():
    # flat histogram against a flat reference: difference of equal values
    h = m.fit_histogram(grid_centers(unit_box(), 4), unit_box(), 4)
    ref = ConstantDensity(1.0)
    # probes whose one-bin stencils stay inside the box
    g = m.grad_log_ratio_forward(h, ref, np.array([[0.4, 0.4], [0.6, 0.5]]),
                                 np.random.default_rng(0))
    assert np.allclose(g, 0.0)


def test_sign_average_equals_central_difference():
    rng = np.random.default_rng(4)
    h = m.fit_histogram(rng.normal(0.5, 0.2, (5000, 2)), unit_box(), 8)
    ref = ConstantDensity(1.0)
    x = np.array([[0.45, 0.55]])
    g_plus = m.grad_log_ratio_forward(h, ref, x, FixedSignRng(1))
    g_minus = m.grad_log_ratio_forward(h, ref, x, FixedSignRng(0))
    w = h.bin_widths
    for a in range(2):
        step = np.zeros(2)
        step[a] = w[a]
        f = lambda z: np.log(h.density_at(z) / 1.0)
        central = (f(x[0] + step) - f(x[0] - step)) / (2 * w[a])
        assert 0.5 * (g_plus[0, a] + g_minus[0, a]) == pytest.approx(central, rel=1e-12)


def test_forward_self_ratio_gradient_is_small():
    # histogram fitted from samples of the reference itself: mean drift ~ 0
    marg = m.make_gaussian([0.0, 0.0], 0.02 * np.eye(2))
    rng = np.random.default_rng(42)
    pts = marg.sample(100_000, rng)
    box = m.Box(pts.min(axis=0), pts.max(axis=0)).padded(0.05)
    h = m.fit_histogram(pts, box, 50)
    probes = marg.sample(100, rng)
    g = m.grad_log_ratio_forward(h, marg, probes, rng)
    assert np.linalg.norm(g.mean(axis=0)) <= 0.5


def test_reverse_self_ratio_gradient_is_small():
    # The ratio field -ref/h is heavy-tailed where stencil neighbors hold no
    # data (floored cells), so the zero-drift check probes the covered bulk.
    marg = m.make_gaussian([0.0, 0.0], 0.02 * np.eye(2))
    rng = np.random.default_rng(45)
    pts = marg.sample(100_000, rng)
    box = m.Box(pts.min(axis=0), pts.max(axis=0)).padded(0.05)
    h = m.fit_histogram(pts, box, 50)
    probes = marg.sample(2000, rng)
    probes = probes[np.linalg.norm(probes, axis=1) < 2 * np.sqrt(0.02)][:500]
    g = m.grad_log_ratio_reverse(h, marg, probes, rng)
    assert np.linalg.norm(g.mean(axis=0)) <= 0.5


def test_reverse_gradient_finite_when_reference_vanishes():
    rng = np.random.default_rng(5)
    h = m.fit_histogram(rng.random((1000, 2)), unit_box(), 4)
    far = m.make_gaussian([50.0, 50.0], np.eye(2))  # density ~ 0 on the unit box
    g = m.grad_log_ratio_reverse(h, far, np.array([[0.5, 0.5]]), rng)
    assert np.all(np.isfinite(g))


@pytest.mark.parametrize("variant", ["forward", "reverse"])
def test_one_sided_differences_track_smooth_fields(variant):
    # analytic densities in place of the histogram: error shrinks with the step
    p = lambda pts: np.exp(-((pts - 0.2) ** 2).sum(axis=1) / 0.8 + 0.3 * np.sin(2 * pts[:, 0]))
    q = lambda pts: np.exp(-((pts + 0.1) ** 2).sum(axis=1) / 1.2)
    ref = type("Ref", (), {"density_at": staticmethod(q)})()
    x = np.array([0.3, -0.2])

    if variant == "forward":
        field = lambda z: np.log(p(np.atleast_2d(z))[0] / q(np.atleast_2d(z))[0])
        estimate = m.grad_log_ratio_forward
    else:
        field = lambda z: -q(np.atleast_2d(z))[0] / p(np.atleast_2d(z))[0]
        estimate = m.grad_log_ratio_reverse

    exact = central_fd_gradient(field, x, 1e-7)
    errors = []
    for w in (0.1, 0.05):
        stand_in = AnalyticStandIn(p, [w, w])
        g = 0.5 * (
            estimate(stand_in, ref, x, FixedSignRng(1))
            + estimate(stand_in, ref, x, FixedSignRng(0))
        )
        # second-order Taylor remainder bound for the averaged stencil
        curvature = np.array(
            [abs(field(x + 2 * dx) - 2 * field(x) + field(x - 2 * dx)) / (2 * w) ** 2
             for dx in (np.array([w, 0.0]), np.array([0.0, w]))]
        )
        err = np.abs(g - exact)
        assert np.all(err <= np.maximum(curvature, 1.0) * w), (variant, w, err)
        errors.append(np.linalg.norm(err))
    assert errors[1] <= 0.5 * errors[0] + 1e-8


def test_kl_estimate_of_itself_is_zero():
    rng = np.random.default_rng(6)
    h = m.fit_histogram(rng.random((2000, 2)), unit_box(), 8)
    assert m.kl_estimate(h, h) == 0.0


def test_kl_estimate_sampled_gaussian_bias():
    marg = m.make_gaussian([0.0, 0.0], 0.02 * np.eye(2))
    rng = np.random.default_rng(7)
    pts = marg.sample(100_000, rng)
    box = m.Box(pts.min(axis=0), pts.max(axis=0)).padded(0.05)
    h = m.fit_histogram(pts, box, 50)
    assert m.kl_estimate(h, marg) <= 0.15


def test_kl_estimate_matches_gaussian_closed_form():
    # deterministic "histogram" of N(0, I) via large integer counts
    box = m.Box(-6 * np.ones(2), 6 * np.ones(2))
    b = 50
    centers = grid_centers(box, b)
    p = m.make_gaussian([0.0, 0.0], np.eye(2))
    q = m.make_gaussian([0.6, 0.8], np.eye(2))
    cell = (12.0 / b) ** 2
    counts = np.round(p.density_at(centers) * cell * 1e12).astype(np.int64)
    h = m.HistogramDensity(box=box, bins_per_dim=b, counts=counts, total=int(counts.sum()))
    expected = m.gaussian_kl([0.0, 0.0], np.eye(2), [0.6, 0.8], np.eye(2))
    assert expected == pytest.approx(0.5)
    assert m.kl_estimate(h, q) == pytest.approx(expected, rel=0.05)


def test_l2_error_conventions():
    rng = np.random.default_rng(8)
    h = m.fit_histogram(rng.random((2000, 2)), unit_box(), 8)
    assert m.l2_error(h, h) == 0.0

    # disjointly supported uniforms on a shared domain: integral of p^2 + q^2
    box = m.Box(np.array([0.0, 0.0]), np.array([2.0, 1.0]))
    left_centers = np.array([[0.5, 0.25], [0.5, 0.75]])
    left = np.repeat(left_centers, 1000, axis=0)  # exactly uniform on [0,1]x[0,1]
    h_left = m.fit_histogram(left, box, 2)

    class RightHalfUniform:
        def density_at(self, x):
            x = np.atleast_2d(x)
            return np.where(x[:, 0] >= 1.0, 1.0, 0.0)

    val = m.l2_error(h_left, RightHalfUniform())
    assert val == pytest.approx(2.0, rel=1e-6)


def test_kl_reverse_estimate_percell():
    rng = np.random.default_rng(10)
    h = m.fit_histogram(rng.random((3000, 2)), unit_box(), 4)
    ref = ConstantDensity(1.0)
    assert m.kl_estimate_reverse(h, ref) >= 0.0
    # reversed KL of the histogram against itself vanishes
    assert m.kl_estimate_reverse(h, h) == 0.0
