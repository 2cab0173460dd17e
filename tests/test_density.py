import numpy as np
import pytest

import minmaxot as m
from minmaxot.density import MAX_TOTAL_BINS, bin_points, reference_at_centers, side_bits


def unit_box():
    return m.Box(np.zeros(2), np.ones(2))


def unit_grid(b):
    return m.Grid(unit_box(), b)


class ConstantDensity:
    """Stub reference with a constant density."""

    def __init__(self, value):
        self.value = value

    def density_at(self, x):
        return np.full(len(np.atleast_2d(x)), self.value)


class FixedSignRng:
    """rng stub whose integer draws produce a chosen finite-difference side."""

    def __init__(self, bit):
        self.bit = bit

    def integers(self, low, high, size=None):
        return np.full(size, self.bit, dtype=np.int64)


def test_fit_histogram_uniform_occupancy():
    pts = np.array([[0.25, 0.25], [0.25, 0.75], [0.75, 0.25], [0.75, 0.75]])
    h = m.fit_histogram(pts, unit_grid(2))
    assert np.allclose(h.values, 1.0)
    assert h.binned_fraction == 1.0


def test_fit_histogram_single_cell_mass():
    pts = np.full((6, 2), 0.1)
    h = m.fit_histogram(pts, unit_grid(2))
    inside, outside = h.density_at(np.array([[0.1, 0.1], [0.9, 0.9]]))
    assert inside == pytest.approx(4.0)
    assert outside == h.grid.floor_eps


def test_fit_histogram_uniform_concentration():
    # binomial 3-sigma: sqrt(p(1-p)/n) / (p * cell volume) ~ 0.031 per cell
    rng = np.random.default_rng(123)
    pts = rng.random((100_000, 2))
    h = m.fit_histogram(pts, unit_grid(10))
    assert np.abs(h.values - 1.0).max() <= 0.1


def test_fit_histogram_validation():
    with pytest.raises(ValueError):
        m.fit_histogram(np.empty((0, 2)), unit_grid(4))
    with pytest.raises(ValueError):
        m.fit_histogram(np.zeros((3, 3)), unit_grid(4))  # dim mismatch


def test_grid_checks_its_shape_once():
    with pytest.raises(ValueError, match="bins_per_dim must be >= 2"):
        unit_grid(1)
    with pytest.raises(ValueError, match="bins_per_dim must be >= 2"):
        m.Grid(m.Box([0.0], [1.0]), 0)
    with pytest.raises(ValueError, match=f"grid of 16000000 bins exceeds the {MAX_TOTAL_BINS}"):
        unit_grid(4000)
    # the budget counts cells over every axis
    m.Grid(m.Box([0.0], [1.0]), MAX_TOTAL_BINS)
    with pytest.raises(ValueError, match="bin budget"):
        m.Grid(m.Box([0.0], [1.0]), MAX_TOTAL_BINS + 1)
    grid = m.Grid(m.Box([0.0, -1.0], [1.0, 3.0]), 4)
    assert grid.n_cells == 16
    assert grid.bin_widths.tolist() == [0.25, 1.0]
    assert grid.cell_volume == 0.25
    assert grid.floor_eps == 1e-10 / 0.25
    assert grid.centers()[:2].tolist() == [[0.125, -0.5], [0.125, 0.5]]


def test_grids_compare_by_value_and_histograms_by_identity():
    grid = unit_grid(4)
    assert grid == m.Grid(m.Box([0.0, 0.0], [1.0, 1.0]), 4)
    assert grid != unit_grid(5)
    assert grid != m.Grid(m.Box([0.0, 0.0], [1.0, 2.0]), 4)
    pts = np.random.default_rng(12).random((100, 2))
    h = m.fit_histogram(pts, grid)
    assert h == h
    assert h != m.fit_histogram(pts, grid)
    assert h.box is grid.box


def test_equal_grids_hash_alike():
    grid = unit_grid(4)
    same = m.Grid(m.Box([-0.0, 0.0], [1.0, 1.0]), 4)
    assert hash(same) == hash(grid)
    keyed = {grid: "a", same: "b"}
    assert keyed == {grid: "b"}
    keyed[m.Grid(m.Box([0.0, 0.0], [1.0, 2.0]), 4)] = "c"
    keyed[unit_grid(5)] = "d"
    assert len(keyed) == 3


def test_density_at_lookup_conventions():
    rng = np.random.default_rng(0)
    h = m.fit_histogram(rng.random((500, 2)), unit_grid(4))
    centers = h.grid.centers()
    assert h.density_at(centers[5:6])[0] == h.values[5]
    # outside the box
    assert h.density_at(np.array([[2.0, 2.0]]))[0] == h.grid.floor_eps
    # piecewise constant within one bin
    a, b = h.density_at(np.array([[0.30, 0.30], [0.49, 0.26]]))
    assert a == b


def test_mass_conservation_exact():
    rng = np.random.default_rng(1)
    pts = rng.normal(0.5, 0.5, (2000, 2))  # some points leave the unit box
    h = m.fit_histogram(pts, unit_grid(8))
    inside = np.all((pts >= 0.0) & (pts <= 1.0), axis=1).sum()
    assert h.counts.sum() == inside
    assert h.binned_fraction == inside / len(pts)


def test_refinement_keeps_binned_fraction():
    rng = np.random.default_rng(2)
    pts = rng.normal(0.5, 0.4, (3000, 2))
    box = unit_box()
    for b in (4, 8, 16, 32):
        assert m.fit_histogram(pts, m.Grid(box, b)).binned_fraction == m.fit_histogram(
            pts, m.Grid(box, 2 * b)
        ).binned_fraction


def uniform_fit(box, b, per_cell):
    """Histogram with ``per_cell`` points at every cell center: exactly
    uniform over the box."""
    grid = m.Grid(box, b)
    return m.fit_histogram(np.repeat(grid.centers(), per_cell, axis=0), grid)


def drift(variant, h, ref, x, rng):
    """The drift at x with its sides drawn from ``rng`` as the flow's are."""
    estimate = m.grad_log_ratio_forward if variant == "forward" else m.grad_log_ratio_reverse
    up = rng.integers(0, 2, size=np.shape(x))
    return estimate(h, ref, x, up, bin_points(h.grid, x))


def test_grad_log_ratio_zero_for_matching_uniforms():
    # flat histogram against a flat reference: difference of equal values
    h = uniform_fit(unit_box(), 4, 1)
    ref = uniform_fit(unit_box(), 4, 3)
    # probes whose one-bin stencils stay inside the box
    g = drift("forward", h, ref, np.array([[0.4, 0.4], [0.6, 0.5]]), np.random.default_rng(0))
    assert np.allclose(g, 0.0)


def test_sign_average_equals_central_difference():
    rng = np.random.default_rng(4)
    h = m.fit_histogram(rng.normal(0.5, 0.2, (5000, 2)), unit_grid(8))
    ref = uniform_fit(unit_box(), 8, 2)
    assert np.all(ref.values == 1.0)
    x = np.array([[0.45, 0.55]])
    g_plus = drift("forward", h, ref, x, FixedSignRng(1))
    g_minus = drift("forward", h, ref, x, FixedSignRng(0))
    w = h.grid.bin_widths
    for a in range(2):
        step = np.zeros(2)
        step[a] = w[a]
        f = lambda z: np.log(h.density_at(z)[0] / 1.0)
        central = (f(x + step) - f(x - step)) / (2 * w[a])
        assert 0.5 * (g_plus[0, a] + g_minus[0, a]) == pytest.approx(central, rel=1e-12)


def test_upper_face_reads_inward_difference():
    # a particle clamped to the upper face lies in the last cell; a downward
    # draw differences it against the cell below, not against itself
    rng = np.random.default_rng(8)
    b = 4
    h = m.fit_histogram(rng.normal([0.7, 0.4], 0.2, (3000, 2)), unit_grid(b))
    ref = uniform_fit(unit_box(), b, 2)
    f = np.log(h.values / ref.values).reshape(b, b)
    w = h.grid.bin_widths
    x = np.array([[1.0, 0.4], [0.6, 1.0]])
    g = drift("forward", h, ref, x, FixedSignRng(0))
    assert g[0, 0] == pytest.approx((f[b - 1, 1] - f[b - 2, 1]) / w[0], rel=1e-12)
    assert g[1, 1] == pytest.approx((f[2, b - 1] - f[2, b - 2]) / w[1], rel=1e-12)
    assert g[0, 0] != 0.0 and g[1, 1] != 0.0


@pytest.mark.parametrize("variant", ["forward", "reverse"])
def test_points_outside_the_box_read_zero(variant):
    rng = np.random.default_rng(9)
    h = m.fit_histogram(rng.normal(0.5, 0.2, (2000, 2)), unit_grid(6))
    ref = m.fit_histogram(rng.normal(0.5, 0.3, (2000, 2)), unit_grid(6))
    x = np.array([[1.5, 0.5], [-0.2, 0.3], [0.5, 2.0], [1.0 + 1e-12, 1.0], [-3.0, -3.0]])
    for bit in (0, 1):
        g = drift(variant, h, ref, x, FixedSignRng(bit))
        assert g.tobytes() == np.zeros_like(g).tobytes()  # +0.0, not -0.0


@pytest.mark.parametrize("shape", [(10000, 2), (7, 1), (13, 3), (1, 1), (5, 3), (0, 2)])
def test_side_bits_equal_two_integer_draws(shape):
    """``side_bits`` gives the bits of two ``integers(0, 2)`` draws from a
    fresh generator and leaves it where they leave it, so the normal draws
    that follow are the same; odd ``n * d`` included."""
    for seed in range(200):
        expected_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = [expected_rng.integers(0, 2, size=shape) for _ in range(2)]
        got = side_bits(got_rng, shape)
        assert got.shape == (2, *shape)
        assert np.array_equal(got[0], expected[0]) and np.array_equal(got[1], expected[1])
        # the whole state dict also holds the stale buffered half-word, which
        # the generator ignores while has_uint32 is 0
        want, have = expected_rng.bit_generator.state, got_rng.bit_generator.state
        assert have["state"] == want["state"]
        assert have["has_uint32"] == want["has_uint32"]
        after = got_rng.standard_normal(shape)
        assert after.tobytes() == expected_rng.standard_normal(shape).tobytes()


def test_points_of_another_dimension_are_rejected():
    rng = np.random.default_rng(10)
    h = m.fit_histogram(rng.random((500, 2)), unit_grid(4))
    with pytest.raises(ValueError, match=r"\(n, 2\) array, got shape \(2, 1\)"):
        h.density_at([[0.9], [0.1]])
    with pytest.raises(ValueError, match=r"\(n, 2\) array, got shape \(1, 3\)"):
        h.density_at([[0.1, 0.2, 0.3]])
    with pytest.raises(ValueError, match=r"\(n, 2\) array, got shape \(2, 1\)"):
        drift("forward", h, h, np.array([[0.9], [0.1]]), rng)
    # slots of 2-D points offered with 3-D points
    slots = bin_points(h.grid, np.full((2, 2), 0.5))
    with pytest.raises(ValueError, match="points have shape"):
        m.grad_log_ratio_reverse(h, h, np.full((2, 3), 0.5), np.zeros((2, 3), int), slots)
    # side bits of another shape than the points
    with pytest.raises(ValueError, match=r"side bits have shape \(2, 3\), expected \(2, 2\)"):
        m.grad_log_ratio_reverse(h, h, np.full((2, 2), 0.5), np.zeros((2, 3), int), slots)


def self_ratio_drift(variant, seed, n_probes):
    """Mean drift between two histograms fitted from independent samples of
    one Gaussian law, probed in the covered bulk (|x| < 2 sigma).

    The drift is then pure counting noise. A cell holding k points gives a
    log ratio with a relative error of about sqrt(2 / k), and the stencil
    divides the difference of two cells by a bin width. At 25 bins per axis a
    bulk cell holds several thousand of the 400k points, so over 40 seeds the
    mean forward drift over 100 probes read at most 0.19 (median 0.06) and
    the reverse one over 500 probes at most 0.08, well inside the 0.5 bound;
    at 50 bins and 100k points the forward one read 0.19 to 0.99 over 8 seeds
    (up to 5 without the bulk restriction). Outside the bulk a cell that is
    empty in one histogram and not in the other puts a floored ratio into
    the stencil, whose log is about 20 per bin width.
    """
    marg = m.make_gaussian([0.0, 0.0], 0.02 * np.eye(2))
    rng = np.random.default_rng(seed)
    pts = marg.sample(400_000, rng)
    box = m.Box.hull([pts], 0.05)
    h = m.fit_histogram(pts, m.Grid(box, 25))
    ref = m.fit_histogram(marg.sample(400_000, rng), m.Grid(box, 25))
    probes = marg.sample(2000, rng)
    probes = probes[np.linalg.norm(probes, axis=1) < 2 * np.sqrt(0.02)][:n_probes]
    return drift(variant, h, ref, probes, rng).mean(axis=0)


def test_forward_self_ratio_gradient_is_small():
    assert np.linalg.norm(self_ratio_drift("forward", 42, 100)) <= 0.5


def test_reverse_self_ratio_gradient_is_small():
    assert np.linalg.norm(self_ratio_drift("reverse", 45, 500)) <= 0.5


def test_reverse_gradient_finite_when_reference_vanishes():
    rng = np.random.default_rng(5)
    h = m.fit_histogram(rng.random((1000, 2)), unit_grid(4))
    # every reference point lies outside the box, so every cell sits at the floor
    far = m.fit_histogram(rng.random((1000, 2)) + 50.0, unit_grid(4))
    assert far.counts.sum() == 0
    g = drift("reverse", h, far, np.array([[0.5, 0.5]]), rng)
    assert np.all(np.isfinite(g))


def test_kl_estimate_of_itself_is_zero():
    rng = np.random.default_rng(6)
    h = m.fit_histogram(rng.random((2000, 2)), unit_grid(8))
    assert m.kl_estimate(h, reference_at_centers(h.grid, h)) == 0.0


def test_kl_estimate_sampled_gaussian_bias():
    marg = m.make_gaussian([0.0, 0.0], 0.02 * np.eye(2))
    rng = np.random.default_rng(7)
    pts = marg.sample(100_000, rng)
    box = m.Box.hull([pts], 0.05)
    h = m.fit_histogram(pts, m.Grid(box, 50))
    assert m.kl_estimate(h, reference_at_centers(h.grid, marg)) <= 0.15


def test_kl_estimate_matches_gaussian_closed_form():
    # deterministic "histogram" of N(0, I) via large integer counts
    box = m.Box(-6 * np.ones(2), 6 * np.ones(2))
    b = 50
    grid = m.Grid(box, b)
    centers = grid.centers()
    p = m.make_gaussian([0.0, 0.0], np.eye(2))
    q = m.make_gaussian([0.6, 0.8], np.eye(2))
    cell = (12.0 / b) ** 2
    counts = np.round(p.density_at(centers) * cell * 1e12).astype(np.int64)
    h = m.HistogramDensity(grid=grid, counts=counts, total=int(counts.sum()))
    expected = m.gaussian_kl([0.0, 0.0], np.eye(2), [0.6, 0.8], np.eye(2))
    assert expected == pytest.approx(0.5)
    assert m.kl_estimate(h, reference_at_centers(h.grid, q)) == pytest.approx(expected, rel=0.05)


def test_l2_error_conventions():
    rng = np.random.default_rng(8)
    h = m.fit_histogram(rng.random((2000, 2)), unit_grid(8))
    assert m.l2_error(h, reference_at_centers(h.grid, h)) == 0.0

    # disjointly supported uniforms on a shared domain: integral of p^2 + q^2
    box = m.Box(np.array([0.0, 0.0]), np.array([2.0, 1.0]))
    left_centers = np.array([[0.5, 0.25], [0.5, 0.75]])
    left = np.repeat(left_centers, 1000, axis=0)  # exactly uniform on [0,1]x[0,1]
    h_left = m.fit_histogram(left, m.Grid(box, 2))

    class RightHalfUniform:
        def density_at(self, x):
            x = np.atleast_2d(x)
            return np.where(x[:, 0] >= 1.0, 1.0, 0.0)

    val = m.l2_error(h_left, reference_at_centers(h_left.grid, RightHalfUniform()))
    assert val == pytest.approx(2.0, rel=1e-6)


def test_kl_reverse_estimate_percell():
    rng = np.random.default_rng(10)
    h = m.fit_histogram(rng.random((3000, 2)), unit_grid(4))
    ref = ConstantDensity(1.0)
    assert m.kl_estimate_reverse(h, reference_at_centers(h.grid, ref)) >= 0.0
    # reversed KL of the histogram against itself vanishes
    assert m.kl_estimate_reverse(h, reference_at_centers(h.grid, h)) == 0.0
