"""The shared-slot histogram pipeline against the reference pipeline in
``oracles``, which bins every query afresh and walks the drift's neighbour
cells one particle at a time. The two must agree bit for bit: slots, counts,
drifts, and a whole run of the particle flow."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minmaxot as m
from minmaxot.cli import ExperimentSpec, resolve_flow_config, scenario_marginals
from minmaxot.density import _neighbour_slots, bin_points, count_slots, histogram_from_cells

from oracles import (
    reference_counts,
    reference_density_at,
    reference_drift,
    reference_flat_index,
    reference_run,
)


@st.composite
def grids(draw):
    """A random box in 1-D to 3-D and a bin count from 2 to 30."""
    d = draw(st.integers(1, 3))
    low = np.array([draw(st.floats(-5.0, 5.0)) for _ in range(d)])
    width = np.array([draw(st.floats(0.05, 10.0)) for _ in range(d)])
    return m.Box(low, low + width), draw(st.integers(2, 30))


def probe_points(box, b, rng, n):
    """Points whose coordinates are, at random per axis: inside the box,
    outside it (up to one box width), exactly on the low or the high face,
    on an interior grid line, NaN, +inf or -inf."""
    d = box.dim
    u = rng.random((n, d))
    w = box.widths
    inside = box.low + u * w
    outside = np.where(u < 0.5, box.low - (0.5 - u) * 2 * w, box.high + (u - 0.5) * 2 * w)
    low = np.broadcast_to(box.low, (n, d))
    high = np.broadcast_to(box.high, (n, d))
    line = box.low + rng.integers(1, b, size=(n, d)) * (w / b)
    kind = rng.integers(0, 8, size=(n, d))
    return np.choose(kind, [inside, outside, low, high, line, np.nan, np.inf, -np.inf])


def clustered_fit(box, b, rng, n=300):
    """Histogram of points bunched in part of the box, so some cells are
    empty and sit at the floor."""
    centre = box.low + rng.random(box.dim) * box.widths
    pts = centre + 0.3 * box.widths * rng.standard_normal((n, box.dim))
    return m.fit_histogram(pts, box, b)


def references(box, b, rng):
    """A same-grid histogram, histograms with other bins or on a box with
    one other face, and an analytic Gaussian centred in the box."""
    centre = box.low + 0.5 * box.widths
    gaussian = m.make_gaussian(centre, np.diag((box.widths / 3.0) ** 2))
    return {
        "same_grid": clustered_fit(box, b, rng),
        "other_grid": clustered_fit(box, b + 1, rng),
        "lower_low": clustered_fit(m.Box(box.low - 0.1 * box.widths, box.high), b, rng),
        "higher_high": clustered_fit(m.Box(box.low, box.high + 0.1 * box.widths), b, rng),
        "analytic": gaussian,
    }


@settings(max_examples=150, deadline=None)
@given(grid=grids(), seed=st.integers(0, 2**32 - 1))
def test_bin_points_matches_reference_index(grid, seed):
    box, b = grid
    pts = probe_points(box, b, np.random.default_rng(seed), 60)
    slots = bin_points(box, b, pts)
    flat, inside = reference_flat_index(box, b, pts)
    assert slots.dtype == np.int64
    assert np.array_equal(slots, np.where(inside, flat, b**box.dim))
    h = clustered_fit(box, b, np.random.default_rng(seed + 1))
    assert h.density_at(pts).tobytes() == reference_density_at(h, pts).tobytes()


@settings(max_examples=150, deadline=None)
@given(
    grid=grids(),
    seed=st.integers(0, 2**32 - 1),
    variant=st.sampled_from(["forward", "reverse"]),
    ref_kind=st.sampled_from(
        ["same_grid", "other_grid", "lower_low", "higher_high", "analytic"]
    ),
)
def test_drift_matches_reference_stencil(grid, seed, variant, ref_kind):
    box, b = grid
    rng = np.random.default_rng(seed)
    x = probe_points(box, b, rng, 60)
    h = clustered_fit(box, b, rng)
    ref = references(box, b, rng)[ref_kind]
    drift = m.grad_log_ratio_forward if variant == "forward" else m.grad_log_ratio_reverse

    slots = bin_points(box, b, x)
    # the sides reference_drift draws from a generator seeded alike
    up = np.random.default_rng(seed).integers(0, 2, size=x.shape)
    if ref_kind != "same_grid":
        # the drift only differentiates against a histogram on h's grid
        with pytest.raises(ValueError, match="grid"):
            drift(h, ref, x, up, slots)
        return
    expected = reference_drift(h, ref, x, np.random.default_rng(seed), variant)
    got = drift(h, ref, x, up, slots)
    assert got.tobytes() == expected.tobytes()


@settings(max_examples=100, deadline=None)
@given(grid=grids(), seed=st.integers(0, 2**32 - 1))
def test_fit_from_cells_matches_pooled_fit(grid, seed):
    box, b = grid
    rng = np.random.default_rng(seed)
    frozen = probe_points(box, b, rng, 40)
    mobile = probe_points(box, b, rng, 40)
    pooled = np.vstack([frozen, mobile])
    fitted = m.fit_histogram(pooled, box, b)
    from_slots = histogram_from_cells(
        box, b, bin_points(box, b, frozen), bin_points(box, b, mobile)
    )
    assert np.array_equal(from_slots.counts, fitted.counts)
    assert np.array_equal(from_slots.counts, reference_counts(pooled, box, b))
    assert from_slots.total == fitted.total == len(pooled)
    assert from_slots.values.tobytes() == fitted.values.tobytes()


@settings(max_examples=100, deadline=None)
@given(grid=grids(), seed=st.integers(0, 2**32 - 1))
def test_counted_part_matches_pooled_fit(grid, seed):
    """A part counted once (``count_slots``) and passed as ``counted`` gives
    the histogram of the pooled points, as the run loop uses it."""
    box, b = grid
    rng = np.random.default_rng(seed)
    frozen = probe_points(box, b, rng, 40)
    mobile = probe_points(box, b, rng, 40)
    fitted = m.fit_histogram(np.vstack([frozen, mobile]), box, b)
    counted = count_slots(box, b, bin_points(box, b, frozen))
    from_counts = histogram_from_cells(box, b, bin_points(box, b, mobile), counted=counted)
    assert np.array_equal(from_counts.counts, fitted.counts)
    assert from_counts.total == fitted.total == 80
    assert from_counts.values.tobytes() == fitted.values.tobytes()


def test_grid_tables_are_read_only():
    """The arrays computed once per box, histogram or grid shape are shared
    by every later call, so none of them can be written."""
    box = m.Box(np.zeros(2), np.array([1.0, 2.0]))
    h = m.fit_histogram(np.random.default_rng(0).random((50, 2)), box, 4)
    slot_arrays = [arr for pair in _neighbour_slots(4, 2) for arr in pair]
    assert _neighbour_slots(4, 2) is _neighbour_slots(4, 2)
    assert h.cell_values() is h.cell_values()
    assert np.shares_memory(h.values, h.cell_values())
    assert h.cell_values()[-1] == h.floor_eps
    for arr in [h.values, h.cell_values(), h.bin_widths, box.widths, *slot_arrays]:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1


@pytest.mark.parametrize(
    "scenario,method",
    [("gaussian_pair", "I"), ("ring_to_mixture", "II"), ("gaussian_pair", "III")],
)
def test_run_matches_reference_loop(scenario, method, cost):
    flow = resolve_flow_config(scenario, {}, {"n_pairs": 1000, "steps": 30, "seed": 0})
    spec = ExperimentSpec(scenario=scenario, method=method, flow=flow, outputs="unused")
    mu, nu = scenario_marginals(spec)
    variant_x, variant_y = m.method_preset(method)
    cfg = dataclasses.replace(flow, kl_variant_x=variant_x, kl_variant_y=variant_y)

    traj = m.run(mu, nu, cost, cfg, recorder=m.TrajectoryRecorder(snapshot_steps=(cfg.steps,)))
    rows, (x1, y1, x2, y2, lam) = reference_run(mu, nu, cost, cfg)

    columns = ("t", "lam", "kl1", "kl2", "cost", "l2_mu", "l2_nu")
    for i, name in enumerate(columns):
        assert getattr(traj, name).tobytes() == rows[:, i].tobytes(), name
    final = traj.snapshots[cfg.steps]
    for name, want in (("x1", x1), ("y1", y1), ("x2", x2), ("y2", y2)):
        assert getattr(final, name).tobytes() == want.tobytes(), name
    assert final.lam == lam
