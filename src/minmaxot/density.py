"""Voxel (binning) density estimation and the divergence estimators built on it.

The histogram is the workhorse density view of a particle cloud: counts over a
regular grid, normalized by the total point count and cell volume, floored at
a small positive value so logarithms stay finite. A fit costs one linear pass
over the points plus one pass over the bins.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import Box

MAX_TOTAL_BINS = 10_000_000


def _flat_index(box: Box, bins_per_dim: int, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat cell index of each point on the regular grid over ``box`` (C
    order), and whether the point lies in the box. Out-of-box points get the
    index of the nearest edge cell."""
    b = bins_per_dim
    scaled = (pts - box.low) / (box.widths / b)
    inside = np.all((scaled >= 0.0) & (scaled <= b), axis=1)
    idx = scaled.astype(np.int64)  # floor for in-box points
    np.clip(idx, 0, b - 1, out=idx)
    flat = idx[:, 0]
    for a in range(1, box.dim):
        flat = flat * b + idx[:, a]
    return flat, inside


@dataclass(frozen=True)
class HistogramDensity:
    """Piecewise-constant density on a regular grid over ``box``.

    The value on an occupied cell is count / (total * cell_volume); cells
    below the floor, and any query outside the box, report ``floor_eps``.
    ``total`` counts all points offered to the fit, including those that fell
    outside the box.
    """

    box: Box
    bins_per_dim: int
    counts: np.ndarray  # flat, length bins_per_dim ** dim
    total: int
    values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64).ravel()
        expected = self.bins_per_dim**self.box.dim
        if counts.size != expected:
            raise ValueError(f"counts must have {expected} entries, got {counts.size}")
        if self.total < 1:
            raise ValueError("total must be >= 1")
        if self.total < counts.sum():
            raise ValueError("total must be at least the number of binned points")
        object.__setattr__(self, "counts", counts)
        values = counts / (self.total * self.cell_volume)
        np.maximum(values, self.floor_eps, out=values)
        object.__setattr__(self, "values", values)

    @property
    def dim(self) -> int:
        return self.box.dim

    @property
    def bin_widths(self) -> np.ndarray:
        return self.box.widths / self.bins_per_dim

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.bin_widths))

    @property
    def floor_eps(self) -> float:
        # Contributes at most 1e-10 mass per bin while keeping logs finite.
        return 1e-10 / self.cell_volume

    @property
    def binned_fraction(self) -> float:
        return float(self.counts.sum()) / self.total

    def density_at(self, x):
        """Histogram value at x; floor_eps outside the box. Accepts (d,) or (n, d)."""
        pts = np.asarray(x, dtype=float)
        single = pts.ndim == 1
        if single:
            pts = pts[None, :]
        flat, inside = _flat_index(self.box, self.bins_per_dim, pts)
        out = np.full(len(pts), self.floor_eps)
        out[inside] = self.values[flat[inside]]
        return float(out[0]) if single else out

    def bin_centers(self) -> np.ndarray:
        """Cell centers as an (n_bins, d) array in flat-index order."""
        return grid_centers(self.box, self.bins_per_dim)


def grid_centers(box: Box, bins_per_dim: int) -> np.ndarray:
    """Cell centers of a regular grid over ``box``, in flat-index order."""
    widths = box.widths / bins_per_dim
    axes = [
        box.low[a] + (np.arange(bins_per_dim) + 0.5) * widths[a]
        for a in range(box.dim)
    ]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([g.ravel() for g in grids])


def fit_histogram(points, box: Box, bins_per_dim: int) -> HistogramDensity:
    """Count points into a regular grid over ``box``.

    Points outside the box are dropped from the counts but still included in
    the total, so the histogram integrates to the binned fraction.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] == 0:
        raise ValueError("cannot fit a histogram to an empty point list")
    if pts.shape[1] != box.dim:
        raise ValueError(f"points have dim {pts.shape[1]}, box has dim {box.dim}")
    if bins_per_dim < 2:
        raise ValueError("bins_per_dim must be >= 2")
    n_bins = bins_per_dim**box.dim
    if n_bins > MAX_TOTAL_BINS:
        raise ValueError(
            f"grid of {n_bins} bins exceeds the {MAX_TOTAL_BINS} bin budget"
        )
    flat, inside = _flat_index(box, bins_per_dim, pts)
    counts = np.bincount(flat[inside], minlength=n_bins)
    return HistogramDensity(box=box, bins_per_dim=bins_per_dim, counts=counts, total=len(pts))


def _ref_density(ref, pts: np.ndarray, floor: float) -> np.ndarray:
    """Reference density values floored for safe logarithms and ratios."""
    vals = ref.density_at(pts)
    return np.maximum(np.atleast_1d(vals), floor)


def _same_grid(h: HistogramDensity, ref) -> bool:
    return (
        isinstance(ref, HistogramDensity)
        and ref.bins_per_dim == h.bins_per_dim
        and np.array_equal(ref.box.low, h.box.low)
        and np.array_equal(ref.box.high, h.box.high)
    )


def _pair_values(h: HistogramDensity, ref, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Histogram and floored reference values at pts, sharing one index pass
    when both live on the same grid."""
    if _same_grid(h, ref):
        flat, inside = _flat_index(h.box, h.bins_per_dim, pts)
        hv = np.full(len(pts), h.floor_eps)
        rv = np.full(len(pts), max(ref.floor_eps, h.floor_eps))
        sel = flat[inside]
        hv[inside] = h.values[sel]
        rv[inside] = np.maximum(ref.values[sel], h.floor_eps)
        return hv, rv
    return h.density_at(pts), _ref_density(ref, pts, h.floor_eps)


def _one_sided_grad(h: HistogramDensity, f, x, rng) -> np.ndarray:
    """Random left/right one-bin differences of f, per coordinate.

    For each coordinate i a sign s_i in {+1, -1} is drawn uniformly and the
    estimate is s_i * (f(x + s_i w_i e_i) - f(x)) / w_i with w_i the bin
    width. The histogram is constant inside a cell, so sub-bin steps would
    see no variation at all. All stencil points are evaluated in one batch.
    """
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    n, d = pts.shape
    widths = h.bin_widths
    signs = rng.integers(0, 2, size=(n, d)) * 2 - 1
    stacked = np.tile(pts, (d + 1, 1))
    for a in range(d):
        block = stacked[(a + 1) * n : (a + 2) * n]
        block[:, a] += signs[:, a] * widths[a]
    vals = f(stacked)
    f0 = vals[:n]
    grad = np.empty((n, d))
    for a in range(d):
        grad[:, a] = signs[:, a] * (vals[(a + 1) * n : (a + 2) * n] - f0) / widths[a]
    return grad


def grad_log_ratio_forward(h: HistogramDensity, ref, x, rng) -> np.ndarray:
    """Stochastic finite-difference estimate of grad log(h / ref) at x.

    ``ref`` is anything exposing ``density_at`` (an analytic marginal or a
    histogram fitted on the same box). This is the drift field of the
    divergence penalty that integrates the flowing density against the log
    ratio. Accepts a single point (d,) or a batch (n, d).
    """
    single = np.asarray(x).ndim == 1

    def f(pts):
        hv, rv = _pair_values(h, ref, pts)
        return np.log(hv / rv)

    g = _one_sided_grad(h, f, x, rng)
    return g[0] if single else g


def grad_log_ratio_reverse(h: HistogramDensity, ref, x, rng) -> np.ndarray:
    """Stochastic finite-difference drift for the reversed divergence.

    The first variation of the reversed penalty (reference against flowing
    density) with respect to the density is -ref/h, so the same one-sided
    differencing is applied to f(z) = -ref(z) / h(z).
    """
    single = np.asarray(x).ndim == 1

    def f(pts):
        hv, rv = _pair_values(h, ref, pts)
        return -rv / hv

    g = _one_sided_grad(h, f, x, rng)
    return g[0] if single else g


def _ref_at_centers(h: HistogramDensity, ref) -> np.ndarray:
    return _ref_density(ref, h.bin_centers(), h.floor_eps)


def kl_estimate(p_hist: HistogramDensity, ref, ref_center_values: np.ndarray | None = None) -> float:
    """Plug-in KL divergence of the histogram against a reference density.

    Midpoint rule on the histogram grid: sum over occupied bins of
    p log(p / q) * cell_volume with q the reference at the bin center,
    floored; clamped below at 0. ``ref_center_values`` may carry precomputed
    reference values at ``p_hist.bin_centers()``.
    """
    q = _ref_at_centers(p_hist, ref) if ref_center_values is None else ref_center_values
    p = p_hist.values
    occupied = p > p_hist.floor_eps
    kl = float(np.sum(p[occupied] * np.log(p[occupied] / q[occupied])) * p_hist.cell_volume)
    return max(kl, 0.0)


def kl_estimate_reverse(p_hist: HistogramDensity, ref, ref_center_values: np.ndarray | None = None) -> float:
    """Plug-in KL of the reference against the histogram, on the same grid."""
    q = _ref_at_centers(p_hist, ref) if ref_center_values is None else ref_center_values
    p = p_hist.values
    kl = float(np.sum(q * np.log(q / p)) * p_hist.cell_volume)
    return max(kl, 0.0)


def l2_error(p_hist: HistogramDensity, ref, ref_center_values: np.ndarray | None = None) -> float:
    """Squared L2 distance between the histogram and the reference at bin centers."""
    q = _ref_at_centers(p_hist, ref) if ref_center_values is None else ref_center_values
    return float(np.sum((p_hist.values - q) ** 2) * p_hist.cell_volume)
