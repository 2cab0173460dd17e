"""Voxel (binning) density estimation and the divergence estimators built on it.

The histogram is the workhorse density view of a particle cloud: counts over a
regular grid, normalized by the total point count and cell volume, floored at
a small positive value so logarithms stay finite. A fit costs one linear pass
over the points plus one pass over the bins.

Every point is binned through ``bin_points``, which returns its per-axis cell
index and in-box flags. A fit is a ``bincount`` of those cells, and the
particle flow reuses them: the frozen families are binned once per run, the
mobile ones once per step, and the fit sums the counts of both.

The drift differentiates the penalty's first variation, log(h/ref) or
-ref/h, where h is the flowing histogram and ref a reference histogram on
the same grid. Both are piecewise constant on the same cells, so the field is
one table (one entry per cell plus an outside slot holding the floor value),
read at the cells of the particles and of their one-bin moves, re-binning
only the moved axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import Box

MAX_TOTAL_BINS = 10_000_000


@dataclass(frozen=True)
class GridCells:
    """Where points fall on the regular grid over a box.

    ``idx`` holds each point's per-axis cell index, clipped to the grid (an
    out-of-box coordinate gets its nearest edge cell), and ``inside`` the
    per-axis in-box flags; both are stored column by column, so one axis is
    contiguous. ``flat`` is the C-order flat cell of the clipped index;
    ``slot`` is ``flat`` for points in the box and ``bins ** dim`` (the
    outside slot of a per-cell table) for the rest.
    """

    bins_per_dim: int
    idx: np.ndarray  # (n, d) int64
    inside: np.ndarray  # (n, d) bool
    flat: np.ndarray  # (n,) int64
    slot: np.ndarray  # (n,) int64

    @property
    def n_cells(self) -> int:
        return self.bins_per_dim ** self.idx.shape[1]


def _bin_axis(coord: np.ndarray, low, step, bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Cell index along one axis of the coordinates ``coord`` (n,), on a grid
    of ``bins`` cells of width ``step`` starting at ``low``, clipped to the
    grid, and whether each coordinate lies on the grid (upper face included).
    """
    scaled = (coord - low) / step
    inside = (scaled >= 0.0) & (scaled <= bins)
    idx = scaled.astype(np.int64)  # floor for in-box points
    np.clip(idx, 0, bins - 1, out=idx)
    return idx, inside


def bin_points(box: Box, bins_per_dim: int, pts: np.ndarray) -> GridCells:
    """Cells of the regular grid over ``box`` that hold ``pts`` (n, d).

    A coordinate on the upper face counts as inside, in the last cell. This
    is the one binning routine: histogram lookup, fitting and the drift
    stencil all index through it.

    Each axis is binned on its own column: numpy arithmetic that broadcasts a
    (d,) vector over (n, d) runs a length-d inner loop per row, many times
    slower than the same operations on one column.
    """
    b = bins_per_dim
    n, d = pts.shape
    steps = box.widths / b
    idx = np.empty((d, n), dtype=np.int64).T
    inside = np.empty((d, n), dtype=bool).T
    for a in range(d):
        idx[:, a], inside[:, a] = _bin_axis(pts[:, a], box.low[a], steps[a], b)
    flat = idx[:, 0]
    in_box = inside[:, 0]
    for a in range(1, d):
        flat = flat * b + idx[:, a]
        in_box = in_box & inside[:, a]
    slot = np.where(in_box, flat, b**d)
    return GridCells(bins_per_dim=b, idx=idx, inside=inside, flat=flat, slot=slot)


def _shifted_slots(box: Box, cells: GridCells, axis: int, coord: np.ndarray) -> np.ndarray:
    """Table slots of the points of ``cells`` with coordinate ``axis`` moved
    to ``coord``. Only that axis is binned again, which is the same
    arithmetic as binning the moved points afresh."""
    b = cells.bins_per_dim
    moved, ok = _bin_axis(coord, box.low[axis], box.widths[axis] / b, b)
    for other in range(box.dim):
        if other != axis:
            ok &= cells.inside[:, other]
    stride = b ** (box.dim - 1 - axis)
    return np.where(ok, cells.flat + (moved - cells.idx[:, axis]) * stride, cells.n_cells)


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
        out = self.cell_values()[bin_points(self.box, self.bins_per_dim, pts).slot]
        return float(out[0]) if single else out

    def cell_values(self) -> np.ndarray:
        """Per-cell values with ``floor_eps`` appended as the outside slot, so
        a ``GridCells.slot`` indexes it directly."""
        return np.append(self.values, self.floor_eps)


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
    return histogram_from_cells(box, bins_per_dim, bin_points(box, bins_per_dim, pts))


def histogram_from_cells(box: Box, bins_per_dim: int, *cells: GridCells) -> HistogramDensity:
    """Histogram over ``box`` of the points binned in ``cells`` (one or more
    ``bin_points`` results on this grid, counted together).

    Fitting the pooled points and summing the counts of their parts give the
    same histogram, so parts that never move can be binned once and reused.
    """
    n_bins = bins_per_dim**box.dim
    counts = sum(np.bincount(c.slot, minlength=n_bins + 1)[:n_bins] for c in cells)
    total = sum(len(c.slot) for c in cells)
    return HistogramDensity(box=box, bins_per_dim=bins_per_dim, counts=counts, total=total)


def _check_same_grid(h: HistogramDensity, ref) -> None:
    if not (
        isinstance(ref, HistogramDensity)
        and ref.bins_per_dim == h.bins_per_dim
        and np.array_equal(ref.box.low, h.box.low)
        and np.array_equal(ref.box.high, h.box.high)
    ):
        raise ValueError("the drift's reference must be a histogram on h's grid")


def _one_sided_grad(
    h: HistogramDensity, ref: HistogramDensity, field, x, rng, cells: GridCells
) -> np.ndarray:
    """Random left/right one-bin differences of f = field(h, ref), per coordinate.

    For each coordinate i a sign s_i in {+1, -1} is drawn uniformly and the
    estimate is s_i * (f(x + s_i w_i e_i) - f(x)) / w_i with w_i the bin
    width. The histograms are constant inside a cell, so sub-bin steps would
    see no variation at all. f is one table over the cells plus the outside
    slot, read at the cells of x and at the cells of the moved points.
    """
    _check_same_grid(h, ref)
    pts = np.asarray(x, dtype=float)
    n, d = pts.shape
    widths = h.bin_widths
    signs = rng.integers(0, 2, size=(n, d)) * 2 - 1
    table = field(h.cell_values(), ref.cell_values())
    f0 = table[cells.slot]
    grad = np.empty((n, d))
    for a in range(d):
        moved = table[_shifted_slots(h.box, cells, a, pts[:, a] + signs[:, a] * widths[a])]
        grad[:, a] = signs[:, a] * (moved - f0) / widths[a]
    return grad


def _log_ratio(hv, rv):
    return np.log(hv / rv)


def _neg_ratio(hv, rv):
    return -rv / hv


def grad_log_ratio_forward(
    h: HistogramDensity, ref: HistogramDensity, x, rng, cells: GridCells
) -> np.ndarray:
    """Stochastic finite-difference estimate of grad log(h / ref) at the
    points x (n, d), whose cells are ``bin_points(h.box, h.bins_per_dim, x)``.

    ``ref`` must be a histogram on h's grid; anything else raises
    ``ValueError``. This is the drift field of the divergence penalty that
    integrates the flowing density against the log ratio.
    """
    return _one_sided_grad(h, ref, _log_ratio, x, rng, cells)


def grad_log_ratio_reverse(
    h: HistogramDensity, ref: HistogramDensity, x, rng, cells: GridCells
) -> np.ndarray:
    """Stochastic finite-difference drift for the reversed divergence.

    The first variation of the reversed penalty (reference against flowing
    density) with respect to the density is -ref/h, so the same one-sided
    differencing is applied to f = -ref / h. Arguments as for
    ``grad_log_ratio_forward``.
    """
    return _one_sided_grad(h, ref, _neg_ratio, x, rng, cells)


def reference_at_centers(h: HistogramDensity, ref) -> np.ndarray:
    """Values of ``ref`` (anything with ``density_at``) at the cell centers of
    h's grid, in flat-index order, floored at h's floor."""
    return np.maximum(ref.density_at(grid_centers(h.box, h.bins_per_dim)), h.floor_eps)


def kl_estimate(p_hist: HistogramDensity, ref, ref_center_values: np.ndarray | None = None) -> float:
    """Plug-in KL divergence of the histogram against a reference density.

    Midpoint rule on the histogram grid: sum over occupied bins of
    p log(p / q) * cell_volume with q the reference at the bin center,
    floored; clamped below at 0. ``ref_center_values`` may carry
    ``reference_at_centers(p_hist, ref)``, computed once.
    """
    q = reference_at_centers(p_hist, ref) if ref_center_values is None else ref_center_values
    p = p_hist.values
    occupied = p > p_hist.floor_eps
    kl = float(np.sum(p[occupied] * np.log(p[occupied] / q[occupied])) * p_hist.cell_volume)
    return max(kl, 0.0)


def kl_estimate_reverse(p_hist: HistogramDensity, ref, ref_center_values: np.ndarray | None = None) -> float:
    """Plug-in KL of the reference against the histogram, on the same grid."""
    q = reference_at_centers(p_hist, ref) if ref_center_values is None else ref_center_values
    p = p_hist.values
    kl = float(np.sum(q * np.log(q / p)) * p_hist.cell_volume)
    return max(kl, 0.0)


def l2_error(p_hist: HistogramDensity, ref, ref_center_values: np.ndarray | None = None) -> float:
    """Squared L2 distance between the histogram and the reference at bin centers."""
    q = reference_at_centers(p_hist, ref) if ref_center_values is None else ref_center_values
    return float(np.sum((p_hist.values - q) ** 2) * p_hist.cell_volume)
