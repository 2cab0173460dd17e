"""Voxel (binning) density estimation and the divergence estimators built on it.

The histogram is the workhorse density view of a particle cloud: counts over a
regular grid, normalized by the total point count and cell volume, floored at
a small positive value so logarithms stay finite. A fit costs one linear pass
over the points plus one pass over the bins.

The grid is one value, ``Grid(box, bins_per_dim)``, built once per marginal
of a run and shared by its histograms, binning, drift and diagnostics: it
checks the bin budget once and holds all the grid derives (bin widths, cell
volume, floor, cell count, centers, the drift's neighbour slots).

Every point is binned through ``bin_points``, which returns its table slot:
its flat cell, or one outside slot for points off the grid. A fit is a
``bincount`` of those slots, and the particle flow reuses them: the frozen
families are binned and counted once per run, the mobile ones binned once per
step, and the fit adds the mobile counts to the frozen ones.

The drift differentiates the penalty's first variation, log(h/ref) or
-ref/h, where h is the flowing histogram and ref a reference histogram on
the same grid. Both are piecewise constant on the same cells, so a one-bin
difference of the field depends only on the cell, the axis and the side.
Each step builds, per axis, one table of every cell's minus- and plus-side
differences from the grid's neighbour slots, and the drift reads it at the
particles' slots.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .model import Box, check_points

MAX_TOTAL_BINS = 10_000_000


@dataclass(frozen=True)
class Grid:
    """The regular grid of ``bins_per_dim`` cells per axis over ``box``. Its
    shape is checked and its other fields (``bin_widths`` read-only) computed
    once, at construction. Grids compare by box and bin count alone."""

    box: Box
    bins_per_dim: int
    bin_widths: np.ndarray = field(init=False, repr=False, compare=False)
    cell_volume: float = field(init=False, repr=False, compare=False)
    # Contributes at most 1e-10 mass per bin while keeping logs finite.
    floor_eps: float = field(init=False, repr=False, compare=False)
    n_cells: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n_cells = self.cell_count(self.bins_per_dim, self.box.dim)
        bin_widths = self.box.widths / self.bins_per_dim
        bin_widths.setflags(write=False)
        cell_volume = float(np.prod(bin_widths))
        object.__setattr__(self, "bin_widths", bin_widths)
        object.__setattr__(self, "cell_volume", cell_volume)
        object.__setattr__(self, "floor_eps", 1e-10 / cell_volume)
        object.__setattr__(self, "n_cells", n_cells)

    @staticmethod
    def cell_count(bins_per_dim: int, dim: int) -> int:
        """Cells of a grid of this shape; fewer than 2 bins per axis, or more
        than ``MAX_TOTAL_BINS`` cells, raise ``ValueError``."""
        if bins_per_dim < 2:
            raise ValueError("bins_per_dim must be >= 2")
        n_cells = bins_per_dim**dim
        if n_cells > MAX_TOTAL_BINS:
            raise ValueError(f"grid of {n_cells} bins exceeds the {MAX_TOTAL_BINS} bin budget")
        return n_cells

    @property
    def dim(self) -> int:
        return self.box.dim

    def centers(self) -> np.ndarray:
        """Cell centers (n_cells, dim), in flat-index order."""
        axes = [
            self.box.low[a] + (np.arange(self.bins_per_dim) + 0.5) * self.bin_widths[a]
            for a in range(self.dim)
        ]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.column_stack([g.ravel() for g in grids])

    def count(self, slots: np.ndarray) -> np.ndarray:
        """Points per slot of a ``bin_points`` result on this grid: one count
        per cell, then the outside slot's."""
        return np.bincount(slots, minlength=self.n_cells + 1)

    @functools.cached_property
    def neighbour_slots(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per axis, the slot of each slot's neighbour below and above along
        it, as two read-only arrays over the cells and the outside slot: the
        next cell on that side, or the outside slot beyond the grid. The
        outside slot is its own neighbour on both sides. Built on first use."""
        b, n_cells = self.bins_per_dim, self.n_cells
        cells = np.arange(n_cells).reshape((b,) * self.dim)
        pairs = []
        for a in range(self.dim):
            lower = (slice(None),) * a + (slice(None, -1),)
            upper = (slice(None),) * a + (slice(1, None),)
            below, above = np.full(n_cells + 1, n_cells), np.full(n_cells + 1, n_cells)
            below[:-1].reshape(cells.shape)[upper] = cells[lower]
            above[:-1].reshape(cells.shape)[lower] = cells[upper]
            below.setflags(write=False)
            above.setflags(write=False)
            pairs.append((below, above))
        return tuple(pairs)


def bin_points(grid: Grid, pts) -> np.ndarray:
    """Table slot of each of ``pts`` (n, d) on ``grid``: the C-order flat
    cell for points in the box, ``grid.n_cells`` (the outside slot of a
    per-cell table) for the rest. A coordinate on the upper face counts as
    inside, in the last cell. This is the one binning routine: histogram
    lookup and fitting index through it, and the drift reads its slots.

    Each axis is binned on its own column: numpy arithmetic that broadcasts a
    (d,) vector over (n, d) runs a length-d inner loop per row, many times
    slower than the same operations on one column.
    """
    b, box = grid.bins_per_dim, grid.box
    pts = check_points(pts, grid.dim)
    # A NaN or infinite coordinate casts to an arbitrary integer (numpy warns
    # of it); its point is outside, and the outside slot overwrites its cell.
    with np.errstate(invalid="ignore"):
        for a in range(grid.dim):
            scaled = pts[:, a] - box.low[a]
            scaled /= grid.bin_widths[a]
            inside = scaled >= 0.0
            inside &= scaled <= b
            idx = scaled.astype(np.int64)  # floor for in-box points
            np.minimum(idx, b - 1, out=idx)  # the upper face is in the last cell
            if a == 0:
                flat, in_box = idx, inside
            else:
                flat *= b
                flat += idx
                in_box &= inside
    outside = np.logical_not(in_box, out=in_box)
    np.putmask(flat, outside, grid.n_cells)
    return flat


@dataclass(frozen=True, eq=False)
class HistogramDensity:
    """Piecewise-constant density on ``grid``.

    The value on an occupied cell is count / (total * cell_volume); cells
    below the grid's floor, and any query outside the box, report
    ``grid.floor_eps``. ``total`` counts all points offered to the fit,
    including those that fell outside the box. The read-only ``values`` and
    ``cell_values`` are computed at construction. Compares by identity.
    """

    grid: Grid
    counts: np.ndarray  # flat, length grid.n_cells
    total: int
    values: np.ndarray = field(init=False, repr=False)
    # ``values`` (a view of it) with ``floor_eps`` appended as the outside
    # slot, so a ``bin_points`` slot indexes it directly.
    cell_values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64).ravel()
        grid = self.grid
        if counts.size != grid.n_cells:
            raise ValueError(f"counts must have {grid.n_cells} entries, got {counts.size}")
        if self.total < 1:
            raise ValueError("total must be >= 1")
        if self.total < counts.sum():
            raise ValueError("total must be at least the number of binned points")
        object.__setattr__(self, "counts", counts)
        cell_values = np.empty(grid.n_cells + 1)
        values = cell_values[:-1]
        np.divide(counts, self.total * grid.cell_volume, out=values)
        np.maximum(values, grid.floor_eps, out=values)
        cell_values[-1] = grid.floor_eps
        for arr in (cell_values, values):
            arr.setflags(write=False)
        object.__setattr__(self, "cell_values", cell_values)
        object.__setattr__(self, "values", values)

    @property
    def box(self) -> Box:
        return self.grid.box

    @property
    def binned_fraction(self) -> float:
        return float(self.counts.sum()) / self.total

    def density_at(self, x) -> np.ndarray:
        """Histogram value at each point of x (n, d); floor_eps outside the box."""
        return self.cell_values[bin_points(self.grid, x)]


def fit_histogram(points, grid: Grid) -> HistogramDensity:
    """Count the points (n, d) into ``grid``.

    Points outside the box are dropped from the counts but still included in
    the total, so the histogram integrates to the binned fraction.
    """
    slots = bin_points(grid, points)
    if slots.size == 0:
        raise ValueError("cannot fit a histogram to an empty point list")
    return histogram_from_cells(grid, slots)


def histogram_from_cells(
    grid: Grid, slots: np.ndarray, counted: np.ndarray | None = None
) -> HistogramDensity:
    """Histogram on ``grid`` of the points binned in ``slots`` (a
    ``bin_points`` result on it) and of those already ``counted`` (a
    ``grid.count`` result), all counted together.

    Fitting the pooled points and summing the counts of their parts give the
    same histogram, so parts that never move can be counted once and reused.
    """
    counts = grid.count(slots)
    if counted is not None:
        counts += counted
    return HistogramDensity(grid=grid, counts=counts[: grid.n_cells], total=int(counts.sum()))


def _one_sided_grad(
    h: HistogramDensity, ref: HistogramDensity, field, x, up, slots: np.ndarray
) -> np.ndarray:
    """Random one-bin differences of f = field(h, ref), per coordinate.

    For each coordinate the bit ``up`` (n, d) picks the side, below (0) or
    above (1), and the estimate on axis a is (f(upper cell) - f(lower cell))
    / w_a, with w_a the bin width: the cell of the point and its neighbour on
    the drawn side. The histograms are constant inside a cell, so sub-bin
    steps would see no variation at all, and the difference depends only on
    the cell, the axis and the side. So f is one table over the slots, and
    each axis gets a table of the minus- and plus-side differences of every
    slot, read at the points' ``bin_points`` slots. The neighbours come from
    ``Grid.neighbour_slots``, built once per grid. A neighbour beyond the
    grid reads f's outside (floor) value.

    Two cases follow from reading neighbour cells rather than the cells of
    moved points. A point on a box's upper face lies in the last cell, so its
    inward difference is to the cell below it, not 0. A point outside the
    box differences the outside slot with itself and reads 0 on every axis;
    the flow clamps its particles into the box and never asks for one.
    """
    grid = h.grid
    if not (isinstance(ref, HistogramDensity) and ref.grid == grid):
        raise ValueError("the drift's reference must be a histogram on h's grid")
    n, d = len(slots), grid.dim
    if np.shape(x) != (n, d):
        raise ValueError(f"points have shape {np.shape(x)}, expected ({n}, {d}) on h's grid")
    if np.shape(up) != (n, d):
        raise ValueError(f"side bits have shape {np.shape(up)}, expected ({n}, {d})")
    f = field(h.cell_values, ref.cell_values)
    at = 2 * slots
    grad = np.empty((n, d))
    tab = np.empty((f.size, 2))  # per slot: its minus- and plus-side difference
    for a, (width, (below, above)) in enumerate(zip(grid.bin_widths, grid.neighbour_slots)):
        np.subtract(f, f[below], out=tab[:, 0])
        np.subtract(f[above], f, out=tab[:, 1])
        tab /= width
        grad[:, a] = tab.ravel()[at + up[:, a]]
    return grad


def side_bits(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Finite-difference sides for the two mobile families: a (2, *shape)
    array of 0/1 bits from one raw draw of ``rng``.

    For a PCG64 generator holding no buffered 32-bit half-word, such as the
    fresh one each step of ``flow.run`` uses, these are the bits of two
    ``rng.integers(0, 2, size=shape)`` draws, and ``rng`` is left in the
    same state. Those draws take 32-bit values, the low half of each 64-bit
    word and then its high half, and at range 2 Lemire's method never
    rejects and returns a value's top bit; the raw words read as
    little-endian 32-bit halves and shifted right by 31 are the same bits.
    """
    bits = rng.bit_generator.random_raw(math.prod(shape)).view("<u4")
    bits >>= 31
    return bits.reshape((2, *shape))


def grad_log_ratio_forward(
    h: HistogramDensity, ref: HistogramDensity, x, up, slots: np.ndarray
) -> np.ndarray:
    """Stochastic finite-difference estimate of grad log(h / ref) at the
    points x (n, d), whose slots are ``bin_points(h.grid, x)``,
    with the sides ``up`` (n, d) of 0/1 bits (one family of ``side_bits``).

    ``ref`` must be a histogram on h's grid; anything else raises
    ``ValueError``. This is the drift field of the divergence penalty that
    integrates the flowing density against the log ratio.
    """
    return _one_sided_grad(h, ref, lambda hv, rv: np.log(hv / rv), x, up, slots)


def grad_log_ratio_reverse(
    h: HistogramDensity, ref: HistogramDensity, x, up, slots: np.ndarray
) -> np.ndarray:
    """Stochastic finite-difference drift for the reversed divergence.

    The first variation of the reversed penalty (reference against flowing
    density) with respect to the density is -ref/h, so the same one-sided
    differencing is applied to f = -ref / h. Arguments as for
    ``grad_log_ratio_forward``.
    """
    return _one_sided_grad(h, ref, lambda hv, rv: -rv / hv, x, up, slots)


def reference_at_centers(grid: Grid, ref) -> np.ndarray:
    """Values of ``ref`` (anything with ``density_at``) at the cell centers of
    ``grid``, in flat-index order, floored at its floor."""
    return np.maximum(ref.density_at(grid.centers()), grid.floor_eps)


def kl_estimate(p_hist: HistogramDensity, q: np.ndarray) -> float:
    """Plug-in KL divergence of the histogram against a reference density.

    Midpoint rule on the histogram grid: sum over occupied bins of
    p log(p / q) * cell_volume, with ``q = reference_at_centers(p_hist.grid,
    ref)`` the floored reference at the bin centers; clamped below at 0.
    """
    p, grid = p_hist.values, p_hist.grid
    occupied = p > grid.floor_eps
    kl = float(np.sum(p[occupied] * np.log(p[occupied] / q[occupied])) * grid.cell_volume)
    return max(kl, 0.0)


def kl_estimate_reverse(p_hist: HistogramDensity, q: np.ndarray) -> float:
    """Plug-in KL of the reference cell values ``q`` against the histogram."""
    p = p_hist.values
    kl = float(np.sum(q * np.log(q / p)) * p_hist.grid.cell_volume)
    return max(kl, 0.0)


def l2_error(p_hist: HistogramDensity, q: np.ndarray) -> float:
    """Squared L2 distance between the histogram and the reference cell values ``q``."""
    return float(np.sum((p_hist.values - q) ** 2) * p_hist.grid.cell_volume)
