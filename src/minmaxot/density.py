"""Voxel (binning) density estimation and the divergence estimators built on it.

The histogram is the workhorse density view of a particle cloud: counts over a
regular grid, normalized by the total point count and cell volume, floored at
a small positive value so logarithms stay finite. A fit costs one linear pass
over the points plus one pass over the bins.

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
differences from neighbour slots built once per grid shape, and the drift
reads it at the particles' slots.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .model import Box, check_points

MAX_TOTAL_BINS = 10_000_000


def bin_points(box: Box, bins_per_dim: int, pts) -> np.ndarray:
    """Table slot of each of ``pts`` (n, d) on the regular grid over ``box``:
    the C-order flat cell for points in the box, ``bins_per_dim ** dim`` (the
    outside slot of a per-cell table) for the rest. A coordinate on the upper
    face counts as inside, in the last cell. This is the one binning routine:
    histogram lookup and fitting index through it, and the drift reads its
    slots.

    Each axis is binned on its own column: numpy arithmetic that broadcasts a
    (d,) vector over (n, d) runs a length-d inner loop per row, many times
    slower than the same operations on one column.
    """
    b, d = bins_per_dim, box.dim
    pts = check_points(pts, d)
    steps = box.widths / b
    # A NaN or infinite coordinate casts to an arbitrary integer (numpy warns
    # of it); its point is outside, and the outside slot overwrites its cell.
    with np.errstate(invalid="ignore"):
        for a in range(d):
            scaled = pts[:, a] - box.low[a]
            scaled /= steps[a]
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
    np.putmask(flat, outside, b**d)
    return flat


@dataclass(frozen=True)
class HistogramDensity:
    """Piecewise-constant density on a regular grid over ``box``.

    The value on an occupied cell is count / (total * cell_volume); cells
    below the floor, and any query outside the box, report ``floor_eps``.
    ``total`` counts all points offered to the fit, including those that fell
    outside the box. The grid's ``bin_widths``, ``cell_volume``, ``floor_eps``
    and the cell values are computed once, at construction; ``values`` and
    ``cell_values()`` are read-only.
    """

    box: Box
    bins_per_dim: int
    counts: np.ndarray  # flat, length bins_per_dim ** dim
    total: int
    values: np.ndarray = field(init=False, repr=False)
    bin_widths: np.ndarray = field(init=False, repr=False)
    cell_volume: float = field(init=False, repr=False)
    # Contributes at most 1e-10 mass per bin while keeping logs finite.
    floor_eps: float = field(init=False, repr=False)
    # ``values`` with ``floor_eps`` appended; ``values`` is a view of it.
    _cell_values: np.ndarray = field(init=False, repr=False)

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
        bin_widths = self.box.widths / self.bins_per_dim
        bin_widths.setflags(write=False)
        cell_volume = float(np.prod(bin_widths))
        floor_eps = 1e-10 / cell_volume
        object.__setattr__(self, "bin_widths", bin_widths)
        object.__setattr__(self, "cell_volume", cell_volume)
        object.__setattr__(self, "floor_eps", floor_eps)
        cell_values = np.empty(expected + 1)
        values = cell_values[:-1]
        np.divide(counts, self.total * cell_volume, out=values)
        np.maximum(values, floor_eps, out=values)
        cell_values[-1] = floor_eps
        for arr in (cell_values, values):
            arr.setflags(write=False)
        object.__setattr__(self, "_cell_values", cell_values)
        object.__setattr__(self, "values", values)

    @property
    def dim(self) -> int:
        return self.box.dim

    @property
    def binned_fraction(self) -> float:
        return float(self.counts.sum()) / self.total

    def density_at(self, x) -> np.ndarray:
        """Histogram value at each point of x (n, d); floor_eps outside the box."""
        return self._cell_values[bin_points(self.box, self.bins_per_dim, x)]

    def cell_values(self) -> np.ndarray:
        """Per-cell values with ``floor_eps`` appended as the outside slot, so
        a ``bin_points`` slot indexes it directly (read-only)."""
        return self._cell_values


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
    """Count the points (n, d) into a regular grid over ``box``.

    Points outside the box are dropped from the counts but still included in
    the total, so the histogram integrates to the binned fraction.
    """
    if bins_per_dim < 2:
        raise ValueError("bins_per_dim must be >= 2")
    n_bins = bins_per_dim**box.dim
    if n_bins > MAX_TOTAL_BINS:
        raise ValueError(
            f"grid of {n_bins} bins exceeds the {MAX_TOTAL_BINS} bin budget"
        )
    slots = bin_points(box, bins_per_dim, points)
    if slots.size == 0:
        raise ValueError("cannot fit a histogram to an empty point list")
    return histogram_from_cells(box, bins_per_dim, slots)


def count_slots(box: Box, bins_per_dim: int, slots: np.ndarray) -> np.ndarray:
    """Points per slot of a ``bin_points`` result on this grid: one count per
    cell, then the outside slot's."""
    return np.bincount(slots, minlength=bins_per_dim**box.dim + 1)


def histogram_from_cells(
    box: Box, bins_per_dim: int, *slots: np.ndarray, counted: np.ndarray | None = None
) -> HistogramDensity:
    """Histogram over ``box`` of the points binned in ``slots`` (one or more
    ``bin_points`` results on this grid) and of those already ``counted``
    (a ``count_slots`` result on this grid), all counted together.

    Fitting the pooled points and summing the counts of their parts give the
    same histogram, so parts that never move can be counted once and reused.
    """
    n_bins = bins_per_dim**box.dim
    counts = sum(
        (count_slots(box, bins_per_dim, s) for s in slots), 0 if counted is None else counted
    )
    return HistogramDensity(
        box=box, bins_per_dim=bins_per_dim, counts=counts[:n_bins], total=int(counts.sum())
    )


def _check_same_grid(h: HistogramDensity, ref) -> None:
    if not (
        isinstance(ref, HistogramDensity)
        and ref.bins_per_dim == h.bins_per_dim
        and (
            ref.box is h.box
            or (
                np.array_equal(ref.box.low, h.box.low)
                and np.array_equal(ref.box.high, h.box.high)
            )
        )
    ):
        raise ValueError("the drift's reference must be a histogram on h's grid")


# A run's two grids share one shape; the bound keeps the arrays of large
# grids from piling up across shapes.
@functools.lru_cache(maxsize=2)
def _neighbour_slots(bins_per_dim: int, dim: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per axis, the slot of each slot's neighbour below and above along it,
    as two read-only arrays over the ``bins_per_dim ** dim`` cells and the
    outside slot: the next cell on that side, or the outside slot beyond the
    grid. The outside slot is its own neighbour on both sides."""
    b = bins_per_dim
    n_cells = b**dim
    cells = np.arange(n_cells).reshape((b,) * dim)
    pairs = []
    for a in range(dim):
        lower = (slice(None),) * a + (slice(None, -1),)
        upper = (slice(None),) * a + (slice(1, None),)
        below, above = np.full(n_cells + 1, n_cells), np.full(n_cells + 1, n_cells)
        below[:-1].reshape(cells.shape)[upper] = cells[lower]
        above[:-1].reshape(cells.shape)[lower] = cells[upper]
        below.setflags(write=False)
        above.setflags(write=False)
        pairs.append((below, above))
    return tuple(pairs)


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
    ``_neighbour_slots``, built once per grid shape. A neighbour beyond the
    grid reads f's outside (floor) value.

    Two cases follow from reading neighbour cells rather than the cells of
    moved points. A point on a box's upper face lies in the last cell, so its
    inward difference is to the cell below it, not 0. A point outside the
    box differences the outside slot with itself and reads 0 on every axis;
    the flow clamps its particles into the box and never asks for one.
    """
    _check_same_grid(h, ref)
    n, d = len(slots), h.dim
    if np.shape(x) != (n, d):
        raise ValueError(f"points have shape {np.shape(x)}, expected ({n}, {d}) on h's grid")
    if np.shape(up) != (n, d):
        raise ValueError(f"side bits have shape {np.shape(up)}, expected ({n}, {d})")
    f = field(h.cell_values(), ref.cell_values())
    at = 2 * slots
    grad = np.empty((n, d))
    tab = np.empty((f.size, 2))  # per slot: its minus- and plus-side difference
    for a, (width, (below, above)) in enumerate(
        zip(h.bin_widths, _neighbour_slots(h.bins_per_dim, d))
    ):
        np.subtract(f, f[below], out=tab[:, 0])
        np.subtract(f[above], f, out=tab[:, 1])
        tab /= width
        grad[:, a] = tab.ravel()[at + up[:, a]]
    return grad


def _log_ratio(hv, rv):
    return np.log(hv / rv)


def _neg_ratio(hv, rv):
    return -rv / hv


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
    points x (n, d), whose slots are ``bin_points(h.box, h.bins_per_dim, x)``,
    with the sides ``up`` (n, d) of 0/1 bits (one family of ``side_bits``).

    ``ref`` must be a histogram on h's grid; anything else raises
    ``ValueError``. This is the drift field of the divergence penalty that
    integrates the flowing density against the log ratio.
    """
    return _one_sided_grad(h, ref, _log_ratio, x, up, slots)


def grad_log_ratio_reverse(
    h: HistogramDensity, ref: HistogramDensity, x, up, slots: np.ndarray
) -> np.ndarray:
    """Stochastic finite-difference drift for the reversed divergence.

    The first variation of the reversed penalty (reference against flowing
    density) with respect to the density is -ref/h, so the same one-sided
    differencing is applied to f = -ref / h. Arguments as for
    ``grad_log_ratio_forward``.
    """
    return _one_sided_grad(h, ref, _neg_ratio, x, up, slots)


def reference_at_centers(h: HistogramDensity, ref) -> np.ndarray:
    """Values of ``ref`` (anything with ``density_at``) at the cell centers of
    h's grid, in flat-index order, floored at h's floor."""
    return np.maximum(ref.density_at(grid_centers(h.box, h.bins_per_dim)), h.floor_eps)


def kl_estimate(p_hist: HistogramDensity, q: np.ndarray) -> float:
    """Plug-in KL divergence of the histogram against a reference density.

    Midpoint rule on the histogram grid: sum over occupied bins of
    p log(p / q) * cell_volume, with ``q = reference_at_centers(p_hist, ref)``
    the floored reference at the bin centers; clamped below at 0.
    """
    p = p_hist.values
    occupied = p > p_hist.floor_eps
    kl = float(np.sum(p[occupied] * np.log(p[occupied] / q[occupied])) * p_hist.cell_volume)
    return max(kl, 0.0)


def kl_estimate_reverse(p_hist: HistogramDensity, q: np.ndarray) -> float:
    """Plug-in KL of the reference cell values ``q`` against the histogram."""
    p = p_hist.values
    kl = float(np.sum(q * np.log(q / p)) * p_hist.cell_volume)
    return max(kl, 0.0)


def l2_error(p_hist: HistogramDensity, q: np.ndarray) -> float:
    """Squared L2 distance between the histogram and the reference cell values ``q``."""
    return float(np.sum((p_hist.values - q) ** 2) * p_hist.cell_volume)
