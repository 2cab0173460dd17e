"""Domain types: marginal distributions, cost functions, flow configuration.

Marginals are probability measures on R^d, either analytic (with a density
and a sampler) or empirical (a bag of sample points).
All objects here are immutable after construction and safe to share between
threads; samplers take an explicit ``numpy.random.Generator``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np


@dataclass(frozen=True)
class Box:
    """Axis-aligned box [low_i, high_i] in R^d. ``widths`` (high - low,
    read-only) is computed once, at construction."""

    low: np.ndarray
    high: np.ndarray
    widths: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        low = np.atleast_1d(np.asarray(self.low, dtype=float))
        high = np.atleast_1d(np.asarray(self.high, dtype=float))
        if low.shape != high.shape or low.ndim != 1 or low.size == 0:
            raise ValueError("box bounds must be non-empty 1-D arrays of equal length")
        if not np.all(np.isfinite(low)) or not np.all(np.isfinite(high)):
            raise ValueError("box bounds must be finite")
        if np.any(high <= low):
            raise ValueError("box must have positive extent along every axis")
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "high", high)
        widths = high - low
        widths.setflags(write=False)
        object.__setattr__(self, "widths", widths)

    @property
    def dim(self) -> int:
        return self.low.size

    def union(self, other: "Box") -> "Box":
        return Box(np.minimum(self.low, other.low), np.maximum(self.high, other.high))

    @classmethod
    def hull(cls, arrays: Sequence[np.ndarray], pad_fraction: float) -> "Box":
        """Bounding box of the stacked (n, d) point arrays, widened on each
        side by ``pad_fraction`` of its span per axis (spans floored at 1e-9,
        so coincident points still give a box)."""
        stacked = np.vstack([check_points(a) for a in arrays])
        lo, hi = stacked.min(axis=0), stacked.max(axis=0)
        span = np.maximum(hi - lo, 1e-9)
        pad = pad_fraction * span
        return cls(lo - pad, hi + pad)


def check_points(x, dim: int | None = None) -> np.ndarray:
    """``x`` as a float (n, d) array of points, one per row, with d = ``dim``
    when it is given. Any other shape raises ``ValueError`` naming the
    expected one; a flat array is not read as one point."""
    pts = np.asarray(x, dtype=float)
    if pts.ndim != 2 or (dim is not None and pts.shape[1] != dim):
        expected = f"(n, {'d' if dim is None else dim})"
        raise ValueError(f"points must be an {expected} array, got shape {pts.shape}")
    return pts


@dataclass(frozen=True)
class Marginal:
    """A probability measure on R^d.

    For analytic marginals, ``density_at`` takes an (n, d) batch and returns
    one density per row. Empirical marginals carry only raw samples; any
    density view of them comes from a fitted histogram.
    """

    kind: str  # "analytic" | "empirical"
    dim: int
    support_box: Box
    _density: Callable | None = field(default=None, repr=False)
    _sampler: Callable | None = field(default=None, repr=False)
    samples: np.ndarray | None = None

    def density_at(self, x):
        if self._density is None:
            raise ValueError(
                "empirical marginal has no analytic density; fit a histogram "
                "from its samples instead"
            )
        return self._density(check_points(x, self.dim))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self._sampler is not None:
            return self._sampler(n, rng)
        if self.samples is not None:
            idx = rng.integers(0, len(self.samples), size=n)
            return self.samples[idx].copy()
        raise ValueError("marginal has neither a sampler nor samples")


@dataclass(frozen=True)
class CostFunction:
    """Transport cost c(x, y) >= 0 with gradients in both arguments.

    ``evaluate``, ``grad_x`` and ``grad_y`` take paired rows of two (n, d)
    arrays and return one cost, or one gradient row, per pair.
    """

    evaluate: Callable
    grad_x: Callable
    grad_y: Callable
    name: str


def quadratic_cost() -> CostFunction:
    """Squared Euclidean cost |x - y|^2."""

    def evaluate(x, y):
        x = check_points(x)
        y = check_points(y, x.shape[1])
        # Summed column by column, in numpy's order for up to 7 axes (from 8 it
        # sums pairwise); a reduction over the short last axis is many times
        # slower than adding columns.
        out = (x[:, 0] - y[:, 0]) ** 2
        for a in range(1, x.shape[1]):
            out += (x[:, a] - y[:, a]) ** 2
        return out

    def grad_x(x, y):
        x = check_points(x)
        return 2.0 * (x - check_points(y, x.shape[1]))

    def grad_y(x, y):
        x = check_points(x)
        return 2.0 * (check_points(y, x.shape[1]) - x)

    return CostFunction(evaluate=evaluate, grad_x=grad_x, grad_y=grad_y, name="quadratic")


def make_gaussian(mean, covariance) -> Marginal:
    """Analytic Gaussian marginal N(mean, covariance).

    The covariance must be symmetric positive definite. The support box is
    mean +/- 6 standard deviations (largest eigenvalue) per axis, which holds
    all but ~1e-9 of the mass.
    """
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    covariance = np.atleast_2d(np.asarray(covariance, dtype=float))
    d = mean.size
    if covariance.shape != (d, d):
        raise ValueError(f"covariance must be {d}x{d}, got {covariance.shape}")
    if not np.allclose(covariance, covariance.T, atol=1e-12):
        raise ValueError("covariance must be symmetric")
    eigvals = np.linalg.eigvalsh(covariance)
    if eigvals.min() <= 0:
        raise ValueError(
            f"covariance is not positive definite (min eigenvalue {eigvals.min():.3e})"
        )

    cov_inv = np.linalg.inv(covariance)
    _, logdet = np.linalg.slogdet(covariance)
    log_norm = -0.5 * (d * np.log(2.0 * np.pi) + logdet)
    chol = np.linalg.cholesky(covariance)
    sigma_max = float(np.sqrt(eigvals.max()))
    box = Box(mean - 6.0 * sigma_max, mean + 6.0 * sigma_max)

    def density(pts):
        z = pts - mean
        quad = np.einsum("ni,ij,nj->n", z, cov_inv, z)
        return np.exp(log_norm - 0.5 * quad)

    def sampler(n, rng):
        out = rng.standard_normal((n, d)) @ chol.T
        out += mean
        return out

    return Marginal(
        kind="analytic",
        dim=d,
        support_box=box,
        _density=density,
        _sampler=sampler,
    )


def make_mixture(components: Sequence[tuple[float, Marginal]]) -> Marginal:
    """Finite mixture of analytic marginals with positive weights summing to 1."""
    if not components:
        raise ValueError("mixture needs at least one component")
    weights = np.array([w for w, _ in components], dtype=float)
    parts = [m for _, m in components]
    if np.any(weights <= 0):
        raise ValueError("mixture weights must be positive")
    if abs(weights.sum() - 1.0) > 1e-12:
        raise ValueError(f"mixture weights must sum to 1, got {weights.sum()!r}")
    d = parts[0].dim
    for m in parts:
        if m.kind != "analytic":
            raise ValueError("mixture components must be analytic marginals")
        if m.dim != d:
            raise ValueError("mixture components must share one dimension")

    box = parts[0].support_box
    for m in parts[1:]:
        box = box.union(m.support_box)

    def density(pts):
        acc = np.zeros(len(pts))
        for w, m in zip(weights, parts):
            acc += w * m._density(pts)
        return acc

    def sampler(n, rng):
        choice = rng.choice(len(parts), size=n, p=weights)
        out = np.empty((n, d))
        for i, m in enumerate(parts):
            rows = np.flatnonzero(choice == i)
            if rows.size:
                draw = m.sample(rows.size, rng)
                for a in range(d):
                    out[rows, a] = draw[:, a]
        return out

    return Marginal(
        kind="analytic",
        dim=d,
        support_box=box,
        _density=density,
        _sampler=sampler,
    )


def _ring_radial_constant(ring_radius: float, ring_width: float) -> float:
    """Normalizer Z_r of exp(-(|x|-r)^2 / (2 s^2)) over R^2, that is
    2 pi int_0^inf u exp(-(u-r)^2 / (2 s^2)) du, in the closed form given in
    ``make_ring_peak``'s docstring."""
    r, s = ring_radius, ring_width
    tail = s * s * math.exp(-r * r / (2.0 * s * s))
    body = r * s * math.sqrt(0.5 * math.pi) * (1.0 + math.erf(r / (s * math.sqrt(2.0))))
    return 2.0 * math.pi * (tail + body)


def make_ring_peak(
    ring_radius: float = 1.0,
    ring_width: float = 0.15,
    peak_weight: float = 0.3,
    peak_std: float = 0.2,
) -> Marginal:
    """Planar density: a Gaussian ridge on the circle |x| = r plus a central peak.

    density(x) = w N(x; 0, s_p^2 I) + (1 - w) Z_r^{-1} exp(-(|x| - r)^2 / (2 s_r^2))

    with the exact ring normalizer
    Z_r = 2 pi [s_r^2 exp(-r^2 / (2 s_r^2)) + r s_r sqrt(pi/2) (1 + erf(r / (s_r sqrt 2)))].
    """
    if ring_radius <= 0 or ring_width <= 0 or peak_std <= 0:
        raise ValueError("ring radius, ring width and peak std must be positive")
    if not 0.0 < peak_weight < 1.0:
        raise ValueError("peak weight must lie in (0, 1)")

    r, s_r, w_p, s_p = ring_radius, ring_width, peak_weight, peak_std
    z_ring = _ring_radial_constant(r, s_r)
    peak_norm = 1.0 / (2.0 * np.pi * s_p**2)
    extent = max(r + 6.0 * s_r, 6.0 * s_p)
    box = Box(np.array([-extent, -extent]), np.array([extent, extent]))
    u_hi = r + 12.0 * s_r

    def _peak(pts):
        return peak_norm * np.exp(-(pts**2).sum(axis=1) / (2.0 * s_p**2))

    def _ring(pts):
        radii = np.sqrt((pts**2).sum(axis=1))
        return np.exp(-((radii - r) ** 2) / (2.0 * s_r**2)) / z_ring

    def density(pts):
        return w_p * _peak(pts) + (1.0 - w_p) * _ring(pts)

    def _sample_radius(n, rng):
        # Rejection on the radius law f(u) ~ u exp(-(u-r)^2 / (2 s_r^2)), u in [0, u_hi].
        out = np.empty(n)
        filled = 0
        while filled < n:
            m = max(2 * (n - filled), 64)
            u = rng.normal(r, s_r, size=m)
            keep = (u > 0.0) & (u < u_hi)
            u = u[keep]
            accept = rng.random(u.size) < u / u_hi
            u = u[accept]
            take = min(u.size, n - filled)
            out[filled : filled + take] = u[:take]
            filled += take
        return out

    def sampler(n, rng):
        from_peak = rng.random(n) < w_p
        out = np.empty((n, 2))
        peak, ring = np.flatnonzero(from_peak), np.flatnonzero(~from_peak)
        if peak.size:
            z = rng.standard_normal((peak.size, 2))
            for a in range(2):
                out[peak, a] = z[:, a] * s_p
        if ring.size:
            radii = _sample_radius(ring.size, rng)
            theta = rng.random(ring.size) * 2.0 * np.pi
            out[ring, 0] = radii * np.cos(theta)
            out[ring, 1] = radii * np.sin(theta)
        return out

    return Marginal(
        kind="analytic",
        dim=2,
        support_box=box,
        _density=density,
        _sampler=sampler,
    )


def make_empirical(samples) -> Marginal:
    """Empirical marginal from raw sample points (n, d)."""
    samples = check_points(samples)
    if samples.shape[0] < 2:
        raise ValueError("empirical marginal needs at least 2 samples")
    if not np.all(np.isfinite(samples)):
        raise ValueError("empirical samples must have finite coordinates")
    box = Box.hull([samples], 0.05)
    return Marginal(kind="empirical", dim=samples.shape[1], support_box=box, samples=samples)


def load_empirical_csv(path) -> Marginal:
    """Load an empirical marginal from CSV: one point per row, no header.

    A file that does not hold such rows, or holds fewer than 2 finite points,
    raises ``ValueError`` naming the file and the cause.
    """
    try:
        with warnings.catch_warnings():
            # An empty file is reported as too few samples, not as a warning.
            warnings.simplefilter("ignore", UserWarning)
            samples = np.loadtxt(path, delimiter=",", ndmin=2)
        return make_empirical(samples)
    except ValueError as err:
        # numpy ends a ragged-row message with advice on its own arguments
        cause = str(err).split("; use `usecols`")[0].rstrip(".")
        raise ValueError(f"cannot read samples from {path}: {cause}") from err


# The paper's three methods: the divergence variant ("forward" KL or
# "reverse" KL) of the drift of the mobile x family and of the mobile y
# family. I is the standard penalty on both, II the reversed one on both,
# III reverses only the family flowing toward the source.
METHOD_VARIANTS = {
    "I": ("forward", "forward"),
    "II": ("reverse", "reverse"),
    "III": ("reverse", "forward"),
}


@dataclass(frozen=True)
class FlowConfig:
    """Hyperparameters of the particle min-max flow.

    One solver step advances particle time by ``dt`` and the penalty weight's
    time by ``beta * dt``; ``noise_std_coeff`` scales the per-step particle
    noise std ``noise_std_coeff * sqrt(dt)``. ``eta_var`` is the variance of
    the pairing perturbation used at initialization. ``beta = 0`` keeps the
    penalty weight at ``lambda0``: the fixed-penalty run. ``method`` names
    the drift's divergence variants (``METHOD_VARIANTS``).
    """

    n_pairs: int = 1000
    dt: float = 5e-4
    beta: float = 0.05
    steps: int = 2000
    noise_std_coeff: float = 0.02
    lambda0: float = 0.1
    eta_var: float = 1e-4
    method: str = "I"
    bins_per_dim: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.n_pairs < 1:
            raise ValueError("n_pairs must be >= 1")
        for name in ("dt", "lambda0", "noise_std_coeff", "eta_var"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError("beta must lie in [0, 1)")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.noise_std_coeff < 0:
            raise ValueError("noise_std_coeff must be >= 0")
        if self.lambda0 <= 0:
            raise ValueError("lambda0 must be positive")
        if self.eta_var < 0:
            raise ValueError("eta_var must be >= 0")
        if self.bins_per_dim < 2:
            raise ValueError("bins_per_dim must be >= 2")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.method not in METHOD_VARIANTS:
            raise ValueError(
                f"method must be one of {', '.join(METHOD_VARIANTS)}, got {self.method!r}"
            )
