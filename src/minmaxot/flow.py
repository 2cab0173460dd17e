"""Particle min-max dynamics: paired-family initialization, the explicit
Euler-Maruyama particle step, the penalty ascent step, and the run loop.

Two families of particle pairs represent the coupling: family 1 freezes its
x side on source samples and moves the y side; family 2 freezes its y side
on target samples and moves the x side. Pooling the x (resp. y) coordinates
of both families gives the flowing first (resp. second) marginal.

The drift's density references are histograms on the same grid as the
flowing marginals, fitted from ``REF_SAMPLE_FACTOR * n_pairs`` draws of an
analytic input or from all the samples of an empirical one; ratios of two
same-grid histograms stay bounded where data exists, which keeps the
finite-difference drift stable. Per-step drift displacement is capped at one
bin width per axis and particles are clamped to the (fixed) estimation box.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np
import numpy.random  # numpy 2 loads it on first use; load it with the package, not in a run

from .density import (
    HistogramDensity,
    bin_points,
    count_slots,
    fit_histogram,
    grad_log_ratio_forward,
    grad_log_ratio_reverse,
    histogram_from_cells,
    kl_estimate,
    l2_error,
    reference_at_centers,
    side_bits,
)
from .model import METHOD_VARIANTS, Box, CostFunction, FlowConfig, Marginal
from .oracle import empirical_coupling_cost

# Input-sample multiple used for the drift's reference histograms.
REF_SAMPLE_FACTOR = 8
BOX_PAD_FRACTION = 0.1


class FlowDivergedError(RuntimeError):
    """A particle update produced a non-finite coordinate."""

    def __init__(self, message: str, trajectory: "Trajectory | None" = None):
        super().__init__(message)
        self.trajectory = trajectory


@dataclass
class ParticleSystem:
    """Four particle families and the current penalty weight.

    x1/y1 is the family with frozen source points, x2/y2 the family with
    frozen target points; ``lam`` is the penalty weight, non-decreasing over
    the run.
    """

    x1: np.ndarray
    y1: np.ndarray
    x2: np.ndarray
    y2: np.ndarray
    lam: float
    step_index: int = 0

    def copy(self) -> "ParticleSystem":
        return ParticleSystem(
            x1=self.x1.copy(),
            y1=self.y1.copy(),
            x2=self.x2.copy(),
            y2=self.y2.copy(),
            lam=self.lam,
            step_index=self.step_index,
        )

    @property
    def n_pairs(self) -> int:
        return len(self.x1)

    def pooled_x(self) -> np.ndarray:
        return np.vstack([self.x1, self.x2])

    def pooled_y(self) -> np.ndarray:
        return np.vstack([self.y1, self.y2])


@dataclass
class Trajectory:
    """Per-step scalar diagnostics plus optional particle snapshots."""

    t: np.ndarray
    lam: np.ndarray
    kl1: np.ndarray
    kl2: np.ndarray
    cost: np.ndarray
    l2_mu: np.ndarray
    l2_nu: np.ndarray
    snapshots: dict[int, ParticleSystem] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.t)

    def final_row(self) -> dict[str, float]:
        return {
            "t": float(self.t[-1]),
            "lambda": float(self.lam[-1]),
            "kl1": float(self.kl1[-1]),
            "kl2": float(self.kl2[-1]),
            "cost": float(self.cost[-1]),
            "l2_mu": float(self.l2_mu[-1]),
            "l2_nu": float(self.l2_nu[-1]),
        }


@dataclass
class TrajectoryRecorder:
    """Collects trajectory rows; ``snapshot_steps`` marks states to copy."""

    snapshot_steps: tuple[int, ...] = ()

    def __post_init__(self):
        self._rows: list[tuple] = []
        self._snapshots: dict[int, ParticleSystem] = {}

    def record(self, t: float, ps: ParticleSystem, kl1, kl2, cost, l2_mu, l2_nu):
        self._rows.append((t, ps.lam, kl1, kl2, cost, l2_mu, l2_nu))
        if ps.step_index in self.snapshot_steps:
            self._snapshots[ps.step_index] = ps.copy()

    def build(self) -> Trajectory:
        rows = np.array(self._rows, dtype=float).reshape(-1, 7)
        return Trajectory(
            t=rows[:, 0],
            lam=rows[:, 1],
            kl1=rows[:, 2],
            kl2=rows[:, 3],
            cost=rows[:, 4],
            l2_mu=rows[:, 5],
            l2_nu=rows[:, 6],
            snapshots=self._snapshots,
        )


def init_particles(mu: Marginal, nu: Marginal, cfg: FlowConfig, rng: np.random.Generator) -> ParticleSystem:
    """Draw paired particles: y1 = x1 + xi and x2 = y2 + xi' with xi ~ N(0, eta I).

    The pairing correlates the two sides at start, which keeps the initial
    coupling cost near zero for translation-like costs.
    """
    if mu.dim != nu.dim:
        raise ValueError(
            f"paired initialization requires equal dimensions, got {mu.dim} and {nu.dim}"
        )
    n = cfg.n_pairs
    scale = np.sqrt(cfg.eta_var)
    x1 = mu.sample(n, rng)
    y1 = x1 + scale * rng.standard_normal((n, mu.dim))
    y2 = nu.sample(n, rng)
    x2 = y2 + scale * rng.standard_normal((n, nu.dim))
    return ParticleSystem(x1=x1, y1=y1, x2=x2, y2=y2, lam=cfg.lambda0, step_index=0)


def _drift_estimator(variant: str):
    # Read from the module's names at each call, so a wrapper bound over them
    # (a profiler's) sees every drift.
    return grad_log_ratio_forward if variant == "forward" else grad_log_ratio_reverse


def _clip_columns(arr: np.ndarray, low: np.ndarray, high: np.ndarray) -> None:
    """Clip each column of ``arr`` (n, d) in place to [low[a], high[a]].

    One call per column with scalar bounds gives the same values as one call
    with (d,) bounds, without numpy's length-d inner loop per row.
    """
    for a in range(arr.shape[1]):
        np.clip(arr[:, a], low[a], high[a], out=arr[:, a])


def step_particles(
    ps: ParticleSystem,
    mu_ref: HistogramDensity,
    nu_ref: HistogramDensity,
    cost: CostFunction,
    cfg: FlowConfig,
    rho1: HistogramDensity,
    rho2: HistogramDensity,
    rng: np.random.Generator,
    x2_slots: np.ndarray,
    y1_slots: np.ndarray,
) -> ParticleSystem:
    """One explicit Euler-Maruyama update of the mobile families.

    ``rho1`` and ``rho2`` must be fitted from the current pooled marginals,
    and ``mu_ref``/``nu_ref`` are the drift's reference histograms on their
    grids. ``x2_slots``/``y1_slots`` are the mobile families' slots on those
    grids (``bin_points``). The frozen families are returned untouched, bit
    for bit. ``rng`` gives, in this order, the drift's sides for x2 and for
    y1 (``side_bits``), then the noise of x2 and of y1.
    """
    dt = cfg.dt
    noise_std = cfg.noise_std_coeff * np.sqrt(dt)

    variant_x, variant_y = METHOD_VARIANTS[cfg.method]
    up_x, up_y = side_bits(rng, ps.x2.shape)
    g_x = _drift_estimator(variant_x)(rho1, mu_ref, ps.x2, up_x, x2_slots)
    g_y = _drift_estimator(variant_y)(rho2, nu_ref, ps.y1, up_y, y1_slots)
    x2 = _advance(ps.x2, cost.grad_x(ps.x2, ps.y2), g_x, ps.lam, dt, rho1, noise_std, rng)
    y1 = _advance(ps.y1, cost.grad_y(ps.x1, ps.y1), g_y, ps.lam, dt, rho2, noise_std, rng)

    for name, arr in (("x2", x2), ("y1", y1)):
        if not np.isfinite(arr).all():
            bad = int(np.flatnonzero(~np.isfinite(arr).all(axis=1))[0])
            raise FlowDivergedError(
                f"non-finite coordinate for particle {bad} of mobile family {name} "
                f"at step {ps.step_index}"
            )

    return ParticleSystem(
        x1=ps.x1, y1=y1, x2=x2, y2=ps.y2, lam=ps.lam, step_index=ps.step_index + 1
    )


def _advance(pos, grad, g, lam, dt, rho: HistogramDensity, noise_std, rng) -> np.ndarray:
    """New positions of one mobile family:
    clip(pos + clip(dt * (-grad - lam * g), -w, w) + noise_std * N, box),
    with w the bin widths and box the estimation box of ``rho``.

    It works in place, on one new array and on ``g``, which the drift made
    for this call alone, and applies the formula's operations to the same
    operands in the same order, so the result is the same to the bit.
    """
    move = np.negative(grad)
    g *= lam
    move -= g
    move *= dt
    # Cap the drift displacement at one bin width per axis: the histogram
    # cannot resolve a ratio beyond its own grid, and floored cells would
    # otherwise fling boundary particles arbitrarily far in one step.
    _clip_columns(move, -rho.bin_widths, rho.bin_widths)
    move += pos
    noise = rng.standard_normal(pos.shape)
    noise *= noise_std
    move += noise
    _clip_columns(move, rho.box.low, rho.box.high)
    return move


def step_lambda(ps: ParticleSystem, kl1: float, kl2: float, cfg: FlowConfig) -> ParticleSystem:
    """Penalty ascent: lam += (beta * dt) * (kl1 + kl2).

    One solver step advances particle time by dt and penalty time by
    beta * dt, reproducing the relative rates of the two-timescale system.
    """
    if kl1 < 0 or kl2 < 0:
        raise ValueError("KL estimates must be clamped nonnegative")
    return ParticleSystem(
        x1=ps.x1,
        y1=ps.y1,
        x2=ps.x2,
        y2=ps.y2,
        lam=ps.lam + cfg.beta * cfg.dt * (kl1 + kl2),
        step_index=ps.step_index,
    )


def _reference_samples(marginal: Marginal, n: int, rng: np.random.Generator) -> np.ndarray:
    if marginal.kind == "empirical":
        return marginal.samples
    return marginal.sample(n, rng)


def interpolant(ps: ParticleSystem, s: float) -> np.ndarray:
    """Displacement interpolant points (1 - s) X + s Y over both families."""
    if not 0.0 <= s <= 1.0:
        raise ValueError("interpolation parameter must lie in [0, 1]")
    return (1.0 - s) * ps.pooled_x() + s * ps.pooled_y()


def run(
    mu: Marginal,
    nu: Marginal,
    cost: CostFunction,
    cfg: FlowConfig,
    recorder: TrajectoryRecorder | None = None,
) -> Trajectory:
    """Run the full min-max particle flow for ``cfg.steps`` steps.

    Each iteration fits the pooled marginal histograms, records diagnostics
    (KL and squared-L2 against the inputs, coupling cost), then advances the
    particles and the penalty weight. The trajectory holds ``steps + 1`` rows
    (the initial state plus one per step). Deterministic for a fixed config:
    all randomness derives from ``cfg.seed``.

    On a non-finite update the partial trajectory is attached to the raised
    ``FlowDivergedError``.
    """
    recorder = recorder or TrajectoryRecorder()
    root = np.random.SeedSequence(cfg.seed)
    init_ss, ref_ss, *step_ss = root.spawn(cfg.steps + 2)

    ps = init_particles(mu, nu, cfg, np.random.default_rng(init_ss))

    # The estimation boxes cover the input samples (the frozen families, plus
    # the raw samples of empirical marginals) and every position the mobile
    # families can reach, and stay fixed for the whole run.
    box_x = Box.hull(
        [ps.x1, ps.x2] + ([mu.samples] if mu.kind == "empirical" else []), BOX_PAD_FRACTION
    )
    box_y = Box.hull(
        [ps.y1, ps.y2] + ([nu.samples] if nu.kind == "empirical" else []), BOX_PAD_FRACTION
    )
    b = cfg.bins_per_dim
    # One marginal's reference samples are alive at a time.
    ref_rng = np.random.default_rng(ref_ss)
    n_ref = REF_SAMPLE_FACTOR * cfg.n_pairs
    mu_ref = fit_histogram(_reference_samples(mu, n_ref, ref_rng), box_x, b)
    nu_ref = fit_histogram(_reference_samples(nu, n_ref, ref_rng), box_y, b)

    # Diagnostics compare against the analytic density when there is one,
    # otherwise against the sample-based reference histogram.
    q_mu = reference_at_centers(mu_ref, mu if mu.kind == "analytic" else mu_ref)
    q_nu = reference_at_centers(nu_ref, nu if nu.kind == "analytic" else nu_ref)

    # The frozen families never move: bin and count them once. The mobile
    # ones are binned once per step, and their slots serve both the fit and
    # the drift.
    x1_counts = count_slots(box_x, b, bin_points(box_x, b, ps.x1))
    y2_counts = count_slots(box_y, b, bin_points(box_y, b, ps.y2))

    try:
        for k in range(cfg.steps + 1):
            x2_slots = bin_points(box_x, b, ps.x2)
            y1_slots = bin_points(box_y, b, ps.y1)
            rho1 = histogram_from_cells(box_x, b, x2_slots, counted=x1_counts)
            rho2 = histogram_from_cells(box_y, b, y1_slots, counted=y2_counts)
            kl1, kl2 = kl_estimate(rho1, q_mu), kl_estimate(rho2, q_nu)
            l2_1, l2_2 = l2_error(rho1, q_mu), l2_error(rho2, q_nu)
            pair_cost = empirical_coupling_cost(ps, cost)
            recorder.record(k * cfg.dt, ps, kl1, kl2, pair_cost, l2_1, l2_2)
            if k == cfg.steps:
                break
            step_rng = np.random.default_rng(step_ss[k])
            ps = step_particles(
                ps, mu_ref, nu_ref, cost, cfg, rho1, rho2, step_rng, x2_slots, y1_slots
            )
            ps = step_lambda(ps, kl1, kl2, cfg)
    except FlowDivergedError as err:
        err.trajectory = recorder.build()
        raise

    return recorder.build()


# Rows formatted per block: bounds the strings held at once, whatever the row count.
CSV_BLOCK_ROWS = 4096


def write_csv_rows(fh, rows, suffix="", prefix="") -> None:
    """Write the rows of a 2-D float array as CSV lines with round-trip float
    formatting (``repr``), each line starting with ``prefix`` and ending in
    ``suffix``.

    ``prefix`` and ``suffix`` are each one string for every line, or a list
    of one string per row (such as columns formatted earlier by
    ``csv_row_strings``), joined to the row's floats by a comma.

    Each block of rows is one ``%`` format of a repeated line template over
    the block's cells and one write: the floats' ``repr`` is then the only
    per-value cost.
    """
    rows = np.asarray(rows, dtype=float)
    n, k = rows.shape
    lead, trail = not isinstance(prefix, str), not isinstance(suffix, str)
    line = (
        ("%s," if lead else prefix.replace("%", "%%"))
        + ",".join(["%r"] * k)
        + (",%s" if trail else suffix.replace("%", "%%"))
        + "\n"
    )
    width = lead + k + trail
    for start in range(0, n, CSV_BLOCK_ROWS):
        stop = start + CSV_BLOCK_ROWS
        block = rows[start:stop]
        if width == k:
            cells = block.ravel().tolist()
        else:
            cells = [None] * (len(block) * width)
            for a in range(k):
                cells[lead + a :: width] = block[:, a].tolist()
            if lead:
                cells[::width] = prefix[start:stop]
            if trail:
                cells[width - 1 :: width] = suffix[start:stop]
        fh.write(line * len(block) % tuple(cells))


def csv_row_strings(rows, suffix: str = "") -> list[str]:
    """The lines ``write_csv_rows`` writes for ``rows``, one string per row,
    without the line end."""
    fh = io.StringIO()
    write_csv_rows(fh, rows, suffix)
    return fh.getvalue().split("\n")[:-1]


def save_trajectory_csv(path, traj: Trajectory) -> None:
    """Write trajectory scalars with full round-trip float formatting."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,lambda,kl1,kl2,cost,l2_mu,l2_nu\n")
        write_csv_rows(
            fh,
            np.column_stack(
                [traj.t, traj.lam, traj.kl1, traj.kl2, traj.cost, traj.l2_mu, traj.l2_nu]
            ),
        )


def frozen_rows(ps: ParticleSystem) -> tuple[list[str], list[str]]:
    """The formatted rows of the frozen families for ``save_particles_csv``:
    x1's, and y2's with their family column. They are the same in every
    snapshot of a run."""
    return csv_row_strings(ps.x1), csv_row_strings(ps.y2, suffix=",2")


def save_particles_csv(path, ps: ParticleSystem, frozen=None) -> None:
    """Write particle pairs: columns x_1..x_d, y_1..y_d, family in {1, 2}.

    ``frozen`` is ``frozen_rows`` of any snapshot of the same run, so that a
    run with several snapshots formats the frozen families once; by default
    they are formatted here.
    """
    x1_rows, y2_rows = frozen_rows(ps) if frozen is None else frozen
    d = ps.x1.shape[1]
    header = ",".join(
        [f"x_{a + 1}" for a in range(d)] + [f"y_{a + 1}" for a in range(d)] + ["family"]
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        write_csv_rows(fh, ps.y1, prefix=x1_rows, suffix=",1")
        write_csv_rows(fh, ps.x2, suffix=y2_rows)
