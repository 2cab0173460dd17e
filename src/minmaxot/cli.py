"""Experiment runner: reproduces the built-in scenarios, compares the three
divergence-variant methods, and sweeps the semi-analytic validation layer.

Everything is emitted as plot-ready CSV with full round-trip float
formatting; a copy of the fully resolved configuration is written next to
the outputs. Subcommands: run, compare-methods, validate-response.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .density import (
    Grid,
    fit_histogram,
    kl_estimate,
    kl_estimate_reverse,
    l2_error,
    reference_at_centers,
)
from .flow import (
    BOX_PAD_FRACTION,
    FlowDivergedError,
    TrajectoryRecorder,
    frozen_rows,
    interpolant,
    run,
    save_particles_csv,
    save_trajectory_csv,
    write_csv_rows,
)
from .model import (
    METHOD_VARIANTS,
    Box,
    FlowConfig,
    Marginal,
    load_empirical_csv,
    make_gaussian,
    make_mixture,
    make_ring_peak,
    quadratic_cost,
)
from .oracle import gaussian_w2_squared
from .response import ResponseEvaluator, penalty_ode_steps

SCENARIOS = ("gaussian_pair", "ring_to_mixture", "custom_csv")

# The gaussian_pair scenario: N(mean, cov) for each mean, one shared cov.
GAUSS_MEANS = ((0.4, 0.4), (0.6, 0.6))
GAUSS_COV = 0.02 * np.eye(2)
GAUSS_COV.setflags(write=False)


@dataclass
class ExperimentSpec:
    """A fully resolved experiment: scenario, method, flow config, outputs,
    and the penalty weights, ODE horizon and step, and quadrature nodes of
    ``validate-response``.

    The method is copied into ``flow``. Bad settings raise ``ValueError``
    here, before any command writes a file.
    """

    scenario: str
    method: str
    flow: FlowConfig
    outputs: Path
    snapshot_steps: tuple[int, ...] = ()
    interpolant_s_values: tuple[float, ...] = (0.25, 0.5, 0.75)
    lambda_grid: tuple[float, ...] = (0.05, 0.1, 0.5, 1.0, 5.0)
    ode_horizon: float = 100.0
    ode_dt: float = 0.25
    quad_nodes: int = 56
    mu_csv: str | None = None
    nu_csv: str | None = None

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        self.flow = dataclasses.replace(self.flow, method=self.method)
        if any(not 0.0 <= s <= 1.0 for s in self.interpolant_s_values):
            raise ValueError("interpolant s values must lie in [0, 1]")
        if any(not 0 <= k <= self.flow.steps for k in self.snapshot_steps):
            raise ValueError("snapshot steps must lie within [0, steps]")
        if not self.lambda_grid or not all(
            lam > 0 and math.isfinite(lam) for lam in self.lambda_grid
        ):
            raise ValueError(
                f"lambda_grid must list finite positive weights, got {_fmt(self.lambda_grid)!r}"
            )
        penalty_ode_steps(self.ode_horizon, self.ode_dt)
        self.outputs = Path(self.outputs)


def scenario_marginals(spec: ExperimentSpec) -> tuple[Marginal, Marginal]:
    if spec.scenario == "gaussian_pair":
        return tuple(make_gaussian(mean, GAUSS_COV) for mean in GAUSS_MEANS)
    if spec.scenario == "ring_to_mixture":
        mu = make_ring_peak()
        parts = [
            (0.25, make_gaussian([sx * 0.85, sy * 0.85], 0.02 * np.eye(2)))
            for sx in (-1.0, 1.0)
            for sy in (-1.0, 1.0)
        ]
        return mu, make_mixture(parts)
    if spec.mu_csv is None or spec.nu_csv is None:
        raise ValueError("custom_csv scenario needs mu_csv and nu_csv paths")
    return load_empirical_csv(spec.mu_csv), load_empirical_csv(spec.nu_csv)


# Tuned defaults per scenario; flags and config files override them.
_SCENARIO_FLOW_DEFAULTS = {
    "gaussian_pair": {
        "n_pairs": 10_000,
        "dt": 5e-4,
        "steps": 2000,
        "beta": 0.005,
        "lambda0": 4.0,
        "bins_per_dim": 22,
    },
    "ring_to_mixture": {
        "n_pairs": 10_000,
        "dt": 5e-4,
        "steps": 1500,
        "beta": 0.005,
        "lambda0": 4.0,
        "bins_per_dim": 20,
    },
    "custom_csv": {},
}


def resolve_flow_config(scenario: str, config_values: dict, flag_values: dict) -> FlowConfig:
    """Layer flow settings: scenario defaults, then config file, then flags."""
    merged = dict(_SCENARIO_FLOW_DEFAULTS.get(scenario, {}))
    merged.update(config_values)
    merged.update(flag_values)
    return FlowConfig(**merged)


def read_config_file(path) -> dict:
    """Flat key = value text; '#' starts a comment; keys are setting names."""
    values: dict = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line (expected key = value): {raw!r}")
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip()
    return values


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v)


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v)


# Every setting a flag or a --config file may give, with the parser of its
# text. The flag's dest, the config key and the resolved_config.txt line
# share the name, so a resolved config can be fed back.
_SETTINGS = {f.name: type(f.default) for f in dataclasses.fields(FlowConfig)} | {
    "scenario": str,
    "out": str,
    "mu_csv": str,
    "nu_csv": str,
    "particles": int,
    "snapshot_steps": _ints,
    "interpolant_s_values": _floats,
    "lambda_grid": _floats,
    "ode_horizon": float,
    "ode_dt": float,
    "quad_nodes": int,
}


def _fmt(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_resolved_config(path: Path, spec: ExperimentSpec) -> None:
    """One ``name = value`` line per setting, the scenario and method first;
    unset sample files are left out."""
    settings = {"scenario": spec.scenario, "method": spec.method}
    settings |= {f.name: getattr(spec.flow, f.name) for f in dataclasses.fields(FlowConfig)}
    settings |= {
        f.name: getattr(spec, f.name)
        for f in dataclasses.fields(ExperimentSpec)
        if f.name not in ("flow", "outputs")
    }
    lines = [f"{name} = {_fmt(v)}" for name, v in settings.items() if v is not None]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _save_csv(path: Path, header: str, rows, **affixes) -> None:
    """A header line, then ``write_csv_rows(rows, **affixes)``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        write_csv_rows(fh, rows, **affixes)


def cmd_run(spec: ExperimentSpec) -> int:
    """Execute the flow and write trajectory, snapshots, interpolants, summary."""
    mu, nu = scenario_marginals(spec)
    cost = quadratic_cost()
    cfg = spec.flow
    # An over-budget grid stops the command before it writes any file.
    Grid.cell_count(cfg.bins_per_dim, max(mu.dim, nu.dim))

    out = spec.outputs
    out.mkdir(parents=True, exist_ok=True)
    write_resolved_config(out / "resolved_config.txt", spec)

    requested = tuple(spec.snapshot_steps)
    recorder = TrajectoryRecorder(snapshot_steps=tuple(set(requested) | {cfg.steps}))
    started = time.perf_counter()
    try:
        traj = run(mu, nu, cost, cfg, recorder=recorder)
    except FlowDivergedError as err:
        if err.trajectory is not None:
            save_trajectory_csv(out / "trajectory.csv", err.trajectory)
        print(f"error: {err}", file=sys.stderr)
        return 1
    wall = time.perf_counter() - started

    save_trajectory_csv(out / "trajectory.csv", traj)
    snapshot_steps = sorted(set(requested))
    # The frozen families are the same floats in every snapshot: format them once.
    frozen = frozen_rows(traj.snapshots[snapshot_steps[0]]) if snapshot_steps else None
    for k in snapshot_steps:
        save_particles_csv(out / f"particles_step{k}.csv", traj.snapshots[k], frozen)
    last = traj.snapshots[cfg.steps]
    for s in spec.interpolant_s_values:
        pts = interpolant(last, s)
        header = ",".join(f"x_{a + 1}" for a in range(pts.shape[1]))
        _save_csv(out / f"interpolant_s{_fmt(float(s))}.csv", header, pts)
    final = traj.final_row()
    _save_csv(
        out / "summary.csv",
        "cost,lambda,kl1,kl2,l2_mu,l2_nu,wall_clock_seconds,seed",
        [[final[k] for k in ("cost", "lambda", "kl1", "kl2", "l2_mu", "l2_nu")] + [wall]],
        suffix=f",{cfg.seed}",
    )
    return 0


def cmd_compare_methods(spec: ExperimentSpec) -> int:
    """Run methods I, II, III with a shared seed; tabulate marginal errors."""
    mu, nu = scenario_marginals(spec)
    if mu.kind != "analytic" or nu.kind != "analytic":
        print("error: compare-methods needs an analytic scenario", file=sys.stderr)
        return 1
    Grid.cell_count(spec.flow.bins_per_dim, max(mu.dim, nu.dim))
    cost = quadratic_cost()
    out = spec.outputs
    out.mkdir(parents=True, exist_ok=True)
    write_resolved_config(out / "resolved_config.txt", spec)

    rows = []
    for method in METHOD_VARIANTS:
        cfg = dataclasses.replace(spec.flow, method=method)
        recorder = TrajectoryRecorder(snapshot_steps=(cfg.steps,))
        try:
            traj = run(mu, nu, cost, cfg, recorder=recorder)
        except FlowDivergedError as err:
            print(f"error: method {method}: {err}", file=sys.stderr)
            return 1
        last = traj.snapshots[cfg.steps]
        rows.append(marginal_error_table(last, mu, nu, cfg.bins_per_dim))
    _save_csv(
        out / "methods.csv", "method,l2_error,kl,reverse_kl,total_kl", rows,
        prefix=list(METHOD_VARIANTS),
    )
    return 0


def marginal_error_table(ps, mu: Marginal, nu: Marginal, bins_per_dim: int):
    """Final-state marginal errors: summed L2, forward KL, reverse KL, total."""

    def errors(points, ref):
        grid = Grid(Box.hull([points], BOX_PAD_FRACTION), bins_per_dim)
        rho = fit_histogram(points, grid)
        q = reference_at_centers(grid, ref)
        return l2_error(rho, q), kl_estimate(rho, q), kl_estimate_reverse(rho, q)

    l2, kl, rkl = (a + b for a, b in zip(errors(ps.pooled_x(), mu), errors(ps.pooled_y(), nu)))
    return l2, kl, rkl, kl + rkl


def cmd_validate_response(spec: ExperimentSpec) -> int:
    """Sweep the semi-analytic layer and integrate the penalty ODE.

    Writes response_report.csv with, per penalty weight: the partition
    function, the marginal-KL sum V, its derivative by formula and by finite
    difference, the value -lam log Z, the residual |d(-lam log Z)/dlam - V|,
    and the exp(-c*/lam) <= Z lower-bound indicator, for each weight of
    ``spec.lambda_grid``. The ODE trace from ``lambda0`` goes to
    ode_trace.csv with its sqrt-growth bound margin.
    """
    mu, nu = scenario_marginals(spec)
    if mu.kind != "analytic" or nu.kind != "analytic":
        print("error: validate-response needs an analytic scenario", file=sys.stderr)
        return 1
    cost = quadratic_cost()
    ev = ResponseEvaluator(mu, nu, cost, quad_nodes_per_dim=spec.quad_nodes)
    c_star = _scenario_optimal_cost(spec, mu, nu, cost)

    out = spec.outputs
    out.mkdir(parents=True, exist_ok=True)
    write_resolved_config(out / "resolved_config.txt", spec)

    rows, bound_ok = [], []
    for lam in spec.lambda_grid:
        z = ev.partition_function(lam)
        v = ev.marginal_kl_sum(lam)
        dv = ev.marginal_kl_sum_derivative(lam)
        h = 1e-4 * lam
        dv_fd = (ev.marginal_kl_sum(lam + h) - ev.marginal_kl_sum(lam - h)) / (2 * h)
        e_d = ev.best_response_energy(lam)
        ed_fd = (ev.best_response_energy(lam + h) - ev.best_response_energy(lam - h)) / (2 * h)
        rows.append((lam, z, v, dv, dv_fd, e_d, abs(ed_fd - v)))
        bound_ok.append(str(bool(np.exp(-c_star / lam) <= z)))
    _save_csv(
        out / "response_report.csv",
        "lambda,Z,V,dV_dlambda,dV_dlambda_fd,E_d,danskin_residual,z_lower_bound_ok",
        rows,
        suffix=bound_ok,
    )

    lambda0 = spec.flow.lambda0
    trace = ev.solve_penalty_ode(lambda0, spec.ode_horizon, spec.ode_dt)
    bound = np.sqrt(2.0 * (c_star * trace[:, 0] + lambda0**2 / 2.0))
    _save_csv(
        out / "ode_trace.csv",
        "t,lambda,V,growth_bound,bound_margin",
        np.column_stack([trace, bound, bound - trace[:, 1]]),
    )
    return 0


def _scenario_optimal_cost(spec: ExperimentSpec, mu, nu, cost) -> float:
    if spec.scenario == "gaussian_pair":
        return gaussian_w2_squared(GAUSS_MEANS[0], GAUSS_COV, GAUSS_MEANS[1], GAUSS_COV)
    # Exact discrete surrogate on a moderate sample for non-Gaussian scenarios.
    from .oracle import discrete_ot

    rng = np.random.default_rng(0)
    xs = mu.sample(512, rng)
    ys = nu.sample(512, rng)
    return discrete_ot(xs, ys, cost).cost


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minmaxot",
        description="Particle min-max solver for optimal transport plans",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def setting(p, flag, dest=None, **kwargs):
        """A flag that sets the named setting, parsed by its table entry."""
        dest = dest or flag[2:].replace("-", "_")
        p.add_argument(flag, dest=dest, type=_SETTINGS[dest], **kwargs)

    def add_common(p):
        p.add_argument("--config", help="key = value config file")
        setting(p, "--scenario", choices=SCENARIOS)
        setting(p, "--method", choices=tuple(METHOD_VARIANTS))
        setting(p, "--out", help="output directory")
        for flag in ("--seed", "--steps", "--dt", "--beta", "--lambda0"):
            setting(p, flag)
        setting(p, "--particles", help="total particle pairs over both families (must be even)")
        setting(p, "--bins", "bins_per_dim", help="bins per grid dimension")
        setting(p, "--mu-csv")
        setting(p, "--nu-csv")

    p_run = sub.add_parser("run", help="run one experiment")
    add_common(p_run)
    setting(p_run, "--snapshot-steps", help="comma-separated step indices")
    setting(
        p_run, "--interpolant-s", "interpolant_s_values",
        help="comma-separated s values (default 0.25,0.5,0.75)",
    )

    p_cmp = sub.add_parser("compare-methods", help="run methods I, II, III with one seed")
    add_common(p_cmp)

    p_val = sub.add_parser("validate-response", help="sweep the semi-analytic layer")
    add_common(p_val)
    setting(p_val, "--lambda-grid", help="comma-separated penalty weights")
    setting(p_val, "--ode-horizon", help="end time of the penalty ODE")
    setting(p_val, "--ode-dt", help="RK4 step of the penalty ODE")
    setting(p_val, "--quad-nodes", help="Gauss-Legendre nodes per axis")
    return parser


def _spec_from_args(args) -> ExperimentSpec:
    """Lay the flags over the --config values and build the experiment."""
    text = read_config_file(args.config) if args.config else {}
    unknown = sorted(set(text) - set(_SETTINGS))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    if {"particles", "n_pairs"} <= text.keys():
        raise ValueError(f"{args.config} gives both particles and n_pairs; give one of them")
    values = {}
    for key, val in text.items():
        try:
            values[key] = _SETTINGS[key](val)
        except ValueError as err:
            raise ValueError(f"bad value for {key} in {args.config}: {val!r} ({err})") from err
    values.update((k, v) for k, v in vars(args).items() if k in _SETTINGS and v is not None)
    if "particles" in values:
        total = values.pop("particles")
        if total % 2 != 0:
            raise ValueError("particles counts both families and must be even")
        values["n_pairs"] = total // 2
    scenario = values.pop("scenario", "gaussian_pair")
    flow_values = {
        f.name: values.pop(f.name) for f in dataclasses.fields(FlowConfig) if f.name in values
    }
    flow = resolve_flow_config(scenario, flow_values, {})
    return ExperimentSpec(
        scenario=scenario,
        method=flow.method,
        flow=flow,
        outputs=Path(values.pop("out", "minmaxot_out")),
        **values,
    )


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        spec = _spec_from_args(args)
        if args.command == "run":
            return cmd_run(spec)
        if args.command == "compare-methods":
            return cmd_compare_methods(spec)
        return cmd_validate_response(spec)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
